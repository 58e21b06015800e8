import contextlib
import warnings

import numpy as np
import pytest

from ecglab import autodiff as ad
from ecglab import models, nn, training
from ecglab.autodiff import Tensor
from ecglab.config import RunConfig
from ecglab.signals import Signal, SignalPair
from ecglab.training import (
    bce_with_logits,
    gradient_penalty,
    mse_loss,
    train_denoiser,
    train_gan,
)

from conftest import poison_generator_updates


def sine_signals(seed=0, n=64, length=128, rate=64.0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / rate
    out = []
    for _ in range(n):
        w = np.sin(2 * np.pi * rng.uniform(1, 2) * t + rng.uniform(0, 2 * np.pi))
        w += 0.1 * rng.normal(size=length)
        out.append(Signal(w / np.max(np.abs(w)), rate))
    return out


def make_sines(**kw):
    """`train_gan`'s [N, L, 1] input of `sine_signals(**kw)`."""
    return training._signals_to_array(sine_signals(**kw), "training signal")


def _rows(log, kind):
    return [r for r in log.rows if r.kind == kind]


def tiny_gan_cfg(**kw):
    base = dict(batch_size=8, model_dim=2, generator_steps=3, z_len=16, adam_lr=1e-3,
                val_fraction=0.0)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# gradient penalty


class UnitLinearCritic:
    """C(x) = <w, x> with ||w|| = 1: gradient norm is exactly 1 everywhere."""

    def __init__(self, length):
        w = np.random.default_rng(0).normal(size=(length, 1))
        self.w = Tensor(w / np.linalg.norm(w), requires_grad=True)

    def forward(self, x, mode="train", rng=None):
        n, L, c = x.shape
        return ad.matmul(ad.reshape(x, (n, L * c)), self.w, None)


def test_gradient_penalty_zero_for_unit_linear_critic():
    critic = UnitLinearCritic(32)
    rng = np.random.default_rng(1)
    real = rng.normal(size=(6, 32, 1))
    fake = rng.normal(size=(6, 32, 1))
    gp = gradient_penalty(critic, real, fake, rng)
    assert abs(gp.item()) < 1e-8


def test_gradient_penalty_positive_for_scaled_critic():
    critic = UnitLinearCritic(32)
    critic.w = Tensor(critic.w.data * 3.0, requires_grad=True)  # 3-Lipschitz
    rng = np.random.default_rng(1)
    real = rng.normal(size=(6, 32, 1))
    fake = rng.normal(size=(6, 32, 1))
    assert abs(gradient_penalty(critic, real, fake, rng).item() - 4.0) < 1e-8


class SmoothCritic:
    """conv -> tanh -> trans_conv -> tanh -> conv -> dense at k=25, stride 4.

    Unlike the leaky-ReLU critic its input Hessian is not zero, so the
    penalty's input gradient exercises the conv VJPs' own VJPs.
    """

    def __init__(self, length=30):
        g = np.random.default_rng(6)
        self.params = {
            "w1": Tensor(g.normal(size=(25, 1, 2)) * 0.4, requires_grad=True),
            "b1": Tensor(g.normal(size=2) * 0.4, requires_grad=True),
            "w2": Tensor(g.normal(size=(25, 2, 3)) * 0.4, requires_grad=True),
            "b2": Tensor(g.normal(size=3) * 0.4, requires_grad=True),
            "w3": Tensor(g.normal(size=(25, 3, 2)) * 0.4, requires_grad=True),
            "wd": Tensor(g.normal(size=(2 * -(-length // 4), 1)), requires_grad=True),
        }

    def forward(self, x, mode="train", rng=None):
        p = self.params
        h = ad.tanh(nn.conv1d(x, p["w1"], p["b1"], 4))
        h = ad.tanh(nn.trans_conv1d(h, p["w2"], p["b2"], 4))
        h = nn.conv1d(nn.crop_center(h, x.shape[1]), p["w3"], None, 4)
        return ad.matmul(ad.reshape(h, (h.shape[0], -1)), p["wd"], None)


def _directional_fd(f, x, direction, eps=1e-6):
    return (f(x + eps * direction) - f(x - eps * direction)) / (2 * eps)


@pytest.mark.parametrize("make_critic,length", [
    # 150 -> 38 -> 10 -> 3 -> 1 -> 1: every stage has uneven SAME pads
    (lambda: models.build("critic", d=1, signal_length=150, seed=3), 150),
    (lambda: SmoothCritic(30), 30),
], ids=["critic", "smooth"])
@pytest.mark.float64
def test_gradient_penalty_param_gradient_matches_fd(make_critic, length):
    """d GP / d theta: second order through grad(create_graph=True)."""
    # built here, not at collection, so the parameters are float64 under the marker
    critic = make_critic()
    data = np.random.default_rng(4)
    real = data.normal(size=(3, length, 1))
    fake = data.normal(size=(3, length, 1))

    def gp_value():
        return gradient_penalty(critic, real, fake, np.random.default_rng(9))

    for p in critic.params.values():
        p.grad = None
    ad.backward(gp_value())
    for name, p in critic.params.items():
        # unreached parameters (biases of a piecewise-linear critic) have zero gradient
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        base = p.data
        for _ in range(2):
            v = data.normal(size=base.shape)

            def f(arr):
                p.data = arr
                return gp_value().item()

            fd = _directional_fd(f, base, v)
            p.data = base
            assert abs(fd - np.sum(analytic * v)) < 1e-6 * max(1.0, abs(fd)), name


@pytest.mark.float64
def test_gradient_penalty_input_gradient_matches_fd():
    """d GP / d x at the interpolate, through the critic's input Hessian."""
    critic = SmoothCritic(30)
    data = np.random.default_rng(5)
    x0 = data.normal(size=(3, 30, 1))

    def penalty(x):
        score = critic.forward(x)
        (gx,) = ad.grad(ad.sum_(score), [x], create_graph=True)
        norms = ad.sqrt(ad.sum_(ad.mul(gx, gx), axis=(1, 2)))
        d = ad.sub(norms, Tensor(1.0))
        return ad.mean_(ad.mul(d, d))

    x = Tensor(x0, requires_grad=True)
    ad.backward(penalty(x))
    assert np.abs(x.grad).max() > 1e-3
    for _ in range(3):
        v = data.normal(size=x0.shape)
        fd = _directional_fd(lambda a: penalty(Tensor(a, requires_grad=True)).item(), x0, v)
        assert abs(fd - np.sum(x.grad * v)) < 1e-6 * max(1.0, abs(fd))


_pruned_grad = ad.grad


def _unpruned_grad(params):
    """ad.grad with every tensor of `params` added to wrt, so that its walk
    computes their gradients too; it returns those of the given wrt only."""

    def grad(output, wrt, create_graph=False):
        wrt = list(wrt)
        return _pruned_grad(output, wrt + list(params.values()), create_graph=create_graph)[: len(wrt)]

    return grad


def test_gradient_penalty_walk_skips_parameter_gradients(monkeypatch):
    """grad walks only to x_hat: no kernel correlation runs, and the penalty
    and the critic's gradients are byte-equal to an unpruned walk's."""
    data = np.random.default_rng(3)
    real = data.normal(size=(4, 96, 1)).astype(ad.DTYPE)
    fake = data.normal(size=(4, 96, 1)).astype(ad.DTYPE)

    def penalty_and_grads(unpruned=False):
        critic = models.Network(models.critic_spec(2, signal_length=96, phase_shuffle_n=2), seed=1)
        if unpruned:
            monkeypatch.setattr(ad, "grad", _unpruned_grad(critic.params))
        gp = gradient_penalty(critic, real, fake, np.random.default_rng(4))
        ad.backward(gp)
        return gp.data.tobytes(), {k: None if p.grad is None else p.grad.tobytes()
                                   for k, p in critic.params.items()}

    calls = []
    corr = ad.kernel_corr_len

    def spy(*args):
        calls.append(args[0].shape)
        return corr(*args)

    grad = ad.grad

    def counted_grad(*args, **kwargs):
        calls.clear()
        out = grad(*args, **kwargs)
        assert calls == [], "grad correlated a kernel"
        calls.append("grad ran")
        return out

    monkeypatch.setattr(ad, "kernel_corr_len", spy)
    monkeypatch.setattr(ad, "grad", counted_grad)
    pruned = penalty_and_grads()
    assert "grad ran" in calls and len(calls) > 1  # backward does correlate kernels
    assert penalty_and_grads(unpruned=True) == pruned


def test_generator_backward_skips_critic_parameter_gradients(monkeypatch):
    """The generator step's backward correlates only the generator's kernels,
    and every gradient Adam gets is byte-equal to an unfrozen walk's."""
    sigs = make_sines(n=16)
    corr_calls, per_backward, adam_grads = [], [], []
    corr, backward, adam = ad.kernel_corr_len, ad.backward, training.adam_step

    def spy_corr(*args):
        corr_calls.append(args)
        return corr(*args)

    def spy_backward(loss):
        corr_calls.clear()
        backward(loss)
        per_backward.append(len(corr_calls))

    def spy_adam(params, state):
        adam_grads.append({k: p.grad.tobytes() for k, p in params.items() if p.grad is not None})
        return adam(params, state)

    def run():
        per_backward.clear()
        adam_grads.clear()
        nets = train_gan(sigs, tiny_gan_cfg(generator_steps=1), seed=11)
        assert all(p.requires_grad for net in nets[:2] for p in net.params.values())
        kernels = [sum(p.data.ndim == 3 for p in net.params.values()) for net in nets[:2]]
        return kernels, list(per_backward), list(adam_grads), nets[2].to_csv()

    monkeypatch.setattr(ad, "kernel_corr_len", spy_corr)
    monkeypatch.setattr(ad, "backward", spy_backward)
    monkeypatch.setattr(training, "adam_step", spy_adam)
    (gen_kernels, critic_kernels), per_step, *frozen = run()
    monkeypatch.setattr(training, "_frozen", lambda params: contextlib.nullcontext())
    _, unfrozen_per_step, *unfrozen = run()
    # five critic updates, then the generator step's backward
    assert len(per_step) == 6
    assert per_step[-1] == gen_kernels
    assert unfrozen_per_step[-1] == gen_kernels + critic_kernels
    assert frozen == unfrozen


# ---------------------------------------------------------------------------
# adversarial loop bookkeeping


@pytest.fixture(scope="module")
def tiny_gan_run():
    sigs = make_sines(n=32)
    return train_gan(sigs, tiny_gan_cfg(), seed=11)


def test_gan_schedule_five_critic_per_generator(tiny_gan_run):
    _, _, log = tiny_gan_run
    kinds = [r.kind for r in log.rows if r.kind in ("critic", "generator")]
    assert len(kinds) == 3 * 6
    for i in range(3):
        assert kinds[i * 6 : (i + 1) * 6] == ["critic"] * 5 + ["generator"]


def test_gan_gp_term_non_negative(tiny_gan_run):
    _, _, log = tiny_gan_run
    assert all(r.gp_term >= 0 for r in _rows(log, "critic"))


def test_gan_log_steps_monotone(tiny_gan_run):
    _, _, log = tiny_gan_run
    steps = [r.step for r in log.rows]
    assert steps == sorted(steps)


def test_gan_validates_every_trained_epoch_once():
    # 24 training signals in batches of 8: 3 batches per epoch, and the
    # 15 critic updates of three generator steps span epochs 0-4
    _, _, log = train_gan(make_sines(n=32), tiny_gan_cfg(val_fraction=0.25), seed=11)
    trained = sorted({r.epoch for r in _rows(log, "critic")})
    assert trained == [0, 1, 2, 3, 4]
    assert [r.epoch for r in _rows(log, "validation")] == trained
    for r in _rows(log, "validation"):
        assert r.step >= max(c.step for c in _rows(log, "critic") if c.epoch == r.epoch)
        assert np.isfinite(r.val_loss)
    assert log.rows[-1].kind == "validation" and log.rows[-1].epoch == 4


def test_gan_deterministic_rerun():
    sigs = make_sines(n=32)
    g1, c1, log1 = train_gan(sigs, tiny_gan_cfg(), seed=5)
    g2, c2, log2 = train_gan(sigs, tiny_gan_cfg(), seed=5)
    assert log1.to_csv() == log2.to_csv()
    for k in g1.params:
        assert np.array_equal(g1.params[k].data, g2.params[k].data)
    for k in c1.params:
        assert np.array_equal(c1.params[k].data, c2.params[k].data)


def test_gan_insufficient_data():
    with pytest.raises(ValueError):
        train_gan(make_sines(n=4), tiny_gan_cfg(), seed=0)


def test_gan_rejects_mixed_lengths():
    sigs = sine_signals(n=8) + [Signal(np.zeros(64), 64.0)]
    with pytest.raises(ValueError, match="^all training signals must share one length$"):
        training._signals_to_array(sigs, "training signal")


def test_trainers_refuse_no_data():
    empty = np.zeros((0, 128, 1), dtype=np.float32)
    with pytest.raises(ValueError, match="^no training signals$"):
        train_gan(empty, tiny_gan_cfg(), seed=0)
    with pytest.raises(ValueError, match="^no training pairs$"):
        train_denoiser(empty, empty, RunConfig(model_dim=2, epochs=1), "baseline", seed=0)


@pytest.mark.parametrize("bad", [np.zeros((16, 128, 1)), np.zeros((16, 128), dtype=np.float32),
                                 np.zeros((16, 128, 2), dtype=np.float32)], ids=["float64", "2-D", "2-channel"])
def test_trainers_refuse_an_array_of_another_layout(bad):
    with pytest.raises(ValueError, match=r"^training signals must be a float32 \[N, L, 1\] array, got "):
        train_gan(bad, tiny_gan_cfg(), seed=0)
    with pytest.raises(ValueError, match=r"^training pairs must be a float32 \[N, L, 1\] array, got "):
        train_denoiser(bad, bad, RunConfig(model_dim=2, epochs=1), "baseline", seed=0)
    clean, noisy = _identity_arrays(n=8)
    with pytest.raises(ValueError, match=r"^clean \(8, 96, 1\) and noisy \(7, 96, 1\) training pairs differ"):
        train_denoiser(clean, noisy[:7], RunConfig(model_dim=2, epochs=1), "baseline", seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gan_divergence_names_step_and_kind():
    # a huge learning rate overflows the critic after its first update
    with pytest.raises(training.DivergenceError, match=r"^critic loss is (nan|inf) at step 2$"):
        train_gan(make_sines(n=16), tiny_gan_cfg(adam_lr=1e30), seed=0)


@pytest.mark.parametrize("val_fraction,message", [
    (0.1, r"^gan validation estimate is nan at step 6$"),
    (0.0, r"^generator parameter tconv1.w holds NaN or inf after step 6$"),
], ids=["held-out", "no-hold-out"])
def test_gan_non_finite_last_update_raises(monkeypatch, val_fraction, message):
    """The last generator update is seen by no loss: the last validation
    estimate, or with no hold-out the parameter check, reports it."""
    poison_generator_updates(monkeypatch)
    cfg = tiny_gan_cfg(batch_size=4, generator_steps=1, val_fraction=val_fraction)
    with pytest.raises(training.DivergenceError, match=message) as err:
        train_gan(make_sines(n=12), cfg, seed=0)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# losses


def test_bce_perfect_prediction_nearly_zero():
    targets = np.array([[1.0, 0.0, 1.0, 0.0, 1.0]])
    logits = Tensor((targets * 2 - 1) * 25.0)
    assert bce_with_logits(logits, targets).item() < 1e-6


@pytest.mark.float64
def test_bce_matches_direct_formula():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 2, size=(4, 5)).astype(float)
    got = bce_with_logits(Tensor(logits), targets).item()
    p = 1 / (1 + np.exp(-logits))
    want = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
    assert abs(got - want) < 1e-9


def test_mse_loss_value():
    pred = Tensor(np.array([[1.0, 2.0]]))
    assert mse_loss(pred, np.array([[0.0, 0.0]])).item() == 2.5


# ---------------------------------------------------------------------------
# denoiser training variants


def _identity_pairs(n=24, length=96, rate=64.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = Signal(np.tanh(rng.normal(size=length)), rate)
        out.append(SignalPair(s, s))
    return out


def _pair_arrays(pairs):
    """`train_denoiser`'s (clean, noisy) input of `pairs`."""
    noisy = training._signals_to_array([p.noisy for p in pairs], "training pair")
    return training._signals_to_array([p.clean for p in pairs], "training pair"), noisy


def _identity_arrays(**kw):
    return _pair_arrays(_identity_pairs(**kw))


def test_denoiser_pretrained_needs_checkpoint():
    with pytest.raises(ValueError):
        train_denoiser(*_identity_arrays(), RunConfig(model_dim=2, epochs=1), "pretrained", seed=0)


def test_denoiser_unknown_variant():
    with pytest.raises(ValueError):
        train_denoiser(*_identity_arrays(), RunConfig(model_dim=2, epochs=1), "dropout", seed=0)


def test_denoiser_names_a_sample_that_overflows_float32():
    """A finite sample beyond float32's range is refused by name, with no
    numpy overflow warning, not reported as the inf the cast would make."""
    pairs = _identity_pairs(n=8)
    noisy = pairs[3].noisy.samples.copy()
    noisy[40] = 1e39
    pairs[3] = SignalPair(pairs[3].clean, Signal(noisy, 64.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^training pair 3 holds a sample that overflows float32$"):
            _pair_arrays(pairs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_denoiser_divergence_names_step_and_kind():
    # the tanh output keeps the loss finite until the activations overflow
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4, adam_lr=1e100)
    with pytest.raises(training.DivergenceError, match=r"^denoiser loss is (nan|inf) at step 2$"):
        train_denoiser(*_identity_arrays(), cfg, "baseline", seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_denoiser_non_finite_validation_loss_raises():
    # one batch per epoch: the first loss is finite, and the update it makes
    # leaves parameters whose held-out output is NaN
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=64, adam_lr=1e100)
    with pytest.raises(training.DivergenceError, match=r"^denoiser validation loss is nan at epoch 0$"):
        train_denoiser(*_identity_arrays(), cfg, "baseline", seed=0)


def test_denoiser_deterministic():
    pairs = _identity_arrays()
    cfg = RunConfig(model_dim=2, epochs=2, batch_size=8, adam_lr=1e-3)
    n1, log1 = train_denoiser(*pairs, cfg, "baseline", seed=4)
    n2, log2 = train_denoiser(*pairs, cfg, "baseline", seed=4)
    assert log1.to_csv() == log2.to_csv()
    for k in n1.params:
        assert np.array_equal(n1.params[k].data, n2.params[k].data)


def test_phase_shuffle_zero_matches_baseline_bitwise():
    pairs = _identity_arrays()
    cfg = RunConfig(model_dim=2, epochs=2, batch_size=8, adam_lr=1e-3, phase_shuffle=0)
    base, log_base = train_denoiser(*pairs, cfg, "baseline", seed=9)
    shuf, log_shuf = train_denoiser(*pairs, cfg, "phase_shuffle", seed=9)
    assert log_base.to_csv() == log_shuf.to_csv()
    for k in base.params:
        assert np.array_equal(base.params[k].data, shuf.params[k].data)


def test_denoiser_best_checkpoint_retained():
    clean, noisy = _identity_arrays(n=30)
    # noisy differs from clean, so the recomputed loss also pins which array is the input
    noisy = (noisy + 0.1 * np.random.default_rng(5).normal(size=noisy.shape)).astype(np.float32)
    cfg = RunConfig(model_dim=2, epochs=4, batch_size=8, adam_lr=3e-3, val_fraction=0.2)
    net, log = train_denoiser(clean, noisy, cfg, "baseline", seed=2)
    vals = [r.val_loss for r in _rows(log, "validation")]
    rng = np.random.default_rng(2)
    # recomputed loss of the returned network equals the best logged epoch
    n_val = int(round(cfg.val_fraction * len(clean)))
    vi = rng.permutation(len(clean))[:n_val]
    got = training._mse_numpy(models.infer(net, noisy[vi]), clean[vi])
    assert abs(got - min(vals)) < 1e-12
    assert min(vals) <= vals[-1]


def test_inception_best_checkpoint_retained():
    rng = np.random.default_rng(0)
    sigs = [Signal(np.sin(np.arange(1024) * rng.uniform(0.05, 0.5)), 500.0) for _ in range(8)]
    samples = training._signals_to_array(sigs, "training signal")
    labels = rng.integers(0, 2, size=(8, 5)).astype(np.uint8)
    cfg = RunConfig(epochs=3, batch_size=4, adam_lr=1e-2, val_fraction=0.25)
    net, log = training.train_inception(samples, labels, 500.0, cfg, seed=1)
    assert [r.kind for r in log.rows] == ["classifier", "validation"] * 3
    vals = [r.val_loss for r in _rows(log, "validation")]
    vi = np.random.default_rng(1).permutation(8)[:2]
    grids = training._spectrogram_batch(samples[vi], 500.0)
    got = training._bce_numpy(models.infer(net, grids), labels[vi].astype(np.float64))
    assert got == min(vals)


def test_every_spec_layer_runs_in_the_trainers_and_in_infer(monkeypatch):
    """Each trainer's train forwards, and every models.infer call the
    trainers make, run every layer of the network's spec, in spec order."""
    forward, runs = models.Network.forward, {}

    def traced(net, x, mode="infer", rng=None, trace=None, stop_at=None):
        layers = []
        out = forward(net, x, mode=mode, rng=rng, trace=layers, stop_at=stop_at)
        every_layer = [(i, layer.kind) for i, layer in enumerate(net.spec.layers)]
        runs.setdefault((net.spec.name, mode), set()).add([(i, kind) for i, kind, _ in layers] == every_layer)
        return out

    monkeypatch.setattr(models.Network, "forward", traced)
    train_gan(make_sines(n=16), tiny_gan_cfg(generator_steps=1, val_fraction=0.25), seed=0)
    train_denoiser(*_identity_arrays(n=8), RunConfig(model_dim=2, epochs=1, batch_size=4), "phase_shuffle", seed=0)
    rng = np.random.default_rng(0)
    sigs = [Signal(np.sin(np.arange(1024) * rng.uniform(0.05, 0.5)), 500.0) for _ in range(8)]
    training.train_inception(training._signals_to_array(sigs, "training signal"),
                             rng.integers(0, 2, size=(8, 5)).astype(np.uint8), 500.0,
                             RunConfig(epochs=1, batch_size=4, val_fraction=0.25), seed=0)
    assert runs == {(name, mode): {True} for name in models.NETWORK_NAMES for mode in ("train", "infer")}


def test_hold_out_of_every_record_is_rejected():
    # round(0.75 * 2) == 2: nothing would be left to train on
    with pytest.raises(ValueError, match="^val_fraction 0.75 holds out all 2 records"):
        train_denoiser(*_identity_arrays(n=2), RunConfig(model_dim=2, val_fraction=0.75), "baseline", seed=0)


def test_pretrained_variant_runs_and_copies_encoder():
    critic = models.build("critic", d=2, signal_length=96, seed=3)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=8)
    net, _ = train_denoiser(*_identity_arrays(), cfg, "pretrained", seed=0, critic_state=critic.state_dict())
    assert net is not None


# ---------------------------------------------------------------------------
# ablation sweep


def test_ablation_sweep_grid_and_determinism():
    real = _identity_pairs(n=14, seed=1)
    synth_pairs = _identity_pairs(n=14, seed=2)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4)
    rows = training.ablation_sweep(real, synth_pairs, [2, 4], cfg, 3, training.COMPOSITIONS)
    assert len(rows) == 6
    keys = [(r.composition, r.size) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.real_report.mse is not None
        assert r.synthetic_report.snr_db is not None
        assert r.real_report.delta_hr_hz is not None
    csv1 = training.sweep_to_csv(rows)
    csv2 = training.sweep_to_csv(training.ablation_sweep(real, synth_pairs, [2, 4], cfg, 3, training.COMPOSITIONS))
    assert csv1 == csv2
    assert csv1.splitlines()[0] == training.SWEEP_CSV_HEADER


def test_ablation_sweep_size_exceeds_data(monkeypatch):
    real = _identity_pairs(n=6, seed=1)
    synth_pairs = _identity_pairs(n=6, seed=2)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4)
    with pytest.raises(ValueError):
        training.ablation_sweep(real, synth_pairs, [100], cfg, 0, training.COMPOSITIONS)
    # sizes below 1, and a size or composition given twice, fail before anything is trained
    monkeypatch.setattr(training, "train_denoiser", None)
    for sizes, comps, message in (([], training.COMPOSITIONS, "no sizes to sweep"),
                                  ([2, -3], training.COMPOSITIONS, "sizes must be at least 1, got -3"),
                                  ([0], training.COMPOSITIONS, "sizes must be at least 1, got 0"),
                                  ([2, 3, 2], training.COMPOSITIONS, "size 2 is given twice"),
                                  ([2], ("mixed", "mixed"), "composition 'mixed' is given twice")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            training.ablation_sweep(real, synth_pairs, sizes, cfg, seed=0, compositions=comps)
