import numpy as np
import pytest

from ecglab import autodiff as ad
from ecglab import models, nn, training
from ecglab.autodiff import Tensor
from ecglab.config import RunConfig
from ecglab.dsp import mel_spectrogram
from ecglab.metrics import inception_score
from ecglab.signals import LabeledDataset, Signal, SignalPair
from ecglab.training import (
    bce_with_logits,
    gradient_penalty,
    mse_loss,
    train_denoiser,
    train_gan,
)


def make_sines(seed=0, n=64, length=128, rate=64.0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / rate
    out = []
    for _ in range(n):
        w = np.sin(2 * np.pi * rng.uniform(1, 2) * t + rng.uniform(0, 2 * np.pi))
        w += 0.1 * rng.normal(size=length)
        out.append(Signal(w / np.max(np.abs(w)), rate))
    return out


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
        return ad.matmul(ad.reshape(x, (n, L * c)), self.w)


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
        return nn.dense(ad.reshape(h, (h.shape[0], -1)), p["wd"], None)


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
        return ad.mean_(ad.pow_const(ad.sub(norms, Tensor(1.0)), 2))

    x = Tensor(x0, requires_grad=True)
    ad.backward(penalty(x))
    assert np.abs(x.grad).max() > 1e-3
    for _ in range(3):
        v = data.normal(size=x0.shape)
        fd = _directional_fd(lambda a: penalty(Tensor(a, requires_grad=True)).item(), x0, v)
        assert abs(fd - np.sum(x.grad * v)) < 1e-6 * max(1.0, abs(fd))


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
    assert all(r.gp_term >= 0 for r in log.of_kind("critic"))


def test_gan_log_steps_monotone(tiny_gan_run):
    _, _, log = tiny_gan_run
    steps = [r.step for r in log.rows]
    assert steps == sorted(steps)


def test_gan_validates_every_trained_epoch_once():
    # 24 training signals in batches of 8: 3 batches per epoch, and the
    # 15 critic updates of three generator steps span epochs 0-4
    _, _, log = train_gan(make_sines(n=32), tiny_gan_cfg(val_fraction=0.25), seed=11)
    trained = sorted({r.epoch for r in log.of_kind("critic")})
    assert trained == [0, 1, 2, 3, 4]
    assert [r.epoch for r in log.of_kind("validation")] == trained
    for r in log.of_kind("validation"):
        assert r.step >= max(c.step for c in log.of_kind("critic") if c.epoch == r.epoch)
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
    sigs = make_sines(n=8) + [Signal(np.zeros(64), 64.0)]
    with pytest.raises(ValueError):
        train_gan(sigs, tiny_gan_cfg(), seed=0)


def test_gan_rejects_non_finite_signal():
    sigs = make_sines(n=16)
    sigs[3] = Signal(np.where(np.arange(128) == 40, np.nan, 0.0), 64.0)
    with pytest.raises(ValueError, match="training signal 3 holds NaN or inf"):
        train_gan(sigs, tiny_gan_cfg(), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gan_divergence_names_step_and_kind():
    # a huge learning rate overflows the critic after its first update
    with pytest.raises(training.DivergenceError, match=r"^critic loss is (nan|inf) at step 2$"):
        train_gan(make_sines(n=16), tiny_gan_cfg(adam_lr=1e30), seed=0)


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


def test_denoiser_pretrained_needs_checkpoint():
    with pytest.raises(ValueError):
        train_denoiser(_identity_pairs(), RunConfig(model_dim=2, epochs=1), "pretrained", seed=0)


def test_denoiser_unknown_variant():
    with pytest.raises(ValueError):
        train_denoiser(_identity_pairs(), RunConfig(model_dim=2, epochs=1), "dropout", seed=0)


def test_denoiser_rejects_non_finite_pair():
    pairs = _identity_pairs()
    bad = Signal(np.full(96, np.inf), 64.0)
    pairs[5] = SignalPair(pairs[5].clean, bad)
    with pytest.raises(ValueError, match="training pair 5 holds NaN or inf"):
        train_denoiser(pairs, RunConfig(model_dim=2, epochs=1, batch_size=8), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_denoiser_divergence_names_step_and_kind():
    # the tanh output keeps the loss finite until the activations overflow
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4, adam_lr=1e100)
    with pytest.raises(training.DivergenceError, match=r"^denoiser loss is (nan|inf) at step 2$"):
        train_denoiser(_identity_pairs(), cfg, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_denoiser_non_finite_validation_loss_raises():
    # one batch per epoch: the first loss is finite, and the update it makes
    # leaves parameters whose held-out output is NaN
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=64, adam_lr=1e100)
    with pytest.raises(training.DivergenceError, match=r"^denoiser validation loss is nan at epoch 0$"):
        train_denoiser(_identity_pairs(), cfg, seed=0)


def test_inception_rejects_non_finite_signal():
    sigs = [Signal(np.zeros(1024), 500.0) for _ in range(4)]
    sigs[2] = Signal(np.where(np.arange(1024) == 7, np.nan, 0.0), 500.0)
    ds = LabeledDataset(tuple(sigs), np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match="training signal 2 holds NaN or inf"):
        training.train_inception(ds, RunConfig(epochs=1), seed=0)


def test_denoiser_deterministic():
    pairs = _identity_pairs()
    cfg = RunConfig(model_dim=2, epochs=2, batch_size=8, adam_lr=1e-3)
    n1, log1 = train_denoiser(pairs, cfg, "baseline", seed=4)
    n2, log2 = train_denoiser(pairs, cfg, "baseline", seed=4)
    assert log1.to_csv() == log2.to_csv()
    for k in n1.params:
        assert np.array_equal(n1.params[k].data, n2.params[k].data)


def test_phase_shuffle_zero_matches_baseline_bitwise():
    pairs = _identity_pairs()
    cfg = RunConfig(model_dim=2, epochs=2, batch_size=8, adam_lr=1e-3, phase_shuffle=0)
    base, log_base = train_denoiser(pairs, cfg, "baseline", seed=9)
    shuf, log_shuf = train_denoiser(pairs, cfg, "phase_shuffle", seed=9)
    assert log_base.to_csv() == log_shuf.to_csv()
    for k in base.params:
        assert np.array_equal(base.params[k].data, shuf.params[k].data)


def test_denoiser_best_checkpoint_retained():
    pairs = _identity_pairs(n=30)
    cfg = RunConfig(model_dim=2, epochs=4, batch_size=8, adam_lr=3e-3, val_fraction=0.2)
    net, log = train_denoiser(pairs, cfg, "baseline", seed=2)
    vals = [r.val_loss for r in log.of_kind("validation")]
    rng = np.random.default_rng(2)
    noisy = np.stack([p.noisy.samples for p in pairs])[:, :, None]
    clean = np.stack([p.clean.samples for p in pairs])[:, :, None]
    # recomputed loss of the returned network equals the best logged epoch
    n_val = int(round(cfg.val_fraction * len(pairs)))
    vi = rng.permutation(len(pairs))[:n_val]
    got = training._mse_numpy(models.infer(net, noisy[vi]), clean[vi])
    assert abs(got - min(vals)) < 1e-12
    assert min(vals) <= vals[-1]


def test_inception_best_checkpoint_retained():
    rng = np.random.default_rng(0)
    sigs = [Signal(np.sin(np.arange(1024) * rng.uniform(0.05, 0.5)), 500.0) for _ in range(8)]
    ds = LabeledDataset(tuple(sigs), rng.integers(0, 2, size=(8, 5)).astype(np.uint8))
    cfg = RunConfig(epochs=3, batch_size=4, adam_lr=1e-2, val_fraction=0.25)
    net, log = training.train_inception(ds, cfg, seed=1)
    assert [r.kind for r in log.rows] == ["classifier", "validation"] * 3
    vals = [r.val_loss for r in log.of_kind("validation")]
    vi = np.random.default_rng(1).permutation(8)[:2]
    grids = training._spectrogram_batch([sigs[i] for i in vi])
    got = training._bce_numpy(models.infer(net, grids, stop_at="sigmoid"), ds.labels[vi].astype(np.float64))
    assert got == min(vals)


def test_hold_out_of_every_record_is_rejected():
    # round(0.75 * 2) == 2: nothing would be left to train on
    with pytest.raises(ValueError, match="^val_fraction 0.75 holds out all 2 records"):
        train_denoiser(_identity_pairs(n=2), RunConfig(model_dim=2, val_fraction=0.75), seed=0)


def test_pretrained_variant_runs_and_copies_encoder():
    pairs = _identity_pairs()
    critic = models.build("critic", d=2, signal_length=96, seed=3)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=8)
    net, _ = train_denoiser(pairs, cfg, "pretrained", seed=0, critic_state=critic.state_dict())
    assert net is not None


# ---------------------------------------------------------------------------
# ablation sweep


def test_ablation_sweep_grid_and_determinism():
    real = _identity_pairs(n=14, seed=1)
    synth_pairs = _identity_pairs(n=14, seed=2)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4)
    rows = training.ablation_sweep(real, synth_pairs, [2, 4], cfg, seed=3)
    assert len(rows) == 6
    keys = [(r.composition, r.size) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.real_report.mse is not None
        assert r.synthetic_report.snr_db is not None
        assert r.real_report.delta_hr_hz is not None
    csv1 = training.sweep_to_csv(rows)
    csv2 = training.sweep_to_csv(training.ablation_sweep(real, synth_pairs, [2, 4], cfg, seed=3))
    assert csv1 == csv2
    assert csv1.splitlines()[0] == training.SWEEP_CSV_HEADER


def test_ablation_sweep_size_exceeds_data():
    real = _identity_pairs(n=6, seed=1)
    synth_pairs = _identity_pairs(n=6, seed=2)
    cfg = RunConfig(model_dim=2, epochs=1, batch_size=4)
    with pytest.raises(ValueError):
        training.ablation_sweep(real, synth_pairs, [100], cfg, seed=0)


def test_inception_of_generator_scores_mel_grids_of_its_samples():
    gen = models.build("generator", d=1, z_len=8, signal_length=1024, seed=0)
    clf = models.build("inception", d=1, signal_length=1024, seed=0)
    cfg = RunConfig(z_len=8, is_eval_batch=20)
    score = training._inception_of_generator(gen, clf, cfg, 500.0, np.random.default_rng(5))
    z = models.sample_latent(np.random.default_rng(5), 20, 8, cfg.latent)
    grids = np.stack([mel_spectrogram(Signal(row, 500.0)).bins for row in models.infer(gen, z.data)[:, :, 0]])
    assert score == inception_score(models.infer(clf, grids[:, :, :, None]), splits=10)[0]
