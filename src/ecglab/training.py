"""Training loops: adversarial generator/critic pair, spectrogram
classifier, and the denoising autoencoder, plus the training-set-size
ablation driver. Every trainer takes the one `config.RunConfig`; the
classifier and the denoiser share one supervised loop, `_fit`."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .autodiff import Tensor
from .config import RunConfig
from .dsp import MEL_BANDS, SPEC_FRAMES, mel_spectrogram
from .metrics import MetricReport, evaluate_denoiser
from .models import Network
from .optim import AdamState, adam_step, zero_grads
from .signals import Signal, SignalPair, csv_table


@dataclass(frozen=True)
class LogRow:
    step: int
    kind: str
    epoch: int
    critic_loss: float | None = None
    generator_loss: float | None = None
    wasserstein_estimate: float | None = None
    gp_term: float | None = None
    loss: float | None = None
    val_loss: float | None = None


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list)

    CSV_HEADER = "step,kind,epoch,critic_loss,generator_loss,wasserstein_estimate,gp_term,loss,val_loss"

    def add(self, **kw) -> None:
        self.rows.append(LogRow(**kw))

    def to_csv(self) -> str:
        return csv_table(self.CSV_HEADER, [
            (str(r.step), r.kind, str(r.epoch), r.critic_loss, r.generator_loss, r.wasserstein_estimate,
             r.gp_term, r.loss, r.val_loss)
            for r in self.rows
        ])


# ---------------------------------------------------------------------------


class DivergenceError(RuntimeError):
    """A training loss, a validation score or a trained parameter became NaN or inf."""


def _signals_to_array(signals: list[Signal], what: str) -> np.ndarray:
    """[N, L, 1] samples, stacked once straight into ``autodiff.DTYPE``:
    the one check between ``Signal``s, whose samples are finite, and a
    network's input. ValueError for no signals (``no {what}s``), for
    signals of different lengths, and naming the first signal with a
    sample that the cast turned into inf, as ``signals.write_dataset``
    refuses one."""
    if not signals:
        raise ValueError(f"no {what}s")
    if any(s.length != signals[0].length for s in signals):
        raise ValueError(f"all {what}s must share one length")
    with np.errstate(over="ignore"):
        out = np.stack([s.samples for s in signals], dtype=ad.DTYPE)[:, :, None]
    bad = np.isinf(out).any(axis=(1, 2))
    if bad.any():
        raise ValueError(f"{what} {int(np.argmax(bad))} holds a sample that overflows {out.dtype}")
    return out


def _check_training_array(x: np.ndarray, what: str) -> None:
    """ValueError unless `x` is a non-empty [N, L, 1] array of
    ``autodiff.DTYPE``, the layout of the float32 readers
    (``signals.read_dataset_f32``, ``signals.read_pairs_f32``) and of
    ``_signals_to_array``; ``no {what}s`` when it is empty."""
    if x.dtype != ad.DTYPE or x.ndim != 3 or x.shape[2] != 1:
        raise ValueError(f"{what}s must be a {np.dtype(ad.DTYPE)} [N, L, 1] array, got {x.dtype} {x.shape}")
    if len(x) == 0:
        raise ValueError(f"no {what}s")


def _finite_loss(loss: Tensor, step: int, kind: str) -> float:
    value = loss.item()
    if not np.isfinite(value):
        raise DivergenceError(f"{kind} loss is {value} at step {step}")
    return value


def gradient_penalty(
    critic: Network,
    real: np.ndarray,
    fake: np.ndarray,
    rng: np.random.Generator,
) -> Tensor:
    """(||grad_x critic(x_hat)|| - 1)^2 at per-sample uniform interpolates."""
    n = real.shape[0]
    eps = rng.uniform(0.0, 1.0, size=(n, 1, 1))
    x_hat = Tensor(eps * real + (1.0 - eps) * fake, requires_grad=True)
    score = critic.forward(x_hat, mode="train", rng=rng)
    (gx,) = ad.grad(ad.sum_(score), [x_hat], create_graph=True)
    norms = ad.sqrt(ad.sum_(ad.mul(gx, gx), axis=(1, 2)))
    d = ad.sub(norms, Tensor(1.0))
    return ad.mean_(ad.mul(d, d))


@contextlib.contextmanager
def _frozen(params: dict[str, Tensor]):
    """Treat `params` as constants inside the block: the backward walk
    computes no kernel correlation or bias sum for them and fills no
    `.grad`. The generator step's loss runs through the critic, whose
    gradients it would only throw away."""
    for p in params.values():
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params.values():
            p.requires_grad = True


def _hold_out(rng: np.random.Generator, n: int, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(held-out, training) indices: round(fraction * n) rows of one
    seeded permutation are held out."""
    n_val = int(round(fraction * n))
    if n_val == n:
        raise ValueError(f"val_fraction {fraction} holds out all {n} records, leaving none to train on")
    perm = rng.permutation(n)
    return perm[:n_val], perm[n_val:]


def _adam(cfg: RunConfig) -> AdamState:
    return AdamState(alpha=cfg.adam_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)


def _epoch_batches(rng: np.random.Generator, n: int, batch: int):
    """Endless stream of shuffled index batches; yields (epoch, indices)."""
    epoch = 0
    while True:
        order = rng.permutation(n)
        for i in range(n // batch):
            yield epoch, order[i * batch : (i + 1) * batch]
        epoch += 1


def train_gan(
    real: np.ndarray,
    cfg: RunConfig,
    seed: int,
) -> tuple[Network, Network, TrainLog]:
    """Adversarial training: `critic_updates` critic steps per generator step.

    `real` holds the finite training signals as one [N, L, 1] array of
    ``autodiff.DTYPE``: the samples ``signals.read_dataset_f32`` returns,
    or ``_signals_to_array`` of ``Signal``s. It is only read, and may be a
    read-only view of a file's bytes; each batch and the held-out rows
    are copied out of it, so the training set is never held twice.

    The critic minimizes E[C(fake)] - E[C(real)] + lambda * GP, the
    generator minimizes -E[C(fake)]. Phase shuffle is active in the
    critic during training only. The generator of the last step is
    returned. A non-finite loss, validation estimate, or parameter after
    the last step raises DivergenceError.
    """
    _check_training_array(real, "training signal")
    length = real.shape[1]
    rng = np.random.default_rng(seed)
    vi, ti = _hold_out(rng, len(real), cfg.val_fraction)
    val_real = real[vi[: cfg.batch_size]]  # the held-out rows every validation scores
    if ti.size < cfg.batch_size:
        raise ValueError(f"{ti.size} training signals cannot fill one batch of {cfg.batch_size}")

    generator = models.build("generator", d=cfg.model_dim, z_len=cfg.z_len, signal_length=length, seed=seed)
    critic = models.build("critic", d=cfg.model_dim, signal_length=length, seed=seed + 1,
                          phase_shuffle_n=cfg.phase_shuffle)
    opt_g, opt_c = _adam(cfg), _adam(cfg)

    batches_per_epoch = ti.size // cfg.batch_size
    if cfg.generator_steps is not None:
        total_gen_steps = cfg.generator_steps
    else:
        total_gen_steps = max(1, (cfg.epochs * batches_per_epoch) // cfg.critic_updates)

    log = TrainLog()
    stream = _epoch_batches(rng, ti.size, cfg.batch_size)
    step = 0
    epoch_seen = 0
    for _ in range(total_gen_steps):
        for _ in range(cfg.critic_updates):
            epoch, idx = next(stream)
            if epoch > epoch_seen:
                _log_gan_validation(log, step, epoch_seen, generator, critic, val_real, cfg, rng)
                epoch_seen = epoch
            step += 1
            critic_loss, w_est, gp = _critic_step(generator, critic, opt_c, real[ti[idx]], cfg, rng, step)
            log.add(step=step, kind="critic", epoch=epoch,
                    critic_loss=critic_loss, wasserstein_estimate=w_est, gp_term=gp)

        z = models.sample_latent(rng, cfg.batch_size, cfg.z_len, cfg.latent)
        zero_grads(generator.params)
        with _frozen(critic.params):
            fake = generator.forward(z, mode="train", rng=rng)
            loss_g = ad.neg(ad.mean_(critic.forward(fake, mode="train", rng=rng)))
            step += 1
            generator_loss = _finite_loss(loss_g, step, "generator")
            ad.backward(loss_g)
        adam_step(generator.params, opt_g)
        log.add(step=step, kind="generator", epoch=epoch_seen, generator_loss=generator_loss)
    _log_gan_validation(log, step, epoch_seen, generator, critic, val_real, cfg, rng)
    for net in (generator, critic):
        for name, p in net.params.items():
            if not np.isfinite(p.data).all():
                raise DivergenceError(f"{net.spec.name} parameter {name} holds NaN or inf after step {step}")
    return generator, critic, log


def _critic_step(generator, critic, opt_c, real_batch, cfg, rng, step) -> tuple[float, float, float]:
    """One critic update on a real batch and a fresh fake one; returns the
    critic loss, the Wasserstein estimate and the gradient penalty. Its
    batches, scores and losses die when it returns, before the generator
    step allocates."""
    z = models.sample_latent(rng, cfg.batch_size, cfg.z_len, cfg.latent)
    with ad.no_grad():
        fake_batch = generator.forward(z, mode="train", rng=rng).data

    zero_grads(critic.params)
    c_real = critic.forward(Tensor(real_batch), mode="train", rng=rng)
    c_fake = critic.forward(Tensor(fake_batch), mode="train", rng=rng)
    gp = gradient_penalty(critic, real_batch, fake_batch, rng)
    w_est = ad.sub(ad.mean_(c_real), ad.mean_(c_fake))
    loss_c = ad.add(ad.neg(w_est), ad.mul(Tensor(cfg.gp_lambda), gp))
    critic_loss = _finite_loss(loss_c, step, "critic")
    ad.backward(loss_c)
    adam_step(critic.params, opt_c)
    return critic_loss, w_est.item(), gp.item()


def _log_gan_validation(log, step, epoch, generator, critic, val_real, cfg, rng):
    """Log the Wasserstein estimate of the held-out rows `val_real`
    against as many fresh fakes; no row when nothing is held out."""
    n = val_real.shape[0]
    if n == 0:
        return
    z = models.sample_latent(rng, n, cfg.z_len, cfg.latent)
    fake = models.infer(generator, z.data)
    w = float(models.infer(critic, val_real).mean() - models.infer(critic, fake).mean())
    if not np.isfinite(w):
        raise DivergenceError(f"gan validation estimate is {w} at step {step}")
    log.add(step=step, kind="validation", epoch=epoch, val_loss=w)


# ---------------------------------------------------------------------------


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, stable for large logits."""
    t = Tensor(targets)
    absx = ad.add(ad.relu(logits), ad.relu(ad.neg(logits)))
    softplus = ad.add(ad.relu(logits), ad.log(ad.add(Tensor(1.0), ad.exp(ad.neg(absx)))))
    return ad.mean_(ad.sub(softplus, ad.mul(logits, t)))


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = ad.sub(pred, Tensor(target))
    return ad.mean_(ad.mul(diff, diff))


def _spectrogram_batch(samples: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """The classifier's (N, 64, 64, 1) input, of ``autodiff.DTYPE``: the mel
    spectrogram of each row of the [N, L, 1] `samples`, computed from that
    row alone as a float64 ``Signal`` and cast into the batch, so no
    float64 signal list or float64 batch is held."""
    out = np.empty((len(samples), SPEC_FRAMES, MEL_BANDS, 1), dtype=ad.DTYPE)
    for grid, row in zip(out, samples[:, :, 0]):
        grid[:, :, 0] = mel_spectrogram(Signal(row, sample_rate_hz))
    return out


def _fit(
    net: Network,
    cfg: RunConfig,
    rng: np.random.Generator,
    kind: str,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss,
    val_loss,
) -> TrainLog:
    """Adam on `loss(output, targets)` (a Tensor) over shuffled batches of
    the training rows for `cfg.epochs` epochs.

    `val_loss(output, targets)` (numpy in, a float out) scores the held-out
    rows after every epoch, or the training rows when the hold-out rounds
    to none; a NaN or inf score raises DivergenceError. `net` ends with the
    parameters of its best epoch.
    """
    vi, ti = _hold_out(rng, len(inputs), cfg.val_fraction)
    if vi.size == 0:
        vi = ti
    opt = _adam(cfg)
    log = TrainLog()
    best_val = np.inf
    best_state = net.state_dict()
    step = 0
    batch = min(cfg.batch_size, len(ti))

    for epoch in range(cfg.epochs):
        order = ti[rng.permutation(len(ti))]
        for i in range(len(ti) // batch):
            idx = order[i * batch : (i + 1) * batch]
            zero_grads(net.params)
            # `out` lives until the next batch's forward replaces it: freed
            # after backward instead, glibc's default malloc trims and
            # re-faults the heap top every step (2.5x the minor page faults
            # of a paper-scale denoiser run, and 10-15 % slower). The CLI
            # pins malloc's thresholds (`cli._pin_malloc_thresholds`), which
            # also stops this, but library callers do not get that policy
            out = net.forward(Tensor(inputs[idx]), mode="train", rng=rng)
            batch_loss = loss(out, targets[idx])
            step += 1
            value = _finite_loss(batch_loss, step, kind)
            ad.backward(batch_loss)
            adam_step(net.params, opt)
            log.add(step=step, kind=kind, epoch=epoch, loss=value)
        value = val_loss(models.infer(net, inputs[vi]), targets[vi])
        if not np.isfinite(value):
            raise DivergenceError(f"{kind} validation loss is {value} at epoch {epoch}")
        log.add(step=step, kind="validation", epoch=epoch, val_loss=value)
        if value < best_val:
            best_val = value
            best_state = net.state_dict()

    net.load_state_dict(best_state)
    return log


def train_inception(
    samples: np.ndarray,
    labels: np.ndarray,
    sample_rate_hz: float,
    cfg: RunConfig,
    seed: int,
) -> tuple[Network, TrainLog]:
    """Multilabel classifier on mel spectrograms, binary cross-entropy loss
    on the network's output logits.

    `samples` [N, L, 1] of ``autodiff.DTYPE``, `labels` [N, 5] and the
    sample rate are what ``signals.read_dataset_f32`` returns; the samples
    are only read, one row at a time (``_spectrogram_batch``). Validated
    after every epoch; the parameters with the lowest validation loss are
    returned. Batch norm uses batch statistics in training only.
    """
    _check_training_array(samples, "training signal")
    rng = np.random.default_rng(seed)
    net = models.build("inception", seed=seed)
    log = _fit(net, cfg, rng, "classifier", _spectrogram_batch(samples, sample_rate_hz), labels.astype(np.float64),
               bce_with_logits, _bce_numpy)
    return net, log


def _bce_numpy(logits: np.ndarray, targets: np.ndarray) -> float:
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    return float(np.mean(softplus - logits * targets))


# ---------------------------------------------------------------------------


DENOISER_VARIANTS = ("baseline", "phase_shuffle", "pretrained")


def train_denoiser(
    clean: np.ndarray,
    noisy: np.ndarray,
    cfg: RunConfig,
    variant: str,
    seed: int,
    critic_state: dict[str, np.ndarray] | None = None,
) -> tuple[Network, TrainLog]:
    """MSE training of the autoencoder on clean/noisy pairs.

    `clean` and `noisy` hold the finite pairs as two [N, L, 1] arrays of
    ``autodiff.DTYPE``, row i of each one pair: the halves
    ``signals.read_pairs_f32`` returns, or ``_signals_to_array`` of each
    side of ``SignalPair``s. They are only read, and may be read-only
    views of a file's bytes; batches are copied out of them.

    Variants: `phase_shuffle` inserts shuffles before each encoder
    convolution (training only); `pretrained` starts the encoder from a
    critic checkpoint. The epoch with the best validation loss wins.
    """
    if variant not in DENOISER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {DENOISER_VARIANTS}")
    rng = np.random.default_rng(seed)

    for x in (noisy, clean):
        _check_training_array(x, "training pair")
    if clean.shape != noisy.shape:
        raise ValueError(f"clean {clean.shape} and noisy {noisy.shape} training pairs differ in shape")

    shuffle_n = cfg.phase_shuffle if variant == "phase_shuffle" else 0
    net = models.build("denoiser", d=cfg.model_dim, signal_length=noisy.shape[1], seed=seed,
                       phase_shuffle_n=shuffle_n)
    if variant == "pretrained":
        if critic_state is None:
            raise ValueError("pretrained variant needs a critic checkpoint")
        models.transfer_critic_to_denoiser(critic_state, net)

    log = _fit(net, cfg, rng, "denoiser", noisy, clean, mse_loss, _mse_numpy)
    return net, log


def _mse_numpy(pred: np.ndarray, target: np.ndarray) -> float:
    # pred and target are float32; their difference is not rounded to float32
    return float(np.mean(np.subtract(pred, target, dtype=np.float64) ** 2))


def network_denoiser(net: Network):
    """`evaluate_denoiser`'s denoise function for a trained denoiser: one
    batched inference over the noisy signals."""

    def denoise(noisy: list[Signal]) -> list[Signal]:
        out = models.infer(net, _signals_to_array(noisy, "noisy signal"))
        return [Signal(y[:, 0], s.sample_rate_hz) for y, s in zip(out, noisy)]

    return denoise


# ---------------------------------------------------------------------------


COMPOSITIONS = ("real-only", "synthetic-only", "mixed")
SWEEP_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class SweepRow:
    composition: str
    size: int
    real_report: MetricReport
    synthetic_report: MetricReport


SWEEP_CSV_HEADER = (
    "composition,size,"
    "real_mse,real_snr_db,real_delta_hr_hz,"
    "synthetic_mse,synthetic_snr_db,synthetic_delta_hr_hz"
)


def sweep_to_csv(rows: list[SweepRow]) -> str:
    return csv_table(SWEEP_CSV_HEADER, [
        (r.composition, str(r.size), r.real_report.mse, r.real_report.snr_db, r.real_report.delta_hr_hz,
         r.synthetic_report.mse, r.synthetic_report.snr_db, r.synthetic_report.delta_hr_hz)
        for r in rows
    ])


def ablation_sweep(
    real: list[SignalPair],
    synthetic: list[SignalPair],
    sizes: list[int],
    cfg: RunConfig,
    seed: int,
    compositions: tuple[str, ...],
) -> list[SweepRow]:
    """One trained denoiser per (composition, size); rows sorted by both keys.

    A held-out SWEEP_TEST_FRACTION of each dataset provides the real and
    synthetic evaluation sets shared by every row.
    """
    for comp in compositions:
        if comp not in COMPOSITIONS:
            raise ValueError(f"unknown composition {comp!r}")
    if not sizes:
        raise ValueError("no sizes to sweep")
    if min(sizes) < 1:
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")
    for kind, values in (("size", sizes), ("composition", compositions)):
        twice = [v for i, v in enumerate(values) if v in values[:i]]
        if twice:
            raise ValueError(f"{kind} {twice[0]!r} is given twice")
    rng = np.random.default_rng(seed)
    real = [real[i] for i in rng.permutation(len(real))]
    synthetic = [synthetic[i] for i in rng.permutation(len(synthetic))]
    n_test_r = max(1, int(round(SWEEP_TEST_FRACTION * len(real))))
    n_test_s = max(1, int(round(SWEEP_TEST_FRACTION * len(synthetic))))
    test_real, pool_real = real[:n_test_r], real[n_test_r:]
    test_synth, pool_synth = synthetic[:n_test_s], synthetic[n_test_s:]

    rows = []
    for comp in sorted(compositions):
        for size in sorted(sizes):
            train_pairs = _compose(pool_real, pool_synth, comp, size, rng)
            noisy = _signals_to_array([p.noisy for p in train_pairs], "training pair")
            clean = _signals_to_array([p.clean for p in train_pairs], "training pair")
            net, _ = train_denoiser(clean, noisy, cfg, "baseline", seed)
            denoise = network_denoiser(net)
            rows.append(
                SweepRow(
                    composition=comp,
                    size=size,
                    real_report=evaluate_denoiser(denoise, test_real, f"{comp}/{size}/real"),
                    synthetic_report=evaluate_denoiser(denoise, test_synth, f"{comp}/{size}/synthetic"),
                )
            )
    return rows


def _compose(pool_real, pool_synth, comp, size, rng):
    if comp == "real-only":
        if size > len(pool_real):
            raise ValueError(f"size {size} exceeds the {len(pool_real)} available real pairs")
        return pool_real[:size]
    if comp == "synthetic-only":
        if size > len(pool_synth):
            raise ValueError(f"size {size} exceeds the {len(pool_synth)} available synthetic pairs")
        return pool_synth[:size]
    half = size // 2
    if half > len(pool_real) or size - half > len(pool_synth):
        raise ValueError(f"size {size} exceeds the available mixed pool")
    mix = pool_real[:half] + pool_synth[: size - half]
    return [mix[i] for i in rng.permutation(len(mix))]
