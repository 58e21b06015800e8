"""Training loops: adversarial generator/critic pair, spectrogram
classifier, and the denoising autoencoder, plus the training-set-size
ablation driver. Every trainer takes the one `config.RunConfig`; the
classifier and the denoiser share one supervised loop, `_fit`."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .autodiff import Tensor
from .config import RunConfig
from .dsp import mel_spectrogram
from .metrics import MetricReport, evaluate_denoiser, inception_score
from .models import Network
from .optim import AdamState, adam_step, collect_grads, zero_grads
from .signals import LabeledDataset, Signal, SignalPair


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

    def of_kind(self, kind: str) -> list[LogRow]:
        return [r for r in self.rows if r.kind == kind]

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            cells = [str(r.step), r.kind, str(r.epoch)] + [
                "" if v is None else repr(float(v))
                for v in (r.critic_loss, r.generator_loss, r.wasserstein_estimate,
                          r.gp_term, r.loss, r.val_loss)
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


class DivergenceError(RuntimeError):
    """A training or validation loss became NaN or inf."""


def _signals_to_array(signals: list[Signal]) -> np.ndarray:
    return np.stack([s.samples for s in signals])[:, :, None]


def _require_finite(records, what: str) -> None:
    """ValueError naming the first record (array) that holds NaN or inf."""
    for i, rec in enumerate(records):
        if not np.isfinite(rec).all():
            raise ValueError(f"{what} {i} holds NaN or inf")


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
    return ad.mean_(ad.pow_const(ad.sub(norms, Tensor(1.0)), 2))


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
    real: list[Signal],
    cfg: RunConfig,
    seed: int,
    classifier: Network | None = None,
) -> tuple[Network, Network, TrainLog]:
    """Adversarial training: `critic_updates` critic steps per generator step.

    The critic minimizes E[C(fake)] - E[C(real)] + lambda * GP, the
    generator minimizes -E[C(fake)]. Phase shuffle is active in the
    critic during training only. When a spectrogram classifier is given,
    generator checkpoints are scored by inception score every
    `cfg.is_eval_every` epochs (on `cfg.is_eval_batch` samples) and the
    best one is returned; no CLI subcommand passes a classifier yet.
    """
    if not real:
        raise ValueError("no training signals")
    length = real[0].length
    if any(s.length != length for s in real):
        raise ValueError("all training signals must share one length")
    rate = real[0].sample_rate_hz

    rng = np.random.default_rng(seed)
    data = _signals_to_array(real)
    _require_finite(data, "training signal")
    vi, ti = _hold_out(rng, len(real), cfg.val_fraction)
    val_data, train_data = data[vi], data[ti]
    if train_data.shape[0] < cfg.batch_size:
        raise ValueError(
            f"{train_data.shape[0]} training signals cannot fill one batch of {cfg.batch_size}"
        )

    generator = models.build("generator", d=cfg.model_dim, z_len=cfg.z_len, signal_length=length, seed=seed)
    critic = models.build("critic", d=cfg.model_dim, signal_length=length, seed=seed + 1,
                          phase_shuffle_n=cfg.phase_shuffle)
    opt_g, opt_c = _adam(cfg), _adam(cfg)

    batches_per_epoch = train_data.shape[0] // cfg.batch_size
    if cfg.generator_steps is not None:
        total_gen_steps = cfg.generator_steps
    else:
        total_gen_steps = max(1, (cfg.epochs * batches_per_epoch) // cfg.critic_updates)

    log = TrainLog()
    stream = _epoch_batches(rng, train_data.shape[0], cfg.batch_size)
    step = 0
    epoch_seen = 0
    best_is = -np.inf
    best_gen_state: dict[str, np.ndarray] | None = None

    def end_epoch(done: int) -> None:
        """Validate the epoch just trained; every is_eval_every epochs, keep
        the generator with the best inception score."""
        nonlocal best_is, best_gen_state
        _log_gan_validation(log, step, done, generator, critic, val_data, cfg, rng)
        if classifier is not None and (done + 1) % cfg.is_eval_every == 0:
            score = _inception_of_generator(generator, classifier, cfg, rate, rng)
            if score > best_is:
                best_is = score
                best_gen_state = generator.state_dict()

    for _ in range(total_gen_steps):
        for _ in range(cfg.critic_updates):
            epoch, idx = next(stream)
            if epoch > epoch_seen:
                end_epoch(epoch_seen)
                epoch_seen = epoch
            real_batch = train_data[idx]
            z = models.sample_latent(rng, cfg.batch_size, cfg.z_len, cfg.latent)
            with ad.no_grad():
                fake_batch = generator.forward(z, mode="train", rng=rng).data

            zero_grads(critic.params)
            c_real = critic.forward(Tensor(real_batch), mode="train", rng=rng)
            c_fake = critic.forward(Tensor(fake_batch), mode="train", rng=rng)
            gp = gradient_penalty(critic, real_batch, fake_batch, rng)
            w_est = ad.sub(ad.mean_(c_real), ad.mean_(c_fake))
            loss_c = ad.add(ad.neg(w_est), ad.mul(Tensor(cfg.gp_lambda), gp))
            step += 1
            critic_loss = _finite_loss(loss_c, step, "critic")
            ad.backward(loss_c)
            adam_step(critic.params, collect_grads(critic.params), opt_c)
            log.add(step=step, kind="critic", epoch=epoch,
                    critic_loss=critic_loss, wasserstein_estimate=w_est.item(),
                    gp_term=gp.item())

        z = models.sample_latent(rng, cfg.batch_size, cfg.z_len, cfg.latent)
        zero_grads(generator.params)
        zero_grads(critic.params)
        fake = generator.forward(z, mode="train", rng=rng)
        loss_g = ad.neg(ad.mean_(critic.forward(fake, mode="train", rng=rng)))
        step += 1
        generator_loss = _finite_loss(loss_g, step, "generator")
        ad.backward(loss_g)
        adam_step(generator.params, collect_grads(generator.params), opt_g)
        log.add(step=step, kind="generator", epoch=epoch_seen, generator_loss=generator_loss)
    end_epoch(epoch_seen)

    if best_gen_state is not None:
        generator.load_state_dict(best_gen_state)
    return generator, critic, log


def _log_gan_validation(log, step, epoch, generator, critic, val_data, cfg, rng):
    if val_data.shape[0] == 0:
        return
    n = min(val_data.shape[0], cfg.batch_size)
    z = models.sample_latent(rng, n, cfg.z_len, cfg.latent)
    fake = models.infer(generator, z.data)
    w = float(models.infer(critic, val_data[:n]).mean() - models.infer(critic, fake).mean())
    log.add(step=step, kind="validation", epoch=epoch, val_loss=w)


def _inception_of_generator(generator, classifier, cfg, sample_rate, rng) -> float:
    z = models.sample_latent(rng, cfg.is_eval_batch, cfg.z_len, cfg.latent)
    fakes = models.infer(generator, z.data)[:, :, 0]
    grids = _spectrogram_batch([Signal(row, sample_rate) for row in fakes])
    mean, _ = inception_score(models.infer(classifier, grids), splits=10)
    return mean


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


def _spectrogram_batch(signals: Sequence[Signal]) -> np.ndarray:
    """The classifier's (N, 64, 64, 1) input: one mel spectrogram per signal."""
    return np.stack([mel_spectrogram(s).bins for s in signals])[:, :, :, None]


def _fit(
    net: Network,
    cfg: RunConfig,
    rng: np.random.Generator,
    kind: str,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss,
    val_loss,
    stop_at: str | None = None,
) -> TrainLog:
    """Adam on `loss(output, targets)` (a Tensor) over shuffled batches of
    the training rows for `cfg.epochs` epochs; `stop_at` ends the forward
    early, as in `Network.forward`.

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
            # after backward instead, malloc trims and re-faults the heap top
            # every step (2.5x the minor page faults of a paper-scale
            # denoiser run, and 10-15 % slower)
            out = net.forward(Tensor(inputs[idx]), mode="train", rng=rng, stop_at=stop_at)
            batch_loss = loss(out, targets[idx])
            step += 1
            value = _finite_loss(batch_loss, step, kind)
            ad.backward(batch_loss)
            adam_step(net.params, collect_grads(net.params), opt)
            log.add(step=step, kind=kind, epoch=epoch, loss=value)
        value = val_loss(models.infer(net, inputs[vi], stop_at=stop_at), targets[vi])
        if not np.isfinite(value):
            raise DivergenceError(f"{kind} validation loss is {value} at epoch {epoch}")
        log.add(step=step, kind="validation", epoch=epoch, val_loss=value)
        if value < best_val:
            best_val = value
            best_state = net.state_dict()

    net.load_state_dict(best_state)
    return log


def train_inception(ds: LabeledDataset, cfg: RunConfig, seed: int) -> tuple[Network, TrainLog]:
    """Multilabel classifier on mel spectrograms, binary cross-entropy loss.

    Validated after every epoch; the parameters with the lowest
    validation loss are returned. Batch norm uses batch statistics in
    training only.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    _require_finite((s.samples for s in ds.signals), "training signal")
    rng = np.random.default_rng(seed)
    net = models.build("inception", seed=seed)
    log = _fit(net, cfg, rng, "classifier", _spectrogram_batch(ds.signals), ds.labels.astype(np.float64),
               bce_with_logits, _bce_numpy, stop_at="sigmoid")
    return net, log


def _bce_numpy(logits: np.ndarray, targets: np.ndarray) -> float:
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    return float(np.mean(softplus - logits * targets))


# ---------------------------------------------------------------------------


DENOISER_VARIANTS = ("baseline", "phase_shuffle", "pretrained")


def train_denoiser(
    pairs: list[SignalPair],
    cfg: RunConfig,
    variant: str = "baseline",
    seed: int = 0,
    critic_state: dict[str, np.ndarray] | None = None,
) -> tuple[Network, TrainLog]:
    """MSE training of the autoencoder on clean/noisy pairs.

    Variants: `phase_shuffle` inserts shuffles before each encoder
    convolution (training only); `pretrained` starts the encoder from a
    critic checkpoint. The epoch with the best validation loss wins.
    """
    if not pairs:
        raise ValueError("no training pairs")
    if variant not in DENOISER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {DENOISER_VARIANTS}")
    length = pairs[0].clean.length
    rng = np.random.default_rng(seed)

    noisy = _signals_to_array([p.noisy for p in pairs])
    clean = _signals_to_array([p.clean for p in pairs])
    _require_finite(np.concatenate([noisy, clean], axis=2), "training pair")

    shuffle_n = cfg.phase_shuffle if variant == "phase_shuffle" else 0
    net = models.build("denoiser", d=cfg.model_dim, signal_length=length, seed=seed,
                       phase_shuffle_n=shuffle_n)
    if variant == "pretrained":
        if critic_state is None:
            raise ValueError("pretrained variant needs a critic checkpoint")
        models.transfer_critic_to_denoiser(critic_state, net)

    log = _fit(net, cfg, rng, "denoiser", noisy, clean, mse_loss, _mse_numpy)
    return net, log


def _mse_numpy(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def network_denoiser(net: Network):
    """`evaluate_denoiser`'s denoise function for a trained denoiser: one
    batched inference over the noisy signals."""

    def denoise(noisy: list[Signal]) -> list[Signal]:
        out = models.infer(net, _signals_to_array(noisy))
        return [Signal(y[:, 0], s.sample_rate_hz) for y, s in zip(out, noisy)]

    return denoise


# ---------------------------------------------------------------------------


COMPOSITIONS = ("real-only", "synthetic-only", "mixed")


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
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        cells = [r.composition, str(r.size)]
        for rep in (r.real_report, r.synthetic_report):
            cells += [repr(float(rep.mse)), repr(float(rep.snr_db)), repr(float(rep.delta_hr_hz))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ablation_sweep(
    real: list[SignalPair],
    synthetic: list[SignalPair],
    sizes: list[int],
    cfg: RunConfig,
    seed: int,
    compositions: tuple[str, ...] = COMPOSITIONS,
    test_fraction: float = 0.2,
) -> list[SweepRow]:
    """One trained denoiser per (composition, size); rows sorted by both keys.

    A held-out test fraction of each dataset provides the real and
    synthetic evaluation sets shared by every row.
    """
    for comp in compositions:
        if comp not in COMPOSITIONS:
            raise ValueError(f"unknown composition {comp!r}")
    rng = np.random.default_rng(seed)
    real = [real[i] for i in rng.permutation(len(real))]
    synthetic = [synthetic[i] for i in rng.permutation(len(synthetic))]
    n_test_r = max(1, int(round(test_fraction * len(real))))
    n_test_s = max(1, int(round(test_fraction * len(synthetic))))
    test_real, pool_real = real[:n_test_r], real[n_test_r:]
    test_synth, pool_synth = synthetic[:n_test_s], synthetic[n_test_s:]

    rows = []
    for comp in sorted(compositions):
        for size in sorted(sizes):
            train_pairs = _compose(pool_real, pool_synth, comp, size, rng)
            net, _ = train_denoiser(train_pairs, cfg, "baseline", seed)
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
