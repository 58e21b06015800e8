"""Training loops: adversarial generator/critic pair, spectrogram
classifier, and the denoising autoencoder, plus the training-set-size
ablation driver."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .autodiff import Tensor
from .dsp import mel_spectrogram
from .metrics import MetricReport, evaluate_denoiser, inception_score
from .models import Network
from .optim import AdamState, adam_step, collect_grads, zero_grads
from .signals import LabeledDataset, Signal, SignalPair


@dataclass
class GanConfig:
    batch_size: int = 64
    d: int = 16
    gp_lambda: float = 10.0
    critic_updates: int = 5
    phase_shuffle: int = 2
    adam_lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 1
    latent: str = "uniform"
    z_len: int = 100
    generator_steps: int | None = None  # overrides the epoch budget when set
    val_fraction: float = 0.1
    is_eval_every: int = 10  # epochs between inception-score model selections
    is_eval_batch: int = 1024

    def __post_init__(self):
        if min(self.batch_size, self.d, self.critic_updates, self.epochs, self.z_len) < 1:
            raise ValueError("config integers must be positive")
        if self.gp_lambda < 0 or self.phase_shuffle < 0:
            raise ValueError("gp_lambda and phase_shuffle must be non-negative")
        if self.latent not in ("uniform", "normal"):
            raise ValueError(f"unknown latent distribution {self.latent!r}")


@dataclass
class ClassifierConfig:
    epochs: int = 100
    batch_size: int = 64
    adam_lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    val_fraction: float = 0.1


@dataclass
class DenoiserConfig:
    d: int = 16
    epochs: int = 10
    batch_size: int = 64
    adam_lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    phase_shuffle: int = 2
    val_fraction: float = 0.1


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
    """A training loss became NaN or inf."""


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
    cfg: GanConfig,
    seed: int,
    classifier: Network | None = None,
) -> tuple[Network, Network, TrainLog]:
    """Adversarial training: `critic_updates` critic steps per generator step.

    The critic minimizes E[C(fake)] - E[C(real)] + lambda * GP, the
    generator minimizes -E[C(fake)]. Phase shuffle is active in the
    critic during training only. When a spectrogram classifier is given,
    generator checkpoints are scored by inception score every
    `is_eval_every` epochs and the best one is returned.
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
    n_val = int(round(cfg.val_fraction * len(real)))
    perm = rng.permutation(len(real))
    val_data = data[perm[:n_val]]
    train_data = data[perm[n_val:]]
    if train_data.shape[0] < cfg.batch_size:
        raise ValueError(
            f"{train_data.shape[0]} training signals cannot fill one batch of {cfg.batch_size}"
        )

    generator = models.build("generator", d=cfg.d, z_len=cfg.z_len, signal_length=length, seed=seed)
    critic = models.build("critic", d=cfg.d, signal_length=length, seed=seed + 1,
                          phase_shuffle_n=cfg.phase_shuffle)
    opt_g = AdamState(alpha=cfg.adam_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    opt_c = AdamState(alpha=cfg.adam_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)

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


def train_inception(
    ds: LabeledDataset,
    cfg: ClassifierConfig,
    seed: int,
    val: LabeledDataset | None = None,
) -> tuple[Network, TrainLog]:
    """Multilabel classifier on mel spectrograms, binary cross-entropy loss.

    Validated after every epoch; the parameters with the lowest
    validation loss are returned.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    _require_finite((s.samples for s in ds.signals), "training signal")
    if val is not None:
        _require_finite((s.samples for s in val.signals), "validation signal")
    rng = np.random.default_rng(seed)
    x = _spectrogram_batch(ds.signals)
    y = ds.labels.astype(np.float64)

    if val is not None:
        xv, yv = _spectrogram_batch(val.signals), val.labels.astype(np.float64)
    else:
        n_val = int(round(cfg.val_fraction * len(ds)))
        perm = rng.permutation(len(ds))
        if n_val:
            xv, yv = x[perm[:n_val]], y[perm[:n_val]]
            x, y = x[perm[n_val:]], y[perm[n_val:]]
        else:
            xv, yv = x, y

    net = models.build("inception", seed=seed)
    opt = AdamState(alpha=cfg.adam_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    log = TrainLog()
    best_val = np.inf
    best_state = net.state_dict()
    step = 0
    batch = min(cfg.batch_size, x.shape[0])

    for epoch in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        for i in range(max(1, x.shape[0] // batch)):
            idx = order[i * batch : (i + 1) * batch]
            if idx.size == 0:
                continue
            zero_grads(net.params)
            # classifier applies batch norm statistics in train mode only
            logits = net.forward(Tensor(x[idx]), mode="train", stop_at="sigmoid")
            loss = bce_with_logits(logits, y[idx])
            step += 1
            value = _finite_loss(loss, step, "classifier")
            ad.backward(loss)
            adam_step(net.params, collect_grads(net.params), opt)
            log.add(step=step, kind="classifier", epoch=epoch, loss=value)
        val_loss = _bce_numpy(models.infer(net, xv, stop_at="sigmoid"), yv)
        log.add(step=step, kind="validation", epoch=epoch, val_loss=val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_state = net.state_dict()

    net.load_state_dict(best_state)
    return net, log


def _bce_numpy(logits: np.ndarray, targets: np.ndarray) -> float:
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    return float(np.mean(softplus - logits * targets))


# ---------------------------------------------------------------------------


DENOISER_VARIANTS = ("baseline", "phase_shuffle", "pretrained")


def train_denoiser(
    pairs: list[SignalPair],
    cfg: DenoiserConfig,
    variant: str = "baseline",
    seed: int = 0,
    critic_state: dict[str, np.ndarray] | None = None,
    val_pairs: list[SignalPair] | None = None,
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
    if val_pairs is None:
        n_val = int(round(cfg.val_fraction * len(pairs)))
        perm = rng.permutation(len(pairs))
        vi, ti = perm[:n_val], perm[n_val:]
        noisy_v, clean_v = noisy[vi], clean[vi]
        noisy, clean = noisy[ti], clean[ti]
        if noisy_v.shape[0] == 0:
            noisy_v, clean_v = noisy, clean
    else:
        noisy_v = _signals_to_array([p.noisy for p in val_pairs])
        clean_v = _signals_to_array([p.clean for p in val_pairs])
        _require_finite(np.concatenate([noisy_v, clean_v], axis=2), "validation pair")

    shuffle_n = cfg.phase_shuffle if variant == "phase_shuffle" else 0
    net = models.build("denoiser", d=cfg.d, signal_length=length, seed=seed,
                       phase_shuffle_n=shuffle_n)
    if variant == "pretrained":
        if critic_state is None:
            raise ValueError("pretrained variant needs a critic checkpoint")
        models.transfer_critic_to_denoiser(critic_state, net)

    opt = AdamState(alpha=cfg.adam_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    log = TrainLog()
    best_val = np.inf
    best_state = net.state_dict()
    step = 0
    batch = min(cfg.batch_size, noisy.shape[0])

    for epoch in range(cfg.epochs):
        order = rng.permutation(noisy.shape[0])
        for i in range(max(1, noisy.shape[0] // batch)):
            idx = order[i * batch : (i + 1) * batch]
            if idx.size == 0:
                continue
            zero_grads(net.params)
            out = net.forward(Tensor(noisy[idx]), mode="train", rng=rng)
            loss = mse_loss(out, clean[idx])
            step += 1
            value = _finite_loss(loss, step, "denoiser")
            ad.backward(loss)
            adam_step(net.params, collect_grads(net.params), opt)
            log.add(step=step, kind="denoiser", epoch=epoch, loss=value)
        val_loss = _denoiser_val_loss(net, noisy_v, clean_v)
        log.add(step=step, kind="validation", epoch=epoch, val_loss=val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_state = net.state_dict()

    net.load_state_dict(best_state)
    return net, log


def _denoiser_val_loss(net: Network, noisy: np.ndarray, clean: np.ndarray) -> float:
    return float(np.mean((models.infer(net, noisy) - clean) ** 2))


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
    cfg: DenoiserConfig,
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

            def denoise(noisy: list[Signal]) -> list[Signal]:
                out = models.infer(net, _signals_to_array(noisy))
                return [Signal(y[:, 0], s.sample_rate_hz) for y, s in zip(out, noisy)]

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
