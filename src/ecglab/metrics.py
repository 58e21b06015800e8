"""Quantitative metrics for generated and denoised signal sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import detect_qrs
from .signals import Signal, SignalPair, csv_table

CSV_HEADER = "dataset_tag,mse,snr_db,delta_hr_hz,is_mean,is_std,d_self,d_train"


@dataclass(frozen=True)
class MetricReport:
    dataset_tag: str
    mse: float | None = None
    snr_db: float | None = None
    delta_hr_hz: float | None = None
    inception_score: tuple[float, float] | None = None
    d_self: float | None = None
    d_train: float | None = None

    def __post_init__(self):
        if self.delta_hr_hz is not None and self.delta_hr_hz < 0:
            raise ValueError("delta_hr_hz must be non-negative")
        if self.d_self is not None and self.d_self < 0:
            raise ValueError("d_self must be non-negative")
        if self.d_train is not None and self.d_train < 0:
            raise ValueError("d_train must be non-negative")
        if self.inception_score is not None and self.inception_score[0] < 1.0 - 1e-9:
            raise ValueError("inception score mean cannot drop below 1")


def reports_to_csv(reports: list[MetricReport]) -> str:
    return csv_table(CSV_HEADER, [
        (r.dataset_tag, r.mse, r.snr_db, r.delta_hr_hz, *(r.inception_score or (None, None)), r.d_self, r.d_train)
        for r in reports
    ])


# ---------------------------------------------------------------------------


def inception_score(probs: np.ndarray, splits: int) -> tuple[float, float]:
    """exp(mean KL(row || marginal)) per split; rows are sum-normalized first."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("probs must be a non-empty 2-D matrix")
    if probs.min() < 0 or probs.max() > 1:
        raise ValueError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=1)
    if np.any(sums == 0):
        raise ValueError("a row with all-zero probabilities has no label distribution")
    p = probs / sums[:, None]
    if splits < 1 or splits > p.shape[0]:
        raise ValueError("splits must be between 1 and the number of rows")
    scores = []
    for chunk in np.array_split(p, splits):
        q = chunk.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = np.where(chunk > 0, chunk * (np.log(chunk) - np.log(q)), 0.0)
        scores.append(np.exp(kl.sum(axis=1).mean()))
    return float(np.mean(scores)), float(np.std(scores))


def _as_matrix(signals: list[Signal]) -> np.ndarray:
    return np.stack([s.samples for s in signals])


def nn_distance_self(signals: list[Signal]) -> float:
    """Mean Euclidean distance from each signal to its nearest other signal."""
    if len(signals) < 2:
        raise ValueError("need at least two signals")
    x = _as_matrix(signals)
    mins = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        d2 = np.sum((x - x[i]) ** 2, axis=1)
        d2[i] = np.inf
        mins[i] = np.sqrt(d2.min())
    return float(mins.mean())


def nn_distance_train(signals: list[Signal], train: list[Signal]) -> float:
    """Mean distance from each signal to its nearest neighbor in the training set."""
    if not signals or not train:
        raise ValueError("both signal sets must be non-empty")
    x = _as_matrix(signals)
    t = _as_matrix(train)
    mins = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        mins[i] = np.sqrt(np.sum((t - x[i]) ** 2, axis=1).min())
    return float(mins.mean())


def mse(clean: Signal, test: Signal) -> float:
    if clean.length != test.length:
        raise ValueError(f"length mismatch: {clean.length} vs {test.length}")
    return float(np.mean((clean.samples - test.samples) ** 2))


def snr_db(clean: Signal, test: Signal) -> float:
    """10 log10 of clean energy over residual energy; +inf for a perfect match."""
    if clean.length != test.length:
        raise ValueError(f"length mismatch: {clean.length} vs {test.length}")
    signal_energy = float(np.sum(clean.samples**2))
    if signal_energy == 0.0:
        raise ValueError("clean signal has zero energy")
    residual = float(np.sum((test.samples - clean.samples) ** 2))
    if residual == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / residual)


def delta_hr(clean: Signal, denoised: Signal) -> float:
    """Absolute heart-rate difference in Hz, rates from the QRS detector."""
    return _delta_hr_from(detect_qrs(clean).heart_rate_hz, clean, denoised)


def _delta_hr_from(clean_hr: float, clean: Signal, denoised: Signal) -> float:
    if clean.sample_rate_hz != denoised.sample_rate_hz:
        raise ValueError("sample rate mismatch")
    return abs(clean_hr - detect_qrs(denoised).heart_rate_hz)


def evaluate_denoiser(denoise, pairs: list[SignalPair], tag: str) -> MetricReport:
    """Aggregate mse / snr / delta-HR of `denoise` over clean-noisy pairs.

    `denoise` is called once with the list of all noisy signals and
    returns the list of restored signals in the same order, so a network
    can run them as one batch; a Signal -> Signal filter is mapped over
    the list by the caller. Pass None to score the raw noisy signals
    (the no-filtering row). The clean heart rates are cached on the
    pairs, so scoring several methods on one pair list detects QRS on
    each clean signal once.
    """
    if not pairs:
        raise ValueError("no pairs to evaluate")
    noisy = [pair.noisy for pair in pairs]
    mses, snrs, dhrs = [], [], []
    for pair, restored in zip(pairs, noisy if denoise is None else denoise(noisy), strict=True):
        mses.append(mse(pair.clean, restored))
        snrs.append(snr_db(pair.clean, restored))
        dhrs.append(_delta_hr_from(pair.clean_heart_rate_hz, pair.clean, restored))
    return MetricReport(
        dataset_tag=tag,
        mse=float(np.mean(mses)),
        snr_db=float(np.mean(snrs)),
        delta_hr_hz=float(np.mean(dhrs)),
    )
