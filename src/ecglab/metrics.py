"""Quantitative metrics for denoised signal sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import detect_qrs_rows
from .models import INFER_BATCH
from .signals import Signal, SignalPair, csv_table

CSV_HEADER = "dataset_tag,mse,snr_db,delta_hr_hz"


@dataclass(frozen=True)
class MetricReport:
    dataset_tag: str
    mse: float
    snr_db: float
    delta_hr_hz: float

    def __post_init__(self):
        if self.delta_hr_hz < 0:
            raise ValueError("delta_hr_hz must be non-negative")


def reports_to_csv(reports: list[MetricReport]) -> str:
    return csv_table(CSV_HEADER, [(r.dataset_tag, r.mse, r.snr_db, r.delta_hr_hz) for r in reports])


# ---------------------------------------------------------------------------


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


def _heart_rates(signals: list[Signal]) -> list[float]:
    """QRS-detected heart rate of each signal: one stacked detection per
    (length, sample rate) among them."""
    groups: dict[tuple[int, float], list[int]] = {}
    for i, s in enumerate(signals):
        groups.setdefault((s.length, s.sample_rate_hz), []).append(i)
    rates = [0.0] * len(signals)
    for (_, fs), idx in groups.items():
        for i, ann in zip(idx, detect_qrs_rows(np.stack([signals[i].samples for i in idx]), fs)):
            rates[i] = ann.heart_rate_hz
    return rates


def evaluate_denoisers(denoisers: dict, pairs: list[SignalPair]) -> list[MetricReport]:
    """One MetricReport per (tag, denoise) of `denoisers`, in its order:
    the mean over clean-noisy pairs of mse, snr and delta-HR, the absolute
    difference between the QRS-detected heart rates of the clean signal
    and of the restored one.

    Each `denoise` is called with a list of noisy signals and returns the
    list of restored signals in the same order, so a network can run them
    as one batch; a Signal -> Signal filter is mapped over the list by the
    caller. None scores the raw noisy signals (the no-filtering row).

    Pairs are scored in chunks of `models.INFER_BATCH`: each denoise runs
    once per chunk, and one QRS detection runs over the chunk's clean
    signals and every method's restored ones, so each clean signal is
    detected once and the detector's filter runs once per chunk.
    """
    if not pairs:
        raise ValueError("no pairs to evaluate")
    scores = {tag: ([], [], []) for tag in denoisers}
    for start in range(0, len(pairs), INFER_BATCH):
        chunk = pairs[start : start + INFER_BATCH]
        noisy = [pair.noisy for pair in chunk]
        restored = [noisy if fn is None else list(fn(noisy)) for fn in denoisers.values()]
        for rows, (mses, snrs, _) in zip(restored, scores.values()):
            for pair, s in zip(chunk, rows, strict=True):
                mses.append(mse(pair.clean, s))
                snrs.append(snr_db(pair.clean, s))
                if s.sample_rate_hz != pair.clean.sample_rate_hz:
                    raise ValueError("sample rate mismatch")
        rates = _heart_rates([pair.clean for pair in chunk] + [s for rows in restored for s in rows])
        clean_hr, rates = rates[: len(chunk)], rates[len(chunk) :]
        for k, (_, _, dhrs) in enumerate(scores.values()):
            dhrs += [abs(c - r) for c, r in zip(clean_hr, rates[k * len(chunk) : (k + 1) * len(chunk)])]
    return [
        MetricReport(dataset_tag=tag, mse=float(np.mean(m)), snr_db=float(np.mean(s)), delta_hr_hz=float(np.mean(d)))
        for tag, (m, s, d) in scores.items()
    ]


def evaluate_denoiser(denoise, pairs: list[SignalPair], tag: str) -> MetricReport:
    """`evaluate_denoisers` of the one method `denoise`, tagged `tag`."""
    return evaluate_denoisers({tag: denoise}, pairs)[0]
