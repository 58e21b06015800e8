"""Quantitative metrics for denoised signal sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import detect_qrs
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


def _delta_hr_from(clean_hr: float, clean: Signal, denoised: Signal) -> float:
    """Absolute heart-rate difference in Hz between `clean_hr` and the QRS-detected rate of `denoised`."""
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
