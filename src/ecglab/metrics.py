"""Quantitative metrics for denoised signal sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import detect_qrs_rows
from .models import INFER_BATCH
from .signals import SignalPair, csv_table

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


def mse(clean: np.ndarray, test: np.ndarray) -> float:
    """Mean squared difference of two float64 rows."""
    if clean.shape != test.shape:
        raise ValueError(f"length mismatch: {len(clean)} vs {len(test)}")
    return float(np.mean((clean - test) ** 2))


def snr_db(clean: np.ndarray, test: np.ndarray) -> float:
    """10 log10 of clean energy over residual energy of two float64 rows;
    +inf for a perfect match."""
    if clean.shape != test.shape:
        raise ValueError(f"length mismatch: {len(clean)} vs {len(test)}")
    signal_energy = float(np.sum(clean**2))
    if signal_energy == 0.0:
        raise ValueError("clean signal has zero energy")
    residual = float(np.sum((test - clean) ** 2))
    if residual == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / residual)


def evaluate_denoisers(denoisers: dict, clean: np.ndarray, noisy: np.ndarray, fs: float) -> list[MetricReport]:
    """One MetricReport per (tag, denoise) of `denoisers`, in its order:
    the mean over the clean-noisy pairs, row i of the [N, L] stacks `clean`
    and `noisy` at sample rate `fs`, of mse, snr and delta-HR, the absolute
    difference between the QRS-detected heart rates of the clean row and
    of the restored one.

    Each `denoise` maps a float64 [n, L] stack of noisy rows to the [n, L]
    stack of restored rows, so a network can run them as one batch. None
    scores the raw noisy rows (the no-filtering row).

    Pairs are scored in chunks of `models.INFER_BATCH` rows. A chunk's
    clean rows, then each method's restored ones, are written into one
    float64 stack, which casts them once: each denoise runs once per
    chunk, and one QRS detection runs over the stack, so each clean row is
    detected once and the detector's filter runs once per chunk. A
    restored stack of another shape, or with a NaN or inf, is refused.
    """
    if not len(clean):
        raise ValueError("no pairs to evaluate")
    scores = {tag: ([], [], []) for tag in denoisers}
    for start in range(0, len(clean), INFER_BATCH):
        x = np.array(noisy[start : start + INFER_BATCH], dtype=np.float64)
        n = len(x)
        stack = np.empty(((1 + len(denoisers)) * n, x.shape[1]))
        c = stack[:n]
        c[:] = clean[start : start + INFER_BATCH]
        for k, (tag, fn) in enumerate(denoisers.items(), 1):
            rows = x if fn is None else fn(x)
            if rows.shape != x.shape:
                raise ValueError(f"{tag} restored {x.shape} noisy rows as {rows.shape}")
            bad = ~np.isfinite(rows).all(axis=1)
            if bad.any():
                raise ValueError(f"{tag} restored a NaN or inf sample in pair {start + int(np.argmax(bad))}")
            restored = stack[k * n : (k + 1) * n]
            restored[:] = rows
            mses, snrs, _ = scores[tag]
            for c_row, row in zip(c, restored):
                mses.append(mse(c_row, row))
                snrs.append(snr_db(c_row, row))
        rates = [ann.heart_rate_hz for ann in detect_qrs_rows(stack, fs)]
        for k, (_, _, dhrs) in enumerate(scores.values(), 1):
            dhrs += [abs(h - r) for h, r in zip(rates[:n], rates[k * n : (k + 1) * n])]
    return [
        MetricReport(dataset_tag=tag, mse=float(np.mean(m)), snr_db=float(np.mean(s)), delta_hr_hz=float(np.mean(d)))
        for tag, (m, s, d) in scores.items()
    ]


def evaluate_denoiser(denoise, pairs: list[SignalPair], tag: str) -> MetricReport:
    """`evaluate_denoisers` of the one method `denoise`, tagged `tag`, on
    in-memory pairs, which must share one length and one sample rate."""
    if not pairs:
        raise ValueError("no pairs to evaluate")
    kinds = sorted({(p.clean.length, p.clean.sample_rate_hz) for p in pairs})
    if len(kinds) > 1:
        (n0, fs0), (n1, fs1) = kinds[:2]
        raise ValueError(f"pairs must share one length and sample rate, found {n0} samples at {fs0} Hz"
                         f" and {n1} samples at {fs1} Hz")
    clean = np.stack([p.clean.samples for p in pairs])
    noisy = np.stack([p.noisy.samples for p in pairs])
    return evaluate_denoisers({tag: denoise}, clean, noisy, kinds[0][1])[0]
