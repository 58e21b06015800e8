"""Spectrogram preprocessing, classical denoising baselines and QRS detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .signals import Signal, scale_to_unit

STFT_WINDOW = 1024
SPEC_FRAMES = 64
MEL_BANDS = 64
SPEC_CLIP_STD = 3.0

BAND_LOW_HZ = 0.05
BAND_HIGH_HZ = 30.0

# 6-tap Daubechies scaling filter (orthonormal, sum = sqrt(2))
_DB6_LO = np.array(
    [
        0.3326705529509569,
        0.8068915093133388,
        0.4598775021193313,
        -0.13501102001039084,
        -0.08544127388224149,
        0.035226291882100656,
    ]
)
# quadrature mirror highpass: g[k] = (-1)^k h[N-1-k]
_DB6_HI = ((-1.0) ** np.arange(6)) * _DB6_LO[::-1]

WAVELET_LEVELS = 6


@dataclass(frozen=True)
class Spectrogram:
    """64x64 time-by-Mel grid normalized to [-1, 1]."""

    bins: np.ndarray
    source_length: int

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)


@dataclass(frozen=True)
class QrsAnnotation:
    peak_indices: np.ndarray
    heart_rate_hz: float

    def __post_init__(self):
        idx = np.asarray(self.peak_indices, dtype=np.int64)
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("peak indices must be strictly increasing")
        idx.flags.writeable = False
        object.__setattr__(self, "peak_indices", idx)


# ---------------------------------------------------------------------------
# Mel spectrogram


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate_hz: float, n_fft: int = STFT_WINDOW, n_bands: int = MEL_BANDS) -> np.ndarray:
    """Triangular filters over rfft power bins, rows = bands."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    points = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), n_bands + 2))
    fb = np.zeros((n_bands, freqs.size))
    for m in range(n_bands):
        lo, mid, hi = points[m], points[m + 1], points[m + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def frame_starts(length: int, window: int = STFT_WINDOW, n_frames: int = SPEC_FRAMES) -> np.ndarray:
    """Frame positions: fixed hop for the first 63 frames, last full window for the 64th."""
    hop = (length - window) // (n_frames - 1)
    starts = np.arange(n_frames - 1) * hop
    return np.append(starts, length - window)


def mel_power(s: Signal) -> np.ndarray:
    """Raw 64x64 time-by-Mel power grid (before normalization)."""
    if s.length < STFT_WINDOW:
        raise ValueError(f"signal length {s.length} shorter than the {STFT_WINDOW}-sample window")
    starts = frame_starts(s.length)
    win = np.hanning(STFT_WINDOW)
    frames = np.stack([s.samples[i : i + STFT_WINDOW] * win for i in starts])
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    return power @ mel_filterbank(s.sample_rate_hz).T


def mel_spectrogram(s: Signal) -> Spectrogram:
    mel = mel_power(s)
    sd = mel.std()
    if sd == 0.0:
        return Spectrogram(np.zeros((SPEC_FRAMES, MEL_BANDS)), s.length)
    normalized = (mel - mel.mean()) / sd
    clipped = np.clip(normalized, -SPEC_CLIP_STD, SPEC_CLIP_STD)
    return Spectrogram(clipped / SPEC_CLIP_STD, s.length)


# ---------------------------------------------------------------------------
# classical baselines


def bandpass_filter(s: Signal) -> Signal:
    """Zero-phase Butterworth-magnitude bandpass keeping 0.05-30 Hz.

    Applied spectrally as the squared magnitude of a 2nd-order highpass
    and 4th-order lowpass (the forward-backward equivalent). A recursive
    realization is numerically ill-behaved at the 0.05 Hz edge on 10 s
    windows, so the response is applied in the frequency domain instead.
    The DC bin is kept: signals are scored against unit-scaled references
    whose mean is far from 0, and a filter that zeroes the mean scores
    worse than no filter at all.
    """
    if s.length == 0:
        raise ValueError("empty signal")
    n = s.length
    f = np.fft.rfftfreq(n, d=1.0 / s.sample_rate_hz)
    high = min(BAND_HIGH_HZ, 0.45 * s.sample_rate_hz)
    f4 = f**4
    hp = f4 / (f4 + BAND_LOW_HZ**4)
    hp[0] = 1.0
    lp = 1.0 / (1.0 + (f / high) ** 8)
    out = np.fft.irfft(np.fft.rfft(s.samples) * hp * lp, n=n)
    return Signal(out, s.sample_rate_hz)


def _dilated_fft(taps: np.ndarray, step: int, n: int) -> np.ndarray:
    filt = np.zeros(n)
    np.add.at(filt, (np.arange(taps.size) * step) % n, taps)
    return np.fft.rfft(filt)


def uwt_decompose(x: np.ndarray, levels: int = WAVELET_LEVELS) -> tuple[list[np.ndarray], np.ndarray]:
    """Undecimated (a trous) analysis: detail coefficients per level + approximation."""
    n = x.size
    spec = np.fft.rfft(x)
    details = []
    for j in range(levels):
        step = 2**j
        lo = _dilated_fft(_DB6_LO, step, n)
        hi = _dilated_fft(_DB6_HI, step, n)
        details.append(np.fft.irfft(spec * np.conj(hi), n=n))
        spec = spec * np.conj(lo)
    return details, np.fft.irfft(spec, n=n)


def uwt_reconstruct(details: list[np.ndarray], approx: np.ndarray) -> np.ndarray:
    n = approx.size
    spec = np.fft.rfft(approx)
    for j in reversed(range(len(details))):
        step = 2**j
        lo = _dilated_fft(_DB6_LO, step, n)
        hi = _dilated_fft(_DB6_HI, step, n)
        spec = 0.5 * (spec * lo + np.fft.rfft(details[j]) * hi)
    return np.fft.irfft(spec, n=n)


def wavelet_filter(s: Signal, levels: int = WAVELET_LEVELS, threshold_scale: float = 1.0) -> Signal:
    """Undecimated-wavelet shrinkage with the 6-tap Daubechies pair.

    All detail levels are soft-thresholded at the universal threshold
    sigma * sqrt(2 ln N), with sigma estimated from the median absolute
    deviation of the finest detail level. threshold_scale=0 turns the
    filter into a pure analysis/synthesis round trip.
    """
    if s.length == 0:
        raise ValueError("empty signal")
    details, approx = uwt_decompose(s.samples, levels)
    sigma = np.median(np.abs(details[0])) / 0.6745
    t = threshold_scale * sigma * np.sqrt(2.0 * np.log(max(s.length, 2)))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - t, 0.0) for d in details]
    return Signal(uwt_reconstruct(shrunk, approx), s.sample_rate_hz)


# ---------------------------------------------------------------------------
# QRS detection


def detect_qrs(s: Signal) -> QrsAnnotation:
    """Classic five-stage QRS detector with adaptive thresholds.

    Stages: 5-15 Hz zero-phase bandpass, five-point derivative, squaring,
    150 ms moving-window integration, then running signal/noise peak
    estimates with a 200 ms refractory period and RR-gap searchback.
    Detected positions are refined to the local extremum of the bandpassed
    signal. heart_rate_hz is 1 / mean RR, or 0 with fewer than two peaks.
    """
    fs = s.sample_rate_hz
    x = s.samples
    if x.size < 16 or np.ptp(x) == 0.0:
        return QrsAnnotation(np.empty(0, dtype=np.int64), 0.0)
    x = scale_to_unit(s).samples

    high = min(15.0, 0.45 * fs)
    sos = sps.butter(2, [5.0, high], btype="bandpass", fs=fs, output="sos")
    bp = sps.sosfiltfilt(sos, x)
    der = np.convolve(bp, np.array([1.0, 2.0, 0.0, -2.0, -1.0]) / 8.0, mode="same")
    sq = der**2
    win = max(1, int(round(0.15 * fs)))
    mwi = np.convolve(sq, np.ones(win) / win, mode="same")

    candidates, _ = sps.find_peaks(mwi)
    if candidates.size == 0:
        return QrsAnnotation(np.empty(0, dtype=np.int64), 0.0)

    lead = mwi[: max(int(2 * fs), win)]
    spki = 0.25 * lead.max()
    npki = 0.5 * lead.mean()
    threshold = npki + 0.25 * (spki - npki)
    refractory = int(round(0.2 * fs))

    peaks: list[int] = []
    rr_history: list[float] = []
    last = -refractory
    for idx in candidates:
        if idx - last < refractory:
            continue
        val = mwi[idx]
        if val > threshold:
            if peaks:
                rr_history.append(float(idx - last))
                rr_history = rr_history[-8:]
            peaks.append(idx)
            last = idx
            spki = 0.125 * val + 0.875 * spki
        else:
            # searchback: a long silent gap means a beat fell below threshold
            if rr_history and peaks and idx - last > 1.66 * np.mean(rr_history):
                lo = last + refractory
                if lo < idx:
                    seg = mwi[lo:idx]
                    back = int(np.argmax(seg)) + lo
                    if seg.size and mwi[back] > 0.5 * threshold and back - last >= refractory:
                        rr_history.append(float(back - last))
                        rr_history = rr_history[-8:]
                        peaks.append(back)
                        last = back
                        spki = 0.25 * mwi[back] + 0.75 * spki
                        npki = 0.125 * val + 0.875 * npki
                        threshold = npki + 0.25 * (spki - npki)
                        continue
            npki = 0.125 * val + 0.875 * npki
        threshold = npki + 0.25 * (spki - npki)

    refined = _refine_peaks(np.asarray(peaks, dtype=np.int64), bp, fs)
    if refined.size < 2:
        return QrsAnnotation(refined, 0.0)
    rr = np.diff(refined) / fs
    return QrsAnnotation(refined, float(1.0 / rr.mean()))


def _refine_peaks(peaks: np.ndarray, bp: np.ndarray, fs: float) -> np.ndarray:
    """Snap integrated-signal peaks to the nearby extremum of the bandpassed signal."""
    if peaks.size == 0:
        return peaks
    half = max(1, int(round(0.10 * fs)))
    refined = []
    for p in peaks:
        lo = max(0, p - half)
        hi = min(bp.size, p + half // 2 + 1)
        refined.append(lo + int(np.argmax(np.abs(bp[lo:hi]))))
    refined = np.unique(np.asarray(refined, dtype=np.int64))
    # enforce the refractory distance again after snapping
    keep: list[int] = []
    min_dist = int(round(0.2 * fs))
    for p in refined:
        if keep and p - keep[-1] < min_dist:
            if np.abs(bp[p]) > np.abs(bp[keep[-1]]):
                keep[-1] = int(p)
        else:
            keep.append(int(p))
    return np.asarray(keep, dtype=np.int64)
