"""Spectrogram preprocessing, classical denoising baselines and QRS detection.

Every public function works on one `Signal`; the QRS detector also runs
over a stack of signals at once (`detect_qrs_rows`). The fixed filters
behind them (the QRS bandpass per sample rate, the mel filterbank per rate
and FFT size, the a-trous wavelet spectra per length and depth) are
designed once and cached. The cached arrays are read-only, so no caller
can change what a later call sees. ``mel_spectrogram`` returns its 64x64
grid as a plain read-only float64 array.

Everything here is numpy. The QRS detector's Butterworth design, its
zero-phase filter and its peak search give the bits of the
``scipy.signal`` calls they stand for (``butter``, ``sosfilt_zi``,
``sosfiltfilt`` and ``find_peaks``); the tests check them against scipy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signals import Signal, scale_rows_to_unit

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_HANN = _read_only(np.hanning(STFT_WINDOW))


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


@lru_cache(maxsize=8)
def mel_filterbank(sample_rate_hz: float) -> np.ndarray:
    """Triangular filters over rfft power bins, rows = bands (cached, read-only)."""
    freqs = np.fft.rfftfreq(STFT_WINDOW, d=1.0 / sample_rate_hz)
    points = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), MEL_BANDS + 2))
    fb = np.zeros((MEL_BANDS, freqs.size))
    for m in range(MEL_BANDS):
        lo, mid, hi = points[m], points[m + 1], points[m + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return _read_only(fb)


def frame_starts(length: int) -> np.ndarray:
    """Frame positions: fixed hop for the first 63 frames, last full window for the 64th."""
    hop = (length - STFT_WINDOW) // (SPEC_FRAMES - 1)
    starts = np.arange(SPEC_FRAMES - 1) * hop
    return np.append(starts, length - STFT_WINDOW)


def mel_power(s: Signal) -> np.ndarray:
    """Raw 64x64 time-by-Mel power grid (before normalization)."""
    if s.length < STFT_WINDOW:
        raise ValueError(f"signal length {s.length} shorter than the {STFT_WINDOW}-sample window")
    windows = np.lib.stride_tricks.sliding_window_view(s.samples, STFT_WINDOW)
    frames = windows[frame_starts(s.length)] * _HANN
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    return power @ mel_filterbank(s.sample_rate_hz).T


def mel_spectrogram(s: Signal) -> np.ndarray:
    """The classifier's input: the 64x64 time-by-Mel power grid standardized,
    clipped at SPEC_CLIP_STD standard deviations and scaled to [-1, 1]
    (float64, read-only); all zeros for a grid of one value."""
    mel = mel_power(s)
    sd = mel.std()
    if sd == 0.0:
        return _read_only(np.zeros((SPEC_FRAMES, MEL_BANDS)))
    normalized = (mel - mel.mean()) / sd
    clipped = np.clip(normalized, -SPEC_CLIP_STD, SPEC_CLIP_STD)
    return _read_only(clipped / SPEC_CLIP_STD)


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


@lru_cache(maxsize=8)
def _atrous_bank(n: int, levels: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(lowpass, highpass) spectra of the DB6 pair dilated by 2**j, j < levels (read-only)."""
    return tuple(
        (_read_only(_dilated_fft(_DB6_LO, 2**j, n)), _read_only(_dilated_fft(_DB6_HI, 2**j, n)))
        for j in range(levels)
    )


def uwt_decompose(x: np.ndarray, levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Undecimated (a trous) analysis: detail coefficients per level + approximation."""
    n = x.size
    spec = np.fft.rfft(x)
    details = []
    for lo, hi in _atrous_bank(n, levels):
        details.append(np.fft.irfft(spec * np.conj(hi), n=n))
        spec = spec * np.conj(lo)
    return details, np.fft.irfft(spec, n=n)


def uwt_reconstruct(details: list[np.ndarray], approx: np.ndarray) -> np.ndarray:
    n = approx.size
    spec = np.fft.rfft(approx)
    for (lo, hi), d in reversed(list(zip(_atrous_bank(n, len(details)), details))):
        spec = 0.5 * (spec * lo + np.fft.rfft(d) * hi)
    return np.fft.irfft(spec, n=n)


def wavelet_filter(s: Signal) -> Signal:
    """Undecimated-wavelet shrinkage with the 6-tap Daubechies pair.

    All WAVELET_LEVELS detail levels are soft-thresholded at the universal
    threshold sigma * sqrt(2 ln N), with sigma estimated from the median
    absolute deviation of the finest detail level.
    """
    if s.length == 0:
        raise ValueError("empty signal")
    details, approx = uwt_decompose(s.samples, WAVELET_LEVELS)
    sigma = np.median(np.abs(details[0])) / 0.6745
    t = sigma * np.sqrt(2.0 * np.log(max(s.length, 2)))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - t, 0.0) for d in details]
    return Signal(uwt_reconstruct(shrunk, approx), s.sample_rate_hz)


# ---------------------------------------------------------------------------
# QRS detection


QRS_BAND_HZ = (5.0, 15.0)  # the top edge is 0.45 * the sample rate below 33.3 Hz
_FILTER_BLOCK = 128  # time steps whose b*x products `_sosfilt_rows` forms at once


@lru_cache(maxsize=8)
def _qrs_bandpass_sos(fs: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The second-order sections of detect_qrs's bandpass, their
    ``sosfilt_zi`` initial conditions (both read-only) and the pad length
    ``scipy.signal.sosfiltfilt`` uses by default.

    The sections are ``scipy.signal.butter(2, band, "bandpass", fs=fs,
    output="sos")`` bit for bit: the same steps in the same order. The
    band edges are prewarped for the bilinear transform at fs = 2; the
    two poles of the analog Butterworth lowpass are scaled and shifted
    to the band (``lp2bp_zpk``: four poles, two zeros at 0, two at
    infinity) and mapped to the z plane (``bilinear_zpk``: the zeros land
    on +1 and -1). ``zpk2sos('nearest')`` then puts the pole nearest the
    unit circle, with its conjugate, in the last section, with the zero
    pair nearest to it; the first section gets the other pole pair, the
    other zero pair and the gain. The initial conditions are
    ``lfilter_zi``'s linear solve per section, scaled by the DC gain of
    the sections before it.
    """
    lo, hi = QRS_BAND_HZ[0], min(QRS_BAND_HZ[1], 0.45 * fs)
    if not lo < hi:
        raise ValueError(f"QRS detection's {lo:g}-{QRS_BAND_HZ[1]:g} Hz bandpass needs a sample rate above"
                         f" {lo / 0.45:.2f} Hz (its top edge is 0.45 * the rate below 33.3 Hz), got {fs} Hz")
    warped = 2 * 2.0 * np.tan(np.pi * (np.array([lo, hi]) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    gain = bw**2 * np.real(16.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    # the poles come in exact conjugate pairs, so _cplxreal's average of a
    # pair is its upper pole; they are sorted by real part
    p = np.sort_complex(p[p.imag > 0])
    last = int(np.argmin(np.abs(1 - np.abs(p))))
    near = 1.0 if np.abs(1.0 - p[last]) < np.abs(-1.0 - p[last]) else -1.0  # its double zero
    sos = np.empty((2, 6))
    for section, pole, zero in ((1, p[last], near), (0, p[1 - last], -near)):
        a = np.ones(1, dtype=complex)
        for root in (pole, pole.conj()):  # np.poly's steps
            a = np.convolve(a, np.array([1.0, -root]))
        sos[section] = (1.0, -2.0 * zero, 1.0, *a.real)  # the double zero's taps are exact
    sos[0, :3] *= gain
    zi = np.empty((2, 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])  # I - companion(a).T
        zi[section] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return _read_only(sos), _read_only(zi), 3 * (2 * len(sos) + 1)


def _sosfilt_rows(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """``scipy.signal.sosfilt(sos, x, axis=0, zi=zi)[0]`` bit for bit, written
    over the time-major [time, rows] array x. zi is [section, 2, rows].

    One section at a time, each step runs ``_sosfilt``'s recurrence on all
    rows at once: y = b0*x + z0, z0 = (b1*x - a1*y) + z1, z1 = b2*x - a2*y.
    The b*x products are formed ahead for _FILTER_BLOCK steps. A step
    writes its new state [z0, z1] into one of two buffers and reads
    [z1, -0.0] of the other, so both state updates are one add: d + -0.0
    is d for every d.
    """
    rows = x.shape[1]
    m = np.empty((2, rows))
    m0, m1 = m
    for (b0, b1, b2, _, a1, a2), z in zip(sos, zi):
        a1, a2 = np.full(rows, a1), np.full(rows, a2)
        p, q = np.empty((3, rows)), np.empty((3, rows))
        p[:2] = z
        p[2] = q[2] = -0.0
        steps = ((p[0], p[1:], q[:2]), (q[0], q[1:], p[:2]))  # (z0, carry [z1, -0.0], next [z0, z1])
        k = 0
        for t in range(0, len(x), _FILTER_BLOCK):
            xb = x[t : t + _FILTER_BLOCK]
            bx0 = b0 * xb
            bx12 = np.stack((b1 * xb, b2 * xb), axis=1)
            for y, bx0_t, bx12_t in zip(xb, bx0, bx12):
                z0, carry, after = steps[k]
                np.add(bx0_t, z0, out=y)
                np.multiply(a1, y, out=m0)
                np.multiply(a2, y, out=m1)
                np.subtract(bx12_t, m, out=m)
                np.add(m, carry, out=after)
                k ^= 1


def _qrs_bandpass(x: np.ndarray, fs: float) -> np.ndarray:
    """``scipy.signal.sosfiltfilt(sos, row)`` bit for bit for each row of x,
    one signal or a [rows, n] stack, with n > the pad length (15).

    The same steps in the same order: odd extension by the pad length, a
    forward ``sosfilt`` from ``zi`` scaled by the first sample, a backward
    one from ``zi`` scaled by the last output, and the pad cropped off.
    All rows are filtered at once, time-major.
    """
    sos, zi, edge = _qrs_bandpass_sos(fs)
    t = np.atleast_2d(x).T
    ext = np.empty((len(t) + 2 * edge, t.shape[1]))  # time-major, so that each step reads one contiguous row
    ext[:edge] = 2 * t[:1] - t[edge:0:-1]
    ext[edge:-edge] = t
    ext[-edge:] = 2 * t[-1:] - t[-2 : -(edge + 2) : -1]
    _sosfilt_rows(sos, ext, zi[:, :, None] * ext[0])
    back = ext[::-1]
    _sosfilt_rows(sos, back, zi[:, :, None] * back[0])
    return np.ascontiguousarray(ext[edge:-edge].T).reshape(x.shape)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """``scipy.signal.find_peaks(x)[0]``: the local maxima of the 1-D array x.
    A flat top counts once, at its middle (rounded down), and only if it
    rises from a lower sample and falls to one; so one that touches
    either end does not count."""
    d = np.diff(x)
    moves = np.flatnonzero(d)
    rises = d[moves] > 0
    top = rises[:-1] & ~rises[1:]  # a rise whose next move is a fall
    return (moves[:-1][top] + 1 + moves[1:][top]) // 2


_NO_BEATS = QrsAnnotation(np.empty(0, dtype=np.int64), 0.0)


def detect_qrs(s: Signal) -> QrsAnnotation:
    """Classic five-stage QRS detector with adaptive thresholds.

    Stages: 5-15 Hz zero-phase bandpass, five-point derivative, squaring,
    150 ms moving-window integration, then running signal/noise peak
    estimates with a 200 ms refractory period and RR-gap searchback.
    Detected positions are refined to the local extremum of the bandpassed
    signal. heart_rate_hz is 1 / mean RR, or 0 with fewer than two peaks.
    It is the one-row case of `detect_qrs_rows`.
    """
    return detect_qrs_rows(s.samples[None], s.sample_rate_hz)[0]


def detect_qrs_rows(x: np.ndarray, fs: float) -> list[QrsAnnotation]:
    """`detect_qrs` of each row of the float64 [rows, n] stack x at rate fs.

    The scaling to [-1, 1], the bandpass and the peak refinement run once
    over the stack: the filter's cost is one Python step per sample
    whatever the row count. The bandpass and its filtfilt initial
    conditions are designed once per sample rate. The rest runs row by
    row. The threshold stage is a plain Python loop over the candidate
    peaks; it keeps the last 8 RR intervals with their running sum. The
    intervals are whole sample counts, so the sum is exact and
    sum / count is the exact mean.
    """
    out = [_NO_BEATS] * len(x)
    if x.shape[1] < 16:
        return out
    live = np.flatnonzero(np.ptp(x, axis=1) != 0.0)
    if not live.size:
        return out
    bp = _qrs_bandpass(scale_rows_to_unit(x[live]), fs)  # x[live] is a copy
    kernel = np.array([1.0, 2.0, 0.0, -2.0, -1.0]) / 8.0
    win = max(1, int(round(0.15 * fs)))
    box = np.ones(win) / win
    beats = [_threshold_beats(np.convolve(np.convolve(row, kernel, mode="same") ** 2, box, mode="same"),
                              fs, win) for row in bp]
    for i, refined in zip(live, _refine_peaks(beats, bp, fs)):
        if refined.size < 2:
            out[i] = QrsAnnotation(refined, 0.0)
        else:
            out[i] = QrsAnnotation(refined, float(1.0 / (np.diff(refined) / fs).mean()))
    return out


def _threshold_beats(mwi: np.ndarray, fs: float, win: int) -> np.ndarray:
    """The beats that the adaptive thresholds accept among the local maxima
    of one row's integrated signal `mwi`."""
    candidates = _local_maxima(mwi)
    if candidates.size == 0:
        return candidates

    lead = mwi[: max(int(2 * fs), win)]
    spki = 0.25 * lead.max()
    npki = 0.5 * lead.mean()
    threshold = npki + 0.25 * (spki - npki)
    refractory = int(round(0.2 * fs))

    peaks: list[int] = []
    rr_history: deque[int] = deque(maxlen=8)
    rr_sum = 0

    def keep_rr(rr: int) -> None:
        nonlocal rr_sum
        if len(rr_history) == rr_history.maxlen:
            rr_sum -= rr_history[0]  # the interval the deque drops
        rr_history.append(rr)
        rr_sum += rr

    last = -refractory
    for idx, val in zip(candidates.tolist(), mwi[candidates].tolist()):
        if idx - last < refractory:
            continue
        if val > threshold:
            if peaks:
                keep_rr(idx - last)
            peaks.append(idx)
            last = idx
            spki = 0.125 * val + 0.875 * spki
        else:
            # searchback: a long silent gap means a beat fell below threshold
            if rr_history and idx - last > 1.66 * (rr_sum / len(rr_history)):
                lo = last + refractory
                if lo < idx:
                    back = int(np.argmax(mwi[lo:idx])) + lo
                    if mwi[back] > 0.5 * threshold and back - last >= refractory:
                        keep_rr(back - last)
                        peaks.append(back)
                        last = back
                        spki = 0.25 * mwi[back] + 0.75 * spki
                        npki = 0.125 * val + 0.875 * npki
                        threshold = npki + 0.25 * (spki - npki)
                        continue
            npki = 0.125 * val + 0.875 * npki
        threshold = npki + 0.25 * (spki - npki)
    return np.asarray(peaks, dtype=np.int64)


def _refine_peaks(beats: list[np.ndarray], bp: np.ndarray, fs: float) -> list[np.ndarray]:
    """Snap each row's integrated-signal peaks to the nearby extremum of its
    bandpassed row of `bp`, then enforce the refractory distance again.

    The snap is one argmax of |bp| over every peak's window at once; the
    slots past a window's end hold -1, so they never win, and the first
    maximum wins, as ``np.argmax`` of each window does.
    """
    n = bp.shape[1]
    half = max(1, int(round(0.10 * fs)))
    rows = np.repeat(np.arange(len(beats)), [b.size for b in beats])
    peaks = np.concatenate(beats)
    lo = np.maximum(peaks - half, 0)
    at = lo[:, None] + np.arange(half + half // 2 + 1)
    inside = at < np.minimum(peaks + half // 2 + 1, n)[:, None]
    height = np.where(inside, np.abs(bp[rows[:, None], np.minimum(at, n - 1)]), -1.0)
    snapped = np.split(lo + np.argmax(height, axis=1), np.cumsum([b.size for b in beats])[:-1])
    min_dist = int(round(0.2 * fs))
    out = []
    for row, refined in zip(bp, snapped):
        keep: list[int] = []
        for p in np.unique(refined).tolist():
            if keep and p - keep[-1] < min_dist:
                if np.abs(row[p]) > np.abs(row[keep[-1]]):
                    keep[-1] = p
            else:
                keep.append(p)
        out.append(np.asarray(keep, dtype=np.int64))
    return out
