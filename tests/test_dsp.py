import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecglab import synth
from ecglab.dsp import (
    MEL_BANDS,
    STFT_WINDOW,
    QrsAnnotation,
    bandpass_filter,
    detect_qrs,
    hz_to_mel,
    mel_power,
    mel_spectrogram,
    mel_to_hz,
    uwt_decompose,
    uwt_reconstruct,
    wavelet_filter,
)
from ecglab.signals import Signal

rng = np.random.default_rng(99)


def rms(a):
    return np.sqrt(np.mean(np.square(a)))


def sine(freq, fs=500.0, n=5000):
    return Signal(np.sin(2 * np.pi * freq * np.arange(n) / fs), fs)


# ---------------------------------------------------------------------------
# mel spectrogram


def test_spectrogram_is_64_by_64():
    s = Signal(rng.normal(size=5000), 500.0)
    grid = mel_spectrogram(s)
    assert grid.bins.shape == (64, 64)
    assert grid.source_length == 5000
    assert np.max(np.abs(grid.bins)) <= 1.0


def test_spectrogram_zero_signal_all_zero():
    grid = mel_spectrogram(Signal(np.zeros(4096), 500.0))
    assert np.array_equal(grid.bins, np.zeros((64, 64)))


def test_spectrogram_short_signal_rejected():
    with pytest.raises(ValueError):
        mel_spectrogram(Signal(np.zeros(STFT_WINDOW - 1), 500.0))


def _mel_bin_oracle(freq_hz: float, fs: float) -> int:
    """Band with the largest triangular weight at freq_hz, from the mel formula."""
    mel_points = np.linspace(0.0, 2595.0 * np.log10(1 + fs / 2 / 700.0), MEL_BANDS + 2)
    hz = 700.0 * (10.0 ** (mel_points / 2595.0) - 1.0)
    best, best_w = 0, -1.0
    for m in range(MEL_BANDS):
        lo, mid, hi = hz[m], hz[m + 1], hz[m + 2]
        if lo <= freq_hz <= hi:
            w = (freq_hz - lo) / (mid - lo) if freq_hz <= mid else (hi - freq_hz) / (hi - mid)
            if w > best_w:
                best, best_w = m, w
    return best


def test_spectrogram_50hz_band():
    power = mel_power(sine(50.0))
    band_energy = power.mean(axis=0)
    peak = int(np.argmax(band_energy))
    assert peak == _mel_bin_oracle(50.0, 500.0)
    # the peak band together with its immediate neighbors dominates
    assert band_energy[peak - 1 : peak + 2].sum() / band_energy.sum() > 0.95


def test_spectrogram_scale_invariant():
    s = Signal(rng.normal(size=5000), 500.0)
    a = mel_spectrogram(s).bins
    b = mel_spectrogram(Signal(2.0 * s.samples, 500.0)).bins
    assert np.max(np.abs(a - b)) < 1e-9


def test_mel_formula_round_trip():
    f = np.array([0.0, 50.0, 120.0, 250.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)


# ---------------------------------------------------------------------------
# bandpass


def test_bandpass_passes_5hz():
    s = sine(5.0)
    assert rms(bandpass_filter(s).samples) >= 0.707 * rms(s.samples)


def test_bandpass_attenuates_50hz():
    s = sine(50.0)
    assert rms(bandpass_filter(s).samples) <= 0.1 * rms(s.samples)


def test_bandpass_zero_in_zero_out():
    out = bandpass_filter(Signal(np.zeros(2048), 500.0))
    assert np.array_equal(out.samples, np.zeros(2048))


def test_bandpass_keeps_clean_ecg(ecg_60bpm):
    # unit-scaled ECGs have a large mean; a filter that drops it would
    # score worse than no filtering at all
    pair = synth.make_training_pairs([ecg_60bpm], gamma=1.0, seed=0)[0]
    noise_mse = np.mean((pair.noisy.samples - ecg_60bpm.samples) ** 2)
    out = bandpass_filter(ecg_60bpm).samples
    assert np.mean((out - ecg_60bpm.samples) ** 2) < 0.01 * noise_mse
    assert abs(out.mean() - ecg_60bpm.samples.mean()) < 1e-12


def test_bandpass_linear():
    a = Signal(rng.normal(size=2000), 500.0)
    b = Signal(rng.normal(size=2000), 500.0)
    mix = Signal(2.0 * a.samples + 3.0 * b.samples, 500.0)
    lhs = bandpass_filter(mix).samples
    rhs = 2.0 * bandpass_filter(a).samples + 3.0 * bandpass_filter(b).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# wavelet


def test_wavelet_zero_in_zero_out():
    out = wavelet_filter(Signal(np.zeros(1024), 500.0))
    assert np.max(np.abs(out.samples)) < 1e-12


def test_wavelet_zero_threshold_reconstructs():
    s = Signal(rng.normal(size=5000), 500.0)
    out = wavelet_filter(s, threshold_scale=0.0)
    assert np.max(np.abs(out.samples - s.samples)) < 1e-8


def test_wavelet_decompose_reconstruct_inverse():
    x = rng.normal(size=777)
    details, approx = uwt_decompose(x, levels=5)
    assert len(details) == 5
    back = uwt_reconstruct(details, approx)
    assert np.max(np.abs(back - x)) < 1e-8


def test_wavelet_linear_with_zero_thresholds():
    a = rng.normal(size=1500)
    b = rng.normal(size=1500)
    fa = wavelet_filter(Signal(a, 500.0), threshold_scale=0.0).samples
    fb = wavelet_filter(Signal(b, 500.0), threshold_scale=0.0).samples
    fab = wavelet_filter(Signal(2 * a - b, 500.0), threshold_scale=0.0).samples
    assert np.max(np.abs(fab - (2 * fa - fb))) < 1e-9


def test_wavelet_improves_mse_on_noisy_ecg():
    hrs = np.random.default_rng(17).uniform(55, 95, size=20)
    cleans = synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=h) for h in hrs])
    pairs = synth.make_training_pairs(cleans, 1.0, seed=3)
    wins = 0
    for p in pairs:
        denoised = wavelet_filter(p.noisy)
        mse_noisy = np.mean((p.noisy.samples - p.clean.samples) ** 2)
        mse_den = np.mean((denoised.samples - p.clean.samples) ** 2)
        wins += mse_den < mse_noisy
    assert wins >= 16  # at least 80%


# ---------------------------------------------------------------------------
# QRS detection


def test_qrs_on_60bpm(ecg_60bpm):
    ann = detect_qrs(ecg_60bpm)
    assert abs(len(ann.peak_indices) - 10) <= 1
    assert abs(ann.heart_rate_hz - 1.0) <= 0.05


def test_qrs_on_90bpm(ecg_90bpm):
    ann = detect_qrs(ecg_90bpm)
    assert abs(ann.heart_rate_hz - 1.5) <= 0.07


def test_qrs_flat_signal():
    ann = detect_qrs(Signal(np.zeros(5000), 500.0))
    assert len(ann.peak_indices) == 0
    assert ann.heart_rate_hz == 0.0


def test_qrs_shift_equivariance(ecg_60bpm):
    base = detect_qrs(ecg_60bpm).peak_indices
    k = 37
    delayed = Signal(np.concatenate([np.zeros(k), ecg_60bpm.samples[:-k]]), 500.0)
    shifted = detect_qrs(delayed).peak_indices
    # compare peaks detected in both (edges may differ by one beat)
    m = min(len(base), len(shifted))
    diffs = shifted[:m] - base[:m] - k
    assert np.all(np.abs(diffs) <= 2)


def test_qrs_annotation_requires_increasing_indices():
    with pytest.raises(ValueError):
        QrsAnnotation(np.array([5, 4]), 1.0)


@settings(max_examples=10, deadline=None)
@given(hr=st.floats(55, 110))
def test_qrs_tracks_commanded_rate(hr):
    s = synth.mcsharry_generate(synth.McSharryParams(heart_rate_bpm=hr, duration_s=10.0))
    ann = detect_qrs(s)
    assert abs(ann.heart_rate_hz - hr / 60.0) < 0.07
