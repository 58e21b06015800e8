import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from ecglab import dsp, synth
from ecglab.dsp import (
    MEL_BANDS,
    STFT_WINDOW,
    WAVELET_LEVELS,
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
    assert grid.shape == (64, 64) and grid.dtype == np.float64
    assert not grid.flags.writeable
    assert np.max(np.abs(grid)) <= 1.0


def test_spectrogram_zero_signal_all_zero():
    grid = mel_spectrogram(Signal(np.zeros(4096), 500.0))
    assert np.array_equal(grid, np.zeros((64, 64)))
    assert not grid.flags.writeable


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
    a = mel_spectrogram(s)
    b = mel_spectrogram(Signal(2.0 * s.samples, 500.0))
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


def _uwt_round_trip(x):
    """wavelet_filter's analysis and synthesis with no thresholding between them."""
    return uwt_reconstruct(*uwt_decompose(x, WAVELET_LEVELS))


def test_wavelet_zero_threshold_reconstructs():
    x = rng.normal(size=5000)
    assert np.max(np.abs(_uwt_round_trip(x) - x)) < 1e-8


def test_wavelet_decompose_reconstruct_inverse():
    x = rng.normal(size=777)
    details, approx = uwt_decompose(x, levels=5)
    assert len(details) == 5
    back = uwt_reconstruct(details, approx)
    assert np.max(np.abs(back - x)) < 1e-8


def test_wavelet_linear_with_zero_thresholds():
    a = rng.normal(size=1500)
    b = rng.normal(size=1500)
    fa, fb, fab = _uwt_round_trip(a), _uwt_round_trip(b), _uwt_round_trip(2 * a - b)
    assert np.max(np.abs(fab - (2 * fa - fb))) < 1e-9


def test_wavelet_improves_mse_on_noisy_ecg():
    hrs = np.random.default_rng(17).uniform(55, 95, size=20)
    cleans = synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=h, sample_rate_hz=500.0, duration_s=10.0)
                                   for h in hrs])
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
    (s,) = synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=hr, sample_rate_hz=500.0, duration_s=10.0)])
    ann = detect_qrs(s)
    assert abs(ann.heart_rate_hz - hr / 60.0) < 0.07


# Peaks and heart rates recorded with numpy 2.4.6 and scipy 1.17.1 before
# the filters were cached and the RR mean became a running sum. The inputs
# are 10 s, 500 Hz McSharry signals at 62/78/94 bpm and their
# make_training_pairs(gamma=2, seed=3) noisy versions. The noisy 62 bpm
# signal takes the RR-gap searchback five times with a full 8-interval RR
# window, so the running sum's evictions decide its peaks.
QRS_GOLDEN = {
    ("clean", 62.0): ([218, 701, 1233, 1717, 2153, 2637, 3121, 3605, 4089, 4572], 1.033532384014699),
    ("noisy", 62.0): ([266, 725, 1233, 1717, 2177, 2685, 3169, 3652, 4136, 4620], 1.033532384014699),
    ("clean", 78.0): ([192, 577, 961, 1346, 1730, 2115, 2500, 2884, 3269, 3654, 4038, 4423, 4807],
                      1.3001083423618636),
    ("noisy", 78.0): ([169, 576, 961, 1346, 1730, 2115, 2500, 2884, 3269, 3654, 4038, 4423, 4807],
                      1.2936610608020696),
    ("clean", 94.0): ([137, 456, 775, 1094, 1413, 1732, 2052, 2371, 2690, 3009, 3328, 3647, 3967, 4286,
                       4605, 4924], 1.566743263003969),
    ("noisy", 94.0): ([137, 477, 774, 1094, 1413, 1732, 2052, 2371, 2690, 3009, 3328, 3647, 3966, 4286,
                       4605, 4924], 1.566743263003969),
}


@pytest.fixture(scope="module")
def golden_pairs():
    rates = (62.0, 78.0, 94.0)
    cleans = synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=hr, sample_rate_hz=500.0, duration_s=10.0)
                                   for hr in rates])
    return dict(zip(rates, synth.make_training_pairs(cleans, 2.0, seed=3)))


@pytest.mark.parametrize("kind,hr", list(QRS_GOLDEN), ids=[f"{k}-{hr:.0f}" for k, hr in QRS_GOLDEN])
def test_qrs_matches_recorded_peaks(golden_pairs, kind, hr):
    ann = detect_qrs(getattr(golden_pairs[hr], kind))
    peaks, rate = QRS_GOLDEN[kind, hr]
    assert ann.peak_indices.tolist() == peaks
    assert ann.heart_rate_hz == rate


# ---------------------------------------------------------------------------
# filter caches


@pytest.mark.parametrize("fs", [128.0, 250.0, 500.0])
@pytest.mark.parametrize("n", [16, 17, 1000, 5000])
def test_qrs_bandpass_is_bit_equal_to_sosfiltfilt(fs, n):
    x = np.random.default_rng(n).normal(size=n)
    sos = dsp._qrs_bandpass_sos(fs)[0].copy()
    assert dsp._qrs_bandpass(x, fs).tobytes() == sps.sosfiltfilt(sos, x).tobytes()


_CACHED_BUILDERS = (dsp.mel_filterbank, dsp._qrs_bandpass_sos, dsp._atrous_bank)


def test_cached_filter_arrays_are_read_only():
    arrays = [dsp.mel_filterbank(500.0), *dsp._qrs_bandpass_sos(500.0)[:2]]
    arrays += [a for pair in dsp._atrous_bank(5000, WAVELET_LEVELS) for a in pair]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_filters_follow_the_sample_rate():
    """Output at each rate does not depend on the filters another rate cached."""

    def run(s):
        q = detect_qrs(s)
        return q.peak_indices.tolist(), q.heart_rate_hz, mel_spectrogram(s), wavelet_filter(s).samples

    signals = [synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=70, sample_rate_hz=fs, duration_s=10.0)])[0]
               for fs in (500.0, 128.0)]
    fresh = []
    for s in signals:
        for builder in _CACHED_BUILDERS:
            builder.cache_clear()
        fresh.append(run(s))
    # the caches now hold the 128 Hz filters: run 500 Hz, then 128 Hz again
    for s, expected in zip(signals, fresh):
        got = run(s)
        assert got[:2] == expected[:2]
        for a, b in zip(got[2:], expected[2:]):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the numpy forms of scipy.signal, checked against scipy as the reference

# 11.2-33.3 Hz: the top band edge is 0.45 * the rate
_DESIGN_RATES = np.concatenate([np.linspace(11.2, 33.3, 48), np.geomspace(33.3, 4000.0, 160),
                                [100.0, 128.0, 250.0, 256.0, 360.0, 500.0, 1000.0]])


def test_qrs_band_design_is_bit_equal_to_butter_and_sosfilt_zi():
    for fs in _DESIGN_RATES.tolist():
        sos, zi, edge = dsp._qrs_bandpass_sos.__wrapped__(fs)
        want = sps.butter(2, [5.0, min(15.0, 0.45 * fs)], btype="bandpass", fs=fs, output="sos")
        assert sos.tobytes() == want.tobytes(), fs
        assert zi.tobytes() == sps.sosfilt_zi(want).tobytes(), fs
        assert edge == 3 * (2 * len(want) + 1)  # sosfiltfilt's default pad: no section has a zero tap


@pytest.mark.parametrize("fs", [0.5, 10.0, 11.1])
def test_qrs_band_below_its_low_edge_is_refused_naming_the_rate(fs):
    with pytest.raises(ValueError) as info:
        detect_qrs(Signal(np.random.default_rng(0).normal(size=400), fs))
    assert str(info.value) == (f"QRS detection's 5-15 Hz bandpass needs a sample rate above 11.11 Hz"
                               f" (its top edge is 0.45 * the rate below 33.3 Hz), got {fs} Hz")


@pytest.mark.parametrize("rows", [1, 2, 320])
@pytest.mark.parametrize("n", [16, 17, 129, 1000, 5030])
def test_stacked_sosfilt_is_bit_equal_to_sosfilt(rows, n):
    sos, zi, _ = dsp._qrs_bandpass_sos(250.0)
    x = np.random.default_rng(rows * n).normal(size=(rows, n)) * np.geomspace(1e-3, 1e3, rows)[:, None]
    zi_rows = zi[:, :, None] * x[:, 0]  # [section, 2, row]
    want, _ = sps.sosfilt(sos.copy(), x, zi=zi_rows.transpose(0, 2, 1))
    t = np.ascontiguousarray(x.T)
    dsp._sosfilt_rows(sos, t, zi_rows)
    assert np.ascontiguousarray(t.T).tobytes() == want.tobytes()


def test_stacked_bandpass_is_bit_equal_to_sosfiltfilt_per_row():
    x = np.random.default_rng(5).normal(size=(7, 1200)) * np.array([1e-6, 1e-3, 1, 1, 1, 1e3, 1e6])[:, None]
    sos = dsp._qrs_bandpass_sos(500.0)[0].copy()
    got = dsp._qrs_bandpass(x, 500.0)
    for row, want in zip(got, x):
        assert row.tobytes() == sps.sosfiltfilt(sos, want).tobytes()


def test_stacked_detection_matches_the_recorded_peaks(golden_pairs):
    """The six golden signals detected as one stack, between two constant
    rows (no beats) and a ramp (detected as on its own)."""
    keys = list(QRS_GOLDEN)
    ramp = np.linspace(-1, 1, 5000)
    rows = [np.zeros(5000)] + [getattr(golden_pairs[hr], kind).samples for kind, hr in keys]
    anns = dsp.detect_qrs_rows(np.stack(rows + [np.full(5000, 3.0), ramp]), 500.0)
    want = [([], 0.0)] + [QRS_GOLDEN[k] for k in keys] + [([], 0.0)]
    want.append(tuple(getattr(detect_qrs(Signal(ramp, 500.0)), f) for f in ("peak_indices", "heart_rate_hz")))
    assert [(a.peak_indices.tolist(), a.heart_rate_hz) for a in anns] == [(list(p), r) for p, r in want]


def test_short_rows_have_no_beats():
    assert [a.peak_indices.size for a in dsp.detect_qrs_rows(np.ones((3, 15)).cumsum(axis=1), 500.0)] == [0] * 3


# small integers: plateaus everywhere, touching either end, constant rows
_PEAK_ROWS = st.one_of(
    st.lists(st.integers(-2, 2), max_size=40),
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 1e-300, 2.0, 7.0]), max_size=12),
    st.lists(st.floats(-1e6, 1e6), max_size=30),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_PEAK_ROWS)
def test_local_maxima_are_find_peaks(values):
    x = np.array(values, dtype=np.float64)
    assert dsp._local_maxima(x).tolist() == sps.find_peaks(x)[0].tolist()


@pytest.mark.parametrize("values", [[], [1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0, 1.0], [3.0, 3.0, 3.0],
                                    [0, 1, 1, 0], [0, 1, 1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 2, 1, 1, 2, 0]])
def test_local_maxima_on_short_and_flat_rows(values):
    x = np.array(values, dtype=np.float64)
    assert dsp._local_maxima(x).tolist() == sps.find_peaks(x)[0].tolist()


def _refine_one_row(peaks, bp, fs):
    """The per-peak loop that `dsp._refine_peaks` replaced, kept as its reference."""
    if peaks.size == 0:
        return peaks
    half = max(1, int(round(0.10 * fs)))
    refined = []
    for p in peaks:
        lo = max(0, p - half)
        hi = min(bp.size, p + half // 2 + 1)
        refined.append(lo + int(np.argmax(np.abs(bp[lo:hi]))))
    keep = []
    for p in np.unique(np.asarray(refined, dtype=np.int64)):
        if keep and p - keep[-1] < int(round(0.2 * fs)):
            if np.abs(bp[p]) > np.abs(bp[keep[-1]]):
                keep[-1] = int(p)
        else:
            keep.append(int(p))
    return np.asarray(keep, dtype=np.int64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), fs=st.sampled_from([40.0, 128.0, 500.0]), rows=st.integers(1, 4))
def test_stacked_refine_matches_the_per_peak_loop(seed, fs, rows):
    """Windows cut by either end, empty rows, and |bp| ties (small integers)."""
    g = np.random.default_rng(seed)
    bp = g.integers(-3, 4, size=(rows, 300)).astype(np.float64)
    beats = [np.unique(g.integers(0, 300, size=g.integers(0, 12))) for _ in range(rows)]
    got = dsp._refine_peaks(beats, bp, fs)
    assert [r.tolist() for r in got] == [_refine_one_row(b, row, fs).tolist() for b, row in zip(beats, bp)]
