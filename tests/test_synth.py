import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecglab import dsp, synth
from ecglab.signals import Signal, scale_to_unit
from ecglab.synth import (
    McSharryParams,
    NoiseParams,
    apply_noise,
    make_training_pairs,
    mcsharry_generate,
    sample_noise_params,
)


def flat_params(**kw):
    defaults = dict(
        gamma=1.0,
        bw_freq_hz=0.0,
        bw_amp=0.0,
        pl_amp=0.0,
        chirp_mod_freq_hz=1.0,
        chirp_amp=0.0,
        phases=(0.0, 0.0, 0.0, 0.0),
    )
    defaults.update(kw)
    return NoiseParams(**defaults)


# ---------------------------------------------------------------------------
# waveform model


def test_mcsharry_peak_count_matches_rate(ecg_60bpm):
    ann = dsp.detect_qrs(ecg_60bpm)
    assert abs(len(ann.peak_indices) - 10) <= 1


def test_mcsharry_rr_halves_at_double_rate():
    s = mcsharry_generate(McSharryParams(heart_rate_bpm=120))
    peaks = dsp.detect_qrs(s).peak_indices
    rr = np.diff(peaks) / s.sample_rate_hz
    assert abs(rr.mean() - 0.5) < 0.05


def test_mcsharry_output_scaled(ecg_60bpm):
    assert ecg_60bpm.samples.min() == -1.0
    assert ecg_60bpm.samples.max() == 1.0
    assert ecg_60bpm.length == 5000


def test_mcsharry_periodicity_via_autocorrelation(ecg_60bpm):
    x = ecg_60bpm.samples - ecg_60bpm.samples.mean()
    ac = np.correlate(x, x, mode="full")[x.size - 1 :]
    lag = 250 + int(np.argmax(ac[250:750]))  # search around one second
    assert abs(lag - 500) <= 2


def test_mcsharry_rejects_bad_params():
    with pytest.raises(ValueError):
        McSharryParams(pqrst_widths=(0.25, 0.1, -0.1, 0.1, 0.4))
    with pytest.raises(ValueError):
        McSharryParams(pqrst_angles=(0.3, 0.2, 0.1, 0.4, 1.7))
    with pytest.raises(ValueError):
        McSharryParams(heart_rate_bpm=0)


def test_mcsharry_batch_matches_single():
    p = McSharryParams(heart_rate_bpm=72, duration_s=2.0)
    single = mcsharry_generate(p)
    batched = synth.mcsharry_batch([p, McSharryParams(heart_rate_bpm=60, duration_s=2.0)])
    assert np.array_equal(single.samples, batched[0].samples)


def _rk4_reference(params: list[McSharryParams]) -> np.ndarray:
    """Plain fixed-step RK4 of the full (x, y, z) system, one step per sample."""
    fs = params[0].sample_rate_hz
    n = int(round(params[0].duration_s * fs))
    dt = 1.0 / fs
    omega = np.array([2.0 * np.pi * p.heart_rate_bpm / 60.0 for p in params])
    coupling = np.array([p.baseline_coupling for p in params])
    ai = np.array([p.pqrst_amplitudes for p in params])
    bi = np.array([p.pqrst_widths for p in params])
    thetai = np.array([p.pqrst_angles for p in params])

    def deriv(state, t):
        x, y, z = state
        alpha = 1.0 - np.hypot(x, y)
        dtheta = np.mod(np.arctan2(y, x)[:, None] - thetai + np.pi, 2.0 * np.pi) - np.pi
        z0 = synth.RESP_AMP * np.sin(2.0 * np.pi * synth.RESP_FREQ_HZ * t)
        dz = -np.sum(ai * dtheta * np.exp(-0.5 * (dtheta / bi) ** 2), axis=1) - coupling * (z - z0)
        return np.stack([alpha * x - omega * y, alpha * y + omega * x, dz])

    state = np.zeros((3, len(params)))
    state[0] = -1.0
    z = np.empty((len(params), n))
    for i in range(n):
        z[:, i] = state[2]
        t = i * dt
        k1 = deriv(state, t)
        k2 = deriv(state + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(state + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(state + dt * k3, t + dt)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def test_mcsharry_batch_matches_full_rk4_reference():
    params = [McSharryParams(heart_rate_bpm=hr, duration_s=2.0) for hr in (48.0, 75.0, 130.0)]
    params.append(McSharryParams(heart_rate_bpm=66.0, duration_s=2.0, baseline_coupling=40.0))
    got = synth.mcsharry_batch(params)
    ref = _rk4_reference(params)
    for s, z in zip(got, ref):
        want = scale_to_unit(Signal(z, s.sample_rate_hz)).samples
        assert np.max(np.abs(s.samples - want)) <= 1e-5


def test_mcsharry_unstable_step_raises_integration_error():
    with pytest.raises(synth.IntegrationError) as info:
        mcsharry_generate(McSharryParams(duration_s=2.0, baseline_coupling=5e3))
    msg = str(info.value)
    assert "\n" not in msg
    assert re.fullmatch(r"non-finite state at t=\d+\.\d{4}s", msg)


# ---------------------------------------------------------------------------
# noise parameter sampling


def test_sample_noise_params_deterministic():
    a = sample_noise_params(7, gamma=1.0)
    b = sample_noise_params(7, gamma=1.0)
    assert a == b


def test_sample_noise_params_gamma_passthrough():
    assert sample_noise_params(3, gamma=0.25).gamma == 0.25


def test_sample_noise_params_ranges_monte_carlo():
    draws = [sample_noise_params(seed, 1.0) for seed in range(10_000)]
    bw = np.array([d.bw_freq_hz for d in draws])
    assert bw.min() >= 0.0 and bw.max() <= 0.5
    assert abs(bw.mean() - 0.25) < 0.01
    amps = np.array([d.bw_amp for d in draws])
    assert amps.min() >= 0.0 and amps.max() <= 0.3
    pl = np.array([d.pl_amp for d in draws])
    assert pl.min() >= 0.0 and pl.max() <= 0.1
    phases = np.array([d.phases for d in draws])
    assert phases.min() >= 0.0 and phases.max() < 2 * np.pi


def test_noise_params_validate():
    with pytest.raises(ValueError):
        flat_params(gamma=-1.0)
    with pytest.raises(ValueError):
        flat_params(bw_freq_hz=0.7)


# ---------------------------------------------------------------------------
# applying noise


def test_gamma_zero_is_identity(ecg_60bpm):
    p = sample_noise_params(11, gamma=0.0)
    out = apply_noise(ecg_60bpm, p)
    assert np.array_equal(out.samples, ecg_60bpm.samples)


def test_power_line_spectral_peak():
    zero = Signal(np.zeros(5000), 500.0)
    p = flat_params(pl_amp=0.1, phases=(0.0, 1.2, 0.0, 0.0))
    out = apply_noise(zero, p)
    spec = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(5000, d=1 / 500)
    peak = freqs[np.argmax(spec)]
    assert abs(peak - 50.0) <= 0.5
    amplitude = 2.0 * spec.max() / 5000
    assert abs(amplitude - 0.1) <= 0.005


def test_baseline_wander_energy_below_1hz():
    zero = Signal(np.zeros(5000), 500.0)
    p = flat_params(bw_amp=0.3, bw_freq_hz=0.37, phases=(0.4, 0.0, 0.0, 0.0))
    out = apply_noise(zero, p)
    # hann window keeps off-bin leakage out of the energy measurement
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(5000))) ** 2
    freqs = np.fft.rfftfreq(5000, d=1 / 500)
    assert spec[freqs < 1.0].sum() / spec.sum() >= 0.99


def test_chirp_energy_in_band():
    zero = Signal(np.zeros(5000), 500.0)
    p = flat_params(chirp_amp=0.1, chirp_mod_freq_hz=0.9, phases=(0, 0, 0.3, 1.1))
    out = apply_noise(zero, p)
    spec = np.abs(np.fft.rfft(out.samples)) ** 2
    freqs = np.fft.rfftfreq(5000, d=1 / 500)
    band = (freqs >= 0.5) & (freqs <= 120.0)
    assert spec[band].sum() / spec.sum() >= 0.95


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.floats(0.01, 4.0))
def test_noise_linear_in_gamma(seed, gamma):
    rng = np.random.default_rng(seed)
    x = Signal(rng.normal(size=600), 500.0)
    p1 = sample_noise_params(seed, gamma)
    p2 = NoiseParams(**{**p1.__dict__, "gamma": 2 * gamma})
    d1 = apply_noise(x, p1).samples - x.samples
    d2 = apply_noise(x, p2).samples - x.samples
    assert np.max(np.abs(d2 - 2.0 * d1)) < 1e-12


def test_empty_signal_rejected():
    with pytest.raises(ValueError):
        apply_noise(Signal(np.zeros(0), 500.0), flat_params())


# ---------------------------------------------------------------------------
# pairs


def test_make_pairs_distinct_noise(ecg_60bpm):
    pairs = make_training_pairs([ecg_60bpm] * 3, gamma=1.0, seed=0)
    assert len(pairs) == 3
    assert not np.array_equal(pairs[0].noisy.samples, pairs[1].noisy.samples)
    assert not np.array_equal(pairs[1].noisy.samples, pairs[2].noisy.samples)


def test_make_pairs_gamma_zero(ecg_60bpm):
    pairs = make_training_pairs([ecg_60bpm] * 2, gamma=0.0, seed=0)
    for p in pairs:
        assert np.array_equal(p.noisy.samples, p.clean.samples)


def test_make_pairs_deterministic(ecg_60bpm):
    a = make_training_pairs([ecg_60bpm] * 2, gamma=1.0, seed=5)
    b = make_training_pairs([ecg_60bpm] * 2, gamma=1.0, seed=5)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.noisy.samples, pb.noisy.samples)


def test_make_pairs_empty_rejected():
    with pytest.raises(ValueError):
        make_training_pairs([], gamma=1.0, seed=0)
