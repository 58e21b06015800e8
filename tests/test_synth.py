import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from ecglab import dsp, synth
from ecglab.signals import Signal, scale_to_unit
from ecglab.config import RunConfig
from ecglab.synth import (
    McSharryParams,
    NoiseParams,
    apply_noise,
    make_training_pairs,
    mcsharry_batch,
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


def ecg(hr=60.0, fs=500.0, duration=10.0):
    return McSharryParams(heart_rate_bpm=hr, sample_rate_hz=fs, duration_s=duration)


def draw_noise(seed, gamma):
    return synth._draw_noise_params(np.random.default_rng(seed), gamma, RunConfig())


# ---------------------------------------------------------------------------
# waveform model


def test_mcsharry_peak_count_matches_rate(ecg_60bpm):
    ann = dsp.detect_qrs(ecg_60bpm)
    assert abs(len(ann.peak_indices) - 10) <= 1


def test_mcsharry_rr_halves_at_double_rate():
    (s,) = mcsharry_batch([ecg(hr=120)])
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
        ecg(hr=0)


def test_mcsharry_batch_matches_single():
    p = ecg(hr=72, duration=2.0)
    (single,) = mcsharry_batch([p])
    batched = mcsharry_batch([p, ecg(hr=60, duration=2.0)])
    assert np.array_equal(single.samples, batched[0].samples)


def _rk4_reference(params: list[McSharryParams]) -> np.ndarray:
    """Plain fixed-step RK4 of the full (x, y, z) system, one step per sample."""
    fs = params[0].sample_rate_hz
    n = int(round(params[0].duration_s * fs))
    dt = 1.0 / fs
    omega = np.array([2.0 * np.pi * p.heart_rate_bpm / 60.0 for p in params])
    coupling = synth.BASELINE_COUPLING
    ai, bi, thetai = np.array(synth.PQRST_AMPLITUDES), np.array(synth.PQRST_WIDTHS), np.array(synth.PQRST_ANGLES)

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
    params = [ecg(hr=hr, duration=2.0) for hr in (48.0, 66.0, 75.0, 130.0)]
    got = mcsharry_batch(params)
    ref = _rk4_reference(params)
    for s, z in zip(got, ref):
        want = scale_to_unit(Signal(z, s.sample_rate_hz)).samples
        assert np.max(np.abs(s.samples - want)) <= 1e-5


def test_mcsharry_unstable_step_raises_integration_error():
    # at coupling 1 the RK4 recurrence is unstable below about 0.36 Hz
    with pytest.raises(synth.IntegrationError) as info:
        mcsharry_batch([ecg(fs=0.3, duration=4000.0)])
    msg = str(info.value)
    assert "\n" not in msg
    assert re.fullmatch(r"non-finite state at t=\d+\.\d{4}s", msg)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _near_multiple(k: int, steps: int) -> float:
    x = np.float64(k * synth.TWO_PI)
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return float(x)


_PHASES = st.one_of(
    st.floats(-np.pi, 0.0, exclude_max=True),
    st.builds(_near_multiple, st.integers(1, synth.WRAP_TURNS), st.integers(-3, 3)),
    st.floats(0.0, synth.TWO_PI * (synth.WRAP_TURNS + 1), exclude_max=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_PHASES, min_size=1, max_size=32))
def test_wrap_is_bit_equal_to_np_mod(xs):
    x = np.array(xs)
    assert np.array_equal(_bits(synth._wrap_2pi(x.copy())), _bits(np.mod(x, synth.TWO_PI)))


def test_wrap_is_bit_equal_to_np_mod_around_multiples_up_to_the_bound():
    centre = np.append(np.arange(0, synth.WRAP_TURNS, 997), synth.WRAP_TURNS).astype(np.float64) * synth.TWO_PI
    xs, up, down = [centre], centre, centre
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        xs += [up, down]
    negative = [np.linspace(-np.pi, 0.0, 4097)[:-1], [-0.0, 0.0, -5e-324, -1e-300, -2.2e-16, -4.5e-16]]
    x = np.concatenate(xs + negative)
    assert np.array_equal(_bits(synth._wrap_2pi(x.copy())), _bits(np.mod(x, synth.TWO_PI)))


def _np_mod_z(p: McSharryParams, n: int) -> np.ndarray:
    """The np.mod form of the z that `synth.mcsharry_batch` steps: one
    np.mod over the (2n+1, 5) grid, a 5-wide sum, and scipy's lfilter for
    the recurrence."""
    dt = 1.0 / p.sample_rate_hz
    c = synth.BASELINE_COUPLING
    t = np.arange(2 * n + 1) * (0.5 * dt)
    omega = 2.0 * np.pi * p.heart_rate_bpm / 60.0
    dtheta = np.mod(omega * t[:, None] - synth.PQRST_ANGLES, 2.0 * np.pi) - np.pi
    amps, widths = synth.PQRST_AMPLITUDES, synth.PQRST_WIDTHS
    g = -(amps * dtheta * np.exp(-0.5 * (dtheta / widths) ** 2)).sum(axis=1)
    g += c * synth.RESP_AMP * np.sin(2.0 * np.pi * synth.RESP_FREQ_HZ * t)
    k1, g_half, g1 = g[0:-1:2], g[1::2], g[2::2]
    h = c * dt
    k2 = g_half - 0.5 * h * k1
    k3 = g_half - 0.5 * h * k2
    k4 = g1 - h * k3
    u = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    z = sps.lfilter([1.0], [1.0, -a], u)
    return np.concatenate([[0.0], z[:-1]])


@pytest.mark.parametrize("fs,duration", [(128.0, 3.0), (250.0, 7.3), (500.0, 1.5), (500.0, 10.0)])
def test_mcsharry_batch_is_byte_equal_to_the_np_mod_form(fs, duration):
    rates = (31.7, 60.0, 72.5, 143.0, 220.0)
    params = [ecg(hr=hr, fs=fs, duration=duration) for hr in rates]
    n = round(duration * fs)
    for p, s in zip(params, mcsharry_batch(params)):
        want = scale_to_unit(Signal(_np_mod_z(p, n), fs)).samples
        assert s.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("fs,duration", [
    (500.0, 1 / 500), (500.0, 0.0011), (128.0, 0.0123), (250.0, 0.01), (500.0, 3.0),
])
def test_mcsharry_length_is_the_rounded_sample_count(fs, duration):
    (s,) = mcsharry_batch([ecg(fs=fs, duration=duration)])
    assert s.length == round(duration * fs) >= 1


def test_half_step_grid_is_cached_and_read_only():
    t, resp = synth._half_step_grid(5, 500.0)
    assert synth._half_step_grid(5, 500.0)[0] is t
    assert t.shape == resp.shape == (11,)
    for a in (t, resp):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("field", ["heart_rate_bpm", "sample_rate_hz", "duration_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_mcsharry_rejects_a_bad_scalar_naming_it(field, value):
    good = {"heart_rate_bpm": 60.0, "sample_rate_hz": 500.0, "duration_s": 10.0}
    with pytest.raises(ValueError) as info:
        McSharryParams(**{**good, field: value})
    assert str(info.value) == f"{field} must be finite and positive, got {value}"


@pytest.mark.parametrize("fs,duration", [(500.0, 1e-9), (500.0, 0.0009), (1e300, 1e10)])
def test_mcsharry_rejects_a_duration_without_samples(fs, duration):
    with pytest.raises(ValueError) as info:
        ecg(fs=fs, duration=duration)
    assert str(info.value) == f"duration_s must give a finite, nonzero sample count at {fs} Hz, got {duration}"


@pytest.mark.parametrize("fs,duration", [(1e39, 1.0), (5e9, 1.0)])
def test_mcsharry_rejects_a_sample_count_past_the_u32_length_field(fs, duration):
    """Refused before anything is allocated. A count just under 2**32 is
    valid but takes tens of GB, so no test synthesizes one."""
    with pytest.raises(ValueError) as info:
        ecg(fs=fs, duration=duration)
    assert str(info.value) == (
        f"duration_s * sample_rate_hz must give fewer than 2**32 samples, got {duration} s at {fs} Hz"
    )


@pytest.mark.parametrize("hr,duration", [(60.0, 2.0**26), (1e308, 10.0), (6e9, 1.0)])
def test_mcsharry_rejects_a_phase_past_the_exact_wrap(hr, duration):
    with pytest.raises(ValueError) as info:
        ecg(hr=hr, fs=1.0, duration=duration)
    assert str(info.value) == (
        f"heart_rate_bpm / 60 * duration_s must stay below 2**26 beats, got {hr} bpm over {duration} s"
    )


def test_mcsharry_accepts_a_phase_just_below_the_bound():
    assert ecg(hr=60.0, fs=1.0, duration=2.0**26 - 1).sample_count == 2**26 - 1


# ---------------------------------------------------------------------------
# noise parameter sampling


def test_sample_noise_params_deterministic():
    a = draw_noise(7, gamma=1.0)
    b = draw_noise(7, gamma=1.0)
    assert a == b


def test_sample_noise_params_gamma_passthrough():
    assert draw_noise(3, gamma=0.25).gamma == 0.25


def test_sample_noise_params_ranges_monte_carlo():
    draws = [draw_noise(seed, 1.0) for seed in range(10_000)]
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
        flat_params(bw_freq_hz=0.7)


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
def test_gamma_is_checked_once_by_noise_params(ecg_60bpm, gamma):
    """NoiseParams holds the one gamma check; the samplers reach it."""
    message = f"^gamma must be finite and non-negative, got {gamma}$"
    with pytest.raises(ValueError, match=message):
        flat_params(gamma=gamma)
    with pytest.raises(ValueError, match=message):
        draw_noise(0, gamma)
    with pytest.raises(ValueError, match=message):
        make_training_pairs([ecg_60bpm], gamma, seed=0)


# ---------------------------------------------------------------------------
# applying noise


def test_gamma_zero_is_identity(ecg_60bpm):
    p = draw_noise(11, gamma=0.0)
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
    p1 = draw_noise(seed, gamma)
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
