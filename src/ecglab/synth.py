"""Parametric clean-ECG generation and the additive noise model.

Clean signals come from the three-variable limit-cycle ECG model of
McSharry et al. (IEEE TBME 2003): a trajectory circles the unit cycle in
the (x, y) plane at the commanded heart rate while Gaussian events
attached to five angular positions (P, Q, R, S, T) pull the z coordinate
up or down. The z coordinate, rescaled to [-1, 1], is the output
waveform. The trajectory starts on the unit cycle, so its phase is
analytic and z obeys a linear ODE with a known forcing: its RK4 steps are
one first-order linear recurrence, solved by one filter call per signal.

Noise is the sum of three physiologically motivated components scaled by
a single strength gamma: a low-frequency baseline-wander sine, a 50 Hz
power-line sine, and a motion-artifact chirp (0.5 -> 120 Hz sweep with a
slow sinusoidal amplitude envelope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps

from .signals import Signal, SignalPair, scale_to_unit

# P, Q, R, S, T event defaults: angular positions (rad), amplitudes, widths
DEFAULT_ANGLES = tuple(np.deg2rad([-70.0, -15.0, 0.0, 15.0, 100.0]))
DEFAULT_AMPLITUDES = (1.2, -5.0, 30.0, -7.5, 0.75)
DEFAULT_WIDTHS = (0.25, 0.1, 0.1, 0.1, 0.4)

RESP_FREQ_HZ = 0.25
RESP_AMP = 0.005

POWER_LINE_HZ = 50.0
CHIRP_F0_HZ = 0.5
CHIRP_F1_HZ = 120.0


class IntegrationError(RuntimeError):
    """The z recurrence blew up: |a| > 1 once baseline_coupling / sample
    rate exceeds about 2.785, the RK4 stability limit."""


@dataclass(frozen=True)
class McSharryParams:
    heart_rate_bpm: float = 60.0
    sample_rate_hz: float = 500.0
    duration_s: float = 10.0
    pqrst_angles: tuple[float, ...] = DEFAULT_ANGLES
    pqrst_amplitudes: tuple[float, ...] = DEFAULT_AMPLITUDES
    pqrst_widths: tuple[float, ...] = DEFAULT_WIDTHS
    baseline_coupling: float = 1.0

    def __post_init__(self):
        if self.heart_rate_bpm <= 0 or self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("rates and duration must be positive")
        if self.baseline_coupling <= 0:
            raise ValueError("baseline_coupling must be positive")
        ang = np.asarray(self.pqrst_angles, dtype=np.float64)
        if len(ang) != 5 or len(self.pqrst_amplitudes) != 5 or len(self.pqrst_widths) != 5:
            raise ValueError("exactly five PQRST events are required")
        if np.any(np.asarray(self.pqrst_widths) <= 0):
            raise ValueError("event widths must be strictly positive")
        if np.any(np.diff(ang) <= 0) or ang[0] <= -np.pi or ang[-1] > np.pi:
            raise ValueError("angles must be strictly increasing within (-pi, pi]")


def _mcsharry_z(p: McSharryParams, n: int) -> np.ndarray:
    """z at the first n sample times of the trajectory from (-1, 0, 0).

    The start lies on the unit cycle opposite the R event (so beats land
    away from the edges); there alpha is 0 and the phase is pi + omega*t
    exactly. The forcing g(t) = -sum a_i dtheta_i exp(-dtheta_i^2 / 2 b_i^2)
    + c*z0(t) is therefore known in advance on the half-step grid that the
    RK4 stages read. As z' = g - c*z is linear in z, each RK4 step is
    z+ = a*z + u, with a the 4th-order Taylor polynomial of exp(-c*dt),
    and one lfilter call runs all n steps.
    """
    dt = 1.0 / p.sample_rate_hz
    c = p.baseline_coupling
    t = np.arange(2 * n + 1) * (0.5 * dt)
    omega = 2.0 * np.pi * p.heart_rate_bpm / 60.0
    # theta - theta_i wrapped to [-pi, pi), with theta = pi + omega*t
    dtheta = np.mod(omega * t[:, None] - p.pqrst_angles, 2.0 * np.pi) - np.pi
    g = -(p.pqrst_amplitudes * dtheta * np.exp(-0.5 * (dtheta / p.pqrst_widths) ** 2)).sum(axis=1)
    g += c * RESP_AMP * np.sin(2.0 * np.pi * RESP_FREQ_HZ * t)
    k1, g_half, g1 = g[0:-1:2], g[1::2], g[2::2]
    h = c * dt
    k2 = g_half - 0.5 * h * k1
    k3 = g_half - 0.5 * h * k2
    k4 = g1 - h * k3
    u = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    z = sps.lfilter([1.0], [1.0, -a], u)  # z[i] is the state after step i
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise IntegrationError(f"non-finite state at t={bad[0] * dt:.4f}s")
    return np.concatenate([[0.0], z[:-1]])


def mcsharry_batch(params: list[McSharryParams]) -> list[Signal]:
    """One clean signal per parameter set (shared sample rate and duration).

    Each is z on the analytic phase pi + omega*t, stepped once per sample
    by the exact RK4 recurrence z+ = a*z + u (see `_mcsharry_z`), scaled to
    [-1, 1]. Entries are computed one by one, so they are bit-equal to
    single calls.
    """
    if not params:
        return []
    fs = params[0].sample_rate_hz
    dur = params[0].duration_s
    if any(p.sample_rate_hz != fs or p.duration_s != dur for p in params):
        raise ValueError("batch entries must share sample rate and duration")
    n = int(round(dur * fs))
    return [scale_to_unit(Signal(_mcsharry_z(p, n), fs)) for p in params]


def mcsharry_generate(p: McSharryParams) -> Signal:
    """One clean signal: analytic phase, exact RK4 recurrence for z, as in
    `mcsharry_batch`."""
    return mcsharry_batch([p])[0]


# ---------------------------------------------------------------------------
# noise model


@dataclass(frozen=True)
class NoiseRanges:
    """Sampling ranges for the stochastic noise parameters."""

    bw_freq_hz: tuple[float, float] = (0.0, 0.5)
    bw_amp: tuple[float, float] = (0.0, 0.3)
    pl_amp: tuple[float, float] = (0.0, 0.1)
    chirp_amp: tuple[float, float] = (0.0, 0.1)
    chirp_mod_freq_hz: tuple[float, float] = (0.1, 2.0)


@dataclass(frozen=True)
class NoiseParams:
    gamma: float
    bw_freq_hz: float
    bw_amp: float
    pl_amp: float
    chirp_mod_freq_hz: float
    chirp_amp: float
    phases: tuple[float, float, float, float]
    pl_freq_hz: float = POWER_LINE_HZ
    chirp_f0_hz: float = CHIRP_F0_HZ
    chirp_f1_hz: float = CHIRP_F1_HZ

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0 <= self.bw_freq_hz <= 0.5:
            raise ValueError("bw_freq_hz outside [0, 0.5]")
        if self.chirp_amp < 0 or self.chirp_mod_freq_hz <= 0:
            raise ValueError("chirp parameters out of range")
        if self.chirp_f0_hz >= self.chirp_f1_hz:
            raise ValueError("chirp sweep must increase in frequency")
        if len(self.phases) != 4:
            raise ValueError("exactly four phases are required")


def _draw_noise_params(rng: np.random.Generator, gamma: float, ranges: NoiseRanges) -> NoiseParams:
    return NoiseParams(
        gamma=gamma,
        bw_freq_hz=rng.uniform(*ranges.bw_freq_hz),
        bw_amp=rng.uniform(*ranges.bw_amp),
        pl_amp=rng.uniform(*ranges.pl_amp),
        chirp_amp=rng.uniform(*ranges.chirp_amp),
        chirp_mod_freq_hz=rng.uniform(*ranges.chirp_mod_freq_hz),
        phases=tuple(rng.uniform(0.0, 2.0 * np.pi, size=4)),
    )


def sample_noise_params(seed: int, gamma: float, ranges: NoiseRanges | None = None) -> NoiseParams:
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return _draw_noise_params(np.random.default_rng(seed), gamma, ranges or NoiseRanges())


def noise_components(p: NoiseParams, length: int, sample_rate_hz: float) -> np.ndarray:
    """The three unscaled components as rows: baseline, motion chirp, power line."""
    t = np.arange(length) / sample_rate_hz
    duration = length / sample_rate_hz
    ph_bw, ph_pl, ph_env, ph_chirp = p.phases
    a_w = p.bw_amp * np.sin(2.0 * np.pi * p.bw_freq_hz * t + ph_bw)
    a_p = p.pl_amp * np.sin(2.0 * np.pi * p.pl_freq_hz * t + ph_pl)
    sweep = 2.0 * np.pi * (p.chirp_f0_hz * t + (p.chirp_f1_hz - p.chirp_f0_hz) * t**2 / (2.0 * duration))
    envelope = np.sin(2.0 * np.pi * p.chirp_mod_freq_hz * t + ph_env)
    a_m = p.chirp_amp * envelope * np.sin(sweep + ph_chirp)
    return np.stack([a_w, a_m, a_p])


def apply_noise(x: Signal, p: NoiseParams) -> Signal:
    if x.length == 0:
        raise ValueError("cannot noise an empty signal")
    total = noise_components(p, x.length, x.sample_rate_hz).sum(axis=0)
    return Signal(x.samples + p.gamma * total, x.sample_rate_hz)


def make_training_pairs(
    clean: list[Signal],
    gamma: float,
    seed: int,
    ranges: NoiseRanges | None = None,
) -> list[SignalPair]:
    """One fresh noise realization per signal, deterministic for a fixed seed."""
    if not clean:
        raise ValueError("clean signal list is empty")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    rng = np.random.default_rng(seed)
    ranges = ranges or NoiseRanges()
    return [SignalPair(s, apply_noise(s, _draw_noise_params(rng, gamma, ranges))) for s in clean]
