"""Plain key=value configuration files for the command-line pipeline.

RunConfig is the only training configuration: `train gan`, `train
inception`, `train denoiser` and `sweep` each read the keys they need
from it. Every value is checked once, when the RunConfig is built; a bad
one raises a ConfigError naming the key and the value. Unknown keys are
rejected. Each key, its default, its valid range and the subcommands
that read it (`train` abbreviated to its network):

    key               default   valid            read by
    batch_size        64        integer >= 1     gan, inception, denoiser, sweep
    model_dim         16        integer >= 1     gan, denoiser, sweep
    gp_lambda         10.0      finite, >= 0     gan
    critic_updates    5         integer >= 1     gan
    phase_shuffle     2         integer >= 0     gan; denoiser --variant phase_shuffle
    adam_lr           1e-4      finite, > 0      gan, inception, denoiser, sweep
    adam_beta1        0.9       [0, 1)           gan, inception, denoiser, sweep
    adam_beta2        0.999     [0, 1)           gan, inception, denoiser, sweep
    epochs            1         integer >= 1     gan, inception, denoiser, sweep
    generator_steps   none      integer >= 1     gan (overrides epochs when set)
    latent            uniform   uniform, normal  gan; synth --model gan
    z_len             100       integer >= 1     gan
    val_fraction      0.1       [0, 1)           gan, inception, denoiser, sweep
    bw_freq_max_hz    0.5       [0, 0.5]         noise
    bw_amp_max        0.3       finite, >= 0     noise
    pl_amp_max        0.1       finite, >= 0     noise
    chirp_amp_max     0.1       finite, >= 0     noise
    chirp_mod_min_hz  0.1       finite, > 0      noise
    chirp_mod_max_hz  2.0       finite, >= min   noise

The six noise keys reach the noise model as the RunConfig itself:
`synth.make_training_pairs` draws each noise parameter uniformly from
0 (chirp_mod_min_hz for the chirp envelope) to its key's value. This
module imports no other ecglab module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral
from pathlib import Path

LATENTS = ("uniform", "normal")


class ConfigError(ValueError):
    pass


def _positive_int(value) -> bool:
    return isinstance(value, Integral) and value >= 1


@dataclass
class RunConfig:
    batch_size: int = 64
    model_dim: int = 16
    gp_lambda: float = 10.0
    critic_updates: int = 5
    phase_shuffle: int = 2
    adam_lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 1
    generator_steps: int | None = None
    latent: str = "uniform"
    z_len: int = 100
    val_fraction: float = 0.1
    # noise-model sampling ranges
    bw_freq_max_hz: float = 0.5
    bw_amp_max: float = 0.3
    pl_amp_max: float = 0.1
    chirp_amp_max: float = 0.1
    chirp_mod_min_hz: float = 0.1
    chirp_mod_max_hz: float = 2.0

    def __post_init__(self):
        def require(key, ok, what):
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"{key} must be {what}, got {value!r}")

        def require_finite(key, ok, what):  # a range with no upper end lets +inf through
            require(key, ok, what)
            require(key, math.isfinite, "finite")

        for key in ("batch_size", "model_dim", "critic_updates", "epochs", "z_len"):
            require(key, _positive_int, "a positive integer")
        if self.generator_steps is not None:
            require("generator_steps", _positive_int, "a positive integer")
        require("phase_shuffle", lambda v: isinstance(v, Integral) and v >= 0, "a non-negative integer")
        # comparisons written so that NaN fails them
        require_finite("gp_lambda", lambda v: v >= 0, "non-negative")
        require("val_fraction", lambda v: 0 <= v < 1, "in [0, 1)")
        require_finite("adam_lr", lambda v: v > 0, "positive")
        for key in ("adam_beta1", "adam_beta2"):
            require(key, lambda v: 0 <= v < 1, "in [0, 1)")
        require("bw_freq_max_hz", lambda v: 0 <= v <= 0.5, "in [0, 0.5]")
        for key in ("bw_amp_max", "pl_amp_max", "chirp_amp_max"):
            require_finite(key, lambda v: v >= 0, "non-negative")
        require_finite("chirp_mod_min_hz", lambda v: v > 0, "positive")
        require_finite("chirp_mod_max_hz", lambda v: v >= self.chirp_mod_min_hz,
                       f"at least chirp_mod_min_hz ({self.chirp_mod_min_hz!r})")
        require("latent", lambda v: v in LATENTS, f"one of {', '.join(LATENTS)}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    if ftype == "int | None":
        return None if raw.lower() in ("", "none") else int(raw)
    return raw


def load_config(path: str | Path | None) -> RunConfig:
    """Parse a key=value file; `#` starts a comment; unknown keys are errors."""
    if path is None:
        return RunConfig()
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from exc
    return RunConfig(**values)
