"""Plain key=value configuration files for the command-line pipeline.

The keys are the fields of RunConfig. The gan, classifier and denoiser
sections take each field of their config class from the key of the same
name (the networks' `d` from model_dim). Unknown keys are rejected;
defaults are the full-scale values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .synth import NoiseRanges
from .training import ClassifierConfig, DenoiserConfig, GanConfig


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
    is_eval_every: int = 10
    is_eval_batch: int = 1024
    # noise-model sampling ranges
    bw_freq_max_hz: float = 0.5
    bw_amp_max: float = 0.3
    pl_amp_max: float = 0.1
    chirp_amp_max: float = 0.1
    chirp_mod_min_hz: float = 0.1
    chirp_mod_max_hz: float = 2.0

    def _section(self, cls):
        """`cls` built from the same-named fields here; its `d` is model_dim."""
        return cls(**{f.name: getattr(self, "model_dim" if f.name == "d" else f.name) for f in fields(cls)})

    def gan(self) -> GanConfig:
        return self._section(GanConfig)

    def classifier(self) -> ClassifierConfig:
        return self._section(ClassifierConfig)

    def denoiser(self) -> DenoiserConfig:
        return self._section(DenoiserConfig)

    def noise_ranges(self) -> NoiseRanges:
        return NoiseRanges(
            bw_freq_hz=(0.0, self.bw_freq_max_hz),
            bw_amp=(0.0, self.bw_amp_max),
            pl_amp=(0.0, self.pl_amp_max),
            chirp_amp=(0.0, self.chirp_amp_max),
            chirp_mod_freq_hz=(self.chirp_mod_min_hz, self.chirp_mod_max_hz),
        )


class ConfigError(ValueError):
    pass


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
    cfg = RunConfig()
    if path is None:
        return cfg
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
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from exc
    return cfg
