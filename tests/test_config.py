import ast
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ecglab import config, synth, training
from ecglab.config import ConfigError, RunConfig, load_config
from ecglab.signals import Signal

# a valid value different from the default, per RunConfig field type
_CHANGE = {
    "int": lambda v: v + 3,
    "float": lambda v: v / 2,  # every float default is positive and may be halved
    "int | None": lambda v: 7,
    "str": lambda v: "normal",
}


def test_load_config_sets_every_key(tmp_path):
    values = {f.name: _CHANGE[f.type](f.default) for f in fields(RunConfig)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    got = load_config(path)
    for f in fields(RunConfig):
        assert values[f.name] != f.default, f.name
        assert getattr(got, f.name) == values[f.name], f.name


class _Recorder:
    """Stands in for a RunConfig and records the keys read from it."""

    def __init__(self, cfg):
        self._cfg = cfg
        self._read = set()

    def __getattr__(self, key):
        self._read.add(key)
        return getattr(self._cfg, key)


_KEYS = {f.name for f in fields(RunConfig)}


def _documented_readers():
    """key -> the subcommands that read it, from the table in ecglab.config."""
    readers = {}
    for line in config.__doc__.splitlines():
        m = re.match(r"^    (\w+) +\S+ +\S.*?  +(\S.*)$", line)
        if m and m.group(1) in _KEYS:
            readers[m.group(1)] = {part.split()[0] for part in re.split(r"[,;]", m.group(2))}
    return readers


def _sines(n, length, rate, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / rate
    return [Signal(np.sin(2 * np.pi * rng.uniform(1, 2) * t + rng.uniform(0, 2 * np.pi)), rate)
            for _ in range(n)]


def _run_gan(cfg):
    training.train_gan(training._signals_to_array(_sines(32, 128, 64.0), "training signal"), cfg, seed=0)


def _run_classifier(cfg):
    samples = training._signals_to_array(_sines(8, 1024, 500.0), "training signal")
    labels = np.random.default_rng(0).integers(0, 2, size=(8, 5)).astype(np.uint8)
    training.train_inception(samples, labels, 500.0, cfg, seed=0)


def _run_denoiser(cfg):
    x = training._signals_to_array(_sines(16, 96, 64.0), "training pair")
    training.train_denoiser(x, x, cfg, "phase_shuffle", seed=0)


def _run_noise(cfg):
    synth.make_training_pairs(_sines(4, 96, 64.0), 1.0, 0, cfg)


# section, the module and the per-section dataclass it took before
# RunConfig replaced them, the reader's name in the config table, a small run
_SECTIONS = {
    "gan": (training, "GanConfig", "gan", _run_gan),
    "classifier": (training, "ClassifierConfig", "inception", _run_classifier),
    "denoiser": (training, "DenoiserConfig", "denoiser", _run_denoiser),
    "noise": (synth, "NoiseRanges", "noise", _run_noise),
}

_SMALL_RUN = ("batch_size = 8\nmodel_dim = 2\ngp_lambda = 5.0\ncritic_updates = 2\n"
              "phase_shuffle = 1\nadam_lr = 0.001\nadam_beta1 = 0.5\nadam_beta2 = 0.9\n"
              "epochs = 1\nlatent = normal\nz_len = 8\nval_fraction = 0.25\n")


@pytest.mark.parametrize("section,cls", [("gan", "GanConfig"), ("classifier", "ClassifierConfig"),
                                         ("denoiser", "DenoiserConfig"), ("noise", "NoiseRanges")])
def test_section_takes_every_field_from_its_key(tmp_path, section, cls):
    """Each trainer, and the noise model, reads from the RunConfig exactly
    the keys that the table in ecglab.config says it reads, each as
    load_config set it from its key; the section dataclass it took before
    is gone."""
    module, old, name, run = _SECTIONS[section]
    assert old == cls
    assert not hasattr(module, cls)
    path = tmp_path / "run.cfg"
    path.write_text(_SMALL_RUN)
    loaded = load_config(path)
    recorder = _Recorder(loaded)
    run(recorder)
    documented = {key for key, readers in _documented_readers().items() if name in readers}
    assert recorder._read == documented
    for line in _SMALL_RUN.splitlines():
        key, value = (part.strip() for part in line.split("="))
        assert str(getattr(loaded, key)) == value, key


def test_every_key_names_a_reader():
    """Each RunConfig key names at least one subcommand that reads it in
    the table in ecglab.config, so a setting nothing reads cannot be added
    without notice."""
    readers = _documented_readers()
    assert set(readers) == _KEYS
    for key, names in readers.items():
        assert names and names <= {"gan", "inception", "denoiser", "sweep", "noise", "synth"}, (key, names)


@pytest.mark.parametrize("text,lineno,message", [
    ("epochs = 2\nwarp = 9\n", 2, "unknown configuration key 'warp'"),
    ("# comment\n\nepochs 2\n", 3, "expected key=value, got 'epochs 2'"),
    ("epochs = 2\nbatch_size = many\n", 2, "bad value for 'batch_size': 'many'"),
])
def test_config_error_names_the_line(tmp_path, text, lineno, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^line {lineno}: {re.escape(message)}$"):
        load_config(path)


@pytest.mark.parametrize("key,value,rule", [
    *((key, value, "a positive integer")
      for key in ("batch_size", "model_dim", "critic_updates", "epochs", "z_len", "generator_steps")
      for value in (0, -4)),
    ("batch_size", 2.5, "a positive integer"),
    ("phase_shuffle", -1, "a non-negative integer"),
    ("gp_lambda", -0.5, "non-negative"),
    ("gp_lambda", float("nan"), "non-negative"),
    ("val_fraction", -0.5, "in [0, 1)"),
    ("val_fraction", 1.0, "in [0, 1)"),
    ("val_fraction", 1.5, "in [0, 1)"),
    ("val_fraction", float("nan"), "in [0, 1)"),
    ("latent", "cauchy", "one of uniform, normal"),
    *(("adam_lr", value, "positive") for value in (0.0, -1.0, float("nan"))),
    *((key, value, "in [0, 1)") for key in ("adam_beta1", "adam_beta2")
      for value in (-0.1, 1.0, float("nan"))),
    *(("bw_freq_max_hz", value, "in [0, 0.5]") for value in (-0.1, 2.0, float("nan"))),
    *((key, value, "non-negative") for key in ("bw_amp_max", "pl_amp_max", "chirp_amp_max")
      for value in (-1.0, float("nan"))),
    *(("chirp_mod_min_hz", value, "positive") for value in (0.0, float("nan"))),
    *(("chirp_mod_max_hz", value, "at least chirp_mod_min_hz (0.1)") for value in (0.05, float("nan"))),
    *((key, float("inf"), "finite") for key in ("gp_lambda", "adam_lr", "bw_amp_max", "pl_amp_max",
                                                "chirp_amp_max", "chirp_mod_min_hz", "chirp_mod_max_hz")),
])
def test_run_config_rejects_bad_value(key, value, rule):
    with pytest.raises(ConfigError, match=f"^{key} must be {re.escape(rule)}, got {re.escape(repr(value))}$"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key,value", [("generator_steps", None), ("generator_steps", 1),
                                       ("phase_shuffle", 0), ("gp_lambda", 0.0),
                                       ("val_fraction", 0.0), ("val_fraction", 0.99),
                                       ("latent", "normal"), ("adam_beta1", 0.0),
                                       ("adam_beta2", 0.0), ("bw_freq_max_hz", 0.0),
                                       ("bw_freq_max_hz", 0.5), ("bw_amp_max", 0.0),
                                       ("chirp_mod_max_hz", 0.1)])
def test_run_config_accepts_edge_value(key, value):
    assert getattr(RunConfig(**{key: value}), key) == value


def test_chirp_mod_min_above_the_max_names_both_keys():
    with pytest.raises(ConfigError, match=r"^chirp_mod_max_hz must be at least chirp_mod_min_hz \(3.0\), got 2.0$"):
        RunConfig(chirp_mod_min_hz=3.0)


def test_load_config_checks_the_parsed_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 2\nval_fraction = 1.5\n")
    with pytest.raises(ConfigError, match=r"^val_fraction must be in \[0, 1\), got 1.5$"):
        load_config(path)


def test_config_imports_no_other_ecglab_module():
    """config is the bottom of the import graph: synth, training and cli
    import it, so it may import none of them."""
    tree = ast.parse(Path(config.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("ecglab"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ecglab") for a in node.names), ast.unparse(node)
