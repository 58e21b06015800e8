import os
import resource
import struct
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from ecglab import cli, dsp, metrics, models
from ecglab.checkpoint import save_params
from ecglab.cli import main
from ecglab.signals import LabeledDataset, Signal, SignalPair, read_dataset, read_pairs, write_dataset, write_pairs

from conftest import poison_generator_updates

SRC = Path(cli.__file__).resolve().parents[1]


def _synth(out):
    return main(["synth", "--model", "mcsharry", "--count", "4", "--duration", "2",
                 "--seed", "3", "--out", str(out)])


def test_synth_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.ecgd", tmp_path / "b.ecgd"
    assert _synth(a) == 0
    assert _synth(b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flags,message", [
    (["--count", "-1"], "--count must be at least 1, got -1"),
    (["--hr-min", "nan"], "--hr-min must be finite, got nan"),
    (["--hr-max", "inf"], "--hr-max must be finite, got inf"),
    (["--hr-min", "95", "--hr-max", "55"], "--hr-min must not exceed --hr-max, got 95.0 > 55.0"),
    (["--hr", "nan"], "heart_rate_bpm must be finite and positive, got nan"),
    (["--hr", "1e308"], "heart_rate_bpm / 60 * duration_s must stay below 2**26 beats, got 1e+308 bpm over 10.0 s"),
    (["--duration", "nan"], "duration_s must be finite and positive, got nan"),
    (["--duration", "inf"], "duration_s must be finite and positive, got inf"),
    (["--duration", "1e-9"], "duration_s must give a finite, nonzero sample count at 500.0 Hz, got 1e-09"),
    (["--count", "0"], "--count must be at least 1, got 0"),
    (["--sample-rate", "1e39"],
     "duration_s * sample_rate_hz must give fewer than 2**32 samples, got 10.0 s at 1e+39 Hz"),
])
def test_synth_bad_flag_exits_1_with_one_line_naming_it(tmp_path, capsys, flags, message):
    out = tmp_path / "s.ecgd"
    assert main(["synth", "--model", "mcsharry", "--count", "2", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert not out.exists()


def test_noise_missing_input_exits_1_with_one_line(tmp_path, capsys):
    code = main(["noise", "--in", str(tmp_path / "missing.ecgd"), "--out", str(tmp_path / "p.ecgp")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ecglab: error:") and err.count("\n") == 1
    assert not (tmp_path / "p.ecgp").exists()


def test_noise_on_a_dataset_with_trailing_bytes_exits_1_with_one_line(tmp_path, capsys):
    clean = tmp_path / "c.ecgd"
    assert _synth(clean) == 0
    clean.write_bytes(clean.read_bytes() + b"xyz")
    capsys.readouterr()
    code = main(["noise", "--in", str(clean), "--out", str(tmp_path / "p.ecgp")])
    assert code == 1
    assert capsys.readouterr().err == "ecglab: error: file has 3 bytes past its declared end\n"
    assert not (tmp_path / "p.ecgp").exists()


def test_synth_gan_without_checkpoint_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["synth", "--model", "gan", "--count", "1", "--out", str(tmp_path / "g.ecgd")])
    assert info.value.code == 2


def test_train_divergence_exits_1_without_checkpoint(tmp_path, capsys):
    clean, pairs, out = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "run"
    assert main(["synth", "--model", "mcsharry", "--count", "16", "--duration", "0.5",
                 "--sample-rate", "192", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\nadam_lr = 1e100\n")
    capsys.readouterr()
    code = main(["train", "denoiser", "--config", str(cfg), "--data", str(pairs), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "ecglab: error: denoiser loss is nan at step 2\n"
    assert not (out / "denoiser.ecgw").exists()
    assert not out.exists()


def test_train_nan_validation_loss_exits_1_without_checkpoint(tmp_path, capsys):
    clean, pairs, out = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "run"
    assert main(["synth", "--model", "mcsharry", "--count", "16", "--duration", "0.5",
                 "--sample-rate", "192", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    cfg = tmp_path / "cfg.txt"
    # one batch per epoch, so the only training loss is the finite first one
    cfg.write_text("model_dim = 2\nbatch_size = 64\nepochs = 1\nadam_lr = 1e100\n")
    capsys.readouterr()
    code = main(["train", "denoiser", "--config", str(cfg), "--data", str(pairs), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "ecglab: error: denoiser validation loss is nan at epoch 0\n"
    assert not out.exists()


def test_train_gan_non_finite_last_update_exits_1_without_output(tmp_path, capsys, monkeypatch):
    """A NaN written by the last generator update, which no loss sees."""
    clean, out = tmp_path / "c.ecgd", tmp_path / "run"
    assert main(["synth", "--model", "mcsharry", "--count", "12", "--duration", "0.5",
                 "--sample-rate", "192", "--out", str(clean)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("model_dim = 2\nbatch_size = 4\ngenerator_steps = 1\nval_fraction = 0\n")
    poison_generator_updates(monkeypatch)
    capsys.readouterr()
    code = main(["train", "gan", "--config", str(cfg), "--data", str(clean), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "ecglab: error: generator parameter tconv1.w holds NaN or inf after step 6\n"
    assert not out.exists()


_DIVERGING_TRAIN = """
import sys
from ecglab.cli import main
work = sys.argv[1]
for argv in (["synth", "--model", "mcsharry", "--count", "12", "--duration", "0.5", "--sample-rate", "192",
              "--out", f"{work}/c.ecgd"],
             ["noise", "--in", f"{work}/c.ecgd", "--out", f"{work}/p.ecgp"]):
    assert main(argv) == 0
sys.stdout.flush()
sys.exit(main(["train", "denoiser", "--config", f"{work}/cfg.txt", "--data", f"{work}/p.ecgp",
               "--out", f"{work}/run"]))
"""


def test_diverging_train_prints_one_stderr_line_in_a_fresh_process(tmp_path):
    """With Python's default warning filters, not the suite's: numpy's
    overflow and invalid-value warnings stay off stderr."""
    (tmp_path / "cfg.txt").write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\nadam_lr = 1e39\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-c", _DIVERGING_TRAIN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "ecglab: error: denoiser loss is nan at step 2\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line,message", [
    pytest.param(line, message, id=line) for line, message in (
        ("chirp_mod_min_hz=3", "chirp_mod_max_hz must be at least chirp_mod_min_hz (3.0), got 2.0"),
        ("bw_amp_max=-1", "bw_amp_max must be non-negative, got -1.0"),
        ("pl_amp_max=nan", "pl_amp_max must be non-negative, got nan"),
        ("bw_freq_max_hz=2", "bw_freq_max_hz must be in [0, 0.5], got 2.0"),
        ("bw_amp_max=inf", "bw_amp_max must be finite, got inf"),
    )
])
def test_noise_bad_range_exits_1_naming_the_key(tmp_path, capsys, line, message):
    clean, pairs, cfg = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "cfg.txt"
    assert _synth(clean) == 0
    cfg.write_text(line + "\n")
    capsys.readouterr()
    assert main(["noise", "--config", str(cfg), "--in", str(clean), "--out", str(pairs)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert not pairs.exists()


@pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
def test_noise_bad_gamma_exits_1_without_output(tmp_path, capsys, gamma):
    clean, pairs = tmp_path / "c.ecgd", tmp_path / "p.ecgp"
    assert _synth(clean) == 0
    capsys.readouterr()
    assert main(["noise", "--gamma", gamma, "--in", str(clean), "--out", str(pairs)]) == 1
    value = float(gamma)
    assert capsys.readouterr().err == f"ecglab: error: gamma must be finite and non-negative, got {value}\n"
    assert not pairs.exists()


def test_noise_gamma_past_float32_exits_1_without_output(tmp_path, capsys):
    """A finite gamma whose noisy samples overflow float32 passes the gamma
    check, and the pair writer refuses the record before it opens the file."""
    clean, pairs = tmp_path / "c.ecgd", tmp_path / "p.ecgp"
    assert _synth(clean) == 0
    capsys.readouterr()
    assert main(["noise", "--gamma", "1e40", "--in", str(clean), "--out", str(pairs)]) == 1
    assert capsys.readouterr().err == "ecglab: error: record 0 holds a sample that overflows float32\n"
    assert not pairs.exists()


def test_noise_overflowing_to_inf_exits_1_without_output(tmp_path, capsys):
    """Noise amplitudes and a gamma whose product overflows float64 make
    infinite samples, which `Signal` refuses: no file that `eval` would refuse."""
    clean, pairs, cfg = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "cfg.txt"
    assert _synth(clean) == 0
    cfg.write_text("bw_amp_max=1e300\npl_amp_max=1e300\nchirp_amp_max=1e300\n")
    capsys.readouterr()
    assert main(["noise", "--gamma", "1e300", "--config", str(cfg), "--in", str(clean), "--out", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ecglab: error: samples must be finite, got ") and err.count("\n") == 1
    assert not pairs.exists()


@pytest.mark.parametrize("sizes,message", [
    ("-3", "sizes must be at least 1, got -3"),
    ("4,0", "sizes must be at least 1, got 0"),
    ("", "no sizes to sweep"),
])
def test_sweep_bad_sizes_exit_1_without_output(tmp_path, capsys, sizes, message):
    clean, pairs, out = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "sweep.csv"
    assert _synth(clean) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--real", str(pairs), "--synthetic", str(pairs), f"--sizes={sizes}",
                 "--compositions", "real-only", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sizes,compositions,message", [
    ("2,2", "real-only", "size 2 is given twice"),
    ("2", "mixed,real-only,mixed", "composition 'mixed' is given twice"),
])
def test_sweep_duplicate_sizes_or_compositions_exit_1_without_output(tmp_path, capsys, sizes, compositions,
                                                                     message):
    clean, pairs, out = tmp_path / "c.ecgd", tmp_path / "p.ecgp", tmp_path / "sweep.csv"
    assert _synth(clean) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--real", str(pairs), "--synthetic", str(pairs), "--sizes", sizes,
                 "--compositions", compositions, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert not out.exists()


def test_synth_gan_rejects_a_checkpoint_with_a_cancelled_bias(tmp_path, capsys):
    """A generator checkpoint that still holds the conv bias in front of a
    batch norm fails loudly: its running means include that bias."""
    net = models.build("generator", d=2, z_len=8, signal_length=128, seed=0)
    state = models.checkpoint_state(net)
    state["tconv1.b"] = np.zeros(net.params["tconv1.w"].shape[-1])
    save_params(tmp_path / "g.ecgw", state)
    capsys.readouterr()
    code = main(["synth", "--model", "gan", "--count", "2", "--checkpoint", str(tmp_path / "g.ecgw"),
                 "--out", str(tmp_path / "g.ecgd")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "ecglab: error: checkpoint has 'tconv1.b', which the generator does not have\n"
    assert not (tmp_path / "g.ecgd").exists()


@pytest.mark.parametrize("rate,message", [
    ("inf", "sample_rate_hz must be finite and positive, got inf"),
    ("nan", "sample_rate_hz must be finite and positive, got nan"),
    ("1e39", "sample rate 1e+39 Hz overflows float32"),
    ("1e-46", "sample rate 1e-46 Hz underflows float32"),
])
def test_synth_gan_bad_sample_rate_exits_1_without_output(tmp_path, capsys, monkeypatch, rate, message):
    """`Signal`'s rate rule refuses the rate before the generator runs."""
    net = models.build("generator", d=2, z_len=8, signal_length=128, seed=0)
    save_params(tmp_path / "g.ecgw", models.checkpoint_state(net))
    calls = []
    monkeypatch.setattr(models, "infer", lambda *args: calls.append(args))
    out = tmp_path / "g.ecgd"
    assert main(["synth", "--model", "gan", "--count", "2", "--sample-rate", rate,
                 "--checkpoint", str(tmp_path / "g.ecgw"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert calls == []
    assert not out.exists()


def test_synth_gan_nan_weight_exits_1_without_output(tmp_path, capsys):
    """A generator checkpoint holding one NaN weight makes NaN samples,
    which `Signal` refuses: no file that `read_dataset` would refuse."""
    net = models.build("generator", d=2, z_len=8, signal_length=128, seed=0)
    state = models.checkpoint_state(net)
    state["tconv1.w"].flat[0] = np.nan
    save_params(tmp_path / "g.ecgw", state)
    out = tmp_path / "g.ecgd"
    assert main(["synth", "--model", "gan", "--count", "2", "--checkpoint", str(tmp_path / "g.ecgw"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ecglab: error: samples must be finite, got nan at index ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("network,missing", [("generator", "z_len"), ("denoiser", "d")])
def test_checkpoint_without_metadata_exits_1_with_one_line(tmp_path, capsys, network, missing):
    """`synth --model gan` and `eval` name the metadata key a checkpoint lacks."""
    state = models.checkpoint_state(models.build(network, d=2, z_len=8, signal_length=256, seed=0))
    del state[f"meta.{missing}"]
    save_params(tmp_path / "n.ecgw", state)
    out = tmp_path / "out"
    if network == "generator":
        argv = ["synth", "--model", "gan", "--count", "2"]
    else:
        assert _synth(tmp_path / "c.ecgd") == 0
        assert main(["noise", "--in", str(tmp_path / "c.ecgd"), "--out", str(tmp_path / "p.ecg2")]) == 0
        argv = ["eval", "--method", "denoiser", "--pairs", str(tmp_path / "p.ecg2")]
    capsys.readouterr()
    assert main(argv + ["--checkpoint", str(tmp_path / "n.ecgw"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: checkpoint is missing metadata '{missing}'\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def mel_data(tmp_path_factory):
    """6 signals of 10 s at 128 Hz (the mel window needs 1024 samples) and their pairs."""
    work = tmp_path_factory.mktemp("mel")
    clean, pairs = work / "c.ecgd", work / "p.ecg2"
    assert main(["synth", "--model", "mcsharry", "--count", "6", "--duration", "10",
                 "--sample-rate", "128", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    return {"inception": clean, "denoiser": pairs}


@pytest.mark.parametrize("network", ["denoiser", "inception"])
@pytest.mark.parametrize("key,value,rule", [
    pytest.param(key, value, rule, id=f"{key}={value}") for key, value, rule in (
        ("batch_size", "-4", "a positive integer"),
        ("val_fraction", "-0.5", "in [0, 1)"),
        ("epochs", "0", "a positive integer"),
        ("batch_size", "0", "a positive integer"),
        ("val_fraction", "1.5", "in [0, 1)"),
        ("adam_lr", "nan", "positive"),
        ("adam_lr", "-1.0", "positive"),
        ("adam_beta1", "1.0", "in [0, 1)"),
        ("adam_beta2", "nan", "in [0, 1)"),
        ("bw_freq_max_hz", "2.0", "in [0, 0.5]"),
        ("pl_amp_max", "nan", "non-negative"),
        ("adam_lr", "inf", "finite"),
    )
])
def test_train_bad_config_value_exits_1_without_output(tmp_path, capsys, mel_data, network, key, value, rule):
    cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
    cfg.write_text(f"model_dim = 2\nepochs = 1\n{key} = {value}\n")
    capsys.readouterr()
    code = main(["train", network, "--config", str(cfg), "--data", str(mel_data[network]), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"ecglab: error: {key} must be {rule}, got {value}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the files `train gan` and `train denoiser` read


def _write_training_file(path, network, n, length, rng):
    """An ECGD file of `n` signals (gan) or an ECG2 file of `n` pairs
    (denoiser), of f32-exact uniform samples; returns its sample bytes."""
    per = 1 if network == "gan" else 2
    sigs = [Signal(rng.uniform(-1, 1, length).astype(np.float32), 500.0) for _ in range(per * n)]
    if network == "gan":
        write_dataset(LabeledDataset(tuple(sigs), np.zeros((n, 5), dtype=np.uint8)), path)
    else:
        write_pairs([SignalPair(c, s) for c, s in zip(sigs[:n], sigs[n:])], path)
    return per * n * length * 4


def _nan_at(offset):
    return lambda blob: blob[:offset] + struct.pack("<f", np.nan) + blob[offset + 4:]


_FILE_FAULTS = {
    "zero-bytes": lambda blob: b"",
    "bad-magic": lambda blob: b"WHAT" + blob[4:],
    "version-2": lambda blob: blob[:4] + struct.pack("<H", 2) + blob[6:],
    "truncated": lambda blob: blob[:18 + 40],
    "past-the-end": lambda blob: blob + b"xyz",
    "nan-sample": _nan_at(18 + 4 * 33),
    "nan-rate": _nan_at(14),
    "label-2": lambda blob: blob[:-1] + b"\x02",
    "label-shortfall": lambda blob: blob[:-3],
}


@pytest.mark.parametrize("network, fault", [
    pytest.param(network, fault, id=f"{network}-{fault}")
    for network in ("gan", "denoiser") for fault in _FILE_FAULTS
    if network == "gan" or not fault.startswith("label")  # an ECG2 file has no labels
])
def test_train_refuses_a_malformed_file_as_its_signal_reader_does(tmp_path, capsys, network, fault):
    """`train gan` and `train denoiser` read float32 arrays, yet refuse each
    malformed file with the one line that `read_dataset` or `read_pairs`
    (the `Signal` layer they read through before) gives for it."""
    path, out = tmp_path / "data.bin", tmp_path / "run"
    _write_training_file(path, network, 12, 64, np.random.default_rng(0))
    path.write_bytes(_FILE_FAULTS[fault](path.read_bytes()))
    with pytest.raises(ValueError) as info:
        (read_dataset if network == "gan" else read_pairs)(path)
    assert main(["train", network, "--data", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {info.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("network, message", [("gan", "no training signals"), ("denoiser", "no training pairs")])
def test_train_on_an_empty_file_exits_1_naming_no_data(tmp_path, capsys, network, message):
    path, out = tmp_path / "empty.bin", tmp_path / "run"
    _write_training_file(path, network, 0, 64, np.random.default_rng(0))
    assert main(["train", network, "--data", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ecglab: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("network", ["gan", "denoiser"])
def test_training_data_is_held_once_at_the_file_size(tmp_path, capsys, monkeypatch, network):
    """Live heap when the trainer builds its first network, after `cli.main`
    has read a generated file: the file's samples once, as float32 views of
    its bytes, plus the held-out rows; float64 `Signal`s next to a float32
    stack made it 3x the samples."""
    path, cfg = tmp_path / "data.bin", tmp_path / "cfg.txt"
    sample_bytes = _write_training_file(path, network, 64, 8192, np.random.default_rng(0))
    cfg.write_text("model_dim = 2\nbatch_size = 8\nval_fraction = 0.1\n")
    live = []

    def build(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        raise RuntimeError("stopped before training")

    monkeypatch.setattr(models, "build", build)
    tracemalloc.start()
    try:
        code = main(["train", network, "--data", str(path), "--config", str(cfg), "--out", str(tmp_path / "run")])
    finally:
        tracemalloc.stop()
    assert code == 1 and capsys.readouterr().err == "ecglab: error: stopped before training\n"
    # 6 of the 64 gan signals are held out and copied: 9.4 % of the samples
    assert sample_bytes < live[0] < 1.15 * sample_bytes


def _desk_chain(work, seed):
    """synth -> noise -> train gan/inception/denoiser/pretrained -> synth
    --model gan -> eval --all -> sweep; returns every output file's bytes."""
    cfg = work / "run.cfg"
    cfg.write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\ngenerator_steps = 1\nz_len = 8\n")
    clean, pairs, mel = work / "clean.ecgd", work / "pairs.ecg2", work / "mel.ecgd"
    c = ["--config", str(cfg), "--seed", str(seed)]
    steps = [
        ["synth", "--model", "mcsharry", "--count", "20", "--duration", "2", "--sample-rate", "128",
         "--out", str(clean)],
        # the classifier's mel window needs at least 1024 samples
        ["synth", "--model", "mcsharry", "--count", "12", "--duration", "10", "--sample-rate", "128",
         "--out", str(mel)],
        ["noise", "--in", str(clean), "--out", str(pairs)],
        ["train", "gan", "--data", str(clean), "--out", str(work / "gan")],
        ["train", "inception", "--data", str(mel), "--out", str(work / "inc")],
        ["train", "denoiser", "--data", str(pairs), "--out", str(work / "den")],
        ["train", "denoiser", "--variant", "pretrained", "--critic-checkpoint",
         str(work / "gan" / "critic.ecgw"), "--data", str(pairs), "--out", str(work / "pre")],
        ["synth", "--model", "gan", "--count", "5", "--sample-rate", "128",
         "--checkpoint", str(work / "gan" / "generator.ecgw"), "--out", str(work / "gan.ecgd")],
    ]
    for argv in steps:
        assert main(argv + c) == 0, argv
    assert main(["eval", "--all", "--pairs", str(pairs), "--checkpoint", str(work / "pre" / "denoiser.ecgw"),
                 "--out", str(work / "eval.csv")]) == 0
    assert main(["sweep", "--real", str(pairs), "--synthetic", str(pairs), "--sizes", "4,8",
                 "--out", str(work / "sweep.csv")] + c) == 0
    return _outputs(work)


def _outputs(work):
    return {str(f.relative_to(work)): f.read_bytes() for f in sorted(work.rglob("*")) if f.is_file()}


def _python(code, *args):
    """Run `code` in a fresh interpreter that imports ecglab and these tests."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_STUBBED_CHAIN = """
import sys
from pathlib import Path
from ecglab import cli
import test_cli
cli._pin_malloc_thresholds = lambda: False
test_cli._desk_chain(Path(sys.argv[1]), seed=4)
"""


def test_desk_chain_is_byte_identical_on_rerun(tmp_path, capsys):
    """Same-seed chains match, in this process and in a fresh one whose
    allocator keeps glibc's default thresholds."""
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for work in (a, b, c):
        work.mkdir()
    first = _desk_chain(a, seed=4)
    assert first == _desk_chain(b, seed=4)
    assert capsys.readouterr().err == ""
    _python(_STUBBED_CHAIN, c)
    assert _outputs(c) == first
    rows = first["eval.csv"].decode().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["none", "bandpass", "wavelet", "denoiser"]
    assert len(first["sweep.csv"].decode().splitlines()) == 1 + 3 * 2
    for name in ("gan/generator.ecgw", "gan/critic.ecgw", "gan/gan_log.csv", "inc/inception.ecgw",
                 "inc/inception_log.csv", "den/denoiser.ecgw", "pre/denoiser.ecgw", "gan.ecgd"):
        assert name in first


def test_eval_below_the_qrs_band_exits_1_with_one_line(tmp_path, capsys):
    """At 10 Hz the detector's 5-15 Hz band has no room (its top edge is 4.5 Hz)."""
    clean, pairs = tmp_path / "c.ecgd", tmp_path / "p.ecg2"
    assert main(["synth", "--model", "mcsharry", "--count", "2", "--sample-rate", "10", "--duration", "30",
                 "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    capsys.readouterr()
    assert main(["eval", "--method", "none", "--pairs", str(pairs)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("ecglab: error: QRS detection's 5-15 Hz bandpass needs a sample rate above 11.11 Hz"
                       " (its top edge is 0.45 * the rate below 33.3 Hz), got 10.0 Hz\n")


_SCIPY_FREE_CHAIN = """
import sys
from pathlib import Path
import ecglab.cli
import test_cli
test_cli._desk_chain(Path(sys.argv[1]), seed=4)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_desk_chain_never_imports_scipy(tmp_path):
    """scipy is a test-only reference: no command of the pipeline loads it."""
    assert _python(_SCIPY_FREE_CHAIN, tmp_path).splitlines()[-1] == "[]"


def test_eval_all_detects_qrs_once_per_clean_signal(tmp_path, monkeypatch):
    clean, pairs, cfg = tmp_path / "c.ecgd", tmp_path / "p.ecg2", tmp_path / "cfg.txt"
    cfg.write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\n")
    assert main(["synth", "--model", "mcsharry", "--count", "6", "--duration", "2",
                 "--sample-rate", "128", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    assert main(["train", "denoiser", "--config", str(cfg), "--data", str(pairs),
                 "--out", str(tmp_path / "den")]) == 0
    stacks = []
    detect = dsp.detect_qrs_rows

    def counting(x, fs):
        stacks.append(len(x))
        return detect(x, fs)

    monkeypatch.setattr(dsp, "detect_qrs_rows", counting)
    monkeypatch.setattr(metrics, "detect_qrs_rows", counting)
    assert main(["eval", "--all", "--pairs", str(pairs), "--checkpoint", str(tmp_path / "den" / "denoiser.ecgw"),
                 "--out", str(tmp_path / "eval.csv")]) == 0
    rows = len((tmp_path / "eval.csv").read_text().splitlines()) - 1
    assert rows == 4
    # one stack: the 6 clean signals, then each method's 6 restored ones
    assert stacks == [6 + 6 * rows]


# ---------------------------------------------------------------------------
# allocator policy

_CHURN = """
import resource
import numpy as np
from ecglab import cli

assert cli._pin_malloc_thresholds()


def churn():
    arrays = [np.ones(1 << 20) for _ in range(6)]  # six 8 MiB buffers, every page written
    del arrays


churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not cli._is_glibc(), reason="the thresholds are glibc's")
def test_pinned_thresholds_reuse_freed_buffers():
    """After one warm-up round, allocating and freeing 48 MiB ten times
    faults in almost none of its pages again."""
    pages = 10 * 6 * (8 << 20) // resource.getpagesize()
    assert int(_python(_CHURN)) < 0.01 * pages


@pytest.mark.parametrize("libc", ["not glibc", "no mallopt", "mallopt refuses"])
def test_allocator_policy_is_a_silent_no_op_elsewhere(tmp_path, capsys, monkeypatch, libc):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0

    if libc == "not glibc":
        monkeypatch.setattr(cli.os, "confstr", lambda name: None)
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: pytest.fail("loaded a libc"))
    elif libc == "no mallopt":
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    else:
        monkeypatch.setattr(cli, "_is_glibc", lambda: True)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli._pin_malloc_thresholds() is False
    # a refused mmap threshold sets no trim threshold
    assert calls == ([cli._M_MMAP_THRESHOLD] if libc == "mallopt refuses" else [])
    capsys.readouterr()
    assert _synth(tmp_path / "a.ecgd") == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == f"wrote 4 signals to {tmp_path / 'a.ecgd'}\n"
