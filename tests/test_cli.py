import os
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ecglab import cli, dsp, metrics, models
from ecglab.checkpoint import save_params
from ecglab.cli import main

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
    (["--count", "-1"], "--count must be non-negative, got -1"),
    (["--hr-min", "nan"], "--hr-min must be finite, got nan"),
    (["--hr-max", "inf"], "--hr-max must be finite, got inf"),
    (["--hr-min", "95", "--hr-max", "55"], "--hr-min must not exceed --hr-max, got 95.0 > 55.0"),
    (["--hr", "nan"], "heart_rate_bpm must be finite and positive, got nan"),
    (["--hr", "1e308"], "heart_rate_bpm / 60 * duration_s must stay below 2**26 beats, got 1e+308 bpm over 10.0 s"),
    (["--duration", "nan"], "duration_s must be finite and positive, got nan"),
    (["--duration", "inf"], "duration_s must be finite and positive, got inf"),
    (["--duration", "1e-9"], "duration_s must give a finite, nonzero sample count at 500.0 Hz, got 1e-09"),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.parametrize("line,message", [
    pytest.param(line, message, id=line) for line, message in (
        ("chirp_mod_min_hz=3", "chirp_mod_max_hz must be at least chirp_mod_min_hz (3.0), got 2.0"),
        ("bw_amp_max=-1", "bw_amp_max must be non-negative, got -1.0"),
        ("pl_amp_max=nan", "pl_amp_max must be non-negative, got nan"),
        ("bw_freq_max_hz=2", "bw_freq_max_hz must be in [0, 0.5], got 2.0"),
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


def test_synth_gan_rejects_a_checkpoint_with_a_cancelled_bias(tmp_path, capsys):
    """A generator checkpoint that still holds the conv bias in front of a
    batch norm fails loudly: its running means include that bias."""
    net = models.build("generator", d=2, z_len=8, signal_length=128, seed=0)
    state = cli._meta(net, {"d": 2, "z_len": 8, "signal_length": 128})
    state["tconv1.b"] = np.zeros(net.params["tconv1.w"].shape[-1])
    save_params(tmp_path / "g.ecgw", state)
    capsys.readouterr()
    code = main(["synth", "--model", "gan", "--count", "2", "--checkpoint", str(tmp_path / "g.ecgw"),
                 "--out", str(tmp_path / "g.ecgd")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "ecglab: error: checkpoint has 'tconv1.b', which the generator does not have\n"
    assert not (tmp_path / "g.ecgd").exists()


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


def test_eval_all_detects_qrs_once_per_clean_signal(tmp_path, monkeypatch):
    clean, pairs, cfg = tmp_path / "c.ecgd", tmp_path / "p.ecg2", tmp_path / "cfg.txt"
    cfg.write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\n")
    assert main(["synth", "--model", "mcsharry", "--count", "6", "--duration", "2",
                 "--sample-rate", "128", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(pairs)]) == 0
    assert main(["train", "denoiser", "--config", str(cfg), "--data", str(pairs),
                 "--out", str(tmp_path / "den")]) == 0
    calls = []
    detect = dsp.detect_qrs

    def counting(s):
        calls.append(s)
        return detect(s)

    monkeypatch.setattr(dsp, "detect_qrs", counting)
    monkeypatch.setattr(metrics, "detect_qrs", counting)
    assert main(["eval", "--all", "--pairs", str(pairs), "--checkpoint", str(tmp_path / "den" / "denoiser.ecgw"),
                 "--out", str(tmp_path / "eval.csv")]) == 0
    rows = len((tmp_path / "eval.csv").read_text().splitlines()) - 1
    assert rows == 4
    assert len(calls) == 6 + 6 * rows


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
