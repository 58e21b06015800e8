import pytest

from ecglab import dsp, metrics
from ecglab.cli import main


def _synth(out):
    return main(["synth", "--model", "mcsharry", "--count", "4", "--duration", "2",
                 "--seed", "3", "--out", str(out)])


def test_synth_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.ecgd", tmp_path / "b.ecgd"
    assert _synth(a) == 0
    assert _synth(b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_noise_missing_input_exits_1_with_one_line(tmp_path, capsys):
    code = main(["noise", "--in", str(tmp_path / "missing.ecgd"), "--out", str(tmp_path / "p.ecgp")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ecglab: error:") and err.count("\n") == 1
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


def _desk_chain(work, seed):
    """synth -> noise -> train gan/denoiser/pretrained -> synth --model gan
    -> eval --all -> sweep; returns every output file's bytes."""
    cfg = work / "run.cfg"
    cfg.write_text("model_dim = 2\nbatch_size = 4\nepochs = 1\ngenerator_steps = 1\nz_len = 8\n")
    clean, pairs = work / "clean.ecgd", work / "pairs.ecg2"
    c = ["--config", str(cfg), "--seed", str(seed)]
    steps = [
        ["synth", "--model", "mcsharry", "--count", "20", "--duration", "2", "--sample-rate", "128",
         "--out", str(clean)],
        ["noise", "--in", str(clean), "--out", str(pairs)],
        ["train", "gan", "--data", str(clean), "--out", str(work / "gan")],
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
    return {str(f.relative_to(work)): f.read_bytes() for f in sorted(work.rglob("*")) if f.is_file()}


def test_desk_chain_is_byte_identical_on_rerun(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _desk_chain(a, seed=4)
    assert first == _desk_chain(b, seed=4)
    assert capsys.readouterr().err == ""
    rows = first["eval.csv"].decode().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["none", "bandpass", "wavelet", "denoiser"]
    assert len(first["sweep.csv"].decode().splitlines()) == 1 + 3 * 2
    for name in ("gan/generator.ecgw", "gan/critic.ecgw", "gan/gan_log.csv", "den/denoiser.ecgw",
                 "pre/denoiser.ecgw", "gan.ecgd"):
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
