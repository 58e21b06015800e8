import pytest

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
