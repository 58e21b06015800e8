"""Smoke and self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from ecglab import cli, metrics, models  # noqa: E402
from ecglab.signals import Signal, SignalPair, write_pairs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in expected]
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings() -> dict:
    out = {(name, attr): value for name, mod in list(sys.modules.items())
           if name == "ecglab" or name.startswith("ecglab.")
           for attr, value in vars(mod).items() if callable(value)}
    out[("Network", "forward")] = models.Network.forward
    return out


@pytest.mark.parametrize("trace", [False, True])
def test_wrappers_only_in_traced_run(trace, tmp_path, monkeypatch):
    before = _bindings()
    changed = []
    main = cli.main

    def spy(argv):
        changed.append(sum(before[k] is not v for k, v in _bindings().items() if k in before))
        return main(argv)

    monkeypatch.setattr(cli, "main", spy)
    before[("ecglab.cli", "main")] = spy
    work = tmp_path / "work"
    work.mkdir()
    result = child.run("cli_pipeline", 1, "tiny", trace, work)
    assert result["failed"] == 0
    assert all(c > 0 for c in changed) if trace else changed == [0] * 5
    assert all(before[k] is v for k, v in _bindings().items() if k in before)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    calls, total, self_s = tracer.summary()
    assert calls == {"outer": 1, "inner": 2}
    assert total == {"outer": 10.0, "inner": 4.0}
    assert self_s == {"outer": 6.0, "inner": 4.0}


# -- injected faults are counted --------------------------------------------


def _log(tmp_path: Path, critic_loss: str, gp_term: str) -> Path:
    path = tmp_path / "gan_log.csv"
    path.write_text(
        "step,kind,epoch,critic_loss,generator_loss,wasserstein_estimate,gp_term,loss,val_loss\n"
        f"1,critic,0,{critic_loss},,0.5,{gp_term},,\n"
        "2,generator,0,,-0.25,,,,\n"
        "2,validation,0,,,,,,0.9\n"
    )
    return path


@pytest.mark.parametrize("critic_loss,gp_term,failed", [
    ("0.25", "0.1", 0), ("nan", "0.1", 1), ("inf", "0.1", 1), ("0.25", "-0.1", 1),
])
def test_train_log_faults(tmp_path, critic_loss, gp_term, failed):
    tally = checks.Tally()
    checks.check_train_log(tally, _log(tmp_path, critic_loss, gp_term), ("critic", "generator"))
    assert (tally.attempted, tally.failed) == (4, failed)


@pytest.mark.parametrize("shift,failed", [(0.0, 0), (1e-6, 1)])
def test_eval_none_row_fault(tmp_path, shift, failed):
    rng = np.random.default_rng(0)
    pairs = [SignalPair(Signal(c, 500.0), Signal(c + 0.1 * rng.standard_normal(1500), 500.0))
             for c in np.sin(np.linspace(0, 20, 1500))[None, :] * rng.uniform(0.5, 1.0, (4, 1))]
    write_pairs(pairs, tmp_path / "pairs.ecg2")
    from ecglab.signals import read_pairs

    stored = read_pairs(tmp_path / "pairs.ecg2")
    none = metrics.evaluate_denoiser(None, stored, "none")
    reports = [metrics.MetricReport("none", none.mse * (1.0 + shift), none.snr_db, none.delta_hr_hz)]
    reports += [metrics.MetricReport(tag, 0.1, 1.0, 0.0) for tag in ("bandpass", "wavelet", "denoiser")]
    (tmp_path / "eval.csv").write_text(metrics.reports_to_csv(reports))
    tally = checks.Tally()
    checks.check_eval(tally, tmp_path / "eval.csv", tmp_path / "pairs.ecg2")
    assert (tally.attempted, tally.failed) == (2, failed)


def test_missing_output_counts_as_failed(tmp_path):
    tally = checks.Tally()
    checks.check_signals(tally, tmp_path / "absent.ecgd", 8)
    checks.check_stage(tally, "synth", 1)
    assert (tally.attempted, tally.failed) == (2, 2)
