"""Correctness checks on the files a workload's CLI stages write.

Every check adds one attempted operation to a Tally and, when it does not
hold, one failed operation; `pass_ratio` and `fail_ratio` are computed
from these counts. The checks read the outputs with plain numpy and the
csv module, independently of the ecglab readers where the format is
simple enough to parse here.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ECGD / ECG2 header: magic, version u16, count u32, length u32, rate f32
_HEADER = struct.Struct("<4sHIIf")
_LOSS_COLUMNS = ("critic_loss", "generator_loss", "wasserstein_estimate", "gp_term", "loss")
EVAL_METHODS = ("none", "bandpass", "wavelet", "denoiser")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _read_container(path: Path, magic: bytes, per_record: int) -> np.ndarray:
    """Samples of an ECGD or ECG2 file as float64 [count, per_record, length]."""
    blob = path.read_bytes()
    got, _, n, length, _ = _HEADER.unpack_from(blob)
    if got != magic:
        raise ValueError(f"{path.name}: magic {got!r}, expected {magic!r}")
    flat = np.frombuffer(blob, dtype="<f4", count=n * per_record * length, offset=_HEADER.size)
    return flat.reshape(n, per_record, length).astype(np.float64)


def check_stage(tally: Tally, stage: str, code: int) -> None:
    tally.check(code == 0, f"stage {stage} exited {code}")


def check_train_log(tally: Tally, path: Path, kinds: tuple[str, ...]) -> None:
    """Each logged row of `kinds` has finite losses and a non-negative gp_term."""
    try:
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
    except OSError as exc:
        tally.check(False, f"{path.name}: {exc}")
        return
    for kind in kinds:
        tally.check(any(r["kind"] == kind for r in rows), f"{path.name}: no {kind} rows")
    for r in rows:
        if r["kind"] not in kinds:
            continue
        values = {c: float(r[c]) for c in _LOSS_COLUMNS if r[c] != ""}
        ok = bool(values) and all(math.isfinite(v) for v in values.values())
        ok = ok and values.get("gp_term", 0.0) >= 0.0
        tally.check(ok, f"{path.name}: step {r['step']} {r['kind']} row {values}")


def check_signals(tally: Tally, path: Path, count: int) -> None:
    """A synthesized ECGD file holds `count` finite signals within [-1, 1]."""
    try:
        x = _read_container(path, b"ECGD", 1)
    except (OSError, ValueError, struct.error) as exc:
        tally.check(False, f"{path.name}: {exc}")
        return
    tally.check(x.shape[0] == count, f"{path.name}: {x.shape[0]} signals, expected {count}")
    tally.check(bool(np.all(np.isfinite(x))) and bool(np.all(np.abs(x) <= 1.0)),
                f"{path.name}: samples non-finite or outside [-1, 1]")


def check_eval(tally: Tally, csv_path: Path, pairs_path: Path) -> None:
    """`eval --all` wrote one row per method; the `none` row's mse matches numpy."""
    try:
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        pairs = _read_container(pairs_path, b"ECG2", 2)
    except (OSError, ValueError, struct.error) as exc:
        tally.check(False, f"{csv_path.name}: {exc}")
        return
    tags = tuple(r["dataset_tag"] for r in rows)
    tally.check(tags == EVAL_METHODS, f"{csv_path.name}: rows {tags}, expected {EVAL_METHODS}")
    expected = float(np.mean(np.mean((pairs[:, 0] - pairs[:, 1]) ** 2, axis=1)))
    none = [float(r["mse"]) for r in rows if r["dataset_tag"] == "none"]
    tally.check(len(none) == 1 and math.isclose(none[0], expected, rel_tol=1e-9),
                f"{csv_path.name}: none mse {none}, numpy gives {expected}")


def check_checkpoint(tally: Tally, path: Path) -> None:
    """A checkpoint loads and every stored array is finite."""
    from ecglab.checkpoint import load_params

    try:
        state = load_params(path)
    except (OSError, ValueError) as exc:
        tally.check(False, f"{path.name}: {exc}")
        return
    tally.check(bool(state) and all(np.all(np.isfinite(a)) for a in state.values()),
                f"{path.name}: empty or non-finite parameters")
