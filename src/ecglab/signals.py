"""Signal containers, amplitude scaling and dataset file I/O.

Two binary containers are defined here:

* ``ECGD``  - labeled signal dataset: magic ``ECGD``, version u16,
  count u32, signal_length u32, sample_rate f32, then count*signal_length
  little-endian f32 samples (signal-major), then count*5 label bytes (0/1).
* ``ECG2``  - clean/noisy pair dataset: same header with magic ``ECG2``,
  then per record signal_length f32 clean samples immediately followed by
  signal_length f32 noisy samples. No label block.

Sample payloads are f32, so round-trips are bit-exact for data that is
representable in single precision (everything these containers are meant
to hold).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LABEL_COUNT = 5

_HEADER = struct.Struct("<4sHIIf")


class ContainerError(ValueError):
    """Base class for dataset container format errors."""


class BadMagic(ContainerError):
    pass


class TruncatedPayload(ContainerError):
    pass


class LabelMismatch(ContainerError):
    pass


def _require_finite(records: np.ndarray) -> None:
    """Raise ContainerError naming the first record ([n, ...]) with a NaN or inf."""
    bad = ~np.isfinite(records).all(axis=tuple(range(1, records.ndim)))
    if bad.any():
        raise ContainerError(f"record {int(np.argmax(bad))} holds a non-finite sample")


@dataclass(frozen=True)
class Signal:
    """Fixed-length sampled waveform, nominally scaled to [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: float = 500.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.length / self.sample_rate_hz


@dataclass(frozen=True)
class LabeledDataset:
    """Signals with per-signal binary diagnostic label vectors (5 classes)."""

    signals: tuple[Signal, ...]
    labels: np.ndarray

    def __post_init__(self):
        sigs = tuple(self.signals)
        lab = np.asarray(self.labels, dtype=np.uint8)
        if lab.ndim != 2 or lab.shape[1] != LABEL_COUNT:
            raise ValueError(f"labels must be (n, {LABEL_COUNT}), got {lab.shape}")
        if len(sigs) != lab.shape[0]:
            raise LabelMismatch(
                f"{len(sigs)} signals but {lab.shape[0]} label vectors"
            )
        if lab.size and lab.max() > 1:
            raise LabelMismatch("label entries must be 0 or 1")
        lab.flags.writeable = False
        object.__setattr__(self, "signals", sigs)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return len(self.signals)


@dataclass(frozen=True)
class SignalPair:
    clean: Signal
    noisy: Signal

    def __post_init__(self):
        if self.clean.length != self.noisy.length:
            raise ValueError("clean/noisy length mismatch")
        if self.clean.sample_rate_hz != self.noisy.sample_rate_hz:
            raise ValueError("clean/noisy sample rate mismatch")

    @functools.cached_property
    def clean_heart_rate_hz(self) -> float:
        """QRS-detected heart rate of the clean signal, computed once per pair
        and reused by every method row scored against it."""
        from .dsp import detect_qrs  # dsp imports this module

        return detect_qrs(self.clean).heart_rate_hz


def scale_to_unit(s: Signal) -> Signal:
    """Affine rescaling so min -> -1 and max -> +1 exactly; constant signals map to zeros."""
    if s.length == 0:
        raise ValueError("cannot scale an empty signal")
    lo = float(s.samples.min())
    hi = float(s.samples.max())
    if hi == lo:
        return Signal(np.zeros(s.length), s.sample_rate_hz)
    if lo == -1.0 and hi == 1.0:
        return s
    unit = (s.samples - lo) / (hi - lo)  # endpoints land on 0 and 1 exactly
    return Signal(2.0 * unit - 1.0, s.sample_rate_hz)


# ---------------------------------------------------------------------------
# ECGD container


def write_dataset(ds: LabeledDataset, path: str | Path) -> None:
    path = Path(path)
    n = len(ds)
    length = ds.signals[0].length if n else 0
    rate = ds.signals[0].sample_rate_hz if n else 0.0
    for s in ds.signals:
        if s.length != length:
            raise ValueError("all signals in a dataset must share one length")
    blob = bytearray(_HEADER.pack(b"ECGD", 1, n, length, rate))
    for s in ds.signals:
        blob += s.samples.astype("<f4").tobytes()
    blob += ds.labels.astype(np.uint8).tobytes()
    path.write_bytes(bytes(blob))


def read_dataset(path: str | Path, format: str = "raw-f32", sample_rate_hz: float = 500.0) -> LabeledDataset:
    if format == "csv":
        return _read_csv_dataset(Path(path), sample_rate_hz)
    if format != "raw-f32":
        raise ValueError(f"unknown dataset format {format!r}")
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(f"file shorter than header ({len(blob)} bytes)")
    magic, version, n, length, rate = _HEADER.unpack_from(blob)
    if magic != b"ECGD":
        raise BadMagic(f"expected magic b'ECGD', found {magic!r}")
    if version != 1:
        raise ContainerError(f"unsupported container version {version}")
    sample_bytes = n * length * 4
    off = _HEADER.size
    if len(blob) < off + sample_bytes:
        raise TruncatedPayload(
            f"header declares {n} signals of length {length} "
            f"but payload holds {(len(blob) - off) // (length * 4) if length else 0}"
        )
    samples = np.frombuffer(blob, dtype="<f4", count=n * length, offset=off)
    _require_finite(samples.reshape(n, length))
    off += sample_bytes
    if len(blob) < off + n * LABEL_COUNT:
        raise LabelMismatch(
            f"expected {n * LABEL_COUNT} label bytes, found {len(blob) - off}"
        )
    labels = np.frombuffer(blob, dtype=np.uint8, count=n * LABEL_COUNT, offset=off)
    if labels.size and labels.max() > 1:
        raise LabelMismatch("label entries must be 0 or 1")
    sigs = tuple(
        Signal(samples[i * length : (i + 1) * length].astype(np.float64), rate)
        for i in range(n)
    )
    return LabeledDataset(sigs, labels.reshape(n, LABEL_COUNT))


# ---------------------------------------------------------------------------
# ECG2 paired container


def write_pairs(pairs: list[SignalPair], path: str | Path) -> None:
    path = Path(path)
    n = len(pairs)
    length = pairs[0].clean.length if n else 0
    rate = pairs[0].clean.sample_rate_hz if n else 0.0
    blob = bytearray(_HEADER.pack(b"ECG2", 1, n, length, rate))
    for p in pairs:
        if p.clean.length != length:
            raise ValueError("all pairs must share one length")
        blob += p.clean.samples.astype("<f4").tobytes()
        blob += p.noisy.samples.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))


def read_pairs(path: str | Path) -> list[SignalPair]:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(f"file shorter than header ({len(blob)} bytes)")
    magic, version, n, length, rate = _HEADER.unpack_from(blob)
    if magic != b"ECG2":
        raise BadMagic(f"expected magic b'ECG2', found {magic!r}")
    if version != 1:
        raise ContainerError(f"unsupported container version {version}")
    need = _HEADER.size + n * length * 8
    if len(blob) < need:
        raise TruncatedPayload(f"expected {need} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", count=n * length * 2, offset=_HEADER.size)
    rec = flat.reshape(n, 2, length) if n else flat.reshape(0, 2, 0)
    _require_finite(rec)
    return [
        SignalPair(
            Signal(rec[i, 0].astype(np.float64), rate),
            Signal(rec[i, 1].astype(np.float64), rate),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# CSV ingestion (hand-authored fixtures): one signal per row, labels in a
# sibling file "<path>.labels" with one 0/1 row per signal (all-zero labels
# are assumed when the sibling file is absent).


def _read_csv_dataset(path: Path, sample_rate_hz: float) -> LabeledDataset:
    rows = [
        np.asarray([float(v) for v in line.split(",")], dtype=np.float64)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ContainerError("csv rows have inconsistent lengths")
    if rows:
        _require_finite(np.stack(rows))
    sigs = tuple(Signal(r, sample_rate_hz) for r in rows)
    label_path = path.with_name(path.name + ".labels")
    if label_path.exists():
        labels = np.asarray(
            [
                [int(v) for v in line.split(",")]
                for line in label_path.read_text().splitlines()
                if line.strip()
            ],
            dtype=np.uint8,
        )
        if labels.shape[0] != len(sigs):
            raise LabelMismatch(
                f"{len(sigs)} csv signals but {labels.shape[0]} label rows"
            )
    else:
        labels = np.zeros((len(sigs), LABEL_COUNT), dtype=np.uint8)
    return LabeledDataset(sigs, labels)


def write_csv_dataset(ds: LabeledDataset, path: str | Path) -> None:
    path = Path(path)
    lines = [",".join(repr(float(v)) for v in s.samples) for s in ds.signals]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    label_lines = [",".join(str(int(v)) for v in row) for row in ds.labels]
    path.with_name(path.name + ".labels").write_text(
        "\n".join(label_lines) + ("\n" if label_lines else "")
    )


# ---------------------------------------------------------------------------


def split_dataset(
    ds: LabeledDataset, fractions: list[float], seed: int
) -> list[LabeledDataset]:
    """Deterministic disjoint partition with sizes proportional to fractions."""
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.size == 0 or np.any(fr <= 0):
        raise ValueError("fractions must be positive")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fr.sum()}")
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.round(np.cumsum(fr) * n).astype(int)
    bounds[-1] = n
    out = []
    start = 0
    for stop in bounds:
        idx = perm[start:stop]
        out.append(
            LabeledDataset(
                tuple(ds.signals[i] for i in idx),
                ds.labels[idx] if n else ds.labels,
            )
        )
        start = stop
    return out
