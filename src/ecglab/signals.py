"""Signal containers, amplitude scaling, dataset file I/O and CSV tables.

Both binary containers go through one record codec, ``_write_records``
and ``_read_records``. A file is a header (magic, version u16 = 1,
count u32, signal_length u32, sample_rate f32), then ``count`` records
of ``per`` signals each as little-endian f32 samples, record-major, then
a tail:

* ``ECGD``  - labeled signal dataset: per = 1; the tail is count*5 label
  bytes (0/1).
* ``ECG2``  - clean/noisy pair dataset: per = 2, each record's clean
  samples immediately followed by its noisy samples; no tail.

``Signal`` owns the rule for a valid signal, so no stage checks it again:
finite samples, and a finite, positive rate that fits the header's f32
field (``_check_rate``, which the readers also apply to a header that
declares any record). A ``Signal`` holds its own read-only float64 copy
of the samples it is given. Before it opens the file, the writer refuses
signals whose lengths or rates differ and, naming the record, a sample
that overflows f32 (it would be written as inf). The readers, whose input
may come from outside the program, check the magic, the version, the
payload and tail lengths, that every sample is finite and that every
ECGD label is 0 or 1. Sample payloads are f32, so round-trips are
bit-exact for data that is representable in single precision (everything
these containers are meant to hold).

Each container has one reader that makes all of a file's checks and
returns its samples as read-only f32 ``[N, L, 1]`` views of the file's
bytes: ``read_dataset_f32`` (samples, labels, rate) and
``read_pairs_f32`` (clean, noisy, rate). The trainers of the generator
and the denoiser take those arrays as they are, so a training set is held
once, at the file's size. ``read_dataset`` and ``read_pairs`` build
float64 ``Signal``s on top of them for everything else: DSP, ``eval``,
``sweep`` and the classifier.

Every CSV table the pipeline writes (the training logs, ``eval`` and
``sweep``) is made by ``csv_table``: a header line, then one line per row,
each ending in a newline. A ``str`` cell is written as is, ``None`` as an
empty cell and any other value as the ``repr`` of its ``float``, which
reads back as the same float. So an int-valued metric reads ``0.0``, and
callers pass counts such as a step or a size as ``str``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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


def _check_rate(rate: float) -> None:
    """A sample rate is finite, positive, and neither overflows nor
    underflows the containers' f32 rate field; ValueError naming it."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"sample_rate_hz must be finite and positive, got {rate}")
    with np.errstate(over="ignore", under="ignore"):
        rate32 = np.float32(rate)
    if np.isinf(rate32) or rate32 == 0:
        raise ValueError(f"sample rate {rate} Hz {'overflows' if rate32 else 'underflows'} float32")


@dataclass(frozen=True)
class Signal:
    """Fixed-length sampled waveform, nominally scaled to [-1, 1]. Its
    samples are finite, and its rate is finite, positive and neither
    overflows nor underflows the containers' f32 rate field; anything else
    is refused with one line naming the value.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        # a copy, made once (as the cast when the input is not float64), so
        # that freezing it leaves the caller's array writable
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            i = int(np.argmax(~np.isfinite(arr)))
            raise ValueError(f"samples must be finite, got {arr[i]} at index {i}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        _check_rate(self.sample_rate_hz)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.length / self.sample_rate_hz


def _check_label_values(labels: np.ndarray) -> None:
    if labels.size and labels.max() > 1:
        raise LabelMismatch("label entries must be 0 or 1")


@dataclass(frozen=True)
class LabeledDataset:
    """Signals with per-signal binary diagnostic label vectors (5 classes)."""

    signals: tuple[Signal, ...]
    labels: np.ndarray

    def __post_init__(self):
        sigs = tuple(self.signals)
        lab = np.array(self.labels, dtype=np.uint8)  # a copy, as in `Signal`
        if lab.ndim != 2 or lab.shape[1] != LABEL_COUNT:
            raise ValueError(f"labels must be (n, {LABEL_COUNT}), got {lab.shape}")
        if len(sigs) != lab.shape[0]:
            raise LabelMismatch(
                f"{len(sigs)} signals but {lab.shape[0]} label vectors"
            )
        _check_label_values(lab)
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


def scale_to_unit(s: Signal) -> Signal:
    """Affine rescaling so min -> -1 and max -> +1 exactly; constant signals map to zeros."""
    if s.length == 0:
        raise ValueError("cannot scale an empty signal")
    if s.samples.min() == -1.0 and s.samples.max() == 1.0:
        return s
    return Signal(scale_rows_to_unit(s.samples[None].copy())[0], s.sample_rate_hz)


def scale_rows_to_unit(x: np.ndarray) -> np.ndarray:
    """`scale_to_unit` of each row of the writable, non-empty float64
    [rows, n] array `x`, in place; returns `x`. Rows whose min and max are
    already -1 and +1 are left as they are, constant rows become zeros."""
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    kept = (lo == -1.0) & (hi == 1.0)
    rescale = ~kept if kept.any() else True  # True: the plain, unmasked loops
    with np.errstate(over="ignore"):
        wide = np.isinf(hi - lo)
    if wide.any():  # a range past float64's: halved, which is exact above the subnormals
        np.divide(x, 2, out=x, where=wide)
        lo, hi = np.where(wide, lo / 2, lo), np.where(wide, hi / 2, hi)
    span = hi - lo
    flat = span == 0.0
    np.subtract(x, lo, out=x, where=rescale)
    np.divide(x, np.where(flat, 1.0, span), out=x, where=rescale)  # endpoints land on 0 and 1 exactly
    np.multiply(x, 2.0, out=x, where=rescale)
    np.subtract(x, 1.0, out=x, where=rescale)
    x[flat[:, 0]] = 0.0
    return x


# ---------------------------------------------------------------------------
# the record codec shared by both containers


def _write_records(path: str | Path, magic: bytes, records: Sequence[Sequence[Signal]], tail: bytes) -> None:
    """Write the header, then each record's signals as little-endian f32
    samples straight to the file, then ``tail``. Every signal must share
    the first one's length and sample rate, which the header stores, and
    no sample may overflow f32; all of it is checked, one signal at a
    time, before the file is opened."""
    sigs = [s for rec in records for s in rec]
    length = sigs[0].length if sigs else 0
    rate = sigs[0].sample_rate_hz if sigs else 0.0
    for i, s in enumerate(sigs):
        if s.length != length:
            raise ValueError(f"all signals in a file must share one length, found {length} and {s.length}")
        if s.sample_rate_hz != rate:
            raise ValueError(f"all signals in a file must share one sample rate, found {rate} and {s.sample_rate_hz} Hz")
        with np.errstate(over="ignore"):
            if np.isinf(s.samples.astype("<f4")).any():
                raise ValueError(f"record {i // len(records[0])} holds a sample that overflows float32")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, 1, len(records), length, rate))
        for s in sigs:
            f.write(s.samples.astype("<f4").data)
        f.write(tail)


def _read_records(path: str | Path, magic: bytes, per: int, tail_per: int) -> tuple[np.ndarray, float, bytes]:
    """(f32 records [n, per, L], sample rate, the bytes after them) of a version-1
    container whose magic is ``magic`` and whose tail is at most ``tail_per`` bytes a record."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(f"file shorter than header ({len(blob)} bytes)")
    found, version, n, length, rate = _HEADER.unpack_from(blob)
    if found != magic:
        raise BadMagic(f"expected magic {magic!r}, found {found!r}")
    if version != 1:
        raise ContainerError(f"unsupported container version {version}")
    end = _HEADER.size + n * per * length * 4
    if len(blob) < end:
        raise TruncatedPayload(
            f"header declares {n} records of {per} x {length} samples ({end} bytes), file has {len(blob)}"
        )
    extra = len(blob) - end - n * tail_per
    if extra > 0:
        raise ContainerError(f"file has {extra} bytes past its declared end")
    records = np.frombuffer(blob, dtype="<f4", count=n * per * length, offset=_HEADER.size).reshape(n, per, length)
    bad = ~np.isfinite(records).all(axis=(1, 2))
    if bad.any():
        raise ContainerError(f"record {int(np.argmax(bad))} holds a non-finite sample")
    return records, rate, blob[end:]


def write_dataset(ds: LabeledDataset, path: str | Path) -> None:
    _write_records(path, b"ECGD", [(s,) for s in ds.signals], ds.labels.tobytes())


def read_dataset_f32(path: str | Path) -> tuple[np.ndarray, np.ndarray, float]:
    """(samples [N, L, 1] f32, labels [N, 5] u8, sample rate) of an ECGD
    file, both arrays read-only views of its bytes. Refuses whatever
    ``read_dataset`` refuses, with the same message."""
    records, rate, tail = _read_records(path, b"ECGD", 1, LABEL_COUNT)
    n = len(records)
    if len(tail) < n * LABEL_COUNT:
        raise LabelMismatch(f"expected {n * LABEL_COUNT} label bytes, found {len(tail)}")
    if n:  # an empty file has no signal whose rate could be wrong; its writer stores 0
        _check_rate(rate)
    labels = np.frombuffer(tail, dtype=np.uint8, count=n * LABEL_COUNT).reshape(n, LABEL_COUNT)
    _check_label_values(labels)
    return records[:, 0, :, None], labels, rate


def read_dataset(path: str | Path) -> LabeledDataset:
    samples, labels, rate = read_dataset_f32(path)
    return LabeledDataset(tuple(Signal(row, rate) for row in samples[:, :, 0]), labels)


def write_pairs(pairs: list[SignalPair], path: str | Path) -> None:
    _write_records(path, b"ECG2", [(p.clean, p.noisy) for p in pairs], b"")


def read_pairs_f32(path: str | Path) -> tuple[np.ndarray, np.ndarray, float]:
    """(clean [N, L, 1] f32, noisy [N, L, 1] f32, sample rate) of an ECG2
    file, both arrays read-only views of its bytes. Refuses whatever
    ``read_pairs`` refuses, with the same message."""
    records, rate, _ = _read_records(path, b"ECG2", 2, 0)
    if len(records):
        _check_rate(rate)
    return records[:, 0, :, None], records[:, 1, :, None], rate


def read_pairs(path: str | Path) -> list[SignalPair]:
    clean, noisy, rate = read_pairs_f32(path)
    return [SignalPair(Signal(c, rate), Signal(n, rate)) for c, n in zip(clean[:, :, 0], noisy[:, :, 0])]


# ---------------------------------------------------------------------------
# CSV tables


def csv_table(header: str, rows: Iterable[Sequence]) -> str:
    """The CSV text of `header` and `rows`, cells written as the module docstring says."""
    lines = [header] + [
        ",".join(v if isinstance(v, str) else "" if v is None else repr(float(v)) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"
