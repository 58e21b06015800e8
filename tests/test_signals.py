import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecglab.signals import (
    BadMagic,
    ContainerError,
    LabeledDataset,
    LabelMismatch,
    Signal,
    SignalPair,
    TruncatedPayload,
    csv_table,
    read_dataset,
    read_dataset_f32,
    read_pairs,
    read_pairs_f32,
    scale_to_unit,
    write_dataset,
    write_pairs,
)


def sig(values, rate=500.0):
    return Signal(np.asarray(values, dtype=np.float64), rate)


# ---------------------------------------------------------------------------
# scaling


def test_scale_affine_endpoints():
    assert scale_to_unit(sig([0, 5, 10])).samples.tolist() == [-1.0, 0.0, 1.0]


def test_scale_identity_when_scaled():
    assert scale_to_unit(sig([-1, 1])).samples.tolist() == [-1.0, 1.0]


def test_scale_constant_maps_to_zero():
    assert scale_to_unit(sig([3, 3, 3])).samples.tolist() == [0.0, 0.0, 0.0]


def test_scale_a_range_past_float64():
    """hi - lo overflows: the samples are halved first, so no NaN comes out."""
    assert scale_to_unit(sig([-1e308, 0.0, 1e308])).samples.tolist() == [-1.0, 0.0, 1.0]
    big = float(np.finfo(np.float64).max)
    assert scale_to_unit(sig([-big, big, 0.5 * big])).samples.tolist() == [-1.0, 1.0, 0.5]


def test_scale_empty_errors():
    with pytest.raises(ValueError):
        scale_to_unit(sig([]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
def test_scale_idempotent(values):
    once = scale_to_unit(sig(values))
    twice = scale_to_unit(once)
    assert np.array_equal(once.samples, twice.samples)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=64))
def test_scale_hits_bounds_for_nonconstant(values):
    s = scale_to_unit(sig(values))
    if np.ptp(np.asarray(values)) > 0:
        assert s.samples.min() == -1.0
        assert s.samples.max() == 1.0


# ---------------------------------------------------------------------------
# ECGD container


def _random_dataset(rng, n, length):
    sigs = tuple(
        Signal(rng.normal(size=length).astype(np.float32).astype(np.float64), 500.0)
        for _ in range(n)
    )
    labels = rng.integers(0, 2, size=(n, 5)).astype(np.uint8)
    return LabeledDataset(sigs, labels)


def test_ecgd_round_trip(tmp_path):
    ds = _random_dataset(np.random.default_rng(0), 3, 5000)
    path = tmp_path / "a.ecgd"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert len(back) == 3
    for a, b in zip(ds.signals, back.signals):
        assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ds.labels, back.labels)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 5), length=st.integers(1, 40), seed=st.integers(0, 2**31 - 1))
def test_ecgd_round_trip_property(tmp_path_factory, n, length, seed):
    ds = _random_dataset(np.random.default_rng(seed), n, length)
    path = tmp_path_factory.mktemp("ds") / "p.ecgd"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(ds.labels, back.labels)
    for a, b in zip(ds.signals, back.signals):
        assert np.array_equal(a.samples, b.samples)
    # writing the reread dataset reproduces the same bytes
    path2 = tmp_path_factory.mktemp("ds") / "q.ecgd"
    write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ecgd_file_size(tmp_path):
    ds = _random_dataset(np.random.default_rng(1), 1, 8)
    path = tmp_path / "one.ecgd"
    write_dataset(ds, path)
    # header (4+2+4+4+4) + 8 f32 samples + 5 label bytes
    assert path.stat().st_size == 18 + 8 * 4 + 5


def test_ecgd_empty_dataset(tmp_path):
    ds = LabeledDataset((), np.zeros((0, 5), dtype=np.uint8))
    path = tmp_path / "empty.ecgd"
    write_dataset(ds, path)
    assert path.stat().st_size == 18
    assert len(read_dataset(path)) == 0


def test_ecgd_truncated_payload(tmp_path):
    ds = _random_dataset(np.random.default_rng(2), 2, 16)
    path = tmp_path / "t.ecgd"
    write_dataset(ds, path)
    blob = path.read_bytes()
    # keep the header but only one signal's worth of samples
    path.write_bytes(blob[: 18 + 16 * 4])
    with pytest.raises(TruncatedPayload):
        read_dataset(path)


def test_ecgd_bad_magic(tmp_path):
    path = tmp_path / "m.ecgd"
    path.write_bytes(b"WHAT" + bytes(20))
    with pytest.raises(BadMagic):
        read_dataset(path)


def test_ecgd_label_shortfall(tmp_path):
    ds = _random_dataset(np.random.default_rng(3), 2, 4)
    path = tmp_path / "l.ecgd"
    write_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])  # drop part of the label block
    for read in (read_dataset, read_dataset_f32):
        with pytest.raises(LabelMismatch, match="^expected 10 label bytes, found 7$"):
            read(path)


def test_ecgd_label_above_one(tmp_path):
    ds = _random_dataset(np.random.default_rng(3), 2, 4)
    path = tmp_path / "l.ecgd"
    write_dataset(ds, path)
    path.write_bytes(path.read_bytes()[:-1] + b"\x02")
    for read in (read_dataset, read_dataset_f32):
        with pytest.raises(LabelMismatch, match="^label entries must be 0 or 1$"):
            read(path)


def _one_pair(p):
    write_pairs([SignalPair(sig(np.zeros(4)), sig(np.ones(4)))], p)


def _one_signal(p):
    write_dataset(_random_dataset(np.random.default_rng(0), 1, 4), p)


@pytest.mark.parametrize("write, read", [
    (lambda p: write_dataset(_random_dataset(np.random.default_rng(0), 1, 4), p), read_dataset),
    (lambda p: write_pairs([SignalPair(sig(np.zeros(4)), sig(np.ones(4)))], p), read_pairs),
    (_one_signal, read_dataset_f32),
    (_one_pair, read_pairs_f32),
])
def test_readers_reject_other_versions(tmp_path, write, read):
    path = tmp_path / "v.bin"
    write(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<H", 2) + blob[6:])
    with pytest.raises(ContainerError, match="version 2"):
        read(path)


@pytest.mark.parametrize("write, read, extra", [
    (lambda p: write_dataset(_random_dataset(np.random.default_rng(0), 1, 4), p), read_dataset, b"xyz"),
    (lambda p: write_pairs([SignalPair(sig(np.zeros(4)), sig(np.ones(4)))], p), read_pairs, b"garbage!"),
    (_one_signal, read_dataset_f32, b"xyz"),
    (_one_pair, read_pairs_f32, b"garbage!"),
])
def test_readers_reject_bytes_past_the_declared_end(tmp_path, write, read, extra):
    path = tmp_path / "x.bin"
    write(path)
    read(path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(ContainerError, match=rf"^file has {len(extra)} bytes past its declared end$"):
        read(path)


def test_label_count_mismatch_at_construction():
    with pytest.raises(LabelMismatch):
        LabeledDataset((sig([1.0]),), np.zeros((2, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# pairs container


def test_pairs_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pairs = [
        SignalPair(
            Signal(rng.normal(size=32).astype(np.float32).astype(np.float64), 128.0),
            Signal(rng.normal(size=32).astype(np.float32).astype(np.float64), 128.0),
        )
        for _ in range(3)
    ]
    path = tmp_path / "p.ecgd2"
    write_pairs(pairs, path)
    back = read_pairs(path)
    assert len(back) == 3
    for a, b in zip(pairs, back):
        assert np.array_equal(a.clean.samples, b.clean.samples)
        assert np.array_equal(a.noisy.samples, b.noisy.samples)


def test_pairs_magic_distinct_from_dataset(tmp_path):
    ds = _random_dataset(np.random.default_rng(5), 1, 8)
    path = tmp_path / "x.ecgd"
    write_dataset(ds, path)
    with pytest.raises(BadMagic):
        read_pairs(path)


def _patch_last_sample(path, value, tail_bytes):
    """Overwrite the f32 sample just before the file's last `tail_bytes` bytes."""
    blob = bytearray(path.read_bytes())
    end = len(blob) - tail_bytes
    blob[end - 4 : end] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_readers_reject_non_finite_samples(tmp_path, bad):
    """The writer cannot make such a file (a ``Signal`` is finite), so the
    bytes of a finite one are patched: files may come from elsewhere."""
    zeros = [sig(np.zeros(8)) for _ in range(3)]
    write_pairs([SignalPair(z, z) for z in zeros], tmp_path / "p.ecg2")
    _patch_last_sample(tmp_path / "p.ecg2", bad, 0)
    for read in (read_pairs, read_pairs_f32):
        with pytest.raises(ContainerError, match="^record 2 holds a non-finite sample$"):
            read(tmp_path / "p.ecg2")
    write_dataset(LabeledDataset(tuple(zeros[:2]), np.zeros((2, 5), dtype=np.uint8)), tmp_path / "d.ecgd")
    _patch_last_sample(tmp_path / "d.ecgd", bad, 2 * 5)
    for read in (read_dataset, read_dataset_f32):
        with pytest.raises(ContainerError, match="^record 1 holds a non-finite sample$"):
            read(tmp_path / "d.ecgd")


def _patch_header_rate(path, rate):
    blob = bytearray(path.read_bytes())
    blob[14:18] = struct.pack("<f", rate)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("write, readers", [
    (_one_signal, (read_dataset, read_dataset_f32)),
    (_one_pair, (read_pairs, read_pairs_f32)),
], ids=["ecgd", "ecg2"])
def test_readers_refuse_a_header_rate_with_signals_message(tmp_path, write, readers, rate):
    """The header's rate is checked by `Signal`'s own rule, so each reader
    gives the message `Signal` gives for that rate."""
    with pytest.raises(ValueError) as info:
        Signal(np.zeros(4), float(np.float32(rate)))
    path = tmp_path / "r.bin"
    write(path)
    _patch_header_rate(path, rate)
    for read in readers:
        with pytest.raises(ValueError) as got:
            read(path)
        assert str(got.value) == str(info.value)


@pytest.mark.parametrize("write_empty, read, shapes", [
    (lambda p: write_dataset(LabeledDataset((), np.zeros((0, 5), dtype=np.uint8)), p), read_dataset_f32,
     [(0, 0, 1), (0, 5)]),
    (lambda p: write_pairs([], p), read_pairs_f32, [(0, 0, 1), (0, 0, 1)]),
], ids=["ecgd", "ecg2"])
def test_an_empty_file_leaves_its_header_rate_unchecked(tmp_path, write_empty, read, shapes):
    """A file of no records holds no signal whose rate could be wrong, and
    the writer of an empty set stores 0 there."""
    path = tmp_path / "e.bin"
    write_empty(path)
    _patch_header_rate(path, np.nan)
    assert [a.shape for a in read(path)[:2]] == shapes


def test_f32_readers_return_read_only_views_of_the_signal_layers_samples(tmp_path):
    rng = np.random.default_rng(6)
    ds = _random_dataset(rng, 3, 16)
    write_dataset(ds, tmp_path / "d.ecgd")
    samples, labels, rate = read_dataset_f32(tmp_path / "d.ecgd")
    back = read_dataset(tmp_path / "d.ecgd")
    assert samples.shape == (3, 16, 1) and samples.dtype == np.float32 and rate == 500.0
    assert np.array_equal(labels, back.labels)
    for row, s in zip(samples, back.signals):
        assert row[:, 0].astype(np.float64).tobytes() == s.samples.tobytes()
    pairs = [SignalPair(*ds.signals[:2]), SignalPair(*ds.signals[1:])]
    write_pairs(pairs, tmp_path / "p.ecg2")
    clean, noisy, rate = read_pairs_f32(tmp_path / "p.ecg2")
    assert clean.shape == noisy.shape == (2, 16, 1) and rate == 500.0
    for c, n, p in zip(clean, noisy, read_pairs(tmp_path / "p.ecg2")):
        assert c[:, 0].astype(np.float64).tobytes() == p.clean.samples.tobytes()
        assert n[:, 0].astype(np.float64).tobytes() == p.noisy.samples.tobytes()
    for a in (samples, labels, clean, noisy):
        assert not a.flags.writeable and not a.flags.owndata


# ---------------------------------------------------------------------------
# byte layout and writer checks shared by both containers


def _expected_header(magic, n, length, rate):
    return struct.pack("<4sHIIf", magic, 1, n, length, rate)


def test_ecgd_byte_layout(tmp_path):
    a = np.array([0.5, -1.0, 2.25], dtype=np.float32)
    b = np.array([3.0, 0.125, -7.5], dtype=np.float32)
    labels = np.array([[1, 0, 0, 1, 0], [0, 1, 1, 0, 1]], dtype=np.uint8)
    expected = (_expected_header(b"ECGD", 2, 3, 250.0) + a.astype("<f4").tobytes()
                + b.astype("<f4").tobytes() + labels.tobytes())
    write_dataset(LabeledDataset((sig(a, 250.0), sig(b, 250.0)), labels), tmp_path / "d.ecgd")
    assert (tmp_path / "d.ecgd").read_bytes() == expected


def test_ecg2_byte_layout_interleaves_clean_and_noisy_per_record(tmp_path):
    c0, n0, c1, n1 = (np.arange(4, dtype=np.float32) + 10 * k for k in range(4))
    expected = _expected_header(b"ECG2", 2, 4, 128.0) + b"".join(
        x.astype("<f4").tobytes() for x in (c0, n0, c1, n1)
    )
    pairs = [SignalPair(sig(c0, 128.0), sig(n0, 128.0)), SignalPair(sig(c1, 128.0), sig(n1, 128.0))]
    write_pairs(pairs, tmp_path / "p.ecg2")
    assert (tmp_path / "p.ecg2").read_bytes() == expected


@pytest.mark.parametrize("lengths, rates, match", [((4, 5), (500.0, 500.0), "length"),
                                                   ((4, 4), (500.0, 128.0), "sample rate")])
def test_writers_refuse_mixed_signals(tmp_path, lengths, rates, match):
    sigs = [sig(np.zeros(k), r) for k, r in zip(lengths, rates)]
    with pytest.raises(ValueError, match=match):
        write_dataset(LabeledDataset(tuple(sigs), np.zeros((2, 5), dtype=np.uint8)), tmp_path / "d.ecgd")
    with pytest.raises(ValueError, match=match):
        write_pairs([SignalPair(s, s) for s in sigs], tmp_path / "p.ecg2")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("big", [1e39, -1e39, 3.5e38])
def test_writers_refuse_a_sample_that_overflows_float32(tmp_path, big):
    """Checked before the file is opened, naming the record; the largest
    float32 is still written, and a non-finite sample cannot reach the
    writer, as ``Signal`` refuses it."""
    ok = sig(np.zeros(4))
    bad = sig([0.0, big, 1.0, 2.0])
    with pytest.raises(ValueError, match="^record 2 holds a sample that overflows float32$"):
        write_dataset(LabeledDataset((ok, ok, bad), np.zeros((3, 5), dtype=np.uint8)), tmp_path / "d.ecgd")
    with pytest.raises(ValueError, match="^record 1 holds a sample that overflows float32$"):
        write_pairs([SignalPair(ok, ok), SignalPair(ok, bad)], tmp_path / "p.ecg2")
    assert list(tmp_path.iterdir()) == []
    edge = sig([float(np.finfo(np.float32).max), 0.0, 0.0, 0.0])
    write_pairs([SignalPair(edge, ok)], tmp_path / "p.ecg2")
    assert (tmp_path / "p.ecg2").exists()
    with pytest.raises(ValueError, match="^samples must be finite, got inf at index 1$"):
        sig([float(np.finfo(np.float32).max), np.inf, np.nan, 0.0])


def test_signal_copies_the_callers_array_once():
    """The caller's array stays writable and writing to it leaves the
    Signal alone; a float32 input is cast, not cast and then copied."""
    x = np.zeros(3)
    s = Signal(x, 1.0)
    x[0] = 1
    assert s.samples.tolist() == [0.0, 0.0, 0.0] and not s.samples.flags.writeable
    labels = np.zeros((1, 5), dtype=np.uint8)
    ds = LabeledDataset((s,), labels)
    labels[0, 0] = 1
    assert ds.labels.sum() == 0
    f32 = np.arange(1000, dtype=np.float32)
    tracemalloc.start()
    try:
        Signal(f32, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8000 <= peak < 2 * 8000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_signal_refuses_a_non_finite_sample(bad):
    """`Signal` is the one check: the trainers, writers and filters downstream trust it."""
    with pytest.raises(ValueError, match=f"^samples must be finite, got {bad} at index 40$"):
        Signal(np.where(np.arange(128) == 40, bad, 0.0), 64.0)


_F32_MAX = float(np.finfo(np.float32).max)
# the float64s on each side of the f32 cast's round-to-inf boundary, 2**128 - 2**103
_F32_ROUNDS_TO_INF = 2.0**128 - 2.0**103
_F32_ROUNDS_TO_MAX = np.nextafter(_F32_ROUNDS_TO_INF, 0.0)


@pytest.mark.parametrize("rate,message", [
    (1e39, "sample rate 1e+39 Hz overflows float32"),
    (_F32_ROUNDS_TO_INF, f"sample rate {_F32_ROUNDS_TO_INF} Hz overflows float32"),
    (1e-46, "sample rate 1e-46 Hz underflows float32"),
    (-1.0, "sample_rate_hz must be finite and positive, got -1.0"),
], ids=["1e39", "rounds-to-inf", "1e-46", "negative"])
def test_signal_refuses_a_rate_the_header_cannot_hold(rate, message):
    with pytest.raises(ValueError) as info:
        Signal(np.zeros(4), rate)
    assert str(info.value) == message


@pytest.mark.parametrize("rate", [_F32_ROUNDS_TO_MAX, _F32_MAX, 1e-45])
def test_signal_rate_at_the_f32_edges_round_trips(tmp_path, rate):
    write_dataset(LabeledDataset((Signal(np.zeros(4), rate),), np.zeros((1, 5), dtype=np.uint8)), tmp_path / "d")
    assert read_dataset(tmp_path / "d").signals[0].sample_rate_hz == float(np.float32(rate))


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e39, -1e39, 5e-324, -1e-310, 1e-45, 1e-46, _F32_MAX,
                     _F32_ROUNDS_TO_MAX, -_F32_ROUNDS_TO_INF]),
)


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(_EDGE_FLOATS, min_size=1, max_size=6), rate=_EDGE_FLOATS, pairs=st.booleans())
def test_no_signal_makes_a_file_its_reader_refuses(tmp_path_factory, samples, rate, pairs):
    """Either `Signal` refuses the input, or the writer refuses it before
    opening the file, or the reader returns exactly its float32 cast."""
    try:
        s = Signal(np.array(samples), rate)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("edge") / "x"
    try:
        if pairs:
            write_pairs([SignalPair(s, s)], path)
        else:
            write_dataset(LabeledDataset((s,), np.zeros((1, 5), dtype=np.uint8)), path)
    except ValueError:
        assert not path.exists()
        return
    back = read_pairs(path)[0].noisy if pairs else read_dataset(path).signals[0]
    assert back.samples.tobytes() == s.samples.astype(np.float32).astype(np.float64).tobytes()
    assert back.sample_rate_hz == float(np.float32(rate))


# ---------------------------------------------------------------------------
# CSV tables


def test_csv_table_cell_rule():
    """str as is, None empty, anything else repr(float(v)): an int metric
    reads 0.0, a float32 its float's repr, inf and nan as Python spells them."""
    f32 = np.float32(0.1)
    rows = [("3", None, 0, f32, np.inf, -np.inf, np.nan), ("x", 1.5, None, "", 2, 0.1, "7")]
    text = csv_table("a,b,c,d,e,f,g", rows)
    assert text == f"a,b,c,d,e,f,g\n3,,0.0,{float(f32)!r},inf,-inf,nan\nx,1.5,,,2.0,0.1,7\n"
    assert repr(float(f32)) == "0.10000000149011612"
    assert csv_table("h", []) == "h\n"
