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
    read_dataset,
    read_pairs,
    scale_to_unit,
    split_dataset,
    write_csv_dataset,
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
    with pytest.raises(LabelMismatch):
        read_dataset(path)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_readers_reject_non_finite_samples(tmp_path, bad):
    clean = [sig(np.zeros(8)) for _ in range(3)]
    noisy = [sig(np.zeros(8)), sig(np.zeros(8)), sig(np.r_[np.zeros(7), bad])]
    write_pairs([SignalPair(c, n) for c, n in zip(clean, noisy)], tmp_path / "p.ecg2")
    with pytest.raises(ContainerError, match="record 2"):
        read_pairs(tmp_path / "p.ecg2")
    ds = LabeledDataset((clean[0], noisy[2]), np.zeros((2, 5), dtype=np.uint8))
    write_dataset(ds, tmp_path / "d.ecgd")
    with pytest.raises(ContainerError, match="record 1"):
        read_dataset(tmp_path / "d.ecgd")
    write_csv_dataset(ds, tmp_path / "d.csv")
    with pytest.raises(ContainerError, match="record 1"):
        read_dataset(tmp_path / "d.csv", format="csv")


# ---------------------------------------------------------------------------
# csv


def test_csv_round_trip(tmp_path):
    ds = _random_dataset(np.random.default_rng(6), 3, 10)
    path = tmp_path / "d.csv"
    write_csv_dataset(ds, path)
    back = read_dataset(path, format="csv")
    for a, b in zip(ds.signals, back.signals):
        assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ds.labels, back.labels)


def test_csv_missing_labels_defaults_to_zero(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    ds = read_dataset(path, format="csv")
    assert np.array_equal(ds.labels, np.zeros((2, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# splits


def test_split_sizes():
    ds = _random_dataset(np.random.default_rng(7), 10, 4)
    parts = split_dataset(ds, [0.8, 0.2], seed=1)
    assert [len(p) for p in parts] == [8, 2]


def test_split_deterministic():
    ds = _random_dataset(np.random.default_rng(8), 12, 4)
    a = split_dataset(ds, [0.5, 0.5], seed=9)
    b = split_dataset(ds, [0.5, 0.5], seed=9)
    for pa, pb in zip(a, b):
        for sa, sb in zip(pa.signals, pb.signals):
            assert np.array_equal(sa.samples, sb.samples)


def test_split_bad_fractions():
    ds = _random_dataset(np.random.default_rng(9), 4, 4)
    with pytest.raises(ValueError):
        split_dataset(ds, [0.5, 0.6], seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, [1.0, -0.0], seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 1000))
def test_split_partitions_exactly(n, k, seed):
    ds = _random_dataset(np.random.default_rng(seed), n, 3)
    fractions = [1.0 / k] * k
    parts = split_dataset(ds, fractions, seed=seed)
    assert sum(len(p) for p in parts) == n
    seen = sorted(
        tuple(s.samples.tolist()) for p in parts for s in p.signals
    )
    original = sorted(tuple(s.samples.tolist()) for s in ds.signals)
    assert seen == original
