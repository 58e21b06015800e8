import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecglab import metrics, synth
from ecglab.metrics import (
    CSV_HEADER,
    MetricReport,
    evaluate_denoiser,
    mse,
    reports_to_csv,
    snr_db,
)
from ecglab.signals import Signal, SignalPair

rng = np.random.default_rng(7)


def sig(values, rate=500.0):
    return Signal(np.asarray(values, dtype=np.float64), rate)


# ---------------------------------------------------------------------------
# mse / snr


def test_mse_examples():
    assert mse(sig([1, 2, 3]), sig([1, 2, 3])) == 0.0
    assert mse(sig([0, 0]), sig([0.5, 0.5])) == 0.25
    with pytest.raises(ValueError):
        mse(sig([1]), sig([1, 2]))


def test_snr_20db_for_10pct_residual():
    clean = sig(rng.normal(size=1000))
    test = sig(clean.samples * 1.1)
    assert abs(snr_db(clean, test) - 20.0) < 1e-9


def test_snr_zero_db_when_residual_equals_signal():
    clean = sig([1.0, 1.0, 1.0, 1.0])
    test = sig([2.0, 2.0, 0.0, 0.0])  # residual [1,1,-1,-1], same energy
    assert abs(snr_db(clean, test)) < 1e-12


def test_snr_identical_is_infinite():
    clean = sig([1.0, -1.0])
    assert snr_db(clean, clean) == math.inf


def test_snr_zero_clean_rejected():
    with pytest.raises(ValueError):
        snr_db(sig([0.0, 0.0]), sig([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), scale=st.floats(0.1, 0.9))
def test_snr_monotone_in_residual(seed, scale):
    g = np.random.default_rng(seed)
    clean = sig(g.normal(size=64))
    resid = g.normal(size=64)
    big = sig(clean.samples + resid)
    small = sig(clean.samples + scale * resid)
    assert snr_db(clean, small) > snr_db(clean, big)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999))
def test_snr_mse_consistency(seed):
    g = np.random.default_rng(seed)
    clean = sig(g.normal(size=128))
    test = sig(g.normal(size=128))
    lhs = snr_db(clean, test)
    rhs = 10 * math.log10(float(np.mean(clean.samples**2)) / mse(clean, test))
    assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# delta HR


def _delta_hr(clean, scored):
    """The delta-HR column of `evaluate_denoiser` on one pair, `scored` taken as it is."""
    return evaluate_denoiser(None, [SignalPair(clean, scored)], "one").delta_hr_hz


def test_delta_hr_identical_is_zero(ecg_60bpm):
    assert _delta_hr(ecg_60bpm, ecg_60bpm) == 0.0


def test_delta_hr_60_vs_90(ecg_60bpm, ecg_90bpm):
    d = _delta_hr(ecg_60bpm, ecg_90bpm)
    assert abs(d - 0.5) <= 0.1


def test_delta_hr_flat_vs_60(ecg_60bpm):
    flat = Signal(np.zeros(5000), 500.0)
    d = _delta_hr(ecg_60bpm, flat)
    assert abs(d - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# aggregate reports


def test_evaluate_identity_on_clean_pairs(ecg_60bpm):
    pairs = [SignalPair(ecg_60bpm, ecg_60bpm)]
    report = evaluate_denoiser(None, pairs, "none")
    assert report.mse == 0.0
    assert report.delta_hr_hz == 0.0
    assert report.snr_db == math.inf


def test_evaluate_with_callable(ecg_60bpm):
    pairs = synth.make_training_pairs([ecg_60bpm] * 3, gamma=1.0, seed=0)
    report = evaluate_denoiser(lambda s: s, pairs, "passthrough")
    assert report.mse > 0
    assert report.dataset_tag == "passthrough"


def test_metrics_permutation_invariant(ecg_60bpm, ecg_90bpm):
    pairs = synth.make_training_pairs([ecg_60bpm, ecg_90bpm] * 2, gamma=1.0, seed=1)
    a = evaluate_denoiser(None, pairs, "x")
    b = evaluate_denoiser(None, pairs[::-1], "x")
    assert np.isclose(a.mse, b.mse)
    assert np.isclose(a.snr_db, b.snr_db)
    assert np.isclose(a.delta_hr_hz, b.delta_hr_hz)


def test_csv_header_and_row_shape():
    rep = MetricReport("tag", mse=0.25, snr_db=3.0, delta_hr_hz=0.1)
    csv = reports_to_csv([rep])
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER == "dataset_tag,mse,snr_db,delta_hr_hz"
    assert lines[1].split(",")[0] == "tag"
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


def test_report_validation():
    with pytest.raises(ValueError):
        MetricReport("bad", mse=0.0, snr_db=0.0, delta_hr_hz=-0.1)


def _halved(noisy):
    return [Signal(s.samples / 2, s.sample_rate_hz) for s in noisy]


def test_reports_do_not_depend_on_the_chunk_size(ecg_60bpm, ecg_90bpm, monkeypatch):
    pairs = synth.make_training_pairs([ecg_60bpm, ecg_90bpm] * 3, gamma=1.0, seed=2)
    denoisers = {"none": None, "halved": _halved}
    whole = metrics.evaluate_denoisers(denoisers, pairs)
    monkeypatch.setattr(metrics, "INFER_BATCH", 4)  # chunks of 4 and 2 pairs
    assert metrics.evaluate_denoisers(denoisers, pairs) == whole
    assert [metrics.evaluate_denoiser(fn, pairs, tag) for tag, fn in denoisers.items()] == whole


def test_pairs_of_two_lengths_are_scored_as_apart(ecg_60bpm, ecg_90bpm):
    """Signals of each length are detected in their own stack."""
    short = Signal(ecg_90bpm.samples[:3000], 500.0)
    pairs = synth.make_training_pairs([ecg_60bpm, short], gamma=1.0, seed=4)
    both = evaluate_denoiser(_halved, pairs, "x")
    apart = [evaluate_denoiser(_halved, [p], "x") for p in pairs]
    assert both.delta_hr_hz == float(np.mean([r.delta_hr_hz for r in apart]))
    assert both.mse == float(np.mean([r.mse for r in apart]))
