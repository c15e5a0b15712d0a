"""Tests of the benchmark's own oracles, at tiny sizes.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emgeat import features, io, learn, realtime, synth  # noqa: E402
from emgeat.learn import FoldResult, Prf  # noqa: E402
from emgeat.signal import Annotation  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def short_session():
    return synth.gen_session(synth.SessionPlan(duration_s=8.0, seed=5, participant_id="Q"))


# --- label overlap -------------------------------------------------------------


def test_labels_follow_the_half_window_rule():
    anns = [
        Annotation("chew", 0.4, 1.5),  # covers 0.6 of [0,1), 0.5 of [1,2)
        Annotation("swallow", 2.0, 3.0),  # another kind never counts
    ]
    labels = oracles.window_labels([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], anns, "chew", "C")
    assert list(labels) == ["C", "C", "NA"]


def test_labels_need_one_annotation_to_cover_half():
    # two annotations covering 0.3 each do not add up
    anns = [Annotation("chew", 0.0, 0.3), Annotation("chew", 0.7, 1.0)]
    assert list(oracles.window_labels([0.0], [1.0], anns, "chew", "C")) == ["NA"]


def test_labels_agree_with_the_feature_matrix(short_session):
    spec = features.WindowSpec(length_s=features.CHEW_WINDOW_S, hop_s=0.25)
    matrix = features.build_feature_matrix(short_session, spec, "chew")
    labels = oracles.window_labels(
        matrix.onsets_s, matrix.terminations_s, short_session.annotations, "chew", "C"
    )
    assert np.array_equal(labels, matrix.labels)
    assert "C" in set(labels) and "NA" in set(labels)


# --- feature recompute -----------------------------------------------------------


def test_recomputed_features_match_every_row(short_session):
    spec = features.WindowSpec(length_s=features.SWALLOW_WINDOW_S, hop_s=0.25)
    matrix = features.build_feature_matrix(short_session, spec, "swallow")
    envs = {
        ch: oracles.envelope(short_session.channel(ch), short_session.sample_rate)
        for ch in short_session.channel_names
    }
    rate = short_session.sample_rate / oracles.DECIMATION
    n_window = int(features.SWALLOW_WINDOW_S * rate)
    rows = range(matrix.n_rows)
    assert oracles.feature_mismatches(matrix, rows, envs, rate, n_window) == []

    matrix.values[2, matrix.feature_names.index("submental_mnf")] *= 1.000001
    bad = oracles.feature_mismatches(matrix, rows, envs, rate, n_window)
    assert len(bad) == 1 and "row 2 submental_mnf" in bad[0]


def test_window_features_of_a_constant_window():
    out = oracles.window_features(np.full(8, 0.5), rate=102.4)
    assert out["mav"] == out["rms"] == out["peak_amp"] == 0.5
    assert out["wl"] == 0.0
    assert out["mnf"] >= 0.0


# --- LOPO fold properties ----------------------------------------------------------


def _fold(n_test, pos, neg):
    return FoldResult(participant="P", n_test=n_test, metrics={"C": pos, "NA": neg})


def _prf(p, r):
    return Prf(p, r, 2 * p * r / (p + r))


def test_balanced_fold_has_no_problems():
    # 10 + 10 test windows: TP 8, FN 2, TN 9, FP 1
    fold = _fold(20, _prf(8 / 9, 0.8), _prf(9 / 11, 0.9))
    assert oracles.fold_problems(fold, "C", "NA", n_pos=10, n_neg=30) == []


def test_unbalanced_or_inconsistent_folds_are_reported():
    fold = _fold(20, _prf(8 / 9, 0.8), _prf(9 / 11, 0.9))
    assert oracles.fold_problems(fold, "C", "NA", n_pos=12, n_neg=30)
    wrong_f1 = _fold(20, Prf(8 / 9, 0.8, 0.9), _prf(9 / 11, 0.9))
    assert any("2PR" in p for p in oracles.fold_problems(wrong_f1, "C", "NA", 10, 30))
    # precision that a 10 + 10 test set cannot produce from these recalls
    skewed = _fold(20, _prf(0.5, 0.8), _prf(9 / 11, 0.9))
    assert any("balanced" in p for p in oracles.fold_problems(skewed, "C", "NA", 10, 30))


def test_lopo_folds_of_the_program_pass(short_session):
    other = synth.gen_session(synth.SessionPlan(duration_s=8.0, seed=6, participant_id="R"))
    spec = features.WindowSpec(length_s=features.CHEW_WINDOW_S, hop_s=0.25)
    mats = [features.build_feature_matrix(r, spec, "chew") for r in (short_session, other)]
    report = learn.lopo_evaluate(features.concat_matrices(mats), "C")
    for fold, m in zip(report.folds, mats):
        n_pos = int(np.sum(m.labels == "C"))
        assert oracles.fold_problems(fold, "C", "NA", n_pos, m.n_rows - n_pos) == []


# --- transcripts ----------------------------------------------------------------------


def test_level_bands():
    ref = oracles.REFERENCE_RATE_HZ
    assert oracles.level_label(0.0) == "no_pulse"
    assert oracles.level_label(0.3 * 2 * ref) == "single_pulse"
    assert oracles.level_label(0.79 * 2 * ref) == "double_pulse"
    assert oracles.level_label(5.0) == "intense_double"


def test_replica_transcript_matches_a_served_session(short_session):
    cal = synth.gen_session(synth.SessionPlan(duration_s=10.0, seed=7, participant_id="CAL"))
    profile = realtime.calibrate([cal.channel("masseter")], cal.sample_rate)
    train = realtime.rt_training_set(
        synth.gen_session(synth.SessionPlan(duration_s=20.0, seed=8)), profile
    )
    model = learn.train_linear_svm(
        train.values, train.labels, realtime.RT_FEATURE_NAMES, "C", learn.TrainConfig(c=1.0)
    )
    server = io.serve(model, io.ServerConfig()).start_background()
    try:
        served = io.stream_client(
            short_session, "127.0.0.1", server.port, speed=0, profile=profile
        )
    finally:
        server.shutdown()
    expected, events = oracles.expected_transcript(
        realtime.StreamEngine(model, profile),
        short_session.channel("masseter"),
        short_session.sample_rate,
        "Q",
        chunk=512,
    )
    assert served.transcript == expected
    assert oracles.bye_events(expected) == len(events) > 0
    assert oracles.stream_problems(
        expected, short_session.duration_s, len(events), len(events)
    ) == []


def test_stream_problems_catch_missing_seconds_and_log_mismatch():
    transcript = ["hello participant=Q", "rate t=1.0 value=0.0", "rate t=3.0 value=0.0",
                  "bye events=4"]
    problems = oracles.stream_problems(transcript, 3.0, 4, 3)
    assert any("one per whole second" in p for p in problems)
    assert any("event log has 3" in p for p in problems)


def test_event_hits_match_overlapping_events_one_to_one():
    chews = [(1.0, 1.4), (2.0, 2.4), (3.0, 3.4)]
    events = [
        (1.3, 1.6),  # overlaps the first chew
        (1.35, 1.5),  # overlaps it too, but the chew is taken
        (2.4, 2.6),  # only touches the second chew's end
        (3.3, 3.5),
    ]
    assert oracles.event_hits(events, chews) == 2
    assert oracles.event_hits([], chews) == 0
    assert oracles.f1_score(2, len(events), len(chews)) == pytest.approx(
        2 * (2 / 4) * (2 / 3) / (2 / 4 + 2 / 3)
    )
    assert oracles.f1_score(0, 0, 3) == 0.0


# --- latency pairing and percentiles ----------------------------------------------------


def test_latency_pairs_each_rate_line_with_its_second():
    due = {1: 10.0, 2: 11.0}
    arrivals = [
        (10.002, "hello participant=Q"),
        (10.004, "rate t=1.0 value=0.0"),
        (10.005, "level t=1.0 value=single_pulse"),
        (11.010, "rate t=2.0 value=0.2"),
        (11.500, "bye events=1"),
    ]
    got = oracles.pair_latencies(due, arrivals)
    assert got == pytest.approx([0.004, 0.010])


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert oracles.percentile(values, 50) == 50
    assert oracles.percentile(values, 90) == 90
    assert sum(v > oracles.percentile(values, 90) for v in values) == 10
    assert oracles.percentile([7.0], 90) == 7.0
    assert oracles.percentile([1, 2, 3], 0) == 1
    with pytest.raises(ValueError):
        oracles.percentile([], 50)


# --- span self time ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_and_splits_phases(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.active = True
    outer()
    split = tracing.time.perf_counter()
    inner()
    tracer.count("n", 2)
    tracer.dump(tmp_path / "t.npz")
    before, after = tracing.summarize(tmp_path / "t.npz", split)
    spans, counters = before
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 3
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"]
    )
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"]
    assert after[0]["inner"]["calls"] == 1 and "outer" not in after[0]
    assert counters == {} and after[1] == {"n": 2.0}
