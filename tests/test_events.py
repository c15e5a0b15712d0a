"""Threshold computation, burst detection and sequence grouping."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import emgeat.events as events
from emgeat.events import baseline_stats, compute_threshold, detect_bursts, sequence_bounds
from emgeat.signal import envelope_rate, preprocess
from emgeat.synth import SessionPlan, gen_session


class TestThreshold:
    def test_frozen_example(self):
        assert compute_threshold(0.1, 0.02) == pytest.approx(0.2)

    def test_zero_spread(self):
        assert compute_threshold(0.1, 0.0) == 0.1

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            compute_threshold(0.1, -0.01)

    def test_baseline_stats(self):
        stats = baseline_stats(np.array([1.0, 2.0, 3.0]))
        assert stats.mu == pytest.approx(2.0)
        assert stats.sigma == pytest.approx(np.sqrt(2.0 / 3.0))
        with pytest.raises(ValueError):
            baseline_stats(np.array([]))


class TestDetectBursts:
    def test_all_below_threshold(self):
        onsets, terms = detect_bursts(np.full(100, 0.1), 100.0, 0.5)
        assert onsets.shape == terms.shape == (0,)
        assert onsets.dtype == terms.dtype == float

    def test_rectangular_burst(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:150] = 1.0  # 1.0 s .. 1.5 s
        onsets, terms = detect_bursts(x, rate, 0.5)
        assert len(onsets) == len(terms) == 1
        assert onsets[0] == pytest.approx(1.0, abs=1.0 / rate)
        assert terms[0] == pytest.approx(1.5, abs=1.0 / rate)

    def test_short_run_dropped(self):
        rate = 100.0
        x = np.zeros(200)
        x[50:53] = 1.0  # 0.03 s < default min duration 0.05 s
        onsets, terms = detect_bursts(x, rate, 0.5)
        assert onsets.size == terms.size == 0

    def test_nearby_runs_merged(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:110] = 1.0
        x[113:123] = 1.0  # 0.03 s gap < default merge gap 0.05 s
        onsets, terms = detect_bursts(x, rate, 0.5)
        assert len(onsets) == len(terms) == 1
        assert onsets[0] == pytest.approx(1.0)
        assert terms[0] == pytest.approx(1.23)

    def test_distant_runs_stay_separate(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:110] = 1.0
        x[130:140] = 1.0  # 0.2 s gap
        onsets, terms = detect_bursts(x, rate, 0.5)
        assert len(onsets) == len(terms) == 2

    def test_intervals_disjoint_and_sorted(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = np.abs(rng.standard_normal(1000))
            onsets, terms = detect_bursts(x, 100.0, float(rng.uniform(0.5, 2.0)))
            assert np.all(terms[:-1] <= onsets[1:])
            assert np.all(onsets < terms)

    def test_raw_runs_only_contain_samples_above_thr(self, monkeypatch):
        monkeypatch.setattr(events, "MIN_DURATION_S", 0.0)
        monkeypatch.setattr(events, "MERGE_GAP_S", 0.0)
        rng = np.random.default_rng(14)
        x = np.abs(rng.standard_normal(500))
        thr = 1.0
        rate = 100.0
        onsets, terms = detect_bursts(x, rate, thr)
        covered = np.zeros(x.size, dtype=bool)
        for onset, term in zip(onsets, terms):
            i0 = int(round(onset * rate))
            i1 = int(round(term * rate))
            assert np.all(x[i0:i1] > thr)
            covered[i0:i1] = True
        assert np.all(x[~covered] <= thr)

    def test_total_duration_monotone_in_threshold(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = np.abs(rng.standard_normal(2000))
            totals = []
            for thr in np.linspace(0.1, 2.5, 9):
                onsets, terms = detect_bursts(x, 100.0, float(thr))
                totals.append(sum((terms - onsets).tolist()))
            for lo, hi in zip(totals, totals[1:]):
                assert hi <= lo + 1e-12

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            detect_bursts(np.zeros(10), 0.0, 0.5)


def naive_bursts(x, rate, thr):
    """(onset, termination) pairs from a run scan and a merge loop, the
    detect_bursts of old, as a reference for the array version."""
    above = x > thr
    if not above.any():
        return []
    starts = list(np.flatnonzero(above[1:] & ~above[:-1]) + 1)
    if above[0]:
        starts.insert(0, 0)
    ends = list(np.flatnonzero(above[:-1] & ~above[1:]))
    if above[-1]:
        ends.append(x.size - 1)
    runs = [(s / rate, (e + 1) / rate) for s, e in zip(starts, ends)]
    merged = [runs[0]]
    for onset, term in runs[1:]:
        if onset - merged[-1][1] < events.MERGE_GAP_S:
            merged[-1] = (merged[-1][0], term)
        else:
            merged.append((onset, term))
    return [(o, t) for o, t in merged if t - o >= events.MIN_DURATION_S]


def bits(values):
    return [float(v).hex() for v in values]


LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestDetectBurstsAgainstLoop:
    @pytest.mark.parametrize("zero_rules", [False, True], ids=["default", "zero"])
    @settings(max_examples=150, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.sampled_from(LEVELS) | st.floats(0, 1), st.integers(1, 120)),
            max_size=40,
        ),
        thr=st.sampled_from(LEVELS) | st.floats(0, 1),
        rate=st.sampled_from([102.4, 150.0, 1024.0, 1500.0]),
    )
    # At 1500 Hz, 75 samples can span exactly MIN_DURATION_S or MERGE_GAP_S.
    @example(runs=[(1.0, 75)], thr=0.5, rate=1500.0)
    @example(runs=[(1.0, 2), (0.0, 75), (1.0, 80)], thr=0.5, rate=1500.0)
    def test_bit_identical(self, zero_rules, runs, thr, rate):
        levels, lengths = zip(*runs) if runs else ((), ())
        x = np.repeat(np.array(levels, dtype=float), np.array(lengths, dtype=int))
        with pytest.MonkeyPatch.context() as mp:
            if zero_rules:
                mp.setattr(events, "MIN_DURATION_S", 0.0)
                mp.setattr(events, "MERGE_GAP_S", 0.0)
            onsets, terms = detect_bursts(x, rate, thr)
            want = naive_bursts(x, rate, thr)
        assert onsets.dtype == terms.dtype == float
        assert bits(onsets) == bits(o for o, _ in want)
        assert bits(terms) == bits(t for _, t in want)


class TestSequences:
    def test_grouping_by_gap(self):
        onsets = np.array([0.0, 0.8, 4.0])  # gaps 0.5, then 2.9 > 2.0 -> new sequence
        terms = np.array([0.3, 1.1, 4.3])
        assert sequence_bounds(onsets, terms, 2.0) == [(0, 1), (2, 2)]

    def test_gap_equal_to_the_cap_stays_inside(self):
        onsets, terms = np.array([0.0, 2.5]), np.array([0.5, 3.0])  # gap exactly 2.0
        assert sequence_bounds(onsets, terms, 2.0) == [(0, 1)]
        assert sequence_bounds(onsets, terms, 1.5) == [(0, 0), (1, 1)]

    def test_empty(self):
        assert sequence_bounds(np.zeros(0), np.zeros(0), 2.0) == []


class TestSyntheticDetection:
    def test_interval_recall_and_precision(self):
        plan = SessionPlan(duration_s=60.0, chew_rate_hz=1.5, snr_db=20.0, seed=33)
        recording = gen_session(plan)
        envelope = preprocess(recording.channel("masseter"), recording.sample_rate)
        rate = envelope_rate(recording.sample_rate)
        lead = int(plan.baseline_lead_s * rate)
        stats = baseline_stats(envelope[:lead])
        thr = compute_threshold(stats.mu, stats.sigma)
        bursts = list(zip(*detect_bursts(envelope, rate, thr)))
        truth = [
            (a.onset_s, a.termination_s) for a in recording.annotations_of("chew")
        ]

        def iou(a, b):
            inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
            union = max(a[1], b[1]) - min(a[0], b[0])
            return inter / union

        hits = 0
        used = set()
        for t in truth:
            for i, b in enumerate(bursts):
                if i in used:
                    continue
                if iou(t, b) >= 0.5:
                    hits += 1
                    used.add(i)
                    break
        recall = hits / len(truth)
        precision = hits / len(bursts)
        assert recall >= 0.95
        assert precision >= 0.95
