"""Threshold computation, burst detection and sequence grouping."""

import numpy as np
import pytest

import emgeat.events as events
from emgeat.events import (
    BurstInterval,
    baseline_stats,
    compute_threshold,
    detect_bursts,
    sequence_bounds,
)
from emgeat.signal import preprocess
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
        assert detect_bursts(np.full(100, 0.1), 100.0, 0.5) == []

    def test_rectangular_burst(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:150] = 1.0  # 1.0 s .. 1.5 s
        bursts = detect_bursts(x, rate, 0.5)
        assert len(bursts) == 1
        assert bursts[0].onset_s == pytest.approx(1.0, abs=1.0 / rate)
        assert bursts[0].termination_s == pytest.approx(1.5, abs=1.0 / rate)

    def test_short_run_dropped(self):
        rate = 100.0
        x = np.zeros(200)
        x[50:53] = 1.0  # 0.03 s < default min duration 0.05 s
        assert detect_bursts(x, rate, 0.5) == []

    def test_nearby_runs_merged(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:110] = 1.0
        x[113:123] = 1.0  # 0.03 s gap < default merge gap 0.05 s
        bursts = detect_bursts(x, rate, 0.5)
        assert len(bursts) == 1
        assert bursts[0].onset_s == pytest.approx(1.0)
        assert bursts[0].termination_s == pytest.approx(1.23)

    def test_distant_runs_stay_separate(self):
        rate = 100.0
        x = np.zeros(300)
        x[100:110] = 1.0
        x[130:140] = 1.0  # 0.2 s gap
        assert len(detect_bursts(x, rate, 0.5)) == 2

    def test_intervals_disjoint_and_sorted(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = np.abs(rng.standard_normal(1000))
            bursts = detect_bursts(x, 100.0, float(rng.uniform(0.5, 2.0)))
            for a, b in zip(bursts, bursts[1:]):
                assert a.termination_s <= b.onset_s
                assert a.onset_s < a.termination_s

    def test_raw_runs_only_contain_samples_above_thr(self, monkeypatch):
        monkeypatch.setattr(events, "MIN_DURATION_S", 0.0)
        monkeypatch.setattr(events, "MERGE_GAP_S", 0.0)
        rng = np.random.default_rng(14)
        x = np.abs(rng.standard_normal(500))
        thr = 1.0
        rate = 100.0
        bursts = detect_bursts(x, rate, thr)
        covered = np.zeros(x.size, dtype=bool)
        for b in bursts:
            i0 = int(round(b.onset_s * rate))
            i1 = int(round(b.termination_s * rate))
            assert np.all(x[i0:i1] > thr)
            covered[i0:i1] = True
        assert np.all(x[~covered] <= thr)

    def test_total_duration_monotone_in_threshold(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = np.abs(rng.standard_normal(2000))
            totals = []
            for thr in np.linspace(0.1, 2.5, 9):
                bursts = detect_bursts(x, 100.0, float(thr))
                totals.append(sum(b.duration_s for b in bursts))
            for lo, hi in zip(totals, totals[1:]):
                assert hi <= lo + 1e-12

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            detect_bursts(np.zeros(10), 0.0, 0.5)


class TestSequences:
    def test_grouping_by_gap(self):
        bursts = [
            BurstInterval(0.0, 0.3),
            BurstInterval(0.8, 1.1),  # gap 0.5
            BurstInterval(4.0, 4.3),  # gap 2.9 > 2.0 -> new sequence
        ]
        assert sequence_bounds(bursts, 2.0) == [(0, 1), (2, 2)]

    def test_gap_equal_to_the_cap_stays_inside(self):
        bursts = [BurstInterval(0.0, 0.5), BurstInterval(2.5, 3.0)]  # gap exactly 2.0
        assert sequence_bounds(bursts, 2.0) == [(0, 1)]
        assert sequence_bounds(bursts, 1.5) == [(0, 0), (1, 1)]

    def test_empty(self):
        assert sequence_bounds([], 2.0) == []


class TestSyntheticDetection:
    def test_interval_recall_and_precision(self):
        plan = SessionPlan(duration_s=60.0, chew_rate_hz=1.5, snr_db=20.0, seed=33)
        recording = gen_session(plan)
        processed = preprocess(recording.channel("masseter"), recording.sample_rate)
        lead = int(plan.baseline_lead_s * processed.rate)
        stats = baseline_stats(processed.samples[:lead])
        thr = compute_threshold(stats.mu, stats.sigma)
        bursts = detect_bursts(processed.samples, processed.rate, thr)
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
                if iou(t, (b.onset_s, b.termination_s)) >= 0.5:
                    hits += 1
                    used.add(i)
                    break
        recall = hits / len(truth)
        precision = hits / len(bursts)
        assert recall >= 0.95
        assert precision >= 0.95
