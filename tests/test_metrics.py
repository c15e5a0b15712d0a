"""Pause-corrected meal metrics: hand cases and capping invariants."""

import math

import numpy as np
import pytest

from emgeat.metrics import (
    ChewEvent,
    correct_and_segment,
    session_metrics,
)


def ev(pairs):
    return [ChewEvent(a, b) for a, b in pairs]


def gaps(events):
    """Original inter-event gaps: each onset minus the previous termination."""
    return np.array([b.onset_s - a.termination_s for a, b in zip(events, events[1:])])


def random_event_list(rng, max_events=25):
    n = int(rng.integers(1, max_events + 1))
    t = float(rng.uniform(0, 5))
    events = []
    for _ in range(n):
        dur = float(rng.uniform(0.05, 1.5))
        events.append(ChewEvent(t, t + dur))
        t += dur + float(rng.uniform(0.01, 6.0))
    return events


class TestHandCases:
    def test_three_even_events(self):
        timeline = correct_and_segment(ev([(0, 0.5), (1, 1.5), (2, 2.5)]), 2.0)
        m = session_metrics(timeline)
        assert m.n_events == 3
        assert m.chew_duration_s == pytest.approx(0.5)
        assert m.chew_gap_s == pytest.approx(0.5)
        assert m.overall_rate_hz == pytest.approx(3 / 2.5)
        assert m.mean_chew_period_s == pytest.approx(2.5 / 3)
        assert m.n_sequences == 1
        assert m.sequence_duration_s == pytest.approx(2.5)
        assert m.sequence_gap_s is None
        assert m.chews_per_sequence == pytest.approx(3.0)

    def test_long_gap_capped_and_split(self):
        # gaps 0.3, 3.0, 0.4 -> capped [0.3, 2.0, 0.4], split at the long one
        events = ev([(0, 0.2), (0.5, 0.7), (3.7, 3.9), (4.3, 4.5)])
        timeline = correct_and_segment(events, 2.0)
        assert np.allclose(gaps(events), [0.3, 3.0, 0.4])
        assert np.allclose(timeline.corrected_gaps, [0.3, 2.0, 0.4])
        assert timeline.sequences == [(0, 1), (2, 3)]
        m = session_metrics(timeline)
        assert m.n_sequences == 2
        assert m.overall_rate_hz == pytest.approx(4 / 3.5)
        # sequence stats stay on the original clock
        assert m.sequence_duration_s == pytest.approx((0.7 + 0.8) / 2)
        assert m.sequence_gap_s == pytest.approx(3.0)
        assert m.chews_per_sequence == pytest.approx(2.0)

    def test_all_gaps_short_single_sequence(self):
        events = ev([(0, 0.4), (0.8, 1.2), (1.5, 2.0)])
        timeline = correct_and_segment(events, 2.0)
        assert timeline.sequences == [(0, 2)]
        assert np.allclose(timeline.corrected_onsets, [0.0, 0.8, 1.5])
        assert np.allclose(timeline.corrected_terminations, [0.4, 1.2, 2.0])

    def test_single_event(self):
        timeline = correct_and_segment(ev([(3.0, 3.4)]), 2.0)
        m = session_metrics(timeline)
        assert m.n_events == 1
        assert m.chew_duration_s == pytest.approx(0.4)
        assert m.overall_rate_hz == pytest.approx(1 / 0.4)
        assert m.chew_gap_s is None
        assert m.n_sequences == 1


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            correct_and_segment([])

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            correct_and_segment(ev([(2, 2.5), (0, 0.5)]))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            correct_and_segment(ev([(0, 1.0), (0.5, 1.5)]))

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            correct_and_segment(ev([(0, 0.5)]), 0.0)

    @pytest.mark.parametrize("cap", [math.nan, -math.inf])
    def test_nan_and_negative_infinite_caps_rejected(self, cap):
        # nan passed the old `cap <= 0` test and gave a nan rate; inf stays
        # valid (no cap, see test_infinite_cap_is_identity).
        with pytest.raises(ValueError, match="must be positive"):
            correct_and_segment(ev([(0, 0.5), (3.6, 4.1)]), cap)

    def test_degenerate_event_rejected(self):
        with pytest.raises(ValueError):
            ChewEvent(1.0, 1.0)

    @pytest.mark.parametrize(
        "onset, termination", [(math.nan, math.nan), (1.0, math.inf), (-math.inf, 1.0)]
    )
    def test_non_finite_event_rejected(self, onset, termination):
        with pytest.raises(ValueError, match="not finite"):
            ChewEvent(onset, termination)


class TestCappingInvariants:
    def test_1000_random_event_lists(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            events = random_event_list(rng)
            timeline = correct_and_segment(events, 2.0)
            durations = np.array([e.duration_s for e in events])
            corr_durations = (
                timeline.corrected_terminations - timeline.corrected_onsets
            )
            assert np.allclose(corr_durations, durations, atol=1e-9)
            assert np.all(timeline.corrected_gaps <= 2.0 + 1e-12)
            assert np.allclose(
                timeline.corrected_gaps, np.minimum(gaps(events), 2.0)
            )
            m = session_metrics(timeline)
            assert m.chews_per_sequence * m.n_sequences == pytest.approx(m.n_events)
            # corrected clock never runs ahead of the original one
            assert (
                timeline.corrected_terminations[-1]
                <= events[-1].termination_s + 1e-9
            )

    def test_infinite_cap_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            events = random_event_list(rng)
            timeline = correct_and_segment(events, np.inf)
            assert np.allclose(
                timeline.corrected_onsets, [e.onset_s for e in events]
            )
            assert np.allclose(
                timeline.corrected_terminations,
                [e.termination_s for e in events],
            )
            assert timeline.sequences == [(0, len(events) - 1)]

    def test_rate_invariant_under_translation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            events = random_event_list(rng)
            shifted = [
                ChewEvent(e.onset_s + 123.456, e.termination_s + 123.456)
                for e in events
            ]
            a = session_metrics(correct_and_segment(events, 2.0))
            b = session_metrics(correct_and_segment(shifted, 2.0))
            assert a.overall_rate_hz == pytest.approx(b.overall_rate_hz, rel=1e-12)
            assert a.chew_duration_s == pytest.approx(b.chew_duration_s, rel=1e-12)
