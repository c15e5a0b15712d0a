"""Pause-corrected meal metrics: hand cases and capping invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emgeat.metrics import ChewEvent, session_metrics


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
        m = session_metrics(ev([(0, 0.5), (1, 1.5), (2, 2.5)]), 2.0)
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
        m = session_metrics(events, 2.0)
        assert np.allclose(gaps(events), [0.3, 3.0, 0.4])
        assert m.chew_gap_s == pytest.approx(np.mean([0.3, 2.0, 0.4]))
        assert m.n_sequences == 2
        assert m.overall_rate_hz == pytest.approx(4 / 3.5)
        # sequence stats stay on the original clock
        assert m.sequence_duration_s == pytest.approx((0.7 + 0.8) / 2)
        assert m.sequence_gap_s == pytest.approx(3.0)
        assert m.chews_per_sequence == pytest.approx(2.0)

    def test_all_gaps_short_single_sequence(self):
        # No gap is capped: the corrected clock is the original one.
        events = ev([(0, 0.4), (0.8, 1.2), (1.5, 2.0)])
        m = session_metrics(events, 2.0)
        assert (m.n_sequences, m.chews_per_sequence) == (1, 3.0)
        assert m.sequence_duration_s == pytest.approx(2.0)
        assert m.overall_rate_hz == pytest.approx(3 / 2.0)
        assert m.chew_gap_s == pytest.approx(np.mean([0.4, 0.3]))

    def test_single_event(self):
        m = session_metrics(ev([(3.0, 3.4)]), 2.0)
        assert m.n_events == 1
        assert m.chew_duration_s == pytest.approx(0.4)
        assert m.overall_rate_hz == pytest.approx(1 / 0.4)
        assert m.chew_gap_s is None
        assert m.n_sequences == 1


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            session_metrics([])

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            session_metrics(ev([(2, 2.5), (0, 0.5)]))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            session_metrics(ev([(0, 1.0), (0.5, 1.5)]))

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            session_metrics(ev([(0, 0.5)]), 0.0)

    @pytest.mark.parametrize("cap", [math.nan, -math.inf])
    def test_nan_and_negative_infinite_caps_rejected(self, cap):
        # nan passed the old `cap <= 0` test and gave a nan rate; inf stays
        # valid (no cap, see test_infinite_cap_is_identity).
        with pytest.raises(ValueError, match="must be positive"):
            session_metrics(ev([(0, 0.5), (3.6, 4.1)]), cap)

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
            m = session_metrics(events, 2.0)
            durations = np.array([e.duration_s for e in events])
            capped = np.minimum(gaps(events), 2.0)
            # The corrected span keeps every duration and caps every gap.
            span = m.n_events / m.overall_rate_hz
            assert span == pytest.approx(durations.sum() + capped.sum(), abs=1e-9)
            assert m.chew_duration_s == pytest.approx(durations.mean())
            if len(events) > 1:
                assert m.chew_gap_s <= 2.0 + 1e-12
                assert m.chew_gap_s == pytest.approx(capped.mean())
            assert m.chews_per_sequence * m.n_sequences == pytest.approx(m.n_events)
            # corrected clock never runs ahead of the original one
            assert events[0].onset_s + span <= events[-1].termination_s + 1e-9

    def test_infinite_cap_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            events = random_event_list(rng)
            m = session_metrics(events, np.inf)
            span = events[-1].termination_s - events[0].onset_s
            assert m.n_events / m.overall_rate_hz == pytest.approx(span)
            assert m.mean_chew_period_s == pytest.approx(span / len(events))
            if len(events) > 1:
                assert m.chew_gap_s == pytest.approx(gaps(events).mean())
            assert m.n_sequences == 1
            assert m.sequence_duration_s == pytest.approx(span)

    def test_rate_invariant_under_translation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            events = random_event_list(rng)
            shifted = [
                ChewEvent(e.onset_s + 123.456, e.termination_s + 123.456)
                for e in events
            ]
            a = session_metrics(events, 2.0)
            b = session_metrics(shifted, 2.0)
            assert a.overall_rate_hz == pytest.approx(b.overall_rate_hz, rel=1e-12)
            assert a.chew_duration_s == pytest.approx(b.chew_duration_s, rel=1e-12)


def reference_metrics(events, gap_cap_s):
    """The metrics as two steps, kept apart from emgeat.metrics: build the
    whole corrected timeline (every corrected onset and termination), then
    take its span and the sequence statistics from it."""
    durations = np.array([e.duration_s for e in events])
    onsets = np.array([e.onset_s for e in events])
    terms = np.array([e.termination_s for e in events])
    corrected_gaps = np.minimum(onsets[1:] - terms[:-1], gap_cap_s)
    corrected_onsets = np.empty(len(events))
    corrected_onsets[0] = onsets[0]
    corrected_onsets[1:] = onsets[0] + np.cumsum(durations[:-1] + corrected_gaps)
    corrected_terms = corrected_onsets + durations
    sequences, first = [], 0
    for i in range(1, len(events)):
        if onsets[i] - terms[i - 1] > gap_cap_s:
            sequences.append((first, i - 1))
            first = i
    sequences.append((first, len(events) - 1))

    n = len(events)
    span = float(corrected_terms[-1] - corrected_onsets[0])
    seq_durations = [events[b].termination_s - events[a].onset_s for a, b in sequences]
    seq_gaps = [
        events[sequences[i + 1][0]].onset_s - events[sequences[i][1]].termination_s
        for i in range(len(sequences) - 1)
    ]
    return (
        n,
        len(sequences),
        n / span,
        span / n,
        float(np.mean([e.duration_s for e in events])),
        float(np.mean(corrected_gaps)) if n > 1 else None,
        float(np.mean(seq_durations)),
        float(np.mean(seq_gaps)) if seq_gaps else None,
        n / len(sequences),
    )


def exact(values):
    """Floats by their hex form, so that equal means equal to the bit."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@st.composite
def event_logs(draw):
    """An onset-ordered log; a gap of 0 makes two events touch."""
    t = draw(st.floats(min_value=-1e3, max_value=1e4))
    events = []
    for _ in range(draw(st.integers(1, 30))):
        duration = draw(st.floats(min_value=1e-3, max_value=3.0))
        events.append(ChewEvent(t, t + duration))
        t = events[-1].termination_s + draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
        )
    return events


class TestAgainstReference:
    @given(events=event_logs(), cap=st.one_of(
        st.sampled_from([0.1, 2.0, math.inf]),
        st.floats(min_value=1e-9, max_value=20.0),
        st.just("below every gap"),
    ))
    @settings(max_examples=300)
    def test_bit_equal_to_the_whole_timeline(self, events, cap):
        if cap == "below every gap":
            positive = [g for g in gaps(events) if g > 0]
            cap = min(positive) / 2 if positive else 1e-9
        m = session_metrics(events, cap)
        assert exact(dataclasses.astuple(m)) == exact(reference_metrics(events, cap))

    @pytest.mark.parametrize("cap", [1e-9, 2.0, math.inf])
    def test_single_event_and_touching_events(self, cap):
        for events in (
            ev([(3.0, 3.4)]),
            ev([(0.1, 0.4), (0.4, 0.7), (0.7, 1.3)]),
            ev([(0.0, 0.3), (0.3, 0.5), (5.0, 5.2), (5.2, 5.3)]),
        ):
            m = session_metrics(events, cap)
            assert exact(dataclasses.astuple(m)) == exact(reference_metrics(events, cap))
