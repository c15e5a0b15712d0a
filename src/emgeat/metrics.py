"""Meal-structure metrics over a log of chew events.

Long pauses (drinking, talking) would inflate any rate computed over the
raw clock, so gaps above a cap are shortened to the cap on a corrected
timeline before rate statistics. The same cap defines chewing-sequence
boundaries: a gap that had to be capped separates two sequences. Sequence
statistics themselves are reported on the original clock.
"""

from dataclasses import dataclass

import numpy as np

from .events import check_interval, sequence_bounds

# Gap cap (and sequence-boundary threshold), seconds.
DEFAULT_GAP_CAP_S = 2.0


@dataclass(frozen=True)
class ChewEvent:
    """One detected chew: [onset, termination) on the session clock."""

    onset_s: float
    termination_s: float

    def __post_init__(self):
        check_interval("event", self.onset_s, self.termination_s)

    @property
    def duration_s(self) -> float:
        return self.termination_s - self.onset_s


def check_event_order(prev: ChewEvent, cur: ChewEvent) -> None:
    """Reject `cur` unless it starts no earlier than `prev` ends; an onset
    may equal the previous termination."""
    if cur.onset_s < prev.onset_s:
        raise ValueError("events must be ordered by onset")
    if cur.onset_s < prev.termination_s:
        raise ValueError(
            f"events overlap at {cur.onset_s}s (previous ends {prev.termination_s}s)"
        )


@dataclass
class CorrectedTimeline:
    """Events with pause-attenuated clocks plus sequence grouping."""

    events: list  # original ChewEvents, ordered by onset
    corrected_onsets: np.ndarray
    corrected_terminations: np.ndarray
    corrected_gaps: np.ndarray  # capped gaps, length L-1
    sequences: list  # (first_index, last_index) per sequence, inclusive


@dataclass
class SessionMetrics:
    """A meal's statistics, in the order `emgeat analyze` prints them."""

    n_events: int
    n_sequences: int
    overall_rate_hz: float  # events per corrected second
    mean_chew_period_s: float  # reciprocal view of the same span
    chew_duration_s: float
    chew_gap_s: float | None  # None when there is only one event
    sequence_duration_s: float
    sequence_gap_s: float | None  # None when there is only one sequence
    chews_per_sequence: float


def check_gap_cap(gap_cap_s: float) -> None:
    if not gap_cap_s > 0:  # nan fails this too; inf means no cap
        raise ValueError(f"gap cap {gap_cap_s!r} must be positive")


def correct_and_segment(events, gap_cap_s: float = DEFAULT_GAP_CAP_S) -> CorrectedTimeline:
    """Cap long gaps and group events into chewing sequences.

    Events must be ordered by onset and non-overlapping. Durations are never
    altered; only the gaps between events shrink (to at most gap_cap_s) on
    the corrected clock.
    """
    check_gap_cap(gap_cap_s)
    events = list(events)
    if not events:
        raise ValueError("no events to analyze")
    for prev, cur in zip(events, events[1:]):
        check_event_order(prev, cur)

    durations = np.array([e.duration_s for e in events])
    onsets = np.array([e.onset_s for e in events])
    terms = np.array([e.termination_s for e in events])
    corrected_gaps = np.minimum(onsets[1:] - terms[:-1], gap_cap_s)

    corrected_onsets = np.empty(len(events))
    corrected_onsets[0] = onsets[0]
    corrected_onsets[1:] = onsets[0] + np.cumsum(durations[:-1] + corrected_gaps)
    corrected_terms = corrected_onsets + durations

    return CorrectedTimeline(
        events=events,
        corrected_onsets=corrected_onsets,
        corrected_terminations=corrected_terms,
        corrected_gaps=corrected_gaps,
        sequences=sequence_bounds(events, gap_cap_s),
    )


def session_metrics(timeline: CorrectedTimeline) -> SessionMetrics:
    """Summary statistics of a corrected timeline.

    The overall rate is events divided by the corrected span (first corrected
    onset to last corrected termination); its reciprocal form, the mean chew
    period, is reported alongside. A gap mean over no gaps is None.
    """
    events = timeline.events
    n = len(events)
    span = float(timeline.corrected_terminations[-1] - timeline.corrected_onsets[0])
    if span <= 0:
        raise ValueError("degenerate timeline: zero corrected span")

    n_seq = len(timeline.sequences)
    seq_durations = [
        events[last].termination_s - events[first].onset_s
        for first, last in timeline.sequences
    ]
    seq_gaps = [
        events[timeline.sequences[i + 1][0]].onset_s
        - events[timeline.sequences[i][1]].termination_s
        for i in range(n_seq - 1)
    ]

    return SessionMetrics(
        n_events=n,
        n_sequences=n_seq,
        overall_rate_hz=n / span,
        mean_chew_period_s=span / n,
        chew_duration_s=float(np.mean([e.duration_s for e in events])),
        chew_gap_s=float(np.mean(timeline.corrected_gaps)) if n > 1 else None,
        sequence_duration_s=float(np.mean(seq_durations)),
        sequence_gap_s=float(np.mean(seq_gaps)) if seq_gaps else None,
        chews_per_sequence=n / n_seq,
    )
