"""Meal-structure metrics over a log of chew events.

Long pauses (drinking, talking) would inflate any rate computed over the
raw clock, so gaps above a cap are shortened to the cap on a corrected
timeline before rate statistics. The same cap defines chewing-sequence
boundaries: a gap that had to be capped separates two sequences. Sequence
statistics themselves are reported on the original clock. One call,
`session_metrics`, goes from an event log to all of them.
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


def session_metrics(events, gap_cap_s: float = DEFAULT_GAP_CAP_S) -> SessionMetrics:
    """Summary statistics of a meal's chew events.

    Events must be ordered by onset and non-overlapping. On the corrected
    clock every gap above gap_cap_s shrinks to it and durations are kept;
    the overall rate is events divided by the corrected span (first onset to
    last corrected termination), and its reciprocal form, the mean chew
    period, is reported alongside. A gap that had to be capped separates
    two sequences, whose statistics are on the original clock. A gap mean
    over no gaps is None.
    """
    check_gap_cap(gap_cap_s)
    events = list(events)
    if not events:
        raise ValueError("no events to analyze")
    for prev, cur in zip(events, events[1:]):
        check_event_order(prev, cur)

    n = len(events)
    durations = np.array([e.duration_s for e in events])
    onsets = np.array([e.onset_s for e in events])
    terms = np.array([e.termination_s for e in events])
    capped_gaps = np.minimum(onsets[1:] - terms[:-1], gap_cap_s)
    # The last corrected onset, summed in event order.
    last_onset = onsets[0] + np.cumsum(durations[:-1] + capped_gaps)[-1] if n > 1 else onsets[0]
    span = float(last_onset + durations[-1] - onsets[0])
    if span <= 0:
        raise ValueError("degenerate timeline: zero corrected span")

    firsts, lasts = np.array(sequence_bounds(onsets, terms, gap_cap_s)).T
    n_seq = len(firsts)
    seq_gaps = onsets[firsts[1:]] - terms[lasts[:-1]]
    return SessionMetrics(
        n_events=n,
        n_sequences=n_seq,
        overall_rate_hz=n / span,
        mean_chew_period_s=span / n,
        chew_duration_s=float(np.mean(durations)),
        chew_gap_s=float(np.mean(capped_gaps)) if n > 1 else None,
        sequence_duration_s=float(np.mean(terms[lasts] - onsets[firsts])),
        sequence_gap_s=float(np.mean(seq_gaps)) if n_seq > 1 else None,
        chews_per_sequence=n / n_seq,
    )
