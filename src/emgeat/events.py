"""Amplitude-threshold burst detection on conditioned envelopes.

Bursts are maximal runs of samples above a baseline-derived threshold,
cleaned up by gap merging and a minimum-duration rule. They serve as the
ground-truth surrogate for muscle contractions and as cycle context for the
window features.
"""

from dataclasses import dataclass

import numpy as np

# Multiplier on the baseline spread; activity must clear mean + 5 sd.
THRESHOLD_J = 5.0

DEFAULT_MIN_DURATION_S = 0.05
DEFAULT_MERGE_GAP_S = 0.05


@dataclass(frozen=True)
class BaselineStats:
    """Location and spread of the quiet-signal envelope."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class BurstInterval:
    onset_s: float
    termination_s: float

    @property
    def duration_s(self) -> float:
        return self.termination_s - self.onset_s


def baseline_stats(x: np.ndarray) -> BaselineStats:
    """Mean and standard deviation of a quiet segment."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("baseline segment is empty")
    return BaselineStats(mu=float(x.mean()), sigma=float(x.std()))


def compute_threshold(mu0: float, delta0: float, j: float = THRESHOLD_J) -> float:
    """Activity threshold above the baseline: mu0 + j * delta0."""
    if delta0 < 0:
        raise ValueError("baseline spread must be non-negative")
    return mu0 + j * delta0


def detect_bursts(
    x: np.ndarray,
    rate: float,
    thr: float,
    min_duration_s: float = DEFAULT_MIN_DURATION_S,
    merge_gap_s: float = DEFAULT_MERGE_GAP_S,
) -> list:
    """Find activity bursts in a conditioned envelope.

    Maximal runs of samples strictly above thr are extracted first, then runs
    separated by less than merge_gap_s are merged, then merged runs shorter
    than min_duration_s are dropped. Interval edges are expressed in seconds;
    a run covering samples [i, j] spans [i / rate, (j + 1) / rate).
    """
    x = np.asarray(x, dtype=float)
    if rate <= 0:
        raise ValueError("rate must be positive")
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
        if onset - merged[-1][1] < merge_gap_s:
            merged[-1] = (merged[-1][0], term)
        else:
            merged.append((onset, term))
    return [
        BurstInterval(onset_s=o, termination_s=t)
        for o, t in merged
        if t - o >= min_duration_s
    ]


def group_into_sequences(bursts: list, max_gap_s: float) -> list:
    """Partition bursts into runs where consecutive gaps stay <= max_gap_s."""
    if not bursts:
        return []
    sequences = [[bursts[0]]]
    for burst in bursts[1:]:
        if burst.onset_s - sequences[-1][-1].termination_s > max_gap_s:
            sequences.append([burst])
        else:
            sequences[-1].append(burst)
    return sequences
