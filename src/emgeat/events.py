"""Amplitude-threshold burst detection on conditioned envelopes.

Bursts are maximal runs of samples above a baseline-derived threshold,
cleaned up by gap merging and a minimum-duration rule, all by array
operations with no loop over runs. They serve as the ground-truth surrogate
for muscle contractions and as cycle context for the window features.
"""

import math
from dataclasses import dataclass

import numpy as np

# Multiplier on the baseline spread; activity must clear mean + 5 sd.
THRESHOLD_J = 5.0

# Runs closer than MERGE_GAP_S are merged; merged runs shorter than
# MIN_DURATION_S are dropped.
MIN_DURATION_S = 0.05
MERGE_GAP_S = 0.05


@dataclass(frozen=True)
class BaselineStats:
    """Location and spread of the quiet-signal envelope."""

    mu: float
    sigma: float


def check_interval(what: str, onset_s: float, termination_s: float) -> None:
    """Reject an interval that is not finite or does not end after its onset."""
    if not (math.isfinite(onset_s) and math.isfinite(termination_s)):
        raise ValueError(f"{what} interval {onset_s}..{termination_s} is not finite")
    if termination_s <= onset_s:
        raise ValueError(f"{what} termination {termination_s} not after onset {onset_s}")


def baseline_stats(x: np.ndarray) -> BaselineStats:
    """Mean and standard deviation of a quiet segment."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("baseline segment is empty")
    return BaselineStats(mu=float(x.mean()), sigma=float(x.std()))


def compute_threshold(mu0: float, delta0: float) -> float:
    """Activity threshold above the baseline: mu0 + THRESHOLD_J * delta0."""
    if delta0 < 0:
        raise ValueError("baseline spread must be non-negative")
    return mu0 + THRESHOLD_J * delta0


def detect_bursts(x: np.ndarray, rate: float, thr: float) -> tuple:
    """Find activity bursts in a conditioned envelope.

    Maximal runs of samples strictly above thr are extracted first, then runs
    separated by less than MERGE_GAP_S are merged, then merged runs shorter
    than MIN_DURATION_S are dropped. Returns (onsets, terms): float arrays of
    burst edges in seconds, in onset order and empty when there is no burst;
    a run covering samples [i, j] spans [i / rate, (j + 1) / rate).
    """
    x = np.asarray(x, dtype=float)
    if rate <= 0:
        raise ValueError("rate must be positive")
    # +1 where a run starts, -1 one sample past where it ends.
    edges = np.diff((x > thr).astype(np.int8), prepend=0, append=0)
    onsets = np.flatnonzero(edges > 0) / rate
    terms = np.flatnonzero(edges < 0) / rate
    if not onsets.size:  # the merge mask below needs at least one run
        return onsets, terms
    # A gap shorter than MERGE_GAP_S joins a run to the one before it.
    split = onsets[1:] - terms[:-1] >= MERGE_GAP_S
    onsets, terms = onsets[np.append(True, split)], terms[np.append(split, True)]
    keep = terms - onsets >= MIN_DURATION_S
    return onsets[keep], terms[keep]


def sequence_bounds(onsets: np.ndarray, terms: np.ndarray, max_gap_s: float) -> list:
    """Split intervals [onsets, terms) ordered by onset into sequences: a gap
    above max_gap_s between one interval's termination and the next onset
    starts a new one.

    Returns one (first, last) inclusive index pair per sequence.
    """
    if not len(onsets):
        return []
    breaks = np.flatnonzero(onsets[1:] - terms[:-1] > max_gap_s).tolist()
    return list(zip([0] + [b + 1 for b in breaks], breaks + [len(onsets) - 1]))
