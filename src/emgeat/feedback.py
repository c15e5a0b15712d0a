"""Mapping from chewing rate to haptic pacing feedback.

The live rate is normalized against twice a personal reference rate, so
chewing at the reference lands at 0.5, and the normalized value selects one
of four pulse patterns, named by their labels on the wire: no pulse, single
pulse, double pulse, intense double. Faster chewing yields stronger
patterns; the band map is the core slow-down incentive. There is one level
rule, with no hysteresis: the server applies it to every streamed second,
and `emgeat feedback-sim` replays it on a rate series.
"""

import math

# Half-open normalized-rate bands, each up to its upper edge; the rest of the
# scale, 1 included, is TOP_LABEL.
BANDS = ((0.3, "no_pulse"), (0.6, "single_pulse"), (0.8, "double_pulse"))
TOP_LABEL = "intense_double"


def check_reference_rate(reference_rate_hz: float) -> None:
    if not (math.isfinite(reference_rate_hz) and reference_rate_hz > 0):
        raise ValueError(f"reference rate {reference_rate_hz} must be positive and finite")


def level(rate_hz: float, reference_rate_hz: float) -> str:
    """The feedback label for a rate: rate / (2 * reference), clamped to at
    most 1, picks the band. A reference that check_reference_rate refuses,
    or a negative or non-finite rate, raises ValueError."""
    check_reference_rate(reference_rate_hz)
    if not (math.isfinite(rate_hz) and rate_hz >= 0):
        raise ValueError(f"rate {rate_hz!r} must be non-negative and finite")
    norm = min(1.0, rate_hz / (2.0 * reference_rate_hz))
    for upper, label in BANDS:
        if norm < upper:
            return label
    return TOP_LABEL
