"""Mapping from chewing rate to haptic pacing feedback.

The live rate is normalized against twice a personal reference rate, so
chewing at the reference lands at 0.5, and the normalized value selects one
of four pulse patterns. Faster chewing yields stronger patterns; the band
map is the core slow-down incentive. There is one level rule, with no
hysteresis: the server applies it to every streamed second, and
`emgeat feedback-sim` replays it on a rate series.
"""

import math
from dataclasses import dataclass
from enum import Enum


class FeedbackLevel(Enum):
    """Haptic patterns from none to the strongest: none, single pulse, double
    pulse, intense double. A value is its pattern's label on the wire."""

    NO_PULSE = "no_pulse"
    SINGLE_PULSE = "single_pulse"
    DOUBLE_PULSE = "double_pulse"
    INTENSE_DOUBLE = "intense_double"

    @property
    def label(self) -> str:
        return self.value


# Half-open normalized-rate bands, closed at the top of the scale.
BANDS = (
    (0.0, 0.3, FeedbackLevel.NO_PULSE),
    (0.3, 0.6, FeedbackLevel.SINGLE_PULSE),
    (0.6, 0.8, FeedbackLevel.DOUBLE_PULSE),
    (0.8, 1.0, FeedbackLevel.INTENSE_DOUBLE),
)


@dataclass(frozen=True)
class RateNormalizer:
    """Personal scale for the normalized rate: full scale is 2x reference."""

    reference_rate_hz: float

    def __post_init__(self):
        if not (math.isfinite(self.reference_rate_hz) and self.reference_rate_hz > 0):
            raise ValueError(
                f"reference rate {self.reference_rate_hz} must be positive and finite"
            )


def normalize_rate(rate_hz: float, normalizer: RateNormalizer) -> float:
    """rate / (2 * reference), clamped to at most 1."""
    if not (math.isfinite(rate_hz) and rate_hz >= 0):
        raise ValueError(f"rate {rate_hz!r} must be non-negative and finite")
    return min(1.0, rate_hz / (2.0 * normalizer.reference_rate_hz))


def map_level(norm: float) -> FeedbackLevel:
    """Select the feedback level for a normalized rate in [0, 1], as
    normalize_rate returns it; anything else, nan included, raises ValueError."""
    if not 0.0 <= norm <= 1.0:
        raise ValueError(f"normalized rate {norm!r} is not in [0, 1]")
    for lo, hi, level in BANDS:
        if lo <= norm < hi:
            return level
    return FeedbackLevel.INTENSE_DOUBLE  # norm == 1.0
