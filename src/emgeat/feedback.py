"""Mapping from chewing rate to haptic pacing feedback.

The live rate is normalized against twice a personal reference rate, so
chewing at the reference lands at 0.5, and the normalized value selects one
of four pulse patterns. Faster chewing yields stronger patterns; the band
map is the core slow-down incentive.
"""

import math
import warnings
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
    """Clamp rate / (2 * reference) into [0, 1]."""
    if rate_hz < 0:
        raise ValueError("rate must be non-negative")
    return min(1.0, max(0.0, rate_hz / (2.0 * normalizer.reference_rate_hz)))


def map_level(norm: float, prev: FeedbackLevel = None, dead_band: float = 0.0) -> FeedbackLevel:
    """Select the feedback level for a normalized rate.

    Values outside [0, 1] are clamped with a warning; nan and inf raise
    ValueError, since no band stands for them. With a previous level and a
    dead band, the level only changes once norm leaves the previous band by
    more than the dead band, which suppresses flapping right at a boundary.
    A negative, nan or infinite dead band raises ValueError.
    """
    if not (math.isfinite(dead_band) and dead_band >= 0.0):
        raise ValueError(f"dead band {dead_band!r} must be non-negative and finite")
    if not math.isfinite(norm):
        raise ValueError(f"normalized rate {norm!r} is not finite")
    if not 0.0 <= norm <= 1.0:
        warnings.warn(
            f"normalized rate {norm} outside [0, 1]; clamping", stacklevel=2
        )
        norm = min(1.0, max(0.0, norm))
    if prev is not None and dead_band > 0.0:
        lo, hi, _ = next(band for band in BANDS if band[2] is prev)
        if lo - dead_band <= norm < hi + dead_band:
            return prev
    for lo, hi, level in BANDS:
        if lo <= norm < hi:
            return level
    return FeedbackLevel.INTENSE_DOUBLE  # norm == 1.0
