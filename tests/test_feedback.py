"""Rate normalization and band mapping."""

import math

import numpy as np
import pytest

from emgeat.feedback import (
    BANDS,
    FeedbackLevel,
    RateNormalizer,
    map_level,
    normalize_rate,
)

REF = RateNormalizer(reference_rate_hz=1.6)


class TestNormalizeRate:
    def test_reference_maps_to_half(self):
        assert normalize_rate(1.6, REF) == pytest.approx(0.5)

    def test_zero(self):
        assert normalize_rate(0.0, REF) == 0.0

    def test_clamped_above(self):
        assert normalize_rate(3 * 1.6, REF) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_rate(-0.1, REF)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # `max(0.0, nan)` used to turn a nan rate into 0.0.
        with pytest.raises(ValueError, match=f"rate {rate!r} must be non-negative and finite"):
            normalize_rate(rate, REF)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            RateNormalizer(reference_rate_hz=0.0)

    @pytest.mark.parametrize("ref", [math.nan, math.inf])
    def test_non_finite_reference_rejected(self, ref):
        with pytest.raises(ValueError, match="positive and finite"):
            RateNormalizer(reference_rate_hz=ref)

    def test_monotone_and_lipschitz(self):
        rates = np.linspace(0.0, 6.0, 500)
        norms = [normalize_rate(float(r), REF) for r in rates]
        for a, b in zip(norms, norms[1:]):
            assert b >= a
        # 1-Lipschitz in the scaled variable rate / (2 r_ref)
        for (ra, na), (rb, nb) in zip(zip(rates, norms), zip(rates[1:], norms[1:])):
            assert abs(nb - na) <= abs(rb - ra) / (2 * 1.6) + 1e-12


class TestMapLevel:
    def test_interior_points(self):
        assert map_level(0.2) is FeedbackLevel.NO_PULSE
        assert map_level(0.45) is FeedbackLevel.SINGLE_PULSE
        assert map_level(0.7) is FeedbackLevel.DOUBLE_PULSE
        assert map_level(0.9) is FeedbackLevel.INTENSE_DOUBLE

    def test_boundaries_half_open(self):
        assert map_level(0.3) is FeedbackLevel.SINGLE_PULSE
        assert map_level(0.6) is FeedbackLevel.DOUBLE_PULSE
        assert map_level(0.8) is FeedbackLevel.INTENSE_DOUBLE

    def test_top_closed(self):
        assert map_level(1.0) is FeedbackLevel.INTENSE_DOUBLE

    @pytest.mark.parametrize("norm", [math.nan, math.inf, -math.inf])
    def test_non_finite_norm_rejected(self, norm):
        # Clamping used to turn nan into no_pulse.
        with pytest.raises(ValueError, match=r"not in \[0, 1\]"):
            map_level(norm)

    def test_out_of_range_rejected(self):
        # Both callers pass normalize_rate's value; anything outside its
        # range is a caller's bug, not a rate to clamp.
        for norm in (1.3, -0.2, 1.0 + 1e-12, -1e-12):
            with pytest.raises(ValueError, match=rf"normalized rate {norm!r} is not in"):
                map_level(norm)

    def test_monotone_over_dense_sweep(self):
        prev_rank = 0
        for norm in np.linspace(0.0, 1.0, 10001):
            rank = list(FeedbackLevel).index(map_level(float(norm)))
            assert rank >= prev_rank
            prev_rank = rank

    def test_band_round_trip(self):
        for lo, hi, level in BANDS:
            for norm in np.linspace(lo + 1e-9, hi - 1e-9, 7):
                assert map_level(float(norm)) is level
