"""The feedback level of a rate: normalization, bands and their edges."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from emgeat.feedback import BANDS, TOP_LABEL, check_reference_rate, level

REF = 1.6
LABELS = [label for _, label in BANDS] + [TOP_LABEL]


def rank(label):
    return LABELS.index(label)


def reference_level(rate_hz, reference_rate_hz):
    """The rule as three steps, kept apart from emgeat.feedback: check the
    reference, normalize the rate against twice it (clamped to at most 1),
    then find the half-open band [lo, hi) holding it, the top closed."""
    if not (math.isfinite(reference_rate_hz) and reference_rate_hz > 0):
        raise ValueError(f"reference rate {reference_rate_hz} must be positive and finite")
    if not (math.isfinite(rate_hz) and rate_hz >= 0):
        raise ValueError(f"rate {rate_hz!r} must be non-negative and finite")
    norm = min(1.0, rate_hz / (2.0 * reference_rate_hz))
    if not 0.0 <= norm <= 1.0:
        raise ValueError(f"normalized rate {norm!r} is not in [0, 1]")
    bands = (
        (0.0, 0.3, "no_pulse"),
        (0.3, 0.6, "single_pulse"),
        (0.6, 0.8, "double_pulse"),
        (0.8, 1.0, "intense_double"),
    )
    for lo, hi, label in bands:
        if lo <= norm < hi:
            return label
    return "intense_double"  # norm == 1.0


EDGES = (0.0, 0.3, 0.6, 0.8, 1.0)
REFERENCES = (1.6, 1.0, 0.5, 0.75, 1.3, 2.0, 1e-3, 1e3)


class TestNormalizeRate:
    def test_reference_maps_to_half(self):
        # 0.5 of the scale: above the single-pulse band's lower edge (0.3)
        # and below its upper one (0.6), whatever the reference.
        for ref in REFERENCES:
            assert level(ref, ref) == "single_pulse"
            assert level(0.6 * ref - 1e-9 * ref, ref) == "no_pulse"
            assert level(1.2 * ref - 1e-9 * ref, ref) == "single_pulse"
            assert level(1.2 * ref + 1e-9 * ref, ref) == "double_pulse"

    def test_zero(self):
        assert level(0.0, REF) == "no_pulse"

    def test_clamped_above(self):
        assert level(3 * 1.6, REF) == TOP_LABEL
        assert level(1e308, 1e-300) == TOP_LABEL  # the quotient overflows to inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            level(-0.1, REF)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # `max(0.0, nan)` used to turn a nan rate into 0.0.
        with pytest.raises(ValueError, match=f"rate {rate!r} must be non-negative and finite"):
            level(rate, REF)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            check_reference_rate(0.0)
        with pytest.raises(ValueError, match="reference rate -1.0 must be positive"):
            level(1.0, -1.0)

    @pytest.mark.parametrize("ref", [math.nan, math.inf])
    def test_non_finite_reference_rejected(self, ref):
        with pytest.raises(ValueError, match="positive and finite"):
            check_reference_rate(ref)
        with pytest.raises(ValueError, match="positive and finite"):
            level(1.0, ref)

    def test_monotone_and_lipschitz(self):
        # The normalized rate is monotone and 1/(2 r_ref)-Lipschitz in the
        # rate, and no band is narrower than 0.2 of the scale: rates closer
        # than 0.2 * 2 * r_ref are at most one band apart.
        rates = np.linspace(0.0, 6.0, 500)
        ranks = [rank(level(float(r), REF)) for r in rates]
        for a, b in zip(ranks, ranks[1:]):
            assert b >= a
        step = 0.2 * 2 * REF * (1 - 1e-9)
        for r in rates:
            assert rank(level(float(r) + step, REF)) - rank(level(float(r), REF)) <= 1


class TestMapLevel:
    def test_interior_points(self):
        assert level(0.2 * 2 * REF, REF) == "no_pulse"
        assert level(0.45 * 2 * REF, REF) == "single_pulse"
        assert level(0.7 * 2 * REF, REF) == "double_pulse"
        assert level(0.9 * 2 * REF, REF) == "intense_double"

    def test_boundaries_half_open(self):
        # With a reference of 1, the rate is exactly twice its normalized value.
        assert level(2 * 0.3, 1.0) == "single_pulse"
        assert level(2 * 0.6, 1.0) == "double_pulse"
        assert level(2 * 0.8, 1.0) == "intense_double"
        assert level(math.nextafter(2 * 0.3, 0.0), 1.0) == "no_pulse"
        assert level(math.nextafter(2 * 0.6, 0.0), 1.0) == "single_pulse"
        assert level(math.nextafter(2 * 0.8, 0.0), 1.0) == "double_pulse"

    def test_top_closed(self):
        assert level(2.0, 1.0) == TOP_LABEL

    @pytest.mark.parametrize("norm", [math.nan, math.inf, -math.inf])
    def test_non_finite_norm_rejected(self, norm):
        # Clamping used to turn nan into no_pulse.
        with pytest.raises(ValueError, match="must be non-negative and finite"):
            level(norm, REF)

    def test_out_of_range_rejected(self):
        # Below the scale is refused, however close to 0; above it is the
        # top band, however close to full scale.
        for rate in (-0.2, -1e-12, -5e-324):
            with pytest.raises(ValueError, match=rf"rate {rate!r} must be"):
                level(rate, REF)
        for rate in (2.0 + 1e-12, 2.6, 1e300):
            assert level(rate, 1.0) == TOP_LABEL

    def test_monotone_over_dense_sweep(self):
        prev_rank = 0
        for norm in np.linspace(0.0, 1.0, 10001):
            r = rank(level(2.0 * float(norm), 1.0))
            assert r >= prev_rank
            prev_rank = r

    def test_band_round_trip(self):
        lower = 0.0
        for upper, label in BANDS + ((1.0, TOP_LABEL),):
            for norm in np.linspace(lower + 1e-9, upper - 1e-9, 7):
                assert level(2.0 * float(norm), 1.0) == label
            lower = upper


def outcome(f, *args):
    """f's value, or its ValueError's message."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


RATES = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(lambda e, r: e * 2 * r, st.sampled_from(EDGES), st.sampled_from(REFERENCES)),
)
REFERENCE_RATES = st.one_of(
    st.sampled_from(REFERENCES),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestAgainstReference:
    @given(rate=RATES, ref=REFERENCE_RATES)
    @example(rate=0.6, ref=1.0)
    @example(rate=1.2, ref=1.0)
    @example(rate=1.6, ref=1.0)
    @example(rate=0.3, ref=0.5)
    @example(rate=2.0, ref=1.0)
    @example(rate=0.0, ref=1.6)
    def test_level_equals_the_three_step_rule(self, rate, ref):
        assert outcome(level, rate, ref) == outcome(reference_level, rate, ref)

    def test_every_edge_at_every_reference(self):
        # Rates exactly on edge * 2 * reference; where that product divides
        # back to the edge itself (a reference that is a power of 2, among
        # others), a band closed at the top instead would differ.
        exact = 0
        for ref in REFERENCES + tuple(np.linspace(0.1, 4.0, 391).tolist()):
            for edge in EDGES:
                for rate in (edge * 2 * ref, math.nextafter(edge * 2 * ref, math.inf)):
                    assert level(rate, ref) == reference_level(rate, ref)
                exact += edge * 2 * ref / (2.0 * ref) == edge
        assert exact > 100
