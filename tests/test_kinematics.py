import math

import pytest
from hypothesis import given, strategies as st

from clockwalk.kinematics import UnitsConfig, proper_time


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def leg_time(duration, velocity):
    """Proper time of one straight leg at constant velocity."""
    return float(proper_time([duration], [velocity * duration]))


def path_time(segs):
    """Proper time of a hinged path given as (velocity, duration) legs."""
    return float(proper_time([d for _, d in segs], [v * d for v, d in segs]))


def path_end(segs):
    """Coordinate (dx, dt) of a hinged path's end relative to its start."""
    return sum(v * d for v, d in segs), sum(d for _, d in segs)


class TestUnitsConfig:
    def test_default_mass_is_half_pi(self):
        units = UnitsConfig()
        assert units.compton_period == 4.0
        assert rel_err(units.mass, math.pi / 2.0) < 1e-15

    def test_diffusion_constant_is_inverse_mass_halved(self):
        # D = 1/(2m) must hold for any period, not just the default
        for period in (4.0, 1.0, 2.5, 17.0):
            units = UnitsConfig(period)
            assert rel_err(units.diffusion_constant, 1.0 / (2.0 * units.mass)) < 1e-15

    def test_half_period(self):
        assert UnitsConfig(4.0).half_period == 2.0
        assert UnitsConfig(7.0).half_period == 3.5

    def test_mass_times_period_is_two_pi(self):
        units = UnitsConfig(11.0)
        assert rel_err(units.mass * units.compton_period, 2.0 * math.pi) < 1e-15

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_period(self, bad):
        with pytest.raises(ValueError):
            UnitsConfig(bad)


class TestEventAndSegment:
    """A leg runs between two events: finite, forward in time, inside the cone."""

    @pytest.mark.parametrize("x,t", [(math.inf, 0.0), (0.0, math.nan)])
    def test_event_rejects_nonfinite(self, x, t):
        # the leg from (0, -1) to (x, t)
        with pytest.raises(ValueError):
            proper_time([t + 1.0], [x])

    @pytest.mark.parametrize("d", [0.0, -3.0, math.inf])
    def test_segment_rejects_bad_duration(self, d):
        with pytest.raises(ValueError):
            proper_time([d], [0.5 * d])

    @pytest.mark.parametrize("v", [1.5, -1.5, math.nan])
    def test_segment_rejects_superluminal(self, v):
        with pytest.raises(ValueError):
            proper_time([1.0], [v])

    def test_velocity_just_below_light_accepted(self):
        leg_time(1.0, 1.0 - 1e-15)


class TestSegmentProperTime:
    """Frozen values for sqrt(dt^2 - dx^2) on one leg."""

    def test_at_rest_duration_unchanged(self):
        assert leg_time(7.0, 0.0) == 7.0

    def test_pythagorean_velocity(self):
        # v = 0.6: gamma factor exactly 0.8
        assert rel_err(leg_time(20.0, 0.6), 16.0) < 1e-12

    def test_near_light(self):
        assert rel_err(leg_time(1.0, 0.99), 0.1410673597966589) < 1e-12

    @given(
        v=st.floats(-0.999, 0.999),
        d=st.floats(0.001, 100.0),
    )
    def test_even_in_velocity(self, v, d):
        assert leg_time(d, v) == leg_time(d, -v)

    @given(
        v1=st.floats(0.0, 0.999),
        v2=st.floats(0.0, 0.999),
        d=st.floats(0.001, 100.0),
    )
    def test_monotone_in_speed(self, v1, v2, d):
        lo, hi = sorted((v1, v2))
        assert leg_time(d, hi) <= leg_time(d, lo)

    @given(v=st.floats(-0.999, 0.999), d=st.floats(0.001, 100.0))
    def test_never_exceeds_duration(self, v, d):
        assert leg_time(d, v) <= d


segments = st.tuples(st.floats(-0.95, 0.95), st.floats(0.1, 10.0))


class TestWorldlines:
    def test_single_rest_segment(self):
        assert path_time([(0.0, 10.0)]) == 10.0
        assert path_end([(0.0, 10.0)]) == (0.0, 10.0)

    def test_out_and_back_twin(self):
        """Out at 0.6 and back at -0.6: returns home having aged less."""
        segs = [(0.6, 10.0), (-0.6, 10.0)]
        assert rel_err(path_time(segs), 16.0) < 1e-12
        dx, dt = path_end(segs)
        assert abs(dx) < 1e-12 and dt == 20.0
        assert path_time(segs) < dt

    def test_single_fast_segment(self):
        assert rel_err(path_time([(0.8, 10.0)]), 6.0) < 1e-12
        dx, dt = path_end([(0.8, 10.0)])
        assert rel_err(dx, 8.0) < 1e-12 and dt == 10.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            proper_time([], [])

    @given(segs=st.lists(segments, min_size=1, max_size=6))
    def test_additive_over_segments(self, segs):
        total = path_time(segs)
        parts = sum(leg_time(d, v) for v, d in segs)
        assert rel_err(total, parts) < 1e-12

    @given(segs=st.lists(segments, min_size=1, max_size=6))
    def test_hinged_path_ages_no_more_than_straight(self, segs):
        """Proper time is maximized by the unaccelerated path."""
        dx, dt = path_end(segs)
        straight = math.sqrt(max(dt * dt - dx * dx, 0.0))
        assert path_time(segs) <= straight * (1.0 + 1e-12) + 1e-12

    def test_straight_equality(self):
        # a hinge with no velocity change is no hinge at all
        segs = [(0.3, 2.0), (0.3, 5.0)]
        dx, dt = path_end(segs)
        assert rel_err(path_time(segs), float(proper_time([dt], [dx]))) < 1e-12

    @given(segs=st.lists(segments, min_size=1, max_size=6))
    def test_endpoint_always_reachable(self, segs):
        # the straight chord of a causal path is itself a causal leg
        dx, dt = path_end(segs)
        proper_time([dt], [dx])


class TestReachable:
    """A leg from the origin is accepted exactly when it ends in the closed
    forward light cone."""

    @pytest.mark.parametrize(
        "to,expect",
        [
            ((3.0, 5.0), True),
            ((5.0, 5.0), True),  # cone boundary counts
            ((-5.0, 5.0), True),
            ((6.0, 5.0), False),
            ((0.0, 0.0), False),  # zero elapsed time
            ((1.0, -1.0), False),  # backwards
        ],
    )
    def test_cases_from_origin(self, to, expect):
        x, t = to
        try:
            proper_time([t], [x])
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted is expect
