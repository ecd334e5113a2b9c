import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from clockwalk.clock_signal import (
    Pattern,
    SlitGeometry,
    UnitsConfig,
    _exact_cell,
    double_slit_phi,
    gap_intervals,
    lorentz_filter,
    parity_crossings,
    parity_of_proper_time,
    plane_pattern,
    proper_time,
)

UNITS = UnitsConfig(4.0)

DATA = Path(__file__).parent / "data"


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


class TestParity:
    """Half-open cells [k*T/2, (k+1)*T/2) with T = 4."""

    @pytest.mark.parametrize(
        "tau,expect",
        [
            (0.0, 1),
            (1.0, 1),
            (1.999, 1),
            (2.0, -1),  # boundary belongs to the next cell
            (3.0, -1),
            (4.0, 1),
            (20.0, 1),
            (21.999, 1),
        ],
    )
    def test_values(self, tau, expect):
        assert parity_of_proper_time(tau, UNITS) == expect

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parity_of_proper_time(-0.1, UNITS)

    def test_bound_on_half_periods(self):
        # Half periods of 2 keep tau / (T/2) exact on both sides of 2**42.
        below = np.nextafter(2.0**42, 0.0)
        assert parity_of_proper_time(below * UNITS.half_period, UNITS) == -1  # floor is 2**42 - 1
        for tau in (2.0**42 * UNITS.half_period, 1e17, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"under 2\*\*42 half periods"):
                parity_of_proper_time(tau, UNITS)
        with pytest.raises(ValueError):
            parity_of_proper_time([1.0, 2.0**43], UNITS)

    @given(tau=st.floats(0.0, 1e5))
    def test_periodic_in_full_period(self, tau):
        # stay away from cell boundaries; a shift by T moves the cell
        # fraction by at most ~1e-11 through float rounding
        frac = tau / UNITS.half_period
        assume(abs(frac - round(frac)) > 1e-6)
        assert parity_of_proper_time(tau + 4.0, UNITS) == parity_of_proper_time(tau, UNITS)

    @given(tau=st.floats(0.0, 1e5))
    def test_antiperiodic_in_half_period(self, tau):
        frac = tau / UNITS.half_period
        assume(abs(frac - round(frac)) > 1e-6)
        assert parity_of_proper_time(tau + 2.0, UNITS) == -parity_of_proper_time(tau, UNITS)

    @given(tau=st.floats(0.0, 1e5))
    def test_values_are_signs(self, tau):
        assert parity_of_proper_time(tau, UNITS) in (-1, 1)

    def test_other_period(self):
        units = UnitsConfig(1.0)
        assert parity_of_proper_time(0.4, units) == 1
        assert parity_of_proper_time(0.6, units) == -1


def moving_clock(t, v):
    """Parity of a clock moving at velocity v, read at coordinate time t."""
    return int(parity_of_proper_time(proper_time([t], [v * t]), UNITS))


class TestClocks:
    def test_rest_clock_is_parity_of_t(self):
        for t in (1.0, 2.0, 3.5, 19.0):
            assert moving_clock(t, 0.0) == parity_of_proper_time(t, UNITS)

    def test_dilation_flips_parity(self):
        # at t = 3 the resting clock reads -1; at v = 0.8 the proper time
        # drops to 1.8, still in the first cell
        assert moving_clock(3.0, 0.0) == -1
        assert moving_clock(3.0, 0.8) == 1

    def test_moderate_boost(self):
        assert moving_clock(3.0, 0.6) == -1  # tau = 2.4

    @given(v=st.floats(-0.999, 0.999), t=st.floats(0.0, 100.0, exclude_min=True))
    def test_even_in_velocity(self, v, t):
        assert moving_clock(t, v) == moving_clock(t, -v)

    def test_rejects_light_speed(self):
        # a clock riding the light cone shows no parity in the plane pattern
        pattern = plane_pattern(1.0, [-1.0, 1.0], UNITS)
        assert not pattern.in_cone.any() and not pattern.value.any()

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            moving_clock(-1.0, 0.5)


class TestPlanePattern:
    def test_example_slice_values(self):
        pattern = plane_pattern(20.0, [0.0, 6.0, 12.0, 20.0, 25.0], UNITS)
        assert list(zip(pattern.value.tolist(), pattern.in_cone.tolist())) == [
            (1, True),  # tau = 20
            (-1, True),  # tau = sqrt(364) ~ 19.08
            (1, True),  # tau = 16 exactly
            (0, False),  # on the cone
            (0, False),  # outside
        ]

    def test_even_in_x(self):
        xs = np.array([0.5 * k for k in range(-40, 41)])
        pattern = plane_pattern(20.0, xs, UNITS)
        mirror = plane_pattern(20.0, -xs, UNITS)
        assert np.array_equal(pattern.value, mirror.value)
        assert np.array_equal(pattern.in_cone, mirror.in_cone)

    def test_crossings_sit_on_hyperbolae(self):
        """Parity flips exactly where sqrt(t^2 - x^2) hits a cell boundary."""
        t = 20.0
        for k in range(1, 10):
            x_star = math.sqrt(t * t - (2.0 * k) ** 2)
            left, right = plane_pattern(t, [x_star - 1e-9, x_star + 1e-9], UNITS).value
            assert left == -right
            assert left != 0 and right != 0

    @pytest.mark.parametrize("period,t", [(4.0, 20.0), (0.7, 7.35)])  # the default and a crowded cone
    def test_parity_crossings_are_the_sampled_sign_changes(self, period, t):
        units = UnitsConfig(period)
        crossings = parity_crossings(t, units)
        assert np.all(np.diff(crossings) >= 0) and np.all(np.abs(crossings) < t)
        assert np.array_equal(crossings, -crossings[::-1])
        # Both t are whole numbers of half periods, so x = 0 is a one-point
        # parity spike, two flips; a grid that skips x = 0, as this even one
        # does, sees no sign change there.
        assert np.count_nonzero(crossings == 0.0) == 2
        x = np.linspace(-t, t, 400_000)[1:-1]
        value = plane_pattern(t, x, units).value
        changed = np.nonzero(value[:-1] != value[1:])[0]
        cells = np.searchsorted(x, crossings[crossings != 0.0]) - 1
        assert np.array_equal(cells, changed)

    def test_preserved_under_time_refinement(self):
        # the x = 12 sample sits at tau = 16, two full periods exactly
        assert plane_pattern(20.0, [12.0], UNITS).value[0] == 1

    def test_rejects_nonpositive_t(self):
        for t in (0.0, -2.0):
            with pytest.raises(ValueError):
                plane_pattern(t, [0.0], UNITS)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_rejects_any_nonpositive_entry_of_array_t(self, bad):
        ts = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValueError):
            plane_pattern(ts[:, None], [0.0, 1.0], UNITS)

    def test_array_t_is_a_raster_of_slices(self):
        xs = -25.0 + 0.05 * np.arange(1001)
        ts = 0.5 + 0.5 * np.arange(50)
        raster = plane_pattern(ts[:, None], xs, UNITS)
        assert len(raster) == ts.size * xs.size
        assert raster.x.shape == raster.value.shape == raster.in_cone.shape == (ts.size, xs.size)
        for t, x, value, in_cone in zip(ts.tolist(), raster.x, raster.value, raster.in_cone):
            row = plane_pattern(t, xs, UNITS)
            assert np.array_equal(x, xs) and np.array_equal(value, row.value) and np.array_equal(in_cone, row.in_cone)
            assert len(row) == xs.size


def scalar_plane_sample(t, x, half_period):
    """Standard-library oracle for one plane-pattern sample: (value, in_cone).

    Open cone; half-open parity cells; the float operations of the array
    code's float rule, which the exact rule agrees with on the default
    grids, so agreement is exact.
    """
    if not abs(x) < t:
        return 0, False
    tau = math.sqrt(t * t - x * x)
    return (-1 if math.floor(tau / half_period) % 2 else 1), True


class TestPlanePatternOracle:
    def test_matches_scalar_oracle_on_default_grid(self):
        """The clock-pattern default grid at every default raster time, bit
        for bit.  The grid holds exact cell boundaries (t = 20, x = +/-12
        gives tau = 16; t = 10, x = +/-6 gives tau = 8) and the cone points
        x = +/-t."""
        xs = -25.0 + 0.05 * np.arange(1001)
        ts = [0.5 + 0.5 * k for k in range(50)]
        assert {12.0, -12.0, 6.0, -6.0} <= set(xs.tolist()) and {10.0, 20.0} <= set(ts)
        for t in ts:
            assert t in xs and -t in xs
            pattern = plane_pattern(t, xs, UNITS)
            expect = [scalar_plane_sample(t, x, UNITS.half_period) for x in xs.tolist()]
            assert pattern.value.tolist() == [v for v, _ in expect]
            assert pattern.in_cone.tolist() == [c for _, c in expect]


def fraction_cell(t, x, h):
    """floor(sqrt(t^2 - x^2) / h) of the doubles, by Fraction comparisons of squares."""
    square, h = Fraction(t) ** 2 - Fraction(x) ** 2, Fraction(h)
    n = int(math.sqrt(max(t * t - x * x, 0.0)) / h)
    while n > 0 and (n * h) ** 2 > square:
        n -= 1
    while ((n + 1) * h) ** 2 <= square:
        n += 1
    return n


class TestExactCell:
    @given(
        period=st.integers(1, 5000).map(lambda k: k / 1000),
        t=st.integers(1, 30000).map(lambda k: k / 1000),
        boundary=st.floats(0.0, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_matches_fraction_oracle_near_boundaries(self, period, t, boundary, sign):
        """Decimal t and T, and the x within 8 ulps of a half-period boundary k T/2 <= t."""
        units = UnitsConfig(period)
        h = units.half_period
        k = math.floor(boundary * t / h)
        x0 = math.sqrt(max(t * t - (k * h) ** 2, 0.0))
        xs = [x0]
        for direction in (math.inf, 0.0):
            x = x0
            for _ in range(8):
                x = math.nextafter(x, direction)
                xs.append(x)
        xs = [sign * x for x in xs if x < t]
        cells = [_exact_cell(t, x, h) for x in xs]
        assert cells == [fraction_cell(t, x, h) for x in xs]
        assert plane_pattern(t, xs, units).value.tolist() == [(-1) ** cell for cell in cells]


class TestGalileanPattern:
    """Ignoring time dilation, every clock reads its coordinate time t."""

    def test_no_x_dependence(self):
        xs = np.array([-30.0, -5.0, 0.0, 5.0, 30.0])
        galilean = parity_of_proper_time(np.full(xs.shape, 3.0), UNITS)
        assert galilean.tolist() == [int(parity_of_proper_time(3.0, UNITS))] * xs.size

    def test_contrast_with_relativistic_pattern(self):
        """Dropping dilation erases all structure inside the cone."""
        xs = np.array([0.25 * k for k in range(-70, 71)])
        rel = plane_pattern(20.0, xs, UNITS)
        gal = parity_of_proper_time(np.full(xs.shape, 20.0), UNITS)
        assert set(rel.value[rel.in_cone].tolist()) == {-1, 1}
        assert len(set(gal.tolist())) == 1


class TestLorentzFilter:
    @pytest.mark.parametrize(
        "pa,pb,expect",
        [(1, 1, 1), (-1, -1, -1), (1, -1, 0), (-1, 1, 0)],
    )
    def test_table(self, pa, pb, expect):
        assert lorentz_filter(pa, pb) == expect

    @pytest.mark.parametrize("pa,pb", [(0, 1), (1, 0), (2, 1), (1, -2)])
    def test_rejects_non_parities(self, pa, pb):
        with pytest.raises(ValueError):
            lorentz_filter(pa, pb)

    @given(pa=st.sampled_from([-1, 1]), pb=st.sampled_from([-1, 1]))
    def test_symmetric_and_bounded(self, pa, pb):
        assert lorentz_filter(pa, pb) == lorentz_filter(pb, pa)
        assert lorentz_filter(pa, pb) in (-1, 0, 1)
        assert lorentz_filter(pa, pa) == pa


class TestSlitGeometry:
    def test_rejects_negative_separation(self):
        with pytest.raises(ValueError):
            SlitGeometry(-1.0, 8.0, 40.0)

    def test_rejects_slits_outside_source_cone(self):
        with pytest.raises(ValueError):
            SlitGeometry(4.0, 4.0, 40.0)

    def test_rejects_nonpositive_screen_time(self):
        with pytest.raises(ValueError):
            SlitGeometry(4.0, 8.0, 0.0)


GEOM = SlitGeometry(4.0, 8.0, 40.0)
SCREEN = np.array([-30.0 + 0.05 * float(k) for k in range(1201)])


class TestDoubleSlit:
    def test_matches_frozen_reference_exactly(self):
        """Every row of the committed reference table, bit for bit."""
        phi = double_slit_phi(GEOM, SCREEN, UNITS)
        with (DATA / "double_slit_reference.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(phi)
        assert [float(row["x"]) for row in rows] == phi.x.tolist()
        assert [int(row["phi"]) for row in rows] == phi.value.tolist()
        assert [bool(int(row["in_cone"])) for row in rows] == phi.in_cone.tolist()

    def test_intensity_is_phi_squared(self):
        phi = double_slit_phi(GEOM, SCREEN, UNITS)
        intensity = phi.value * phi.value
        assert set(intensity.tolist()) == {0, 1}
        # zero intensity exactly at the gaps and outside the cone
        assert np.array_equal(intensity == 0, phi.value == 0)

    def test_gap_intervals_are_runs_of_in_cone_zeros(self):
        x = np.arange(8.0)
        value = np.array([0, 1, 0, 0, -1, 0, 1, 0])
        in_cone = np.array([False, True, True, True, True, True, True, False])
        assert gap_intervals(Pattern(x, value, in_cone)) == [(2.0, 3.0), (5.0, 5.0)]
        phi = double_slit_phi(GEOM, SCREEN, UNITS)
        gaps = gap_intervals(phi)
        in_gap = phi.in_cone & (phi.value == 0)
        assert sum(int(round((b - a) / 0.05)) + 1 for a, b in gaps) == in_gap.sum() > 0

    def test_gaps_and_agreements_both_present(self):
        phi = double_slit_phi(GEOM, SCREEN, UNITS)
        values = set(phi.value[phi.in_cone].tolist())
        assert 0 in values  # destructive gaps
        assert 1 in values and -1 in values  # both agreement signs survive

    def test_unreachable_screen_points_flagged(self):
        phi = double_slit_phi(SlitGeometry(1.0, 2.0, 5.0), [0.0, 10.0, -10.0], UNITS)
        assert phi.in_cone.tolist() == [True, False, False]
        assert phi.value[1:].tolist() == [0, 0]

    def test_screen_boundary_reachable(self):
        # x = t2 - a: the leg from the far slit is exactly lightlike,
        # contributing zero proper time, yet the point stays valid
        assert double_slit_phi(SlitGeometry(1.0, 2.0, 5.0), [4.0], UNITS).in_cone[0]

    def test_even_in_x(self):
        phi = double_slit_phi(GEOM, SCREEN, UNITS)
        samples = list(zip(phi.x.tolist(), phi.value.tolist()))
        by_x = {round(x, 9): v for x, v in samples}
        for x, v in samples:
            assert v == by_x[round(-x, 9)]
