import math

import numpy as np
import pytest

from clockwalk.reference_solutions import (
    SampledSignal,
    compare,
    diffusion_green,
    feynman_free,
    fit_convergence_order,
    local_minima,
    node_spacing_deviation,
    two_source_superposition,
    zero_crossings,
)

M = math.pi / 2  # the mass at compton_period 4

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class TestSampledSignal:
    def test_holds_arrays(self):
        s = SampledSignal(np.array([0.0, 1.0]), np.array([2, 3]))
        assert s.x.dtype == s.values.dtype == np.float64
        assert s.values.tolist() == [2.0, 3.0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_rejects_duplicate_grid_points(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestFeynmanFree:
    def test_constant_modulus(self):
        x = np.linspace(-20, 20, 401)
        k = feynman_free(x, 20.0, M)
        expect = 1.0 / math.sqrt(2.0 * math.pi * 20.0 / M)
        np.testing.assert_allclose(np.abs(k), expect, rtol=1e-14)

    @pytest.mark.parametrize("D", [0.5, 0.25, 0.3])
    def test_matches_fresnel_closed_form(self, D):
        """At m = 1/(2D) it is the walk's Schrodinger-limit kernel
        exp(i x^2 / 4Dt) / sqrt(4 pi i D t), principal branch."""
        x, t = np.linspace(-15, 15, 301), 7.0
        fresnel = np.exp(1j * (x * x / (4.0 * D * t) - 0.25 * math.pi)) / math.sqrt(4.0 * math.pi * D * t)
        np.testing.assert_allclose(feynman_free(x, t, 1 / (2 * D)), fresnel, rtol=0, atol=1e-14)

    def test_origin_phase(self):
        k = feynman_free(np.array([0.0]), 1.0, 2.0)
        expect = np.exp(-1j * math.pi / 4.0) / math.sqrt(math.pi)
        assert abs(k[0] - expect) < 1e-15

    @pytest.mark.parametrize("t,m", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_validates(self, t, m):
        with pytest.raises(ValueError):
            feynman_free([0.0], t, m)

    def test_real_part_zeros_on_known_hyperbolae(self):
        """Re K vanishes where m x^2/2t - pi/4 hits pi/2 + k pi.

        At t = 20, m = pi/2 that means x = sqrt(60 + 80 k).
        """
        t = 20.0
        x = np.arange(5.0, 15.0 + 1e-9, 0.01)
        re_k = np.real(feynman_free(x, t, M))
        found = zero_crossings(SampledSignal(x, re_k))
        expected = [math.sqrt(60.0 + 80.0 * k) for k in range(3)]
        assert found.size == len(expected)
        for f, e in zip(found, expected):
            assert abs(f - e) < 5e-3

    def test_crossing_spacing_near_ten(self):
        # consecutive zeros bracketing x = 10 sit sqrt(140) - sqrt(60) apart
        gap = math.sqrt(140.0) - math.sqrt(60.0)
        assert abs(gap - 4.086) < 2e-3


class TestDiffusionGreen:
    def test_peak_value(self):
        g = diffusion_green(np.array([0.0]), 1.0, 0.5)
        assert abs(g[0] - 1.0 / math.sqrt(4.0 * math.pi * 0.5)) < 1e-15

    def test_unit_mass(self):
        D, t = 0.5, 1.0
        w = 10.0 * math.sqrt(2.0 * D * t)
        x = np.linspace(-w, w, 20001)
        assert abs(trapezoid(diffusion_green(x, t, D), x) - 1.0) < 1e-8

    def test_variance_is_2dt(self):
        D, t = 0.5, 1.3
        w = 12.0 * math.sqrt(2.0 * D * t)
        x = np.linspace(-w, w, 20001)
        g = diffusion_green(x, t, D)
        var = trapezoid(g * x * x, x)
        assert abs(var - 2.0 * D * t) < 1e-6

    def test_satisfies_heat_equation(self):
        """dG/dt = D d2G/dx2, checked with central differences."""
        D, t = 0.5, 1.0
        x = np.linspace(-6, 6, 1201)
        ht, hx = 1e-6, 1e-4
        dgdt = (diffusion_green(x, t + ht, D) - diffusion_green(x, t - ht, D)) / (2 * ht)
        d2 = (
            diffusion_green(x + hx, t, D)
            - 2 * diffusion_green(x, t, D)
            + diffusion_green(x - hx, t, D)
        ) / hx**2
        assert np.max(np.abs(dgdt - D * d2)) < 1e-7


class TestTwoSourceSuperposition:
    def test_center_is_constructive(self):
        amp, inten = two_source_superposition(np.array([0.0]), 40.0, 4.0, M)
        k = feynman_free(np.array([4.0]), 40.0, M)
        assert abs(amp[0] - 2.0 * k[0]) < 1e-14
        assert abs(inten[0] - 4.0 * abs(k[0]) ** 2) < 1e-15

    def test_first_node_position(self):
        a, t = 4.0, 40.0
        node = math.pi * t / (2.0 * M * a)
        _, inten = two_source_superposition(np.array([0.0, node]), t, a, M)
        assert inten[1] / inten[0] < 1e-20

    def test_node_spacing(self):
        a, t = 4.0, 40.0
        x = np.linspace(-30, 30, 1201)
        _, inten = two_source_superposition(x, t, a, M)
        nodes = local_minima(x, inten)
        assert nodes.size >= 2
        spacing = math.pi * t / (M * a)
        np.testing.assert_allclose(np.diff(nodes), spacing, rtol=1e-9)
        found, dev = node_spacing_deviation(x, inten, spacing)
        assert np.array_equal(found, nodes) and dev <= 1e-9
        assert node_spacing_deviation(x, inten, 0.9 * spacing)[1] == pytest.approx(1 / 0.9 - 1, rel=1e-8)
        with pytest.raises(ValueError, match="holds 0 intensity node"):
            node_spacing_deviation(x[:200], inten[:200], spacing)
        # two nodes, but a window narrower than the spacing asked for
        with pytest.raises(ValueError, match="holds 2 intensity node"):
            node_spacing_deviation(x, inten, 61.0)

    def test_even_in_x(self):
        x = np.linspace(-25, 25, 501)
        _, inten = two_source_superposition(x, 40.0, 4.0, M)
        np.testing.assert_allclose(inten, inten[::-1], rtol=0, atol=1e-15)

    def test_intensity_is_squared_modulus(self):
        x = np.linspace(-10, 10, 101)
        amp, inten = two_source_superposition(x, 40.0, 4.0, M)
        np.testing.assert_allclose(inten, np.abs(amp) ** 2, rtol=0, atol=0)


class TestZeroCrossings:
    def test_binary_uses_cell_midpoints(self):
        sig = SampledSignal(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, -1.0]))
        np.testing.assert_allclose(zero_crossings(sig), [1.5], rtol=0, atol=0)

    def test_smooth_uses_linear_interpolant(self):
        sig = SampledSignal(np.array([0.0, 1.0]), np.array([-1.0, 3.0]))
        np.testing.assert_allclose(zero_crossings(sig), [0.25], rtol=0, atol=1e-15)

    def test_exact_zero_sample_counted_once(self):
        sig = SampledSignal(np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(zero_crossings(sig), [1.0], rtol=0, atol=0)

    def test_trailing_zero_counted(self):
        sig = SampledSignal(np.array([0.0, 1.0]), np.array([3.0, 0.0]))
        np.testing.assert_allclose(zero_crossings(sig), [1.0], rtol=0, atol=0)

    def test_binary_with_gap_zeros_not_crossings(self):
        # 0-valued stretches in a binary signal separate signs without
        # contributing crossings of their own
        sig = SampledSignal(np.arange(5.0), np.array([1.0, 0.0, 0.0, -1.0, -1.0]))
        assert zero_crossings(sig).size == 0

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 0.0, 1.5, -2.0, 0.0, 3.0, 0.5, -0.25, 0.0],  # leading, interior, trailing zeros
            [0.0, -1.0, 2.0, 0.0, 0.0, -3.0, 1e-300, -1e300],
            [2.0, 1.0, -0.5, 0.0],
            [0.0, 2.5],
            [3.0, -2.0],
        ],
    )
    def test_smooth_matches_scan_oracle(self, values):
        # The sample-by-sample scan the vectorized branch replaced, bit for bit.
        # Irregular spacing from x = -0.0, whose sign bit a leading zero keeps.
        x = np.cumsum(np.random.default_rng(len(values)).random(len(values)) + 0.1)
        x = np.concatenate([[-0.0], x[1:] - x[0]]) if x.size else x
        v = np.array(values)
        sig = SampledSignal(x, v)
        got = zero_crossings(sig)
        expected = scan_crossings(sig.x, sig.values)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_smooth_on_propagator_matches_scan_oracle(self):
        x = np.linspace(-30.0, 30.0, 16001)
        sig = SampledSignal(x, np.real(feynman_free(x, 20.0, M)))
        assert zero_crossings(sig).tobytes() == scan_crossings(sig.x, sig.values).tobytes()


def scan_crossings(x, v):
    out = []
    for i in range(v.size - 1):
        if v[i] == 0.0:
            out.append(x[i])
        elif v[i] * v[i + 1] < 0.0:
            out.append(x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i]))
    if v.size and v[-1] == 0.0:
        out.append(x[-1])
    return np.array(out, dtype=float)


class TestCompare:
    def grid(self):
        return np.linspace(0.0, 10.0, 1001)

    def test_identical_signals(self):
        x = self.grid()
        v = np.sin(x)
        rep = compare(SampledSignal(x, v), SampledSignal(x, v.copy()))
        assert rep.sign_agreement_fraction == 1.0
        assert rep.crossing_spacing_error == 0.0

    def test_sign_agreement_after_global_flip(self):
        x = self.grid()
        v = np.sin(x)
        assert compare(SampledSignal(x, v), SampledSignal(x, -v)).sign_agreement_fraction == 1.0

    def test_rejects_different_grids(self):
        x = self.grid()
        with pytest.raises(ValueError):
            compare(SampledSignal(x, x), SampledSignal(x + 1.0, x))

    def test_spacing_ignores_constant_phase_offset(self):
        """Equal local frequency at 50% phase shift: spacing error ~ 0."""
        x = np.arange(0.0, 10.0, 0.01)
        a = np.sign(np.sin(2 * np.pi * (x - 0.25)))
        b = np.sign(np.sin(2 * np.pi * x))
        a[a == 0] = 1.0
        b[b == 0] = 1.0
        rep = compare(SampledSignal(x, a), SampledSignal(x, b))
        assert rep.crossing_spacing_error is not None
        assert rep.crossing_spacing_error < 0.03
        # raw sign agreement is destroyed by the offset, spacing is not
        assert rep.sign_agreement_fraction < 0.6

    def test_spacing_detects_frequency_mismatch(self):
        x = np.arange(0.0, 11.0, 0.005)
        a = np.sign(np.sin(2 * np.pi * x))
        b = np.sign(np.sin(2 * np.pi * x / 1.1))
        a[a == 0] = 1.0
        b[b == 0] = 1.0
        rep = compare(SampledSignal(x, a), SampledSignal(x, b))
        # spacings 0.5 vs 0.55: relative gap 1/11, plus midpoint quantization
        assert abs(rep.crossing_spacing_error - 1.0 / 11.0) < 0.03

    def test_insufficient_crossings_flagged(self):
        x = self.grid()
        rep = compare(SampledSignal(x, np.ones_like(x)), SampledSignal(x, np.sin(x)))
        assert rep.crossing_spacing_error is None
        assert rep.n_spacing_pairs == 0

    def test_mixed_binary_and_smooth(self):
        """A parity signal against a smooth wave with the same zeros."""
        x = np.arange(0.0, 10.0, 0.01)
        smooth = np.sin(2 * np.pi * x)
        binary = np.sign(smooth)
        binary[binary == 0] = 1.0
        rep = compare(SampledSignal(x, binary), SampledSignal(x, smooth))
        assert rep.crossing_spacing_error < 0.03
        assert rep.sign_agreement_fraction > 0.99


class TestFitConvergenceOrder:
    def test_exact_power_law(self):
        deltas = [0.2, 0.1, 0.05, 0.025]
        errors = [3.0 * d**2.5 for d in deltas]
        assert abs(fit_convergence_order(deltas, errors) - 2.5) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_convergence_order([0.1], [1.0])
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.05], [1.0, -1.0])
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.0], [1.0, 0.5])


class TestLocalMinima:
    def test_finds_strict_interior_minima(self):
        x = np.arange(5.0)
        v = np.array([3.0, 1.0, 2.0, 0.0, 5.0])
        np.testing.assert_allclose(local_minima(x, v), [1.0, 3.0], rtol=0, atol=0)

    def test_endpoints_excluded(self):
        x = np.arange(3.0)
        assert local_minima(x, np.array([0.0, 1.0, 2.0])).size == 0

    def test_plateau_not_strict(self):
        x = np.arange(4.0)
        assert local_minima(x, np.array([1.0, 0.0, 0.0, 1.0])).size == 0
