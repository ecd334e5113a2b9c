import math

import numpy as np
import pytest

from clockwalk.clock_signal import UnitsConfig, plane_pattern
from clockwalk.experiments_cli import _grid
from clockwalk.reference_solutions import (
    crossing_spacing_error,
    diffusion_green,
    feynman_free,
    fit_convergence_order,
    local_minima,
    node_spacing_deviation,
    sign_agreement,
    two_source_superposition,
    zero_crossings,
)

M = math.pi / 2  # the mass at compton_period 4

trapezoid = getattr(np, "trapezoid", None) or np.trapz


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
        found = zero_crossings(x, re_k)
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
        got = zero_crossings(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, -1.0]))
        np.testing.assert_allclose(got, [1.5], rtol=0, atol=0)

    def test_smooth_uses_linear_interpolant(self):
        np.testing.assert_allclose(zero_crossings(np.array([0.0, 1.0]), np.array([-1.0, 3.0])), [0.25], rtol=0, atol=1e-15)

    def test_exact_zero_sample_counted_once(self):
        got = zero_crossings(np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(got, [1.0], rtol=0, atol=0)

    def test_trailing_zero_counted(self):
        np.testing.assert_allclose(zero_crossings(np.array([0.0, 1.0]), np.array([3.0, 0.0])), [1.0], rtol=0, atol=0)

    def test_binary_with_gap_zeros_not_crossings(self):
        # 0-valued stretches in a binary signal separate signs without
        # contributing crossings of their own
        assert zero_crossings(np.arange(5.0), np.array([1.0, 0.0, 0.0, -1.0, -1.0])).size == 0

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
        got = zero_crossings(x, v)
        expected = scan_crossings(x, v)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_smooth_on_propagator_matches_scan_oracle(self):
        x = np.linspace(-30.0, 30.0, 16001)
        v = np.real(feynman_free(x, 20.0, M))
        assert zero_crossings(x, v).tobytes() == scan_crossings(x, v).tobytes()


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


def binary(v):
    """sign(v), with the zero samples set to +1."""
    s = np.sign(v)
    s[s == 0] = 1.0
    return s


X_COARSE = np.linspace(0.0, 10.0, 1001)
X_WAVE = np.arange(0.0, 10.0, 0.01)
X_FINE = np.arange(0.0, 11.0, 0.005)

# (x, a, b): pairs of signals on one grid, each named for what it probes
PAIRS = {
    "identical": (X_COARSE, np.sin(X_COARSE), np.sin(X_COARSE)),
    "global flip": (X_COARSE, np.sin(X_COARSE), -np.sin(X_COARSE)),
    # equal local frequency at a 50% phase shift
    "phase offset": (X_WAVE, binary(np.sin(2 * np.pi * (X_WAVE - 0.25))), binary(np.sin(2 * np.pi * X_WAVE))),
    # spacings 0.5 against 0.55
    "frequency mismatch": (X_FINE, binary(np.sin(2 * np.pi * X_FINE)), binary(np.sin(2 * np.pi * X_FINE / 1.1))),
    "too few crossings": (X_COARSE, np.ones_like(X_COARSE), np.sin(X_COARSE)),
    # a parity signal against a smooth wave with the same zeros
    "binary against smooth": (X_WAVE, binary(np.sin(2 * np.pi * X_WAVE)), np.sin(2 * np.pi * X_WAVE)),
}


def measure(x, a, b):
    """What propagator-compare measures: sign agreement, both crossing lists, spacing error and pair count."""
    ca, cb = zero_crossings(x, a), zero_crossings(x, b)
    return sign_agreement(a, b), ca, cb, *crossing_spacing_error(ca, cb)


class TestCompare:
    def test_identical_signals(self):
        agree, _, _, spacing_err, _ = measure(*PAIRS["identical"])
        assert agree == 1.0
        assert spacing_err == 0.0

    def test_sign_agreement_after_global_flip(self):
        _, a, b = PAIRS["global flip"]
        assert sign_agreement(a, b) == 1.0

    def test_empty_signals_agree(self):
        assert sign_agreement(np.array([]), np.array([])) == 1.0

    def test_spacing_ignores_constant_phase_offset(self):
        """Equal local frequency at 50% phase shift: spacing error ~ 0."""
        agree, _, _, spacing_err, _ = measure(*PAIRS["phase offset"])
        assert spacing_err is not None
        assert spacing_err < 0.03
        # raw sign agreement is destroyed by the offset, spacing is not
        assert agree < 0.6

    def test_spacing_detects_frequency_mismatch(self):
        _, _, _, spacing_err, _ = measure(*PAIRS["frequency mismatch"])
        # spacings 0.5 vs 0.55: relative gap 1/11, plus midpoint quantization
        assert abs(spacing_err - 1.0 / 11.0) < 0.03

    def test_insufficient_crossings_flagged(self):
        _, _, _, spacing_err, n_pairs = measure(*PAIRS["too few crossings"])
        assert spacing_err is None
        assert n_pairs == 0

    def test_mixed_binary_and_smooth(self):
        """A parity signal against a smooth wave with the same zeros."""
        agree, _, _, spacing_err, _ = measure(*PAIRS["binary against smooth"])
        assert spacing_err < 0.03
        assert agree > 0.99


def parity_against_re_k(t, xs):
    """(x, clock parity, Re K) at time t at compton_period 4, as propagator-compare builds them."""
    units = UnitsConfig(4.0)
    return xs, plane_pattern(t, xs, units).value.astype(float), np.real(feynman_free(xs, t, units.mass))


@pytest.mark.parametrize(
    "x,a,b",
    [
        pytest.param(*parity_against_re_k(20.0, _grid(-4.0, 4.0, 0.0005)), id="benchmark-grid"),
        pytest.param(*parity_against_re_k(2001.0, np.arange(50.0, 400.0 + 1e-9, 0.25)), id="acceptance-far-window"),
        pytest.param(*parity_against_re_k(21.5, _grid(-12.0, 12.0, 0.01)), id="t21.5-window12"),
        *(pytest.param(*pair, id=name) for name, pair in PAIRS.items()),
    ],
)
def test_matches_compare_oracle(x, a, b):
    """The three functions reproduce the comparison they replaced, bit for bit."""
    agree, ca, cb, spacing_err, n_pairs = measure(x, a, b)
    o_agree, o_ca, o_cb, o_err, o_pairs = compare_oracle(x, a, b)
    assert agree == o_agree
    assert ca.tobytes() == o_ca.tobytes()
    assert cb.tobytes() == o_cb.tobytes()
    assert spacing_err == o_err
    assert n_pairs == o_pairs


def compare_oracle(x, a, b):
    """The comparison as one function over both signals, before it was split:
    (sign agreement, crossings of a, crossings of b, spacing error, pairs)."""
    x = np.asarray(x, dtype=float)

    def crossings(v):
        v = np.asarray(v, dtype=float)
        if np.all(np.isin(v, (-1.0, 0.0, 1.0))):
            idx = np.nonzero(v[:-1] * v[1:] < 0)[0]
            return 0.5 * (x[idx] + x[idx + 1])
        cross = np.zeros(v.shape, dtype=bool)
        cross[:-1] = v[:-1] * v[1:] < 0.0
        i = np.nonzero(cross)[0]
        out = x.copy()
        out[i] = x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i])
        return out[cross | (v == 0.0)]

    def matched_spacing_error(ca, cb):
        if ca.size < 2 or cb.size < 2:
            return None, 0
        spa, mida = np.diff(ca), 0.5 * (ca[:-1] + ca[1:])
        spb, midb = np.diff(cb), 0.5 * (cb[:-1] + cb[1:])
        sel = (mida >= midb[0]) & (mida <= midb[-1])
        if not np.any(sel):
            return None, 0
        interp = np.interp(mida[sel], midb, spb)
        rel = np.abs(spa[sel] - interp) / interp
        return float(rel.max()), int(sel.sum())

    sa, sb = np.sign(np.asarray(a, dtype=float)), np.sign(np.asarray(b, dtype=float))
    agree = max(float(np.mean(sa == sb)), float(np.mean(sa == -sb))) if sa.size else 1.0
    ca, cb = crossings(a), crossings(b)
    return (agree, ca, cb, *matched_spacing_error(ca, cb))


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
