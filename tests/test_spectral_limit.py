import math

import numpy as np
import pytest
from conftest import stroboscopic_power

from clockwalk.lattice_walk import (
    SQRT2,
    chain_sites,
    compose,
    decompose,
    phi_step,
    point_source_phi,
    point_source_z,
    z_step,
)
from clockwalk.spectral_limit import (
    P_WINDOW,
    PSI_DENSITY_CALIBRATION,
    X_WINDOW,
    assemble_psi,
    continuum_propagator,
    diffusion_levels,
    eigenphase,
    eigenvalue_leading_order,
    eigenvalue_plus,
    engine_step_loop_deviation,
    evolve_spectral,
    expansion_residuals,
    from_spectral,
    momentum_grid,
    schrodinger_level,
    schrodinger_levels,
    to_spectral,
    transfer_diagnostics,
    transfer_matrices,
    transfer_power,
    validate_level_sequence,
)
from clockwalk.reference_solutions import diffusion_green, feynman_free, fit_convergence_order


def half_grid(n):
    """u_j = p_j delta = 2 pi j / N of the to_spectral columns, j = 0 .. N // 2."""
    return 2.0 * math.pi * np.arange(n // 2 + 1) / n


def four_entry_matrices(p, delta, alpha):
    """(alpha/2) [[e^{-iu}, -e^{iu}], [e^{-iu}, e^{iu}]] at u = p delta, written entry by entry.

    The oracle of transfer_matrices, which takes T from the spectral
    engine's step instead.
    """
    a = 0.5 * alpha
    u = np.asarray(p, dtype=float) * delta
    er = np.exp(-1j * u)
    el = np.exp(1j * u)
    m = np.empty(u.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = a * er
    m[..., 0, 1] = -a * el
    m[..., 1, 0] = a * er
    m[..., 1, 1] = a * el
    return m


class TestMomentumGrid:
    def test_structure(self):
        p = momentum_grid(8, 0.1)
        assert p.shape == (8,)
        assert 0.0 in p
        spacing = 2.0 * math.pi / (8 * 0.1)
        np.testing.assert_allclose(np.diff(p), spacing, rtol=1e-15)
        assert p[0] == -4 * spacing  # most negative, Nyquist side

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            momentum_grid(7, 0.1)


class TestTransforms:
    def test_delta_at_origin_is_flat(self):
        phi = np.zeros((2, 16))
        phi[1, 0] = 1.0
        values = to_spectral(phi)
        assert values.shape == (2, 9)
        np.testing.assert_allclose(values[0], 0.0, atol=0)
        np.testing.assert_allclose(values[1], 1.0, rtol=0, atol=1e-14)

    def test_uniform_concentrates_at_zero_momentum(self):
        phi = np.zeros((2, 16))
        phi[0] = 1.0
        values = to_spectral(phi)
        assert abs(values[0, 0] - 16.0) < 1e-12
        assert np.max(np.abs(values[0, 1:])) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (31, 32):
            phi = rng.random((2, n)) - 0.5
            back = from_spectral(to_spectral(phi), n)
            assert back.shape == (2, n)
            np.testing.assert_allclose(back, phi, rtol=0, atol=1e-12)

    def test_matches_explicit_dft(self):
        """Brute-force O(N^2) transform with the same sign convention."""
        rng = np.random.default_rng(1)
        phi = rng.random((2, 16)) - 0.5
        values = to_spectral(phi)
        m = np.arange(16)
        for row in range(2):
            for j, uj in enumerate(half_grid(16)):
                explicit = np.sum(phi[row] * np.exp(-1j * uj * m))
                assert abs(values[row, j] - explicit) < 1e-10

    def test_real_field_has_hermitian_spectrum(self):
        """The half spectrum holds the full one: -p carries the conjugate of p."""
        rng = np.random.default_rng(2)
        phi = rng.random((2, 16)) - 0.5
        values = to_spectral(phi)
        full = np.fft.fft(phi, axis=1)
        np.testing.assert_allclose(full[:, :9], values, rtol=0, atol=1e-12)
        for j in range(1, 8):
            np.testing.assert_allclose(full[:, 16 - j], np.conj(values[:, j]), rtol=0, atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            to_spectral(np.zeros(16))
        with pytest.raises(ValueError):
            to_spectral(np.zeros((3, 16)))


class TestTransferMatrix:
    @pytest.mark.parametrize("alpha", [1.0, SQRT2, 0.7])
    @pytest.mark.parametrize("p", [momentum_grid(16384, 0.1), 0.0, 0.7, -3.1], ids=["grid", "0", "0.7", "-3.1"])
    def test_equals_four_entry_formula(self, p, alpha):
        got, want = transfer_matrices(p, 0.1, alpha), four_entry_matrices(p, 0.1, alpha)
        assert got.shape == want.shape == np.shape(p) + (2, 2)
        assert got.tobytes() == want.tobytes()

    def test_step_commutes_with_transform(self):
        """One position step then transform equals transform then matrix step."""
        for alpha in (1.0, SQRT2):
            rng = np.random.default_rng(3)
            phi = rng.random((2, 32)) - 0.5
            lhs = to_spectral(phi_step(phi, alpha))
            m = transfer_matrices(half_grid(32) / 0.1, 0.1, alpha)
            rhs = np.einsum("jab,bj->aj", m, to_spectral(phi))
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_matrix_matches_vectorized_step(self):
        """One step of the engine is the transfer matrix at every momentum."""
        rng = np.random.default_rng(4)
        field = rng.random((2, 16)) - 0.5
        values = to_spectral(field)
        stepped = to_spectral(evolve_spectral(field, "phi", 1, SQRT2))
        for j, uj in enumerate(half_grid(16)):
            tm = transfer_matrices(float(uj) / 0.1, 0.1, SQRT2)
            np.testing.assert_allclose(tm @ values[:, j], stepped[:, j], rtol=0, atol=1e-13)

    def test_zero_momentum_is_eighth_root(self):
        tm = transfer_matrices(0.0, 0.1, SQRT2)
        # quarter turn after two steps, identity after eight
        sq = tm @ tm
        np.testing.assert_allclose(sq, [[0.0, -1.0], [1.0, 0.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(stroboscopic_power(tm, 8), np.eye(2), rtol=0, atol=1e-14)

    def test_unitary_at_sqrt2(self):
        for p in np.linspace(-3.0, 3.0, 101):
            tm = transfer_matrices(float(p), 0.1, SQRT2)
            resid = tm.conj().T @ tm - np.eye(2)
            assert np.max(np.abs(resid)) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.0, SQRT2, 0.7])
    def test_diagnostics_per_momentum(self, alpha):
        p = momentum_grid(64, 0.1)
        resid, modulus, det = transfer_diagnostics(p, 0.1, alpha)
        assert resid.shape == modulus.shape == det.shape == (64,)
        for j, pv in enumerate(p.tolist()):
            tm = transfer_matrices(pv, 0.1, alpha)
            gram = tm.conj().T @ tm - 0.5 * alpha * alpha * np.eye(2)
            assert resid[j] == np.max(np.abs(gram))
            assert abs(modulus[j] - abs(complex(eigenvalue_plus(pv * 0.1, alpha)))) <= 1e-15
            assert abs(det[j] - np.linalg.det(tm)) <= 1e-15
        assert resid.max() <= 1e-15 and np.abs(modulus - alpha / SQRT2).max() <= 1e-15
        assert np.abs(det - 0.5 * alpha * alpha).max() <= 1e-15

    def test_halved_gram_at_alpha_one(self):
        tm = transfer_matrices(0.7, 0.1, 1.0)
        resid = tm.conj().T @ tm - 0.5 * np.eye(2)
        assert np.max(np.abs(resid)) <= 1e-15


class TestEigenvalues:
    def test_zero_momentum_eighth_roots_of_unity(self):
        lam_p = complex(eigenvalue_plus(0.0, SQRT2))
        lam_m = lam_p.conjugate()
        assert abs(lam_p - np.exp(1j * math.pi / 4)) < 1e-15
        assert abs(lam_m - np.exp(-1j * math.pi / 4)) < 1e-15

    def test_constant_modulus(self):
        for alpha in (1.0, SQRT2, 0.7):
            for p in (-2.0, 0.0, 0.3, 1.9):
                lam_p = complex(eigenvalue_plus(p * 0.1, alpha))
                lam_m = lam_p.conjugate()
                assert abs(abs(lam_p) - alpha / SQRT2) < 1e-15
                assert abs(abs(lam_m) - alpha / SQRT2) < 1e-15

    def test_eigenvalue_plus_is_elementwise(self):
        p = np.linspace(-3.0, 3.0, 11)
        for alpha in (1.0, SQRT2):
            lam = eigenvalue_plus(p * 0.1, alpha)
            assert lam.shape == (11,)
            for j, pv in enumerate(p.tolist()):
                assert lam[j] == complex(eigenvalue_plus(pv * 0.1, alpha))

    def test_satisfy_characteristic_polynomial(self):
        for p in (-1.2, 0.0, 0.8, 2.5):
            tm = transfer_matrices(p, 0.2, SQRT2)
            tr = complex(np.trace(tm))
            det = complex(np.linalg.det(tm))
            lam_p = complex(eigenvalue_plus(p * 0.2, SQRT2))
            for lam in (lam_p, lam_p.conjugate()):
                assert abs(lam * lam - tr * lam + det) < 1e-12

    def test_product_is_determinant(self):
        for alpha in (1.0, SQRT2):
            lam_p = complex(eigenvalue_plus(1.1 * 0.15, alpha))
            assert abs(lam_p * lam_p.conjugate() - 0.5 * alpha * alpha) < 1e-14

    def test_expansion_residual_is_fourth_order(self):
        deltas = [0.2, 0.1, 0.05]
        errs = []
        for d in deltas:
            lam = complex(eigenvalue_plus(1.0 * d, SQRT2))
            errs.append(abs(lam - eigenvalue_leading_order(1.0, d, SQRT2)))
        order = fit_convergence_order(deltas, errs)
        assert order >= 3.8

    @pytest.mark.parametrize("alpha", [1.0, SQRT2])
    def test_expansion_residuals_match_per_delta_loop(self, alpha):
        deltas = (0.2, 0.1, 0.05)
        for p in (1.0, 0.3):
            loop = [abs(complex(eigenvalue_plus(p * d, alpha)) - eigenvalue_leading_order(p, d, alpha)) for d in deltas]
            assert expansion_residuals(p, deltas, alpha) == loop


class TestClosedFormPower:
    def test_matches_repeated_squaring(self):
        for alpha in (1.0, SQRT2, 0.7):
            for p in np.linspace(-3.0, 3.0, 13):
                tm = transfer_matrices(float(p), 0.1, alpha)
                # Below alpha = sqrt(2) the power decays as (alpha/sqrt(2))^s;
                # keep s where it stays a normal float.
                for s in (0, 8, 64, 1024) if alpha == SQRT2 else (0, 8, 64, 256):
                    ref = stroboscopic_power(tm, s)
                    got = transfer_power(p, 0.1, alpha, s)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_matrix_power_at_any_step_count(self):
        for p in (-2.0, 0.0, 0.45, 3.1):
            tm = transfer_matrices(p, 0.2, SQRT2)
            for s in (1, 2, 3, 7, 13):
                ref = np.linalg.matrix_power(tm, s)
                np.testing.assert_allclose(transfer_power(p, 0.2, SQRT2, s), ref, rtol=0, atol=1e-14)

    def test_eight_step_identity_at_zero_momentum(self):
        resid = np.max(np.abs(transfer_power(0.0, 0.1, SQRT2, 8) - np.eye(2)))
        assert resid <= 1e-14

    def test_eigenphase_is_eigenvalue_argument(self):
        for alpha in (1.0, SQRT2):
            for p in (-2.5, -0.3, 0.0, 1.0, 2.9):
                lam_p = complex(eigenvalue_plus(p * 0.1, alpha))
                lam_m = lam_p.conjugate()
                theta = float(eigenphase(p * 0.1))
                assert abs(lam_p - alpha / SQRT2 * np.exp(1j * theta)) <= 1e-15
                assert abs(lam_m - alpha / SQRT2 * np.exp(-1j * theta)) <= 1e-15

    def test_batched_matrices_match_single(self):
        p = momentum_grid(256, 0.1)
        for alpha in (1.0, SQRT2):
            single = np.stack([transfer_matrices(pv, 0.1, alpha) for pv in p.tolist()])
            assert np.array_equal(transfer_matrices(p, 0.1, alpha), single)
            powers = transfer_power(p, 0.1, alpha, 16)
            assert powers.shape == (256, 2, 2)
            for j in (0, 77, 128, 255):
                assert np.array_equal(powers[j], transfer_power(p[j], 0.1, alpha, 16))

    def test_continuum_propagator_is_elementwise(self):
        p = np.linspace(-2.0, 2.0, 9)
        batch = continuum_propagator(p, 0.5, 2.56)
        assert batch.shape == (9, 2, 2)
        for j, pv in enumerate(p):
            assert np.array_equal(batch[j], continuum_propagator(pv, 0.5, 2.56))

    def test_rejects_negative_power(self):
        for s in (-1, 2.0):
            with pytest.raises(ValueError):
                transfer_power(0.3, 0.1, SQRT2, s)


class TestSpectralEngine:
    """evolve_spectral against the position-space step loop it replaces."""

    @pytest.mark.parametrize("n", [63, 64])
    @pytest.mark.parametrize("alpha", [1.0, SQRT2])
    @pytest.mark.parametrize("block", ["phi", "z"])
    def test_matches_step_loop_on_random_fields(self, block, alpha, n):
        step = (lambda f: phi_step(f, alpha)) if block == "phi" else z_step
        rng = np.random.default_rng(n + 10 * int(alpha == SQRT2) + 100 * (block == "z"))
        field = rng.random((2, n)) - 0.5
        loop = field.copy()
        done = 0
        for s in (0, 1, 7, 8, 256):
            for _ in range(s - done):
                loop = step(loop)
            done = s
            got = evolve_spectral(field, block, s, alpha)
            assert got.shape == (2, n) and got.dtype == np.float64
            assert np.max(np.abs(got - loop)) <= 1e-12 * np.max(np.abs(loop))

    def test_leaves_input_unchanged(self):
        field = np.random.default_rng(5).random((2, 32))
        before = field.copy()
        for block in ("phi", "z"):
            for s in (0, 9):
                out = evolve_spectral(field, block, s, SQRT2)
                assert out is not field
        assert np.array_equal(field, before)

    def test_validates(self):
        field = np.zeros((2, 16))
        with pytest.raises(ValueError):
            evolve_spectral(field, "psi", 8, 1.0)
        for s in (-1, 8.0):
            with pytest.raises(ValueError):
                evolve_spectral(field, "phi", s, 1.0)
        for s in (8, 0):
            with pytest.raises(ValueError):
                evolve_spectral(np.zeros((3, 16)), "z", s, 1.0)


class TestStroboscopicPower:
    def test_zero_power_identity(self):
        tm = transfer_matrices(0.9, 0.1, SQRT2)
        np.testing.assert_allclose(stroboscopic_power(tm, 0), np.eye(2), rtol=0, atol=0)

    def test_rejects_non_multiple_of_eight(self):
        tm = transfer_matrices(0.9, 0.1, SQRT2)
        for s in (1, 7, 12):
            with pytest.raises(ValueError):
                stroboscopic_power(tm, s)

    def test_sixteen_is_square_of_eight(self):
        tm = transfer_matrices(0.9, 0.1, SQRT2)
        t8 = stroboscopic_power(tm, 8)
        np.testing.assert_allclose(stroboscopic_power(tm, 16), t8 @ t8, rtol=0, atol=1e-14)

    def test_trace_and_determinant_from_eigenvalues(self):
        tm = transfer_matrices(0.6, 0.1, SQRT2)
        lam_p = complex(eigenvalue_plus(0.6 * 0.1, SQRT2))
        lam_m = lam_p.conjugate()
        ts = stroboscopic_power(tm, 24)
        assert abs(np.trace(ts) - (lam_p**24 + lam_m**24)) < 1e-10
        assert abs(np.linalg.det(ts) - (lam_p * lam_m) ** 24) < 1e-10

    def test_decaying_branch_shrinks(self):
        tm = transfer_matrices(0.6, 0.1, 1.0)
        ts = stroboscopic_power(tm, 32)
        assert np.max(np.abs(ts)) < 2.0 * 0.5**16


class TestContinuumPropagator:
    def test_zero_time_identity(self):
        np.testing.assert_allclose(continuum_propagator(1.3, 0.5, 0.0), np.eye(2), rtol=0, atol=0)

    def test_group_property(self):
        a = continuum_propagator(0.8, 0.5, 1.0)
        b = continuum_propagator(0.8, 0.5, 2.5)
        c = continuum_propagator(0.8, 0.5, 3.5)
        np.testing.assert_allclose(a @ b, c, rtol=0, atol=1e-14)

    def test_rotation_angle(self):
        p, D, t = 1.5, 0.5, 2.0
        r = continuum_propagator(p, D, t)
        th = p * p * D * t
        np.testing.assert_allclose(r, [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]], rtol=0, atol=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            continuum_propagator(1.0, 0.5, -0.1)


class TestAssemblePsi:
    def test_point_source_splits_evenly(self):
        plus, minus = assemble_psi(np.array([0.0]), np.array([SQRT2]))
        assert abs(plus[0] - 1.0 / SQRT2) < 1e-15
        assert abs(minus[0] - 1.0 / SQRT2) < 1e-15

    def test_invertible(self):
        rng = np.random.default_rng(5)
        phi1 = rng.random(16) - 0.5
        phi2 = rng.random(16) - 0.5
        plus, minus = assemble_psi(phi1, phi2)
        np.testing.assert_allclose(plus + minus, phi2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(-1j * (plus - minus), phi1, rtol=0, atol=1e-15)

    def test_calibration_constant_matches_point_source_sum(self):
        """Sum of psi+ is 1/sqrt(2) for the unit source and is preserved
        at stroboscopic times, which fixes the density calibration."""
        phi = point_source_phi(64, 32)
        for _ in range(16):
            phi = phi_step(phi, SQRT2)
        plus, _ = assemble_psi(phi[0], phi[1])
        assert abs(plus.sum() - 1.0 / SQRT2) < 1e-12
        assert abs(PSI_DENSITY_CALIBRATION - SQRT2) == 0.0


class TestNormBehaviour:
    def test_norm_invariant_at_sqrt2(self):
        """L2 drift below 1e-10 over 1024 steps of the rotating branch."""
        rng = np.random.default_rng(6)
        field = rng.random((2, 256)) - 0.5
        norm0 = np.linalg.norm(field)
        stepped = field
        for _ in range(1024):
            stepped = evolve_spectral(stepped, "phi", 1, SQRT2)
        for out in (stepped, evolve_spectral(field, "phi", 1024, SQRT2)):
            assert abs(np.linalg.norm(out) - norm0) <= 1e-10 * norm0

    def test_per_step_decay_at_alpha_one(self):
        """Each bare-walk step scales the L2 norm by exactly 1/sqrt(2)."""
        rng = np.random.default_rng(7)
        field = rng.random((2, 128)) - 0.5
        for _ in range(50):
            before = np.linalg.norm(field)
            field = evolve_spectral(field, "phi", 1, 1.0)
            ratio = np.linalg.norm(field) / before
            assert abs(ratio - 1.0 / SQRT2) <= 1e-12

    def test_position_and_spectral_evolution_agree(self):
        rng = np.random.default_rng(8)
        phi = rng.random((2, 128)) - 0.5
        pos = phi
        for _ in range(256):
            pos = phi_step(pos, SQRT2)
        assert np.max(np.abs(evolve_spectral(phi, "phi", 256, SQRT2) - pos)) <= 1e-10


class TestLevelSequence:
    """Step counts s = t / epsilon, epsilon = delta^2 / (2 D), of a level study."""

    def test_step_counts(self):
        assert validate_level_sequence([0.2, 0.1, 0.05], 0.5, 2.56) == [64, 256, 1024]

    @pytest.mark.parametrize(
        "deltas,t,delta,s",
        [
            ([0.2, 0.1], 0.16, 0.2, 4),
            ([0.2, 0.1], 0.08, 0.2, 2),
            ([0.4, 0.2, 0.1], 0.16, 0.4, 1),
            ([0.4, 0.2, 0.1], 0.48, 0.4, 3),
        ],
    )
    def test_names_first_level_off_the_mod_8_rule(self, deltas, t, delta, s):
        with pytest.raises(ValueError, match=rf"level delta={delta} gives s={s}, violating the mod-8 rule"):
            validate_level_sequence(deltas, 0.5, t)

    @pytest.mark.parametrize(
        "deltas,D,t",
        [
            ([0.1], 0.5, 2.56),
            ([0.2, 0.12], 0.5, 2.56),
            ([0.0, 0.0], 0.5, 2.56),
            ([0.2, 0.1], 0.0, 2.56),
            ([0.2, 0.1], 0.5, math.inf),
            ([0.2, 0.1], 0.5, 2.5),
        ],
        ids=["one-level", "not-halving", "zero-delta", "zero-D", "infinite-t", "non-integer-s"],
    )
    def test_rejects(self, deltas, D, t):
        with pytest.raises(ValueError):
            validate_level_sequence(deltas, D, t)


def four_state_block(block, n, site):
    """The block's point source as the levels first built it: a four-state field through decompose."""
    zero = np.zeros((2, n))
    if block == "phi":
        return decompose(compose(zero, point_source_phi(n, site)))[1]
    return decompose(compose(point_source_z(n, site), zero))[0]


def reference_schrodinger_level(delta, s, D, t):
    """schrodinger_level as first written: psi+ assembled on the full chain, then sampled."""
    n = chain_sites(s)
    m0 = n // 2
    pw = momentum_grid(n, delta)
    pw = pw[np.abs(pw) <= P_WINDOW]
    lam_s = np.exp(1j * s * eigenphase(pw * delta))
    rot_err = float(np.sqrt(np.mean(np.abs(lam_s - np.exp(1j * pw * pw * D * t)) ** 2)))
    frob = np.linalg.norm(transfer_power(pw, delta, SQRT2, s) - continuum_propagator(pw, D, t), axis=(-2, -1))
    phi = evolve_spectral(four_state_block("phi", n, m0), "phi", s, SQRT2)
    psi_plus, _ = assemble_psi(phi[0], phi[1])
    kmax = int(math.floor(X_WINDOW / (2.0 * delta)))
    kk = np.arange(-kmax, kmax + 1)
    est = psi_plus[m0 + 2 * kk] * PSI_DENSITY_CALIBRATION / (2.0 * delta)
    ker = feynman_free(2.0 * kk * delta, t, 1.0 / (2.0 * D))
    ker_norm = float(np.linalg.norm(ker))
    p0 = np.linalg.matrix_power(transfer_matrices(0.0, delta, SQRT2), 8)
    return {
        "delta": delta,
        "s": s,
        "rotation_angle_error": rot_err,
        "matrix_error": float(np.sqrt(np.mean(np.square(frob)))),
        "kernel_raw_rel": float(np.linalg.norm(est - ker)) / ker_norm,
        "kernel_even_rel": float(np.linalg.norm(0.5 * (est + est[::-1]) - ker)) / ker_norm,
        "odd_fraction": float(np.linalg.norm(0.5 * (est - est[::-1]))) / ker_norm,
        "p0_residual": float(np.max(np.abs(p0 - np.eye(2)))),
    }


def reference_diffusion_l1(delta, s, D, t):
    """One diffusion_levels error as first written: the z sum on the full chain, then sampled."""
    n = chain_sites(s)
    m0 = n // 2
    z = evolve_spectral(four_state_block("z", n, m0), "z", s, 1.0)
    kk = np.arange(-(s // 2), s // 2 + 1)
    dens = (z[0] + z[1])[m0 + 2 * kk] / (2.0 * delta)
    return float(np.sum(np.abs(dens - diffusion_green(2.0 * kk * delta, t, D))) * 2.0 * delta)


class TestLevelStudies:
    """The level studies sample only the evolved block; their rows equal the first construction exactly."""

    @pytest.mark.parametrize("D", [0.5, 0.25])
    @pytest.mark.parametrize(
        "deltas", [[0.2, 0.1, 0.05, 0.025], [0.1, 0.05, 0.025, 0.0125]], ids=["desk", "benchmark"]
    )
    def test_schrodinger_rows_match_full_chain_reference(self, deltas, D):
        steps = validate_level_sequence(deltas, D, 2.56)
        levels = schrodinger_levels(deltas, D, 2.56)["levels"]
        assert levels == [reference_schrodinger_level(d, s, D, 2.56) for d, s in zip(deltas, steps)]

    @pytest.mark.parametrize("D", [0.5, 0.25])
    def test_diffusion_rows_match_full_chain_reference(self, D):
        # The desk diffusion deltas are also the benchmark's, which sets only deltas.
        deltas = [0.05, 0.025, 0.0125]
        study = diffusion_levels(deltas, D, 1.0)
        assert study["l1_rel"] == [reference_diffusion_l1(d, s, D, 1.0) for d, s in zip(deltas, study["steps"])]

    @pytest.mark.parametrize("block,alpha,step", [("phi", SQRT2, lambda f: phi_step(f, SQRT2)), ("z", 1.0, z_step)])
    def test_engine_deviation_matches_four_state_start(self, block, alpha, step):
        s = 64
        start = loop = four_state_block(block, chain_sites(s), chain_sites(s) // 2)
        for _ in range(s):
            loop = step(loop)
        expect = float(np.max(np.abs(evolve_spectral(start, block, s, alpha) - loop)) / np.max(np.abs(loop)))
        assert engine_step_loop_deviation(s, block) == expect <= 1e-12

    def test_window_wider_than_the_chain_is_refused(self):
        # delta 0.1 samples |x| <= 5 at m0 +- 50: a chain of 2 s + 64 sites
        # holds that from s = 19 (m0 = 51), not at s = 18 (m0 = 50).
        assert schrodinger_level(0.1, 19, 0.5, 0.19)["s"] == 19
        with pytest.raises(ValueError, match=r"level delta=0\.1, s=18: its 100-site chain, half-width 5,"):
            schrodinger_level(0.1, 18, 0.5, 0.18)
        # The repro: every level of this study is narrower than the window.
        with pytest.raises(ValueError, match=r"level delta=0\.1, s=8: .* half-width 4, .* window \|x\| <= 5"):
            schrodinger_levels([0.1, 0.05, 0.025], 0.5, 0.08)
