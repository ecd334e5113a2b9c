from dataclasses import fields

import numpy as np
import pytest

from clockwalk.lattice_walk import (
    SQRT2,
    McEstimate,
    band_deviations,
    compose,
    decompose,
    deposit_standard_errors,
    evolve,
    evolve_snapshots,
    field_variance,
    monte_carlo_estimate,
    phi_step,
    point_source_phi,
    point_source_z,
    step_four_state,
    unit_state_field,
    z_step,
)


def mirror_field(f):
    """Spatial mirror of a four-state field: m -> -m with the state cycle shifted.

    The reflection that commutes with the walk is q_k(m) = p_{k+1}(-m)
    (cycle shift 1->2->3->4->1, indices mod 4), not the naive swap of the
    two right-movers with the two left-movers: reflecting a right-mover
    mid-cycle lands on the left-mover that FOLLOWS it in the cycle, which
    keeps the move-then-advance ordering intact.  Applying it four times is
    the identity.
    """
    n = f.shape[1]
    idx = (-np.arange(n)) % n
    return np.stack([f[1][idx], f[2][idx], f[3][idx], f[0][idx]])


def random_four_state(n, seed=0, nonnegative=True):
    rng = np.random.default_rng(seed)
    p = rng.random((4, n))
    if not nonnegative:
        p = p - 0.5
    return p


# The np.roll forms of the three per-step maps, kept as the oracle of the
# slice shifts that replaced them.
def roll_step_four_state(p):
    r1, r2, r3, r4 = np.roll(p[0], 1), np.roll(p[1], -1), np.roll(p[2], 1), np.roll(p[3], -1)
    return np.stack([0.5 * r1 + 0.5 * r4, 0.5 * r2 + 0.5 * r1, 0.5 * r3 + 0.5 * r2, 0.5 * r4 + 0.5 * r3])


def roll_z_step(z):
    avg = 0.5 * (np.roll(z[0], 1) + np.roll(z[1], -1))
    return np.stack([avg, avg])


def roll_phi_step(phi, alpha):
    f1, f2 = np.roll(phi[0], 1), np.roll(phi[1], -1)
    return np.stack([0.5 * alpha * (f1 - f2), 0.5 * alpha * (f1 + f2)])


def reference_sampler(n, alpha, n_steps, n_paths, seed, initial_state, initial_site):
    """monte_carlo_estimate one walker and one step at a time, from its documented coin layout.

    The coin for (step, path) is bit path % 64, least significant first, of
    raw Philox word step * ceil(n_paths / 64) + path // 64; the walker moves
    first and advances its state when the coin is 1.
    """
    per_step = -(-n_paths // 64)
    words = [int(w) for w in np.random.Philox(key=np.uint64(seed)).random_raw(n_steps * per_step)]
    counts, signed = np.zeros((2, n)), np.zeros((2, n))
    for path in range(n_paths):
        state, site = initial_state - 1, initial_site % n
        for step in range(n_steps):
            site = (site + (1 if state % 2 == 0 else -1)) % n
            state = (state + (words[step * per_step + path // 64] >> (path % 64) & 1)) % 4
        counts[state % 2, site] += 1
        signed[state % 2, site] += 1 if state < 2 else -1
    z_hat, phi_hat = 0.5 * counts / n_paths, 0.5 * signed / n_paths
    second = 0.25 * counts / n_paths
    scale = alpha**n_steps
    return McEstimate(
        z_hat=z_hat,
        phi_hat=phi_hat * scale,
        z_stderr=np.sqrt(np.maximum(second - z_hat**2, 0.0) / n_paths),
        phi_stderr=np.sqrt(np.maximum(second - phi_hat**2, 0.0) / n_paths) * scale,
        n_paths=n_paths,
        n_steps=n_steps,
        deposit_quantum=0.5 * scale / n_paths,
    )


class TestStepFourState:
    def test_right_mover_splits_forward(self):
        """A state-1 walker moves right, then half advances to state 2."""
        f = step_four_state(unit_state_field(64, 1, 10))
        expected = np.zeros((4, 64))
        expected[0, 11] = 0.5
        expected[1, 11] = 0.5
        assert np.array_equal(f, expected)

    def test_left_mover_splits_backward(self):
        f = step_four_state(unit_state_field(64, 2, 10))
        expected = np.zeros((4, 64))
        expected[1, 9] = 0.5
        expected[2, 9] = 0.5
        assert np.array_equal(f, expected)

    def test_cycle_wraps_from_state_four(self):
        f = step_four_state(unit_state_field(64, 4, 10))
        expected = np.zeros((4, 64))
        expected[3, 9] = 0.5
        expected[0, 9] = 0.5
        assert np.array_equal(f, expected)

    def test_uniform_field_is_stationary(self):
        f = np.full((4, 64), 0.25)
        stepped = step_four_state(f)
        assert np.array_equal(stepped, f)

    def test_mass_conserved_over_long_run(self):
        f = random_four_state(32, seed=3)
        m0 = f.sum()
        f = evolve(f, 10_000)
        assert abs(f.sum() - m0) <= 1e-12 * m0

    def test_periodic_boundary(self):
        f = step_four_state(unit_state_field(8, 1, 7))
        assert f[0, 0] == 0.5 and f[1, 0] == 0.5


class TestShiftOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1088])
    def test_maps_match_roll_forms(self, n):
        rng = np.random.default_rng(n)
        p, z, phi = rng.standard_normal((4, n)), rng.standard_normal((2, n)), rng.standard_normal((2, n))
        for _ in range(5):
            assert np.array_equal(step_four_state(p), roll_step_four_state(p))
            assert np.array_equal(z_step(z), roll_z_step(z))
            for alpha in (1.0, SQRT2):
                assert np.array_equal(phi_step(phi, alpha), roll_phi_step(phi, alpha))
            p, z, phi = roll_step_four_state(p), rng.standard_normal((2, n)), roll_phi_step(phi, SQRT2)


class TestDecomposition:
    def test_pure_state_one(self):
        z, phi = decompose(unit_state_field(8, 1, 3))
        assert z[0, 3] == 0.5 and phi[0, 3] == 0.5
        assert z[1, 3] == 0.0 and phi[1, 3] == 0.0

    def test_state_three_flips_phi_sign(self):
        z, phi = decompose(unit_state_field(8, 3, 3))
        assert z[0, 3] == 0.5 and phi[0, 3] == -0.5

    def test_roundtrip(self):
        f = random_four_state(64, seed=11, nonnegative=False)
        back = compose(*decompose(f))
        np.testing.assert_allclose(back, f, rtol=0, atol=1e-15)

    def test_signed_mass_bounded_by_total(self):
        """|phi| <= z pointwise for any probabilistic field, at any time."""
        f = evolve(random_four_state(48, seed=5), 50)
        z, phi = decompose(f)
        assert np.all(np.abs(phi) <= z + 1e-15)


class TestZStep:
    def test_matches_full_walk(self):
        """z of the stepped field equals z_step of the z part alone."""
        f = random_four_state(64, seed=7)
        expect, _ = decompose(step_four_state(f))
        got = z_step(decompose(f)[0])
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)

    def test_both_rows_identical_update(self):
        z = np.random.default_rng(1).random((2, 64))
        out = z_step(z)
        expect = 0.5 * (np.roll(z[0], 1) + np.roll(z[1], -1))
        np.testing.assert_allclose(out[0], expect, rtol=0, atol=0)
        np.testing.assert_allclose(out[1], expect, rtol=0, atol=0)

    def test_conserves_mass(self):
        z = np.random.default_rng(2).random((2, 64))
        assert abs(z_step(z).sum() - z.sum()) < 1e-12


class TestPhiStep:
    def test_agrees_with_full_walk_at_alpha_one(self):
        """The (z, phi) change of variables block-diagonalizes the step."""
        for seed in range(5):
            f = random_four_state(64, seed=seed, nonnegative=False)
            _, expect = decompose(step_four_state(f))
            got = phi_step(decompose(f)[1], 1.0)
            assert np.max(np.abs(got - expect)) <= 1e-12

    def test_point_source_one_step(self):
        # phi2 = 1 at site m: the next step pushes -alpha/2 into phi1 and
        # +alpha/2 into phi2, one site to the left
        phi = np.zeros((2, 16))
        phi[1, 8] = 1.0
        out = phi_step(phi, SQRT2)
        assert abs(out[0, 7] + SQRT2 / 2.0) < 1e-15
        assert abs(out[1, 7] - SQRT2 / 2.0) < 1e-15
        assert np.count_nonzero(out) == 2

    def test_alpha_is_pure_rescaling(self):
        phi = np.random.default_rng(3).random((2, 64)) - 0.5
        np.testing.assert_allclose(
            phi_step(phi, 1.7), 1.7 * phi_step(phi, 1.0), rtol=1e-15, atol=0
        )


class TestEvolve:
    def test_zero_steps_identity(self):
        f = random_four_state(64, seed=4)
        out = evolve(f, 0)
        assert np.array_equal(out, f)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            evolve(random_four_state(64, 0), -1)

    def test_block_maps_consistent_with_four_state(self):
        f = random_four_state(64, seed=9)
        z_p, phi_p = decompose(evolve(f, 8))
        z, phi = decompose(f)
        for _ in range(8):
            z, phi = z_step(z), phi_step(phi, 1.0)
        np.testing.assert_allclose(z, z_p, rtol=0, atol=1e-13)
        np.testing.assert_allclose(phi, phi_p, rtol=0, atol=1e-13)

    def test_uniform_phi_returns_after_eight_steps(self):
        """At alpha = sqrt(2) the spatially uniform phi mode has period 8."""
        phi = np.zeros((2, 64))
        phi[0] = 0.3
        phi[1] = -0.7
        out = phi
        for _ in range(8):
            out = phi_step(out, SQRT2)
        assert np.max(np.abs(out - phi)) <= 1e-14

    def test_segments_compose_exactly(self):
        f = random_four_state(64, 0)
        assert np.array_equal(evolve(evolve(f, 3), 4), evolve(f, 7))


class TestEvolveSnapshots:
    STEPS = [0, 3, 8, 11]

    @pytest.mark.parametrize("alpha", [1.0, SQRT2])
    def test_rows_are_the_evolved_field(self, alpha):
        # p and z are the bare walk at every alpha; phi carries alpha**s.
        start = random_four_state(64, seed=6)
        rows = evolve_snapshots(start, alpha, self.STEPS)
        assert rows.shape == (4, 8, 64)
        for k, s in enumerate(self.STEPS):
            p = evolve(start, s)
            z, phi = decompose(p)
            assert np.array_equal(rows[k], np.concatenate([p, z, phi * alpha**s]))

    def test_point_source_phi_follows_the_block_map(self):
        # The phi rows of the alpha-normalised walk track phi_step's
        # per-step normalisation to rounding.
        phi = point_source_phi(64, 32)
        rows = evolve_snapshots(compose(np.zeros_like(phi), phi), SQRT2, self.STEPS)
        done = 0
        for k, s in enumerate(self.STEPS):
            for _ in range(s - done):
                phi = phi_step(phi, SQRT2)
            done = s
            np.testing.assert_allclose(rows[k, 6:], phi, rtol=0, atol=1e-15)
            assert not rows[k, 4:6].any()

    @pytest.mark.parametrize("state", [1, 2, 3, 4])
    def test_unit_state_walk_exact_through_58_steps(self, state):
        # Against the walk in integers (units of 2**-s): every cell is exact
        # through step 58 and some cell is rounded at step 59, the limit
        # lattice-evolve puts on unit-state runs at alpha != 1.
        p = unit_state_field(160, state, 80)
        k = (p == 1.0).astype(np.int64)
        for s in range(1, 60):
            p = step_four_state(p)
            r = np.stack([np.roll(k[0], 1), np.roll(k[1], -1), np.roll(k[2], 1), np.roll(k[3], -1)])
            k = np.stack([r[0] + r[3], r[1] + r[0], r[2] + r[1], r[3] + r[2]])
            exact = all(float(a) * 2.0**s == int(b) for a, b in zip(p.ravel(), k.ravel()))
            assert exact == (s <= 58), s

    def test_point_source_phi_normal_through_1022_steps(self):
        # Every nonzero cell of the bare walk stays a normal float through
        # step 1022, so phi * alpha**s keeps phi_step's precision there;
        # at step 1023 the cone edge turns subnormal.
        phi = point_source_phi(2 * 1022 + 64, 1022 + 32)
        rows = evolve_snapshots(compose(np.zeros_like(phi), phi), SQRT2, [1022])
        for _ in range(1022):
            phi = phi_step(phi, SQRT2)
        assert np.array_equal(rows[0, 6:] != 0, phi != 0)
        assert np.max(np.abs(rows[0, 6:] - phi)) <= 1e-14 * np.max(np.abs(phi))
        tiny = np.finfo(float).tiny
        assert np.abs(rows[0, :4][rows[0, :4] != 0]).min() >= tiny
        p = step_four_state(rows[0, :4])
        assert np.abs(p[p != 0]).min() < tiny


class TestMirror:
    def test_fourth_power_is_identity(self):
        f = random_four_state(16, seed=13)
        g = f
        for _ in range(4):
            g = mirror_field(g)
        assert np.array_equal(g, f)

    def test_square_is_spatial_inversion_with_half_cycle(self):
        f = random_four_state(16, seed=14)
        g = mirror_field(mirror_field(f))
        for k in range(4):
            assert np.array_equal(g[k], f[(k + 2) % 4])

    def test_commutes_with_step_exactly(self):
        """Mirror then step equals step then mirror, bit for bit."""
        for seed in range(4):
            f = random_four_state(32, seed=seed)
            a = step_four_state(mirror_field(f))
            b = mirror_field(step_four_state(f))
            assert np.array_equal(a, b)

    def test_preserves_mass(self):
        f = evolve(random_four_state(16, seed=15), 3)
        assert mirror_field(f).sum() == f.sum()


class TestVariance:
    def test_balanced_point_source_diffuses_exactly(self):
        """From the symmetric z source, var = n_steps * delta^2 exactly."""
        delta = 0.1
        z = point_source_z(512, 256)
        for s in (1, 10, 100):
            zz = z.copy()
            for _ in range(s):
                zz = z_step(zz)
            var = field_variance(zz[0] + zz[1], delta)
            assert abs(var - s * delta**2) < 1e-12 * max(s * delta**2, 1.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            field_variance(np.zeros(8), 0.1)


class TestPointSources:
    def test_phi_point_values(self):
        # A phi block; composed with a zero z block it is the four-state
        # field lattice-evolve starts from, and decomposes back exactly.
        phi = point_source_phi(16, 5)
        assert phi.shape == (2, 16) and phi[1, 5] == SQRT2 and np.count_nonzero(phi) == 1
        p = compose(np.zeros_like(phi), phi)
        assert p[1, 5] == SQRT2 and p[3, 5] == -SQRT2 and np.count_nonzero(p) == 2
        z, back = decompose(p)
        assert np.array_equal(back, phi) and not z.any()

    def test_z_point_is_one_step_eigenvector(self):
        z = point_source_z(16, 8)
        assert z.shape == (2, 16) and z.sum() == 1.0 and np.count_nonzero(z) == 2
        assert np.array_equal(decompose(compose(z, np.zeros_like(z)))[0], z)
        out = z_step(z)
        # mass splits evenly into the two neighbours, rows staying equal
        assert out[0, 7] == 0.25 and out[0, 9] == 0.25
        assert np.array_equal(out[0], out[1])

    def test_unit_state_field_validates(self):
        with pytest.raises(ValueError):
            unit_state_field(8, 0, 0)
        with pytest.raises(ValueError):
            unit_state_field(8, 5, 0)


class TestMonteCarlo:
    def test_zero_steps_exact(self):
        est = monte_carlo_estimate(16, 1.0, 0, 1000, seed=1, initial_state=1, initial_site=8)
        assert est.z_hat[0, 8] == 0.5 and est.phi_hat[0, 8] == 0.5
        assert est.z_stderr[0, 8] == 0.0
        assert est.deposit_quantum == 0.5 / 1000

    def test_one_step_splits_evenly(self):
        est = monte_carlo_estimate(16, 1.0, 1, 40_000, seed=2, initial_state=1, initial_site=8)
        z, phi = decompose(step_four_state(unit_state_field(16, 1, 8)))
        tol_z = 4.0 * np.maximum(est.z_stderr, 0.5 / est.n_paths)
        tol_phi = 4.0 * np.maximum(est.phi_stderr, est.deposit_quantum)
        assert np.all(np.abs(est.z_hat - z) <= tol_z)
        assert np.all(np.abs(est.phi_hat - phi) <= tol_phi)
        # the moved site really carries z1 = z2 = 1/4
        assert abs(z[0, 9] - 0.25) < 1e-15

    def test_sixteen_steps_all_sites_within_four_se(self):
        """Real-signal consistency check at alpha = 1."""
        est = monte_carlo_estimate(64, 1.0, 16, 50_000, seed=3, initial_state=1, initial_site=32)
        z, phi = decompose(evolve(unit_state_field(64, 1, 32), 16))
        tol_z = 4.0 * np.maximum(est.z_stderr, 0.5 / est.n_paths)
        tol_phi = 4.0 * np.maximum(est.phi_stderr, est.deposit_quantum)
        assert np.all(np.abs(est.z_hat - z) <= tol_z)
        assert np.all(np.abs(est.phi_hat - phi) <= tol_phi)

    def test_deposit_standard_errors_closed_form(self):
        # one step from state 1: z1 = z2 = phi1 = phi2 = 1/4 at the moved
        # site, hit probability 1/2 per row, so SE = 1/4 / sqrt(n_paths)
        z, phi = decompose(step_four_state(unit_state_field(16, 1, 8)))
        z_se, phi_se = deposit_standard_errors(z, phi, SQRT2, 1, 10_000)
        assert abs(z_se[0, 9] - 0.25 / 100.0) < 1e-15
        assert abs(phi_se[0, 9] - SQRT2 * 0.25 / 100.0) < 1e-15
        # empty sites have zero sampling variance
        assert z_se[0, 8] == 0.0 and phi_se[1, 5] == 0.0

    def test_deposit_standard_errors_match_estimated(self):
        z, phi = decompose(evolve(unit_state_field(64, 1, 32), 16))
        est = monte_carlo_estimate(64, 1.0, 16, 200_000, seed=21, initial_state=1, initial_site=32)
        z_se, phi_se = deposit_standard_errors(z, phi, 1.0, 16, est.n_paths)
        bulk = z > 1e-3
        np.testing.assert_allclose(est.z_stderr[bulk], z_se[bulk], rtol=0.05, atol=0)
        np.testing.assert_allclose(est.phi_stderr[bulk], phi_se[bulk], rtol=0.05, atol=0)

    @pytest.mark.parametrize("alpha", [1.0, SQRT2])
    def test_band_deviations_match_inline_band(self, alpha):
        # The band written out as acceptance 07 computes it.
        p = evolve(unit_state_field(64, 1, 32), 16)
        z, phi = decompose(p)
        est = monte_carlo_estimate(64, alpha, 16, 2000, seed=8, initial_state=1, initial_site=32)
        z_se, phi_se = deposit_standard_errors(z, phi, alpha, 16, est.n_paths)
        z_band = 4.0 * np.maximum.reduce([est.z_stderr, z_se, np.full_like(z_se, 0.5 / est.n_paths)])
        phi_band = 4.0 * np.maximum.reduce([est.phi_stderr, phi_se, np.full_like(phi_se, est.deposit_quantum)])
        z_dev, phi_dev = band_deviations(est, p, alpha)
        assert np.array_equal(z_dev, np.abs(est.z_hat - z) / z_band)
        assert np.array_equal(phi_dev, np.abs(est.phi_hat - phi * alpha**16) / phi_band)
        assert z_dev.max() <= 1.0 and phi_dev.max() <= 1.0

    def test_alpha_scales_estimate_post_hoc(self):
        a = monte_carlo_estimate(32, 1.0, 8, 500, seed=4, initial_state=1, initial_site=16)
        b = monte_carlo_estimate(32, SQRT2, 8, 500, seed=4, initial_state=1, initial_site=16)
        np.testing.assert_allclose(b.phi_hat, SQRT2**8 * a.phi_hat, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b.z_hat, a.z_hat, rtol=0, atol=0)
        assert abs(b.deposit_quantum - SQRT2**8 * a.deposit_quantum) < 1e-15

    def test_reproducible_and_seed_sensitive(self):
        kw = dict(n=32, alpha=1.0, n_steps=12, n_paths=2000, initial_state=2, initial_site=16)
        a = monte_carlo_estimate(seed=7, **kw)
        b = monte_carlo_estimate(seed=7, **kw)
        c = monte_carlo_estimate(seed=8, **kw)
        assert np.array_equal(a.z_hat, b.z_hat)
        assert np.array_equal(a.phi_hat, b.phi_hat)
        assert not np.array_equal(a.phi_hat, c.phi_hat)

    def test_total_z_mass_is_half(self):
        # z averages pairs of the four states, so a unit walker carries
        # direction-summed mass 1/2; every path deposits exactly that
        est = monte_carlo_estimate(32, 1.0, 9, 3000, seed=5, initial_state=3, initial_site=16)
        assert abs(est.z_hat.sum() - 0.5) < 1e-12

    @pytest.mark.parametrize("n_steps", [9, 520])
    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
    def test_matches_per_path_reference(self, n_paths, n_steps):
        # 520 steps cross two 255-step blocks and wrap the 16-site chain.
        args = (16, SQRT2, n_steps, n_paths, 13, 2, 15)
        got, expect = monte_carlo_estimate(*args), reference_sampler(*args)
        for f in fields(McEstimate):
            assert np.array_equal(getattr(got, f.name), getattr(expect, f.name)), f.name

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_estimate(8, 1.0, 1, 0, seed=0, initial_state=1, initial_site=0)
        with pytest.raises(ValueError):
            monte_carlo_estimate(8, 1.0, -1, 10, seed=0, initial_state=1, initial_site=0)
        with pytest.raises(ValueError):
            monte_carlo_estimate(8, 1.0, 1, 10, seed=0, initial_state=0, initial_site=0)
