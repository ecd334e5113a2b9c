"""Parity-tracking four-state lattice walk and its block decomposition.

The walk's one field is p, a (4, N) array whose row k holds the density
of state k+1 on a periodic chain: states 1,3 move right, states 2,4 move
left, and states advance cyclically 1->2->3->4->1 with probability 1/2
per step.  States 1,2 carry parity +1 and states 3,4 parity -1.  The
change of variables z = half-sums, phi = half-differences exposes a
diffusive block (z) and a signed, parity block (phi); the per-step
normalization alpha acts on phi alone, so the bare walk's phi after s
steps is scaled by alpha**s.  A signed-path Monte Carlo sampler
provides an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SQRT2",
    "LatticeParams",
    "McEstimate",
    "unit_state_field",
    "point_source_phi",
    "point_source_z",
    "step_four_state",
    "decompose",
    "compose",
    "z_step",
    "phi_step",
    "evolve",
    "evolve_snapshots",
    "monte_carlo_estimate",
    "band_deviations",
    "field_variance",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LatticeParams:
    """Lattice geometry and per-step normalization.

    delta is the site spacing, epsilon the time step, so the diffusion
    constant D = delta^2 / (2 epsilon) is fixed by the grid.  alpha scales
    the phi block each step; alpha = 1 is the bare walk, alpha = sqrt(2)
    the norm-preserving choice.  The chain is periodic with site_count
    sites; callers must keep the walk's light cone from wrapping (the
    periodic chain is then indistinguishable from the infinite one).
    """

    delta: float
    epsilon: float
    site_count: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (isinstance(self.site_count, int) and self.site_count >= 2):
            raise ValueError(f"site_count must be an integer >= 2, got {self.site_count}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass
class McEstimate:
    """Monte Carlo field estimates with per-site standard errors.

    Estimates are empirical means of bounded per-path deposits (one
    deposit of magnitude 1/2 per walker), with the phi block scaled by
    alpha**n_steps afterwards; deposit_quantum is the smallest nonzero
    estimate magnitude, used as a standard-error floor wherever a site
    received no hits (the rule-of-three scale of a zero count).
    """

    z_hat: np.ndarray
    phi_hat: np.ndarray
    z_stderr: np.ndarray
    phi_stderr: np.ndarray
    n_paths: int
    n_steps: int
    deposit_quantum: float


def unit_state_field(params: LatticeParams, state: int, site: int) -> np.ndarray:
    """Unit mass in a single state at a single site."""
    if state not in (1, 2, 3, 4):
        raise ValueError(f"state must be 1..4, got {state}")
    p = np.zeros((4, params.site_count))
    p[state - 1, site % params.site_count] = 1.0
    return p


def point_source_phi(params: LatticeParams, site: int) -> np.ndarray:
    """Point source in the phi sector: (phi1, phi2) = (0, sqrt(2)) at one site.

    The amplitude sqrt(2) makes both assembled spin components start at
    1/sqrt(2), the initial condition whose continuum limit is the
    free-particle kernel with unit total mass.
    """
    n = params.site_count
    z = np.zeros((2, n))
    phi = np.zeros((2, n))
    phi[1, site % n] = SQRT2
    return compose(z, phi)


def point_source_z(params: LatticeParams, site: int) -> np.ndarray:
    """Point source in the z sector with unit direction-summed mass.

    (z1, z2) = (1/2, 1/2) at one site is an eigenvector of the one-step z
    map, so the diffusive comparison starts with no directional transient.
    """
    n = params.site_count
    z = np.zeros((2, n))
    phi = np.zeros((2, n))
    z[:, site % n] = 0.5
    return compose(z, phi)


def step_four_state(p: np.ndarray, params: LatticeParams) -> np.ndarray:
    """One step of the four-state walk (periodic chain).

    Each state's density moves one site in its direction; half of it then
    advances to the next state in the cycle.  Total mass is conserved
    exactly up to rounding.
    """
    p1, p2, p3, p4 = p
    if p1.shape != (params.site_count,):
        raise ValueError(
            f"field has {p1.shape[0]} sites, params expect {params.site_count}"
        )
    r1 = np.roll(p1, 1)   # p1(m-1)
    r2 = np.roll(p2, -1)  # p2(m+1)
    r3 = np.roll(p3, 1)
    r4 = np.roll(p4, -1)
    new = np.empty_like(p)
    new[0] = 0.5 * r1 + 0.5 * r4
    new[1] = 0.5 * r2 + 0.5 * r1
    new[2] = 0.5 * r3 + 0.5 * r2
    new[3] = 0.5 * r4 + 0.5 * r3
    return new


def decompose(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Change of variables p -> (z, phi), invertible via compose().

    z = half-sums, phi = half-differences, each of shape (2, N).  Row 0
    collects the right-moving states (1, 3), row 1 the left-moving states
    (2, 4); phi records parity partitioned by direction.
    """
    p1, p2, p3, p4 = p
    z = np.stack([0.5 * (p1 + p3), 0.5 * (p2 + p4)])
    phi = np.stack([0.5 * (p1 - p3), 0.5 * (p2 - p4)])
    return z, phi


def compose(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Inverse change of variables (z, phi) -> p."""
    z1, z2 = z
    f1, f2 = phi
    return np.stack([z1 + f1, z2 + f2, z1 - f1, z2 - f2])


def z_step(z: np.ndarray, params: LatticeParams) -> np.ndarray:
    """One step of the diffusive block: both rows become the same average.

    z1'(m) = z2'(m) = (z1(m-1) + z2(m+1)) / 2, so after one step the two
    rows coincide and their sum performs a simple symmetric walk.
    """
    avg = 0.5 * (np.roll(z[0], 1) + np.roll(z[1], -1))
    return np.stack([avg, avg.copy()])


def phi_step(phi: np.ndarray, params: LatticeParams) -> np.ndarray:
    """One step of the parity block with the per-step normalization alpha.

    phi1'(m) = (alpha/2) (phi1(m-1) - phi2(m+1))
    phi2'(m) = (alpha/2) (phi1(m-1) + phi2(m+1))
    """
    a = 0.5 * params.alpha
    f1 = np.roll(phi[0], 1)
    f2 = np.roll(phi[1], -1)
    return np.stack([a * (f1 - f2), a * (f1 + f2)])


def evolve(p: np.ndarray, params: LatticeParams, n_steps: int) -> np.ndarray:
    """Apply n_steps of step_four_state to the densities p."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    for _ in range(n_steps):
        p = step_four_state(p, params)
    return p


def evolve_snapshots(p: np.ndarray, params: LatticeParams, steps, stroboscopic: bool = False) -> np.ndarray:
    """The walk at each of the increasing step counts in steps, by the step loop.

    Returns rows (len(steps), 8, N) of p1..p4, z1, z2, phi1, phi2: p and z
    of the bare walk, phi scaled by alpha**s as in monte_carlo_estimate.
    Stroboscopic mode rejects, by name, the first step count that is not a
    multiple of 8 (the state cycle's return scale) rather than rounding it.
    """
    bad = [s for s in steps if s % 8] if stroboscopic else []
    if bad:
        raise ValueError(f"stroboscopic snapshots require step counts divisible by 8, got {bad[0]}")
    rows = np.empty((len(steps), 8, params.site_count))
    done = 0
    for k, s in enumerate(steps):
        p = evolve(p, params, s - done)
        done = s
        z, phi = decompose(p)
        rows[k, :4], rows[k, 4:6], rows[k, 6:] = p, z, phi * params.alpha**s
    return rows


# States 1..4 mapped to internal 0..3: direction +1 for even rows (states
# 1, 3), -1 for odd rows; parity +1 for rows 0, 1 (states 1, 2).
_DIRECTIONS = np.array([1, -1, 1, -1], dtype=np.int64)


def monte_carlo_estimate(
    params: LatticeParams,
    n_steps: int,
    n_paths: int,
    seed: int,
    initial_state: int,
    initial_site: int,
) -> McEstimate:
    """Independent sampling oracle for the deterministic evolution.

    Each of n_paths walkers starts at (initial_state, initial_site); per
    step it moves one site in its current direction, then advances the
    state cycle with probability 1/2.  At the end each walker deposits
    1/2 into the z bucket of its direction and (parity sign)/2 into the
    phi bucket of its direction, at its final site; bucket sums divided by
    n_paths estimate decompose() of the evolved unit-state field, and the
    phi block is scaled by alpha**n_steps afterwards (exact, since the phi
    map is linear in alpha).

    Reproducibility contract: uniforms come from a counter-based generator
    keyed by seed, with the draw for (step, path) at stream position
    step * n_paths + path; results are a pure function of (seed, n_paths,
    n_steps) and independent of how the work is scheduled.
    """
    if initial_state not in (1, 2, 3, 4):
        raise ValueError(f"initial_state must be 1..4, got {initial_state}")
    if not (isinstance(n_paths, int) and n_paths >= 1):
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (isinstance(n_steps, int) and n_steps >= 0):
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")

    n = params.site_count
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    pos = np.full(n_paths, initial_site % n, dtype=np.int64)
    state = np.full(n_paths, initial_state - 1, dtype=np.int64)
    for _ in range(n_steps):
        pos += _DIRECTIONS[state]
        state = (state + (gen.random(n_paths) < 0.5)) & 3
    pos %= n

    parity = np.where(state < 2, 1.0, -1.0)
    right = (state & 1) == 0

    z_hat = np.zeros((2, n))
    phi_hat = np.zeros((2, n))
    z_sqsum = np.zeros((2, n))
    for row, mask in ((0, right), (1, ~right)):
        counts = np.bincount(pos[mask], minlength=n).astype(float)
        signed = np.bincount(pos[mask], weights=parity[mask], minlength=n)
        z_hat[row] = 0.5 * counts / n_paths
        phi_hat[row] = 0.5 * signed / n_paths
        z_sqsum[row] = 0.25 * counts / n_paths

    # Per-site deposit variance: deposits are 0 or +/-1/2, so the second
    # moment is 0.25 * hit fraction for both blocks.
    z_var = np.maximum(z_sqsum - z_hat**2, 0.0)
    phi_var = np.maximum(z_sqsum - phi_hat**2, 0.0)
    z_stderr = np.sqrt(z_var / n_paths)
    phi_stderr = np.sqrt(phi_var / n_paths)

    scale = params.alpha**n_steps
    return McEstimate(
        z_hat=z_hat,
        phi_hat=phi_hat * scale,
        z_stderr=z_stderr,
        phi_stderr=phi_stderr * scale,
        n_paths=n_paths,
        n_steps=n_steps,
        deposit_quantum=0.5 * scale / n_paths,
    )


def deposit_standard_errors(
    z: np.ndarray,
    phi: np.ndarray,
    params: LatticeParams,
    n_steps: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-site standard errors of monte_carlo_estimate.

    Given the blocks z, phi = decompose(p) of the bare unit-state walk p
    the sampler targets (so phi must be unscaled), the per-path
    deposit at a site is 0 or +/-1/2 with hit probability 2 * z; its
    second moment is 0.25 * (2 * z) for both blocks, so the sampling
    variances are 0.5 * z - z**2 and 0.5 * z - phi**2.  Unlike the
    stderr fields of McEstimate these do not collapse when a low-count
    site fluctuates downward, which makes them the right denominator
    when checking the sampler against a known reference.  The phi block
    is scaled by alpha**n_steps to match the estimate.
    """
    hit_second_moment = 0.5 * z
    z_se = np.sqrt(np.maximum(hit_second_moment - z**2, 0.0) / n_paths)
    phi_var = np.maximum(hit_second_moment - phi**2, 0.0)
    phi_se = np.sqrt(phi_var / n_paths) * params.alpha**n_steps
    return z_se, phi_se


def band_deviations(est: McEstimate, p: np.ndarray, params: LatticeParams):
    """Per-site |estimate - walk| of the z and phi blocks in units of a 4-SE band.

    p is the bare unit-state walk at est.n_steps, as for
    deposit_standard_errors.  Each band's SE is the largest of the
    estimated SE, the exact SE and one deposit: the estimate alone
    collapses at tail sites whose counts fluctuate low.
    """
    z, phi = decompose(p)
    z_se, phi_se = deposit_standard_errors(z, phi, params, est.n_steps, est.n_paths)
    z_band = 4.0 * np.maximum.reduce([est.z_stderr, z_se, np.full_like(z_se, 0.5 / est.n_paths)])
    phi_band = 4.0 * np.maximum.reduce([est.phi_stderr, phi_se, np.full_like(phi_se, est.deposit_quantum)])
    phi = phi * params.alpha**est.n_steps
    return np.abs(est.z_hat - z) / z_band, np.abs(est.phi_hat - phi) / phi_band


def field_variance(weights: np.ndarray, params: LatticeParams) -> float:
    """Variance of the site distribution defined by nonnegative weights.

    Positions are site_index * delta; the caller is responsible for the
    no-wrap guard (moments are meaningless once the walk wraps the chain).
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    x = np.arange(w.size) * params.delta
    mean = float((w * x).sum() / total)
    return float((w * (x - mean) ** 2).sum() / total)
