"""Parity-tracking four-state lattice walk and its block decomposition.

The walk's one field is p, a (4, N) array whose row k holds the density
of state k+1 on a periodic chain of N sites: states 1,3 move right,
states 2,4 move left, and states advance cyclically 1->2->3->4->1 with
probability 1/2 per step.  States 1,2 carry parity +1 and states 3,4
parity -1.  The change of variables z = half-sums, phi = half-differences
exposes a diffusive block (z) and a signed, parity block (phi); the
per-step normalization alpha acts on phi alone, so the bare walk's phi
after s steps is scaled by alpha**s (alpha = sqrt(2) preserves the norm).
A signed-path Monte Carlo sampler provides an independent oracle.

Callers must keep the walk's light cone from wrapping the chain (the
periodic chain is then indistinguishable from the infinite one); an
s-step walk does not wrap a chain of chain_sites(s) sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SQRT2",
    "PAD",
    "McEstimate",
    "chain_sites",
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

# Sites added to the 2 s an s-step walk reaches; even, as
# spectral_limit.momentum_grid needs an even chain.
PAD = 64


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


def chain_sites(s: int) -> int:
    """Sites of the chain an s-step walk runs on by default: the 2 s its cone reaches plus PAD."""
    return 2 * s + PAD


def unit_state_field(n: int, state: int, site: int) -> np.ndarray:
    """Unit mass in a single state at a single site."""
    if state not in (1, 2, 3, 4):
        raise ValueError(f"state must be 1..4, got {state}")
    p = np.zeros((4, n))
    p[state - 1, site % n] = 1.0
    return p


def point_source_phi(n: int, site: int) -> np.ndarray:
    """Point source of the phi block, shape (2, N): (phi1, phi2) = (0, sqrt(2)) at one site.

    The amplitude sqrt(2) makes both assembled spin components start at
    1/sqrt(2), the initial condition whose continuum limit is the
    free-particle kernel with unit total mass.
    """
    phi = np.zeros((2, n))
    phi[1, site % n] = SQRT2
    return phi


def point_source_z(n: int, site: int) -> np.ndarray:
    """Point source of the z block, shape (2, N), with unit direction-summed mass.

    (z1, z2) = (1/2, 1/2) at one site is an eigenvector of the one-step z
    map, so the diffusive comparison starts with no directional transient.
    """
    z = np.zeros((2, n))
    z[:, site % n] = 0.5
    return z


def _move(a: np.ndarray) -> np.ndarray:
    """Even rows one site right, odd rows one site left (periodic chain)."""
    out = np.empty_like(a)
    out[::2, 1:], out[::2, :1] = a[::2, :-1], a[::2, -1:]
    out[1::2, :-1], out[1::2, -1:] = a[1::2, 1:], a[1::2, :1]
    return out


def step_four_state(p: np.ndarray) -> np.ndarray:
    """One step of the four-state walk (periodic chain).

    Each state's density moves one site in its direction; half of it then
    advances to the next state in the cycle.  Total mass is conserved
    exactly up to rounding.
    """
    h = _move(0.5 * p)
    return h + h[[3, 0, 1, 2]]


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


def z_step(z: np.ndarray) -> np.ndarray:
    """One step of the diffusive block: both rows become the same average.

    z1'(m) = z2'(m) = (z1(m-1) + z2(m+1)) / 2, so after one step the two
    rows coincide and their sum performs a simple symmetric walk.
    """
    f1, f2 = _move(z)
    avg = 0.5 * (f1 + f2)
    return np.stack([avg, avg.copy()])


def phi_step(phi: np.ndarray, alpha: float) -> np.ndarray:
    """One step of the parity block with the per-step normalization alpha.

    phi1'(m) = (alpha/2) (phi1(m-1) - phi2(m+1))
    phi2'(m) = (alpha/2) (phi1(m-1) + phi2(m+1))
    """
    a = 0.5 * alpha
    f1, f2 = _move(phi)
    return np.stack([a * (f1 - f2), a * (f1 + f2)])


def evolve(p: np.ndarray, n_steps: int) -> np.ndarray:
    """Apply n_steps of step_four_state to the densities p."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    for _ in range(n_steps):
        p = step_four_state(p)
    return p


def evolve_snapshots(p: np.ndarray, alpha: float, steps) -> np.ndarray:
    """The walk at each of the increasing step counts in steps, by the step loop.

    Returns rows (len(steps), 8, N) of p1..p4, z1, z2, phi1, phi2: p and z
    of the bare walk, phi scaled by alpha**s as in monte_carlo_estimate.
    """
    rows = np.empty((len(steps), 8, p.shape[1]))
    done = 0
    for k, s in enumerate(steps):
        p = evolve(p, s - done)
        done = s
        z, phi = decompose(p)
        rows[k, :4], rows[k, 4:6], rows[k, 6:] = p, z, phi * alpha**s
    return rows


def monte_carlo_estimate(
    n: int,
    alpha: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    initial_state: int,
    initial_site: int,
) -> McEstimate:
    """Independent sampling oracle for the deterministic evolution.

    Each of n_paths walkers starts at (initial_state, initial_site) of an
    n-site chain; per step it moves one site in its current direction,
    then advances the state cycle with probability 1/2.  At the end each
    walker deposits 1/2 into the z bucket of its direction and (parity
    sign)/2 into the phi bucket of its direction, at its final site;
    bucket sums divided by n_paths estimate decompose() of the evolved
    unit-state field, and the phi block is scaled by alpha**n_steps
    afterwards (exact, since the phi map is linear in alpha).

    Reproducibility contract: the coins are the bits of the raw 64-bit
    words of Philox(key=seed).random_raw.  The coin for (step, path) is bit
    path % 64 (least significant first) of word step * ceil(n_paths / 64)
    + path // 64, and the walker advances when it is 1.  Results are a pure
    function of (seed, n_paths, n_steps).
    """
    if initial_state not in (1, 2, 3, 4):
        raise ValueError(f"initial_state must be 1..4, got {initial_state}")
    if not (isinstance(n_paths, int) and n_paths >= 1):
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (isinstance(n_steps, int) and n_steps >= 0):
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")

    # States 1..4 are 0..3: even states move right, odd ones left, so the
    # final site follows from the count of left moves.  state counts the
    # advances mod 256, a multiple of 4, and each block of at most 255 steps
    # counts its left moves in uint8, so the loop runs on bytes.
    bits = np.random.Philox(key=np.uint64(seed))
    words = -(-n_paths // 64)
    state = np.full(n_paths, initial_state - 1, dtype=np.uint8)
    left = np.zeros(n_paths, dtype=np.int64)
    for start in range(0, n_steps, 255):
        block = np.zeros(n_paths, dtype=np.uint8)
        for _ in range(start, min(start + 255, n_steps)):
            block += state & 1
            coins = np.unpackbits(bits.random_raw(words).astype("<u8", copy=False).view(np.uint8), bitorder="little")
            state += coins[:n_paths]
        left += block
    state &= 3
    pos = (initial_site + n_steps - 2 * left) % n

    parity = np.where(state < 2, 1.0, -1.0)
    right = (state & 1) == 0

    z_hat = np.zeros((2, n))
    phi_hat = np.zeros((2, n))
    for row, mask in ((0, right), (1, ~right)):
        z_hat[row] = 0.5 * np.bincount(pos[mask], minlength=n).astype(float) / n_paths
        phi_hat[row] = 0.5 * np.bincount(pos[mask], weights=parity[mask], minlength=n) / n_paths

    # The exact standard errors, evaluated at the estimates.
    z_stderr, phi_stderr = deposit_standard_errors(z_hat, phi_hat, alpha, n_steps, n_paths)
    scale = alpha**n_steps
    return McEstimate(
        z_hat=z_hat,
        phi_hat=phi_hat * scale,
        z_stderr=z_stderr,
        phi_stderr=phi_stderr,
        n_paths=n_paths,
        n_steps=n_steps,
        deposit_quantum=0.5 * scale / n_paths,
    )


def deposit_standard_errors(
    z: np.ndarray,
    phi: np.ndarray,
    alpha: float,
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
    phi_se = np.sqrt(phi_var / n_paths) * alpha**n_steps
    return z_se, phi_se


def band_deviations(est: McEstimate, p: np.ndarray, alpha: float):
    """Per-site |estimate - walk| of the z and phi blocks in units of a 4-SE band.

    p is the bare unit-state walk at est.n_steps, as for
    deposit_standard_errors.  Each band's SE is the largest of the
    estimated SE, the exact SE and one deposit: the estimate alone
    collapses at tail sites whose counts fluctuate low.
    """
    z, phi = decompose(p)
    z_se, phi_se = deposit_standard_errors(z, phi, alpha, est.n_steps, est.n_paths)
    z_band = 4.0 * np.maximum.reduce([est.z_stderr, z_se, np.full_like(z_se, 0.5 / est.n_paths)])
    phi_band = 4.0 * np.maximum.reduce([est.phi_stderr, phi_se, np.full_like(phi_se, est.deposit_quantum)])
    phi = phi * alpha**est.n_steps
    return np.abs(est.z_hat - z) / z_band, np.abs(est.phi_hat - phi) / phi_band


def field_variance(weights: np.ndarray, delta: float) -> float:
    """Variance of the site distribution defined by nonnegative weights.

    Positions are site_index * delta; the caller is responsible for the
    no-wrap guard (moments are meaningless once the walk wraps the chain).
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    x = np.arange(w.size) * delta
    mean = float((w * x).sum() / total)
    return float((w * (x - mean) ** 2).sum() / total)
