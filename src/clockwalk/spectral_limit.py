"""Spectral representation of the parity block and its continuum limits.

Real Fourier transform of a z or phi pair, the one-step transfer matrix
and its exact eigenvalues, closed-form matrix powers, the spectral
evolution engine of the z and phi blocks, the continuum rotation
propagator, assembly of the two spin components, and the halving-delta
level studies that show the walk's diffusion and Schrodinger limits.
"""

from __future__ import annotations

import math
import numpy as np

from .lattice_walk import SQRT2, chain_sites, phi_step, point_source_phi, point_source_z, z_step
from .reference_solutions import diffusion_green, feynman_free, fit_convergence_order

__all__ = [
    "PSI_DENSITY_CALIBRATION",
    "momentum_grid",
    "to_spectral",
    "from_spectral",
    "transfer_matrices",
    "transfer_diagnostics",
    "eigenvalue_plus",
    "eigenvalue_leading_order",
    "expansion_residuals",
    "continuum_propagator",
    "eigenphase",
    "phi_power",
    "transfer_power",
    "evolve_spectral",
    "assemble_psi",
    "validate_level_sequence",
    "schrodinger_level",
    "schrodinger_levels",
    "diffusion_levels",
    "engine_step_loop_deviation",
]

# Frozen lattice-to-continuum calibration for the assembled psi+ density.
# On the populated sublattice (every other site) the cell measure is
# 2*delta, and the p = 0 mode fixes the remaining constant once: the
# lattice sum of psi+ equals 1/sqrt(2) for the unit point source while the
# kernel integrates to 1, so density = psi+ * sqrt(2) / (2*delta).
PSI_DENSITY_CALIBRATION = SQRT2


def momentum_grid(n: int, delta: float) -> np.ndarray:
    """Momentum values p_j = 2 pi j / (N delta) for j in [-N/2, N/2).

    Evenly spaced and containing p = 0.  Requires even N so the grid is
    symmetric apart from the lone Nyquist point, and delta > 0 with the
    largest |p|, pi / delta at j = -N/2, finite.
    """
    if n % 2 != 0:
        raise ValueError(f"momentum grid requires an even site count, got {n}")
    if n and not (delta > 0.0 and 2.0 * math.pi * (n // 2) / (n * delta) < math.inf):
        raise ValueError(f"momentum grid requires delta > 0 with pi / delta finite, got delta = {delta}")
    j = np.arange(-(n // 2), n // 2)
    return 2.0 * math.pi * j / (n * delta)


def _pair_field(field) -> np.ndarray:
    """field as a float array, which must have shape (2, N)."""
    field = np.asarray(field, dtype=float)
    n = field.shape[-1]
    if field.shape != (2, n):
        raise ValueError(f"field must have shape (2, N), got {field.shape}")
    return field


def to_spectral(field: np.ndarray) -> np.ndarray:
    """Real transform of a real (2, N) field: values[k, j] = sum_m field[k, m] e^{-i u_j m}.

    u_j = 2 pi j / N = p_j delta for j = 0 .. N // 2, shape (2, N // 2 + 1).
    The field is real, so the momenta -p_j carry the complex conjugates and
    the half spectrum loses nothing; from_spectral inverts it to rounding.
    """
    field = _pair_field(field)
    n = field.shape[1]
    # One row at a time: a transform along axis 1 of both rows allocates a
    # work buffer for several rows at once.
    values = np.empty((2, n // 2 + 1), dtype=complex)
    for k in range(2):
        values[k] = np.fft.rfft(field[k])
    return values


def from_spectral(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of to_spectral: the real (2, n) field, one row at a time."""
    field = np.empty((2, n))
    for k in range(2):
        field[k] = np.fft.irfft(values[k], n)
    return field


def _step(f, u, block: str, alpha: float, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Both rows of scale times one step of the block's matrix on the spectral pair f at momenta u (an array).

    The one home of the step matrices.  A step reads row 0 from the left
    neighbour and row 1 from the right, g1 = e^{-iu} f[0], g2 = e^{iu} f[1].
    phi: T = (alpha/2) [[e^{-iu}, -e^{iu}], [e^{-iu}, e^{iu}]] gives
    (alpha/2) (g1 - g2, g1 + g2).  z: (1/2) [[e^{-iu}, e^{iu}], [e^{-iu}, e^{iu}]]
    gives (g1 + g2) / 2 in both rows, added before it is scaled.
    """
    shift = np.exp(-1j * u)
    g1 = f[0] * shift
    g2 = f[1] * np.conjugate(shift, out=shift)
    del shift
    if block == "z":
        g1 += g2
        g1 *= 0.5 * scale
        return g1, g1
    scale = scale * (0.5 * alpha)
    g1 *= scale
    g2 *= scale
    row1 = g1 + g2
    g1 -= g2
    return g1, row1


def transfer_matrices(p, delta: float, alpha: float) -> np.ndarray:
    """One-step phi matrices at u = p delta, shape p.shape + (2, 2): column j is _step of basis pair e_j."""
    u = np.asarray(p, dtype=float) * delta
    basis = np.eye(2).reshape((2,) + (1,) * u.ndim + (2,))
    return np.stack(_step(basis, u[..., None], "phi", alpha), axis=-2)


def eigenvalue_plus(u, alpha: float) -> np.ndarray:
    """Exact eigenvalue lambda+ = (alpha/2) (cos u + i sqrt(1 + sin^2 u)) at u = p delta.

    Elementwise over u; lambda- is its complex conjugate.  Both have
    modulus alpha/sqrt(2) for every momentum: the parity block rotates
    (alpha = sqrt(2)) or uniformly decays (alpha = 1), it never disperses
    in modulus.
    """
    u = np.asarray(u, dtype=float)
    a = 0.5 * alpha
    lam = np.empty(u.shape, dtype=complex)
    lam.real = a * np.cos(u)
    lam.imag = a * np.sqrt(1.0 + np.sin(u) ** 2)
    return lam


def transfer_diagnostics(p, delta: float, alpha: float):
    """Per momentum of p: the unitarity residual, |lambda+/-| and det T.

    The residual is max |T^dagger T - (alpha^2/2) I| over the entries; the
    eigenvalues are conjugate, so one modulus serves both.  Exactly, the
    residual is 0, the modulus alpha/sqrt(2) and det T = alpha^2/2.
    """
    m = transfer_matrices(p, delta, alpha)
    resid = np.abs(np.conj(np.swapaxes(m, -2, -1)) @ m - 0.5 * alpha * alpha * np.eye(2)).max(axis=(-2, -1))
    lam = eigenvalue_plus(np.asarray(p, dtype=float) * delta, alpha)
    return resid, np.hypot(lam.real, lam.imag), np.linalg.det(m)


def eigenvalue_leading_order(p: float, delta: float, alpha: float) -> complex:
    """Small-u expansion (alpha/sqrt(2)) e^{i pi/4} (1 + i p^2 delta^2 / 2).

    The residual against the exact eigenvalue scales as delta^4 at fixed p;
    spectral-check fits that order.
    """
    u = p * delta
    return (alpha / SQRT2) * np.exp(1j * math.pi / 4.0) * (1.0 + 0.5j * u * u)


def expansion_residuals(p: float, deltas, alpha: float) -> list[float]:
    """|lambda+ - eigenvalue_leading_order| at momentum p, one per delta of deltas."""
    residuals = []
    for d in deltas:
        lam = complex(eigenvalue_plus(p * d, alpha))
        residuals.append(abs(lam - eigenvalue_leading_order(p, d, alpha)))
    return residuals


def continuum_propagator(p, D: float, t: float) -> np.ndarray:
    """Continuum-limit propagator of the phi pair: rotation by p^2 D t.

    Elementwise over p; the result has shape p.shape + (2, 2).
    """
    if not (t >= 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    th = np.asarray(p, dtype=float) ** 2 * (D * t)
    c, s = np.cos(th), np.sin(th)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def eigenphase(u):
    """Phase theta of the phi eigenvalues at u = p delta, elementwise.

    The eigenvalues have modulus rho = alpha/sqrt(2), so they are
    rho e^{+/- i theta}; theta = arg lambda+ does not depend on alpha and
    lies in [pi/4, 3 pi/4].
    """
    return np.angle(eigenvalue_plus(u, 1.0))


def phi_power(u, alpha: float, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Real coefficients (c1, c0) with T^s = c1 T - c0 I at u = p delta.

    Cayley-Hamilton with the conjugate eigenvalues rho e^{+/- i theta}:
    c1 = rho^(s-1) sin(s theta) / sin(theta) and
    c0 = rho^s sin((s-1) theta) / sin(theta).  sin(theta) >= 1/sqrt(2), so
    the division is well conditioned at every momentum.  The phase error of
    theta grows like s times the rounding unit, as it does for repeated
    squaring.
    """
    if not (isinstance(s, int) and s >= 0):
        raise ValueError(f"s must be a nonnegative integer, got {s}")
    theta = eigenphase(u)
    rho = alpha / SQRT2
    inv_sin = 1.0 / np.sin(theta)
    c1 = rho ** (s - 1) * np.sin(s * theta) * inv_sin
    c0 = rho**s * np.sin((s - 1) * theta) * inv_sin
    return c1, c0


def transfer_power(p, delta: float, alpha: float, s: int) -> np.ndarray:
    """T^s at each momentum of p, shape p.shape + (2, 2), from phi_power.

    Agrees to rounding, for any step count s, with repeated squaring of
    the one-step matrix (stroboscopic_power, the tests' oracle).
    """
    c1, c0 = phi_power(np.asarray(p, dtype=float) * delta, alpha, s)
    return c1[..., None, None] * transfer_matrices(p, delta, alpha) - c0[..., None, None] * np.eye(2)


def evolve_spectral(field: np.ndarray, block: str, s: int, alpha: float) -> np.ndarray:
    """A real (2, N) z or phi field after s steps of its block map.

    Equal, to rounding, to s calls of lattice_walk.z_step or phi_step
    (alpha scales the phi block only): the field is transformed once
    (to_spectral), multiplied by the closed-form T(u)^s at the N // 2 + 1
    momenta u = 2 pi j / N = p delta, and transformed back.  T(-u) is the
    conjugate of T(u), so the real transform loses nothing.  s = 1 is one
    step of the spectral pair.

    Both blocks take T^s f = c1 (T f) - c0 f, with T f from _step: phi's
    (c1, c0) from phi_power, and z's (cos(u)^(s-1), 0), as its rank-one
    matrix has trace cos u.
    """
    if block not in ("z", "phi"):
        raise ValueError(f"block must be 'z' or 'phi', got {block!r}")
    if not (isinstance(s, int) and s >= 0):
        raise ValueError(f"s must be a nonnegative integer, got {s}")
    field = _pair_field(field)
    if s == 0:
        return field.copy()
    f = to_spectral(field)
    n = field.shape[1]
    u = (2.0 * math.pi / n) * np.arange(f.shape[1])
    c1, c0 = phi_power(u, alpha, s) if block == "phi" else (np.cos(u) ** (s - 1), 0.0)
    rows = _step(f, u, block, alpha, c1)
    f *= c0
    for k in range(2):
        np.subtract(rows[k], f[k], out=f[k])
    return from_spectral(f, n)


def assemble_psi(phi1, phi2):
    """Spin components psi_+ = (i phi1 + phi2)/2, psi_- = (-i phi1 + phi2)/2.

    Invertible: phi2 = psi_+ + psi_-, phi1 = -i (psi_+ - psi_-).
    """
    phi1 = np.asarray(phi1)
    phi2 = np.asarray(phi2)
    return 0.5 * (1j * phi1 + phi2), 0.5 * (-1j * phi1 + phi2)


# ---------------------------------------------------------------------------
# continuum level studies


def validate_level_sequence(deltas, D: float, t: float) -> list[int]:
    """Per-level step counts s = t/epsilon of a halving delta sequence.

    epsilon is fixed by delta^2 = 2 D epsilon.  Raises ValueError on fewer
    than two levels, non-halving sequences, infinite or non-integer step
    counts, or step counts not divisible by 8 (the stroboscopic rule).
    """
    deltas = list(deltas)
    if len(deltas) < 2:
        raise ValueError("need at least two levels")
    if not (0.0 < D < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"D and t must be positive and finite, got {D}, {t}")
    for d in deltas:
        if not (d > 0):
            raise ValueError(f"deltas must be positive, got {d}")
    for a, b in zip(deltas, deltas[1:]):
        if abs(b / a - 0.5) > 1e-9:
            raise ValueError(f"levels must halve: {a} -> {b}")
    steps = []
    for d in deltas:
        eps = d * d / (2.0 * D)
        if not (eps > 0 and t / eps < math.inf):
            raise ValueError(f"epsilon = delta^2 / (2 D) = {eps} leaves t/epsilon infinite at delta={d}")
        s_float = t / eps
        s = int(round(s_float))
        if abs(s_float - s) > 1e-6 or s <= 0:
            raise ValueError(f"t/epsilon = {s_float} is not a positive integer at delta={d}")
        if s % 8 != 0:
            raise ValueError(f"level delta={d} gives s={s}, violating the mod-8 rule")
        steps.append(s)
    return steps


# Fixed, as the checks' thresholds are, so that no option changes what a
# continuum-check gate measures: the momentum window of the rotation errors
# and the position window of the kernel errors.
P_WINDOW = 2.0
X_WINDOW = 5.0

# Each studied block's per-step normalization and point source: phi on the
# norm-preserving branch, z of the bare walk.
_BLOCKS = {"phi": (SQRT2, point_source_phi), "z": (1.0, point_source_z)}


def _level_samples(block: str, delta: float, s: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """x = 2 k delta, |k| <= kmax, and both rows of the block's point source after s steps at m0 + 2k.

    The source sits at the centre m0 of chain_sites(s) sites and is evolved
    by evolve_spectral; a window as wide as the chain's half is refused.
    """
    n = chain_sites(s)
    m0 = n // 2
    if 2 * kmax >= m0:
        raise ValueError(
            f"level delta={delta}, s={s}: its {n}-site chain, half-width {m0 * delta:g}, "
            f"is not wider than the sampled window |x| <= {2 * kmax * delta:g}"
        )
    alpha, source = _BLOCKS[block]
    k = np.arange(-kmax, kmax + 1)
    return 2.0 * k * delta, evolve_spectral(source(n, m0), block, s, alpha)[:, m0 + 2 * k]


def schrodinger_level(delta: float, s: int, D: float, t: float) -> dict:
    """One level of the norm-preserving continuum study, s = t/epsilon steps.

    Samples the phi point source after s steps (_level_samples), assembles
    psi+ on those samples alone, and measures: the rotation-angle error
    (exact eigenvalue phase to the s-th power against the continuum
    rotation phase, rms over the momentum grid inside P_WINDOW), the
    full-matrix error (T^s against the rotation matrix, same window,
    reported), the kernel errors (sampled psi+ density against
    feynman_free at mass m = 1/(2D), over |x| <= X_WINDOW: raw, even part,
    odd fraction), and the p = 0 eight-step identity residual.

    The raw kernel error carries an O(delta) odd-in-x component from the
    eigenvector (branch) admixture of the transfer matrix, which is odd in
    p; the even part isolates the kernel comparison the continuum limit
    actually controls at second order.  Both are returned.
    """
    # psi+ on the populated sublattice within X_WINDOW, as a density
    x, phi = _level_samples("phi", delta, s, int(math.floor(X_WINDOW / (2.0 * delta))))
    psi_plus, _ = assemble_psi(phi[0], phi[1])
    est = psi_plus * PSI_DENSITY_CALIBRATION / (2.0 * delta)

    # rotation-angle (eigenphase) error over the in-window momentum grid;
    # the eigenvalue modulus is 1 at alpha = sqrt(2).
    pw = momentum_grid(chain_sites(s), delta)
    pw = pw[np.abs(pw) <= P_WINDOW]
    lam_s = np.exp(1j * s * eigenphase(pw * delta))
    rot_err = float(np.sqrt(np.mean(np.abs(lam_s - np.exp(1j * pw * pw * D * t)) ** 2)))

    # full-matrix error against the rotation, reported alongside
    frob = np.linalg.norm(transfer_power(pw, delta, SQRT2, s) - continuum_propagator(pw, D, t), axis=(-2, -1))
    matrix_err = float(np.sqrt(np.mean(np.square(frob))))

    ker = feynman_free(x, t, 1.0 / (2.0 * D))
    ker_norm = float(np.linalg.norm(ker))
    raw = float(np.linalg.norm(est - ker)) / ker_norm
    est_even = 0.5 * (est + est[::-1])
    est_odd = 0.5 * (est - est[::-1])
    even = float(np.linalg.norm(est_even - ker)) / ker_norm
    odd_fraction = float(np.linalg.norm(est_odd)) / ker_norm

    p0 = np.linalg.matrix_power(transfer_matrices(0.0, delta, SQRT2), 8)
    p0_residual = float(np.max(np.abs(p0 - np.eye(2))))

    return {
        "delta": delta,
        "s": s,
        "rotation_angle_error": rot_err,
        "matrix_error": matrix_err,
        "kernel_raw_rel": raw,
        "kernel_even_rel": even,
        "odd_fraction": odd_fraction,
        "p0_residual": p0_residual,
    }


def schrodinger_levels(deltas, D: float, t: float) -> dict:
    """Halving-delta convergence study of the norm-preserving branch."""
    steps = validate_level_sequence(deltas, D, t)
    levels = [schrodinger_level(d, s, D, t) for d, s in zip(deltas, steps)]
    ds = [lv["delta"] for lv in levels]
    return {
        "levels": levels,
        "rotation_order": fit_convergence_order(ds, [lv["rotation_angle_error"] for lv in levels]),
        "matrix_order": fit_convergence_order(ds, [lv["matrix_error"] for lv in levels]),
        "kernel_raw_order": fit_convergence_order(ds, [lv["kernel_raw_rel"] for lv in levels]),
        "kernel_even_order": fit_convergence_order(ds, [lv["kernel_even_rel"] for lv in levels]),
    }


def diffusion_levels(deltas, D: float, t: float) -> dict:
    """Bare-walk (alpha = 1) z-field against the heat kernel, per level.

    The point source's direction-summed density on the populated
    sublattice is compared in L1, relative to the kernel's unit mass.
    """
    steps = validate_level_sequence(deltas, D, t)
    errors = []
    for delta, s in zip(deltas, steps):
        x, z = _level_samples("z", delta, s, s // 2)
        dens = (z[0] + z[1]) / (2.0 * delta)
        errors.append(float(np.sum(np.abs(dens - diffusion_green(x, t, D))) * 2.0 * delta))
    return {"deltas": list(deltas), "steps": steps, "l1_rel": errors}


def engine_step_loop_deviation(s: int, block: str) -> float:
    """max |spectral engine - step loop| / max |step loop| for one s-step level's point source.

    The per-step maps phi_step (alpha = sqrt(2)) and z_step, looked up at
    call time so that a replaced map is the one checked, are the oracle of
    the level studies' spectral engine.
    """
    alpha, source = _BLOCKS[block]
    n = chain_sites(s)
    start = loop = source(n, n // 2)
    for _ in range(s):
        loop = phi_step(loop, alpha) if block == "phi" else z_step(loop)
    return float(np.max(np.abs(evolve_spectral(start, block, s, alpha) - loop)) / np.max(np.abs(loop)))
