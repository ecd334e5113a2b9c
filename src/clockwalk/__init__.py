"""Numerical laboratory for a relativistic binary-clock particle model.

The package implements, end to end, a point particle carrying a binary
clock signal that toggles at its Compton frequency: one proper-time kernel
over the straight legs of piecewise-inertial paths, one parity rule, the
resulting spacetime parity patterns (evaluated on position arrays) and
their Lorentz-equivalence filter, a parity-tracking four-state lattice
walk, its spectral (transfer-matrix) representation, and the stroboscopic
continuum limits in which the parity-filtered walk reproduces the free
Schrodinger propagator while the unfiltered walk reproduces the diffusion
Green's function.
"""

__version__ = "0.1.0"

import importlib

__all__ = [
    "__version__",
    "clock_signal",
    "experiments_cli",
    "kinematics",
    "lattice_walk",
    "reference_solutions",
    "spectral_limit",
]


def __getattr__(name: str):
    # Submodules load on first use, so that `python -m clockwalk.experiments_cli`
    # does not find its own module imported before it runs.
    if name in __all__[1:]:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
