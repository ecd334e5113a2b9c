"""Shared test plumbing: the acceptance line recorder and the matrix-power oracle.

Acceptance tests announce one PASS/FAIL line per criterion; the lines are
echoed immediately (visible with -s) and replayed in a dedicated section
of the terminal summary so the gate is readable regardless of capture.
"""

import numpy as np

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def stroboscopic_power(matrix: np.ndarray, s: int) -> np.ndarray:
    """T^s of one (2, 2) matrix for stroboscopic step counts (s a multiple of 8).

    Binary exponentiation with a fixed multiply order, so repeated calls
    are bit-identical; the test oracle of spectral_limit.transfer_power.
    """
    if not (isinstance(s, int) and s >= 0):
        raise ValueError(f"s must be a nonnegative integer, got {s}")
    if s % 8 != 0:
        raise ValueError(f"stroboscopic power requires s % 8 == 0, got {s}")
    result = np.eye(2, dtype=complex)
    base = np.array(matrix, dtype=complex)
    k = s
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result
