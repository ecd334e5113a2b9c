"""Run one clockwalk CLI invocation in this process, with timing hooks.

    python3 perfbench/child.py RECORD_FILE TRACE -- SCENARIO [CLI ARGS...]

This does what the installed ``clockwalk`` console script does
(``sys.exit(experiments_cli.main(argv))``) after installing hooks from
outside the package; no file of the package is changed.  ``src`` must be on
PYTHONPATH.

TRACE 0 installs one hook: it stamps the monotonic clock when the scenario
runner is entered, which ends set-up.  TRACE 1 also replaces the public
functions of each layer with wrappers that record spans (name, start, end,
parent, work count).  The spans stay in memory and are written to
RECORD_FILE as JSON when the invocation ends, together with the stamps.
"""

from __future__ import annotations

import inspect
import json
import sys
import time



def _sites(result):
    return int(getattr(result, "p", result).shape[-1])


def _path_steps(result):
    return int(result.n_steps) * int(result.n_paths)


def _cells(result):
    return sum(len(header) * len(rows) for header, rows in result.tables.values())


class Tracer:
    """Wraps functions so that each call records one span."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = work(result) if work is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, count)

        return traced


def _replace_everywhere(modules, original, wrapper) -> None:
    # A function is looked up in the caller's module globals, which for
    # experiments_cli is its own imported name, so every binding is replaced.
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install_tracer(package, tracer: Tracer) -> None:
    cli = package.experiments_cli
    modules = [cli, package.clock_signal, package.lattice_walk, package.reference_solutions, package.spectral_limit]

    def wrap_module(module, layer, names, work=None):
        for fname in names:
            original = getattr(module, fname, None)
            if callable(original):
                _replace_everywhere(modules, original, tracer.wrap(f"{layer}.{fname}", original, work))

    def public_functions(module):
        return [
            name for name in module.__all__
            if inspect.isfunction(getattr(module, name)) and getattr(module, name).__module__ == module.__name__
        ]

    # Of lattice_walk only the per-step maps and the Monte Carlo sampler are
    # layer costs; its field constructors and decompose/compose are cheap.
    lw = package.lattice_walk
    wrap_module(lw, "lattice_walk.step", ("step_four_state", "z_step", "phi_step"), _sites)
    wrap_module(lw, "lattice_walk.step", ("evolve",))
    wrap_module(lw, "lattice_walk.mc", ("monte_carlo_estimate",), _path_steps)
    wrap_module(lw, "lattice_walk.mc", ("deposit_standard_errors",))
    # parity_of_proper_time (one call per sample) is left unwrapped, as
    # wrapping it would dominate what it measures.
    wrap_module(package.clock_signal, "clock_signal", ("plane_pattern", "double_slit_phi", "double_slit_intensity"), len)
    for mod in (package.spectral_limit, package.reference_solutions):
        layer = mod.__name__.rsplit(".", 1)[-1]
        wrap_module(mod, layer, public_functions(mod))
    wrap_module(cli, "experiments_cli", ("resolve_config", "_read_config_file", "run_scenario"))
    for scenario, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[scenario] = tracer.wrap("experiments_cli.runner", runner, _cells)


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RECORD_FILE TRACE -- SCENARIO [ARGS...]")
    argv = sys.argv[4:]
    record: dict = {"import_start": time.monotonic()}
    import clockwalk
    from clockwalk import experiments_cli as cli

    record["import_end"] = time.monotonic()
    tracer = Tracer()
    if trace:
        install_tracer(clockwalk, tracer)

    def stamp_entry(runner):
        def entered(*args, **kwargs):
            record.setdefault("runner_entry", time.monotonic())
            return runner(*args, **kwargs)

        return entered

    for scenario, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[scenario] = stamp_entry(runner)
    try:
        return cli.main(argv)
    finally:
        record["spans"] = tracer.spans
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
