"""Run directories: the table representation, its text on disk, the report and its manifest.

A run directory holds one CSV or JSON data file per table and a
report.json whose manifest lists each data file's SHA-256 and a digest
over them.
"""

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import resource
except ImportError:  # not available on Windows
    resource = None

import numpy as np

__all__ = ["ConfigError", "ScenarioResult", "check", "table", "check_replaceable", "write_run", "verify_manifest"]


class ConfigError(ValueError):
    """Raised for any invalid configuration before any file is written."""


@dataclass(frozen=True)
class Columns:
    """A table's columns: arrays that broadcast to shape, whose cells in C order are the rows."""

    arrays: tuple[np.ndarray, ...]
    shape: tuple[int, ...]

    def __len__(self) -> int:
        return math.prod(self.shape)


@dataclass
class ScenarioResult:
    tables: dict[str, tuple[list[str], Columns]]
    metrics: dict
    checks: dict[str, dict]


def check(value, rule: str, threshold) -> dict:
    """A check record {"passed", "value", "threshold", "rule"} in plain JSON types.

    rule is "<=" or ">=": value must not exceed, or not fall below,
    threshold.  A value of None means there was nothing to measure, and passes.
    """
    value, threshold = (v.item() if isinstance(v, np.generic) else v for v in (value, threshold))
    passed = value is None or (value <= threshold if rule == "<=" else value >= threshold)
    return {"passed": passed, "value": value, "threshold": threshold, "rule": rule}


def table(**columns) -> tuple[list[str], Columns]:
    """A table as (header, columns): the keywords in order, and the arrays as
    given, not copied.  They broadcast against each other: a scalar repeats
    down the table, and a (k, 1) column beside an (n,) one gives k * n rows.
    """
    arrays = tuple(np.atleast_1d(c) for c in columns.values())
    return list(columns), Columns(arrays, np.broadcast_shapes(*(a.shape for a in arrays)))


# Rows per write: bounds the text of one table held in memory at a time.
CHUNK_ROWS = 8192
# A table whose mean run is at least this many rows is written run by run.
RUN_ROWS = 4


def _column_text(arrays, fmt: str) -> list[np.ndarray]:
    """The text of each array's cells, as an object array of the array's own shape.

    The row path passes a table's columns; the run path passes the column
    that changes most often and the other columns' values at run starts
    only.  The arrays of one dtype are deduped together, so a value in
    several of them is formatted once.  Values are keyed on their bit
    pattern, not compared as numbers: -0.0 equals 0.0 but is written
    differently.  One rule serves both formats: a bool is 1 or 0, and a
    number is its repr, which round-trips a float, less the ".0" of a
    whole float (12.0 is 12; whole floats of 1e16 and over are already
    1e+16).  -0.0 keeps its ".0": a JSON reader takes -0 for the int 0.
    JSON has no literal for a non-finite float, so there it is its repr in
    quotes.
    """
    cells = {}
    for dtype in dict.fromkeys(a.dtype for a in arrays):
        keys = {k: a.view(f"u{dtype.itemsize}") for k, a in enumerate(arrays) if a.dtype == dtype}
        # sort and mask: np.unique took 10x as long (4.4 ms against 0.42 ms on 90 k keys, numpy 2.4.6)
        distinct = np.sort(np.concatenate([key.ravel() for key in keys.values()]))
        distinct = np.concatenate((distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]]))
        values = distinct.view(dtype)
        text = list(map(repr, (distinct if dtype.kind == "b" else values).tolist()))  # a bool's key is 0 or 1
        if dtype.kind == "f":
            whole = (values == np.trunc(values)) & (np.abs(values) < 1e16) & ((values != 0) | ~np.signbit(values))
            for i in np.flatnonzero(whole).tolist():
                text[i] = text[i][:-2]
            if fmt == "json" and not np.isfinite(values).all():
                text = [f'"{s}"' if s in ("nan", "inf", "-inf") else s for s in text]
        text = np.array(text, dtype=object)
        cells.update((k, text[np.searchsorted(distinct, key)]) for k, key in keys.items())
    return [cells[k] for k in range(len(arrays))]


def _segments(columns: Columns) -> tuple[int, np.ndarray] | None:
    """(v, starts) for a table written run by run, or None for one written row by row.

    A run is a maximal stretch of rows, along the last axis and inside one
    leading index, in which every column but v keeps its bit pattern; v is
    the column that changes most often.  Changes are found on each column's
    own array.  The table is written run by run when its mean run is at
    least RUN_ROWS rows.  starts is a bool array, the table's shape with its
    leading axes flattened, that is True where a run or a chunk of
    CHUNK_ROWS rows begins.
    """
    shape, rows = columns.shape, len(columns)
    starts = np.zeros((math.prod(shape[:-1]), shape[-1]), dtype=bool)
    if not rows:
        return 0, starts
    changes, busy = [], 0
    for a in columns.arrays:
        a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
        bits = a.view(f"u{a.dtype.itemsize}")
        flips = bits[..., 1:] != bits[..., :-1]
        count = np.count_nonzero(flips) * (len(starts) // math.prod(a.shape[:-1]))
        # Two columns that each leave the mean run under RUN_ROWS decide the path, whichever is v.
        busy += RUN_ROWS * (len(starts) + count) > rows
        if busy == 2:
            return None
        changes.append((count, flips))
    v = max(range(len(changes)), key=lambda j: changes[j][0])
    heads = starts.reshape(shape)[..., 1:]
    for j, (count, flips) in enumerate(changes):
        if count and j != v:
            heads |= flips
    if RUN_ROWS * (len(starts) + np.count_nonzero(heads)) > rows:
        return None
    starts[:, ::CHUNK_ROWS] = True
    return v, starts


def _run_chunks(columns: Columns, fmt: str, v: int, starts: np.ndarray, next_row: str):
    """Each chunk of a table as the list of its runs' text, one join per run.

    A run's rows differ only in v, so its text is one join over v's text:
    the separator is the cells after v, next_row (which closes a row and
    opens the next) and the cells before v.  Only v's text covers the
    whole column; the other columns are formatted from their values at
    run starts.
    """
    shape = columns.shape
    lead, row = np.nonzero(starts)
    at = (*np.unravel_index(lead, shape[:-1]), row) if len(shape) > 1 else (row,)
    others = [np.broadcast_to(a, shape)[at] for j, a in enumerate(columns.arrays) if j != v]
    v_text, *cells = _column_text([columns.arrays[v], *others], fmt)
    cells = [c.tolist() for c in cells]
    before = [",".join(c) + "," for c in zip(*cells[:v])] if v else [""] * row.size
    after = ["," + ",".join(c) for c in zip(*cells[v:])] if cells[v:] else [""] * row.size
    stops = np.append(row[1:], shape[-1])
    stops[stops == 0] = shape[-1]  # the next run starts a leading index
    v_text = np.broadcast_to(v_text, shape).reshape(starts.shape)
    runs = []
    for k, r0, r1, head, tail in zip(lead.tolist(), row.tolist(), stops.tolist(), before, after):
        if r0 == 0:
            texts = v_text[k].tolist()
        if r0 % CHUNK_ROWS == 0 and runs:
            yield runs
            runs = []
        runs.append(head + (tail + next_row + head).join(texts[r0:r1]) + tail)
    if runs:
        yield runs


def _write_table(path: Path, header: list[str], columns: Columns, fmt: str) -> str:
    """Write one table in chunks of at most CHUNK_ROWS rows; returns the SHA-256 of its bytes.

    CSV is a header line and one line per row.  JSON is the object
    {"header": [...], "rows": [[...], ...]} with sorted keys and no spaces.
    A cell's text is the same in both (see _column_text), save that JSON
    quotes a non-finite float; so a JSON reader gets a whole float back as
    an int and a bool as 0 or 1.  A chunk never spans two indices of the
    leading axes.  A table whose mean run (see _segments) is at least
    RUN_ROWS rows takes the run path:
    each run is one join over the text of the one column that changes in
    it, and the other columns are formatted at run starts only.  The
    clock raster at the benchmark size is 495 099 rows in 1 473 runs.  Any
    other table takes the row path: the distinct values of each dtype's
    columns are formatted once per table, each column's text is broadcast
    to the table's shape, and each row is its own join.  Both paths write
    the same bytes.
    """
    if fmt == "csv":
        start, open_row, close_row, between, end = ",".join(header) + "\n", "", "\n", "", ""
    else:
        start = '{"header":' + json.dumps(header, separators=(",", ":")) + ',"rows":['
        open_row, close_row, between, end = "[", "]", ",", "]}\n"
    segments = _segments(columns)
    if segments is None:
        cells = [np.broadcast_to(text, columns.shape) for text in _column_text(columns.arrays, fmt)]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            blob = text.encode("utf-8")
            digest.update(blob)
            fh.write(blob)

        put(start)
        if segments is None:
            for lead in np.ndindex(columns.shape[:-1]):
                for lo in range(0, columns.shape[-1], CHUNK_ROWS):
                    rows = zip(*(c[lead][lo : lo + CHUNK_ROWS].tolist() for c in cells))
                    lines = (close_row + between + open_row).join(map(",".join, rows))
                    put((between if lo or any(lead) else "") + open_row + lines + close_row)
        else:
            next_row = close_row + between + open_row
            for k, runs in enumerate(_run_chunks(columns, fmt, *segments, next_row)):
                put((between if k else "") + open_row + next_row.join(runs) + close_row)
        put(end)
    return digest.hexdigest()


def _json_safe(v):
    """v with each non-finite float as its repr, since JSON has no literal for one."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    return v


def _manifest_digest(files: dict[str, str]) -> str:
    """SHA-256 over the sorted "name:sha256" lines of a run's data files."""
    lines = "\n".join(f"{name}:{digest}" for name, digest in sorted(files.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _read_run(out: Path) -> tuple[set[str], dict[str, str], str]:
    """(names in out, the files its manifest lists, the manifest's digest); raises if out holds no manifest."""
    manifest = json.loads((out / "report.json").read_text(encoding="utf-8"))["manifest"]
    files, digest = dict(manifest["files"]), manifest["digest"]
    return {entry.name for entry in out.iterdir()}, files, digest


def check_replaceable(out: Path) -> None:
    """Refuse an existing directory that is neither empty nor a previous run.

    A previous run is a report.json with a manifest plus only files that
    manifest lists; anything else may be data that a run must not delete.
    """
    try:
        names, files, _ = _read_run(out)
        previous_run = names <= {"report.json", *files}
    except (OSError, ValueError, KeyError, TypeError):
        previous_run = not out.is_dir() or not any(out.iterdir())
    if not previous_run:
        raise ConfigError(f"{out} is neither empty nor a previous run; not replacing it")


def write_run(out: Path, result: ScenarioResult, fmt: str, *, timings: dict, manifest: dict) -> None:
    """Write result at out: each table as NAME.FMT (fmt is csv or json), then report.json.

    report.json, unlike the data files, is not byte-stable: it holds the
    metrics, the check records, the timings plus write_s and peak_rss_mb, and
    the manifest (the given keys, each data file's SHA-256 and the digest
    over them).  The run is written into a temporary sibling of out and
    renamed into place, so out holds a whole run or none; a previous run is
    restored if that fails.
    """
    began = time.perf_counter()
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir()
    try:
        tables = result.tables
        files = {f"{name}.{fmt}": _write_table(tmp / f"{name}.{fmt}", *tables[name], fmt) for name in sorted(tables)}
        timings = {**timings, "write_s": time.perf_counter() - began}
        manifest = {**manifest, "files": files, "digest": _manifest_digest(files)}
        # ru_maxrss is in KiB on Linux
        timings["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if resource else None
        report = _json_safe({**result.metrics, "checks": result.checks, "timings": timings, "manifest": manifest})
        (tmp / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        if out.is_dir():
            os.rename(out, old)
        try:
            os.rename(tmp, out)  # a file at out fails here (ENOTDIR): an I/O failure
        except OSError:
            if old.exists():
                os.rename(old, out)
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def verify_manifest(out_dir: str) -> bool:
    """Re-hash a run directory against the manifest in its report.json.

    False when a data file differs from its digest, a listed file is
    missing, or the directory holds a file the manifest does not list.
    Raises ConfigError when out_dir is not a run: no directory, or no
    readable report.json with a manifest of files and a digest.
    """
    out = Path(out_dir)
    try:
        names, files, digest = _read_run(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{out} is not a run directory: {exc!r}") from exc
    if names != {"report.json", *files}:
        return False
    for name, sha256 in files.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != sha256:
            return False
    return _manifest_digest(files) == digest
