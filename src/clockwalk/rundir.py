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


def _column_text(columns: Columns, fmt: str) -> list[np.ndarray]:
    """The text of each column's cells, as an object array of the column's own shape.

    The columns of one dtype are deduped together, so a value in several
    of them is formatted once.  Values are keyed on their bit pattern, not
    compared as numbers: -0.0 equals 0.0 but is written differently.  Bools
    are 1/0 in CSV and true/false in JSON; numbers are their repr, which
    round-trips a float.  JSON has no literal for a non-finite float, so
    there it is its repr in quotes.
    """
    cells = {}
    for dtype in dict.fromkeys(a.dtype for a in columns.arrays):
        keys = {k: a.view(f"u{dtype.itemsize}") for k, a in enumerate(columns.arrays) if a.dtype == dtype}
        # sort and mask: np.unique took 10x as long (4.4 ms against 0.42 ms on 90 k keys, numpy 2.4.6)
        distinct = np.sort(np.concatenate([key.ravel() for key in keys.values()]))
        distinct = np.concatenate((distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]]))
        values = distinct.view(dtype)
        if dtype.kind == "b":
            true, false = ("1", "0") if fmt == "csv" else ("true", "false")
            text = [true if v else false for v in values.tolist()]
        else:
            text = list(map(repr, values.tolist()))
            if fmt == "json" and not np.isfinite(values).all():
                text = [f'"{s}"' if s in ("nan", "inf", "-inf") else s for s in text]
        text = np.array(text, dtype=object)
        cells.update((k, text[np.searchsorted(distinct, key)]) for k, key in keys.items())
    return [cells[k] for k in range(len(columns.arrays))]


def _write_table(path: Path, header: list[str], columns: Columns, fmt: str) -> str:
    """Write one table in chunks of at most CHUNK_ROWS rows; returns the SHA-256 of its bytes.

    CSV is a header line and one line per row.  JSON is the object
    {"header": [...], "rows": [[...], ...]} with sorted keys and no spaces.
    The distinct values of each dtype's columns are formatted once per
    table, and each column's text is broadcast to the table's shape; a
    chunk never spans two indices of its leading axes.
    """
    if fmt == "csv":
        start, open_row, close_row, between, end = ",".join(header) + "\n", "", "\n", "", ""
    else:
        start = '{"header":' + json.dumps(header, separators=(",", ":")) + ',"rows":['
        open_row, close_row, between, end = "[", "]", ",", "]}\n"
    cells = [np.broadcast_to(text, columns.shape) for text in _column_text(columns, fmt)]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            blob = text.encode("utf-8")
            digest.update(blob)
            fh.write(blob)

        put(start)
        for lead in np.ndindex(columns.shape[:-1]):
            for lo in range(0, columns.shape[-1], CHUNK_ROWS):
                rows = zip(*(c[lead][lo : lo + CHUNK_ROWS].tolist() for c in cells))
                lines = (close_row + between + open_row).join(map(",".join, rows))
                put((between if lo or any(lead) else "") + open_row + lines + close_row)
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
