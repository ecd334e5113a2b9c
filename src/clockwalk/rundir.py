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


@dataclass
class ScenarioResult:
    tables: dict[str, tuple[list[str], np.ndarray]]
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


def table(**columns) -> tuple[list[str], np.ndarray]:
    """A table as (header, rows): the keywords in order, and a 1-D structured
    array with one field per column, so len(rows) is the row count.  A
    scalar column repeats down the table.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = np.empty(shape, dtype=[(name, a.dtype) for name, a in zip(columns, arrays)])
    for name, a in zip(columns, arrays):
        rows[name] = a
    return list(columns), rows


# Rows per write: bounds the text of one table held in memory at a time.
CHUNK_ROWS = 8192
# Rows per dedupe: each distinct value of a dtype's columns is formatted
# once per block.  The raster's x comes back only every t-count rows (5001
# at the benchmark size), so a block of one chunk still formats most cells;
# one block per table raises the peak memory of the largest table by 8 MB.
BLOCK_ROWS = 65536


def _block_text(block: np.ndarray, header: list[str], fmt: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per column of block: (text of each distinct value, index of each cell into that text).

    The columns of one dtype are deduped together, so a value in several
    of them is formatted once.  Values are keyed on their bit pattern, not
    compared as numbers: -0.0 equals 0.0 but is written differently.  Bools
    are 1/0 in CSV and true/false in JSON; numbers are their repr, which
    round-trips a float.  JSON has no literal for a non-finite float, so
    there it is its repr in quotes.
    """
    cells = {}
    for dtype in dict.fromkeys(block.dtype[name] for name in header):
        names = [name for name in header if block.dtype[name] == dtype]
        keys = np.stack([block[name] for name in names]).view(f"u{dtype.itemsize}")
        distinct = np.sort(keys, axis=None)
        distinct = distinct[np.insert(distinct[1:] != distinct[:-1], 0, True)]
        values = distinct.view(dtype)
        if dtype.kind == "b":
            true, false = ("1", "0") if fmt == "csv" else ("true", "false")
            text = [true if v else false for v in values.tolist()]
        else:
            text = list(map(repr, values.tolist()))
            if fmt == "json" and not np.isfinite(values).all():
                text = [f'"{s}"' if s in ("nan", "inf", "-inf") else s for s in text]
        text = np.array(text, dtype=object)
        cells.update(zip(names, ((text, index) for index in np.searchsorted(distinct, keys))))
    return [cells[name] for name in header]


def _write_table(path: Path, header: list[str], rows: np.ndarray, fmt: str) -> str:
    """Write one table in chunks of CHUNK_ROWS rows; returns the SHA-256 of its bytes.

    CSV is a header line and one line per row.  JSON is the object
    {"header": [...], "rows": [[...], ...]} with sorted keys and no spaces.
    The distinct values of each dtype's columns are formatted once per
    BLOCK_ROWS rows.
    """
    if fmt == "csv":
        start, open_row, close_row, between, end = ",".join(header) + "\n", "", "\n", "", ""
    else:
        start = '{"header":' + json.dumps(header, separators=(",", ":")) + ',"rows":['
        open_row, close_row, between, end = "[", "]", ",", "]}\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            blob = text.encode("utf-8")
            digest.update(blob)
            fh.write(blob)

        put(start)
        for block_lo in range(0, len(rows), BLOCK_ROWS):
            block = rows[block_lo : block_lo + BLOCK_ROWS]
            columns = _block_text(block, header, fmt)
            for lo in range(0, len(block), CHUNK_ROWS):
                cells = zip(*(text[index[lo : lo + CHUNK_ROWS]].tolist() for text, index in columns))
                lines = (close_row + between + open_row).join(map(",".join, cells))
                put((between if block_lo + lo else "") + open_row + lines + close_row)
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
    the manifest (the given keys, the duration as the sum of the timings,
    each data file's SHA-256 and the digest over them).  The run
    is written into a temporary sibling of out and renamed into place, so
    out holds a whole run or none; a previous run is restored if that fails.
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
        manifest = {
            **manifest,
            "duration_seconds": sum(timings.values()),
            "files": files,
            "digest": _manifest_digest(files),
        }
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
