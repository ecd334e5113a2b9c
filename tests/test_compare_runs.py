import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
)
compare_runs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_runs)

# One float that moves by one ulp, one parity that moves from -1 to 1, and
# one cone flag that moves from 1 to 0; the last row is unchanged.
HEADER = ["x", "parity", "in_cone"]
ROWS_A = [[0.1, -1, True], [0.25, 1, True]]
ROWS_B = [[0.10000000000000002, 1, False], [0.25, 1, True]]
EXPECTED = [
    "x: 1 of 2 cells changed, largest 1 ulps",
    "parity: 1 of 2 cells changed, largest absolute difference 2",
    "in_cone: 1 of 2 cells changed, largest absolute difference 1",
]


def write_csv(path: Path, rows) -> Path:
    lines = [",".join(HEADER)] + [f"{x!r},{parity},{int(in_cone)}" for x, parity, in_cone in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path: Path, rows) -> Path:
    path.write_text(json.dumps({"header": HEADER, "rows": rows}), encoding="utf-8")
    return path


class TestColumnChanges:
    def test_csv_integer_columns_read_absolute_difference(self, tmp_path):
        a, b = write_csv(tmp_path / "a.csv", ROWS_A), write_csv(tmp_path / "b.csv", ROWS_B)
        assert compare_runs.column_changes(a, b) == EXPECTED

    def test_json_int_and_bool_columns_read_absolute_difference(self, tmp_path):
        a, b = write_json(tmp_path / "a.json", ROWS_A), write_json(tmp_path / "b.json", ROWS_B)
        assert compare_runs.column_changes(a, b) == EXPECTED

    def test_integer_that_becomes_a_float_reads_ulps(self, tmp_path):
        a = write_json(tmp_path / "a.json", [[0.25, 1, True]])
        b = write_json(tmp_path / "b.json", [[0.25, 1.0000000000000002, True]])
        assert compare_runs.column_changes(a, b) == ["parity: 1 of 1 cells changed, largest 1 ulps"]
