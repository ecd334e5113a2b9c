import importlib.util
import json
from pathlib import Path

import pytest

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


# The same two rows in the writer's earlier text and in its one-rule text:
# whole floats lose their ".0" and JSON flags turn from true/false to 1/0.
# -0.0 keeps its text, and the parity is written alike.
TEXT_BEFORE = {
    "csv": "x,parity,in_cone\n12.0,1,1\n-0.0,-1,0\n",
    "json": '{"header":["x","parity","in_cone"],"rows":[[12.0,1,true],[-0.0,-1,false]]}\n',
}
TEXT_AFTER = {
    "csv": "x,parity,in_cone\n12,1,1\n-0.0,-1,0\n",
    "json": '{"header":["x","parity","in_cone"],"rows":[[12,1,1],[-0.0,-1,0]]}\n',
}


class TestTextOnlyChanges:
    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("csv", ["x: 1 of 2 cells changed as text, values equal"]),
            (
                "json",
                [
                    "x: 1 of 2 cells changed as text, values equal",
                    "in_cone: 2 of 2 cells changed as text, values equal",
                ],
            ),
        ],
    )
    def test_equal_values_read_text_only(self, tmp_path, fmt, expected):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        a.write_text(TEXT_BEFORE[fmt], encoding="utf-8")
        b.write_text(TEXT_AFTER[fmt], encoding="utf-8")
        assert compare_runs.column_changes(a, b) == expected

    def test_moved_and_text_only_cells_are_counted_apart(self, tmp_path):
        # JSON reads -0.0 and 0.0 as equal floats; as written they are one ulp apart.
        a = write_json(tmp_path / "a.json", [[12.0, 1, True], [-0.0, 1, True], [0.25, 1, True]])
        b = write_json(tmp_path / "b.json", [[12, 1, True], [0.0, 1, True], [0.25, 1, True]])
        assert compare_runs.column_changes(a, b) == [
            "x: 1 of 3 cells changed, largest 1 ulps; 1 more cells changed as text, values equal",
        ]
