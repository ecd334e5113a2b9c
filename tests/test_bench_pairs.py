import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def checkout(root: Path) -> Path:
    """A minimal checkout: one package module under src/."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("X = 1\n", encoding="utf-8")
    return root


def add_cache(root: Path) -> Path:
    cache = root / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.pyc").write_bytes(b"\x00" * 16)
    return cache


class TestBytecodeCaches:
    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_cache_in_either_checkout_refuses_to_start(self, tmp_path, capsys, side):
        roots = {name: checkout(tmp_path / name) for name in ("parent", "change")}
        cache = add_cache(roots[side])
        out = tmp_path / "bench.json"
        argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--out", str(out)]
        assert bench_pairs.main(argv) == 2
        assert str(cache) in capsys.readouterr().err
        assert not out.exists()

    def test_digest_skips_caches(self, tmp_path):
        root = checkout(tmp_path / "tree")
        clean = bench_pairs.tree_digest(root)
        add_cache(root)
        assert bench_pairs.tree_digest(root) == clean
        (root / "src" / "pkg" / "mod.py").write_text("X = 2\n", encoding="utf-8")
        assert bench_pairs.tree_digest(root) != clean
