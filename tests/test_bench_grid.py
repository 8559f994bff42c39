"""The retrieval grid runner (bench/grid.py) and the BENCH file it wrote."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("bench_grid", ROOT / "bench" / "grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_row_times_every_step_of_a_retrieval(grid):
    row = grid.measure_row("download_all", (2, 2, 0, 2), runs=1, min_ms=0.1, seed=1)
    assert (row["scheme"], row["N"], row["X"], row["L"], row["theta"]) == ("download_all", 2, 0, 2, 2)
    assert list(row["steps"]) == list(grid.STEPS)
    for step in row["steps"].values():
        assert step["ms"] > 0 and step["raw_ms"] > 0 and step["runs"] == 1 and step["calls"] >= 1
    assert row["symbols_per_s"]["raw"] == pytest.approx(2e3 / row["steps"]["retrieval"]["raw_ms"])


def test_the_committed_bench_file_has_every_row_and_field(grid):
    record = json.loads((ROOT / "bench" / "BENCH_1.json").read_text())
    for key in ("git_sha", "python", "nproc", "cal_ms"):
        assert record[key]
    assert record["src_xstpir"]["lines"] > 0 and record["src_xstpir"]["bytes"] > 0
    assert record["runs"] >= 5
    rows = [(r["scheme"], r["N"], r["K"], r["X"], r["T"], tuple(r["grids"])) for r in record["rows"]]
    assert rows == list(grid.ROWS)
    for row in record["rows"]:
        for step in grid.STEPS:
            assert row["steps"][step]["runs"] == record["runs"]
            assert row["steps"][step]["ms"] > 0 and row["steps"][step]["raw_ms"] > 0
        assert row["symbols_per_s"]["value"] > 0
