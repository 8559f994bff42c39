"""The grid runner (bench/grid.py) and the BENCH files it wrote."""

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


def test_an_audit_row_times_the_command_and_its_readers(grid):
    row = grid.measure_audit("--scheme csa -N 3 -K 1 -X 1 -T 1 --property security", runs=1, min_ms=0.1)
    assert (row["exit"], row["result"], row["exhaustive"], row["engine"]) == (0, "pass true", True, "rank tests")
    assert row["wall"]["ms"] > 0 and row["wall"]["runs"] == 1 and row["wall"]["calls"] >= 1
    assert row["work_per_s"]["raw"] == pytest.approx(int(row["work"]) / row["wall"]["raw_ms"] * 1e3)
    assert 0 < row["share"]["share_map"] < 1 and row["share"]["query_maps"] == 0
    # a refusal is a row too: its work is the count it refused, and no work was done
    row = grid.measure_audit("--scheme csa -N 24 -K 256 -X 4 -T 4 --property sym-security", runs=1, min_ms=0.1)
    assert row["exit"] == 2 and row["result"].startswith("error: the exact audit by rank tests")
    assert row["work"] == "about 10^26433" and row["work_per_s"] is None
    # and the readers are restored
    from xstpir import affine
    assert all(getattr(affine, name).__module__ == "xstpir.affine" for name in grid.READERS)


def test_the_committed_audit_bench_file_has_every_row_and_field(grid):
    record = json.loads((ROOT / "bench" / "BENCH_2.json").read_text())
    for key in ("git_sha", "python", "nproc", "cal_ms"):
        assert record[key]
    assert record["bench"] == "audit grid" and record["runs"] >= 5
    assert [row["options"] for row in record["rows"]] == list(grid.AUDIT_ROWS)
    for row in record["rows"]:
        assert row["wall"]["runs"] == record["runs"]
        assert row["wall"]["ms"] > 0 and row["wall"]["raw_ms"] > 0
        assert row["exit"] in (0, 2) and row["result"].startswith("pass true" if row["exit"] == 0 else "error: ")
        assert (row["work_per_s"] is not None) == row["exhaustive"]
        assert set(row["share"]) == set(grid.READERS)
        assert all(0 <= share < 1 for share in row["share"].values())
