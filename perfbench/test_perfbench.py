"""Tests of the benchmark itself: seeded inputs, exact counts, the checker,
and a short run of every workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
from array import array
from fractions import Fraction

import pytest

import run
import workloads
from tracing import per_layer, per_layer_units

run.import_program()

from xstpir.audit import AuditReport  # noqa: E402

CHEAP = ("retrieve-mix", "retrieve-bulk", "replay-verify")
ROUND = {"retrieve-mix": 4}  # ops in one round of the workload's instances
COUNT_METRICS = ("csa.muladds", "sim.threads_per_op", "sim.wire_bytes",
                 "sim.upload_symbols", "sim.download_symbols")


def _inputs(wl):
    if isinstance(wl, workloads.RetrieveWorkload):
        return [inst.truth for inst in wl.instances]
    if isinstance(wl, workloads.ReplayWorkload):
        return wl.texts
    return [entry.kwargs for entry in wl.entries]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(name):
    first = _inputs(workloads.make(name, 7))
    assert first == _inputs(workloads.make(name, 7))
    assert first != _inputs(workloads.make(name, 8))


def _counts(name, seed):
    wl = workloads.make(name, seed)
    m = run.measure(wl, 0, True, max_ops=2 * wl.cycle)
    assert m.tally.failed == 0
    metrics = per_layer(m.tracer.spans, wl.label, [c.counts for c in m.tally.window],
                        m.untraced, m.traced)
    return {k: metrics[k][0] for k in COUNT_METRICS}


@pytest.mark.parametrize("name", CHEAP)
def test_counts_repeat_exactly(name):
    first = _counts(name, 3)
    assert first == _counts(name, 3)
    assert first["sim.download_symbols"] > 0


def test_counts_are_computed_from_inputs():
    counts = _counts("retrieve-bulk", 1)
    n, k, x, t, length = 12, 64, 2, 2, 8
    assert counts["csa.muladds"] == (
        n * length * x * k + n * length * (t + 1) * k + n * length**2
        + n * length * k + n**2 * (n + 1)
    )
    assert counts["sim.threads_per_op"] == n
    assert counts["sim.upload_symbols"] == n * length * k
    assert counts["sim.download_symbols"] == n


@pytest.mark.parametrize("name", ("retrieve-mix", "retrieve-bulk"))
def test_checker_flags_a_corrupted_symbol(name):
    wl = workloads.make(name, 1)
    run_, text = wl.run_op(0)
    assert wl.check(0, (run_, text)).failed == 0
    decoded = list(run_.transcript.decoded)
    decoded[0] ^= 1
    bad = dataclasses.replace(
        run_, transcript=dataclasses.replace(run_.transcript, decoded=tuple(decoded))
    )
    checked = wl.check(0, (bad, text))
    assert (checked.failed, checked.symbols) == (1, 0)


def test_checker_flags_a_replay_that_disagrees():
    wl = workloads.make("replay-verify", 1)
    transcript, decoded = wl.run_op(0)
    assert wl.check(0, (transcript, decoded)).failed == 0
    wrong = (decoded[0] + 1,) + tuple(decoded[1:])
    assert wl.check(0, (transcript, wrong)).failed == 1


def _truthful_reports(wl):
    return [
        AuditReport("P", e.name, 1, 1, Fraction(0 if e.secure else 1), e.secure, True, 1)
        for e in wl.entries
    ]


def test_checker_flags_a_flipped_verdict():
    wl = workloads.make("audit-suite", 1)
    reports = _truthful_reports(wl)
    assert wl.check(0, reports).failed == 0
    for k, report in enumerate(reports):
        flipped = list(reports)
        flipped[k] = dataclasses.replace(report, passed=not report.passed)
        assert wl.check(0, flipped).failed == 1
    nonzero = list(reports)
    nonzero[0] = dataclasses.replace(reports[0], max_tv_distance=Fraction(1, 9))
    assert wl.check(0, nonzero).failed == 1
    raised = list(reports)
    raised[1] = RuntimeError("boom")
    assert wl.check(0, raised).failed == 1


def test_scaling_uses_the_calibrations_around_each_op():
    m = run.Measured(array("q", [1000, 3000]), array("q"), None, None,
                     array("d", [1.0, 3.0, 2.0]), array("l", [1, 2]))
    reference = run.CAL_REFERENCE_MS
    assert run.scaled_durations(m) == [1000 * reference / 2.0, 3000 * reference / 2.5]


def _run(name, trace, tmp_path, max_ops):
    args = run.parse_args(["--workload", name, "--seed", "2", "--seconds", "0",
                           "--trace", str(trace)])
    result = run.run(args, run.start_clock(), max_ops=max_ops, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_untraced(name, tmp_path):
    result = _run(name, 0, tmp_path, max_ops=ROUND.get(name, 1))
    assert list(result["metrics"]) == list(run.CONTRACT_METRICS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced(name, tmp_path):
    result = _run(name, 1, tmp_path, max_ops=2 * ROUND.get(name, 1))
    assert list(result["metrics"]) == [n for n, _ in per_layer_units()]
    assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0
    assert result["correct"]
    if name == "audit-suite":
        for entry in workloads.audit_entries(2):
            assert result["metrics"][f"audit.{entry.name}.s"]["value"] > 0
    else:
        assert result["metrics"]["sim.run_retrieval.ms"]["value"] > 0 or (
            result["metrics"]["sim.parse.ms"]["value"] > 0
        )


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (n, run.END_TO_END_UNITS[n]) for n in run.CONTRACT_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_units()
