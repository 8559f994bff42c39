"""Run one benchmark workload against the xstpir sources of this checkout.

    python3 perfbench/run.py --workload retrieve-mix --seed 1 --seconds 20 --trace 0

A closed loop with one operation outstanding runs the workload's ops for
`--seconds` seconds in this single-threaded process (stopping only at the
end of a round of the workload's instances), checks every output against
the benchmark's own ground truth, and prints one `# name value unit n=...`
line per metric, a `# record {...}` line with the run record, and, last,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. Their times are scaled to a
fixed machine speed: a calibration kernel that does not touch xstpir runs
between ops, and each op's time is multiplied by CAL_REFERENCE_MS over the
kernel's time around it (the `raw.*` lines print the unscaled figures).
`--trace 1` alternates rounds
without and with span wrappers installed, reports the per-layer metrics
and writes the spans to .perfbench/trace-<workload>.jsonl. It exits 1,
printing no result, when the checkout has no xstpir sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("retrieve-mix", "retrieve-bulk", "replay-verify", "audit-suite")
# Set-up is timed in this process and again in fresh ones: at least
# MIN_PROBES of them, and more, up to MAX_PROBES, while they have taken less
# than PROBE_SECONDS, so that a cheap set-up gets more samples.
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 8, 1.0
# The machine this benchmark was built on switches, every few seconds to
# minutes, between speeds about 1.6 times apart, and a fixed pure-Python
# kernel tracks the switch closely. Timing it (the median of three runs) at
# least every CAL_EVERY_S between ops lets each op's time be scaled to the
# speed at which the kernel takes CAL_REFERENCE_MS.
CAL_EVERY_S, CAL_REFERENCE_MS = 0.1, 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "symbols_per_s": "1/s",
    "download_per_symbol": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "raw.setup_s": "s",
    "raw.op_p50_ms": "ms",
    "raw.ops_per_s": "1/s",
    "cal_ms": "ms",
}
# The end-to-end metrics every workload has, and so the ones the last line
# carries; the others are printed on the `#` lines only.
CONTRACT_METRICS = ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb")


def import_program() -> None:
    """Import xstpir from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import xstpir
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import xstpir from {src}: {exc}")
    if Path(xstpir.__file__).resolve().parent != src / "xstpir":
        sys.exit(f"perfbench: xstpir came from {xstpir.__file__}, not {src}")


class _Elem:
    """A small value object with arithmetic dunders, like a field element."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __add__(self, other: "_Elem") -> "_Elem":
        return _Elem((self.v + other.v) % 1000003)

    def __mul__(self, other: "_Elem") -> "_Elem":
        return _Elem((self.v * other.v) % 1000003)


def calibrate() -> float:
    """Milliseconds one run of a fixed pure-Python kernel takes now: an
    integer loop with tuple and dict stores, then small-object arithmetic."""
    start = time.perf_counter_ns()
    acc, seen, out = 1, {}, []
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
        if i & 15 == 0:
            out.append((acc, i))
            seen[acc & 255] = i
    a, b = _Elem(3), _Elem(5)
    row = [_Elem(i) for i in range(64)]
    for _ in range(20):
        total = _Elem(1)
        for x in row:
            total = total + x * a
        row = [x * b + total for x in row]
    return (time.perf_counter_ns() - start) / 1e6


def _cal3() -> float:
    return statistics.median(calibrate() for _ in range(3))


def start_clock() -> tuple[float, float]:
    """(the set-up clock's start, the kernel's ms just before it)."""
    cal = _cal3()
    return time.perf_counter(), cal


def setup_sample(clock: tuple[float, float]) -> tuple[float, float]:
    """One set-up: (seconds since the clock started, mean of the kernel's ms
    just before and just after)."""
    elapsed = time.perf_counter() - clock[0]
    return elapsed, (clock[1] + _cal3()) / 2


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """`setup_sample` of a fresh process: from before `import xstpir` to a
    workload ready for its first op."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    elapsed, cal = out.stdout.split()[-2:]
    return float(elapsed), float(cal)


def _p90(values: list[int]) -> int:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


@dataclass
class Measured:
    untraced: array  # ns per untraced op
    traced: array  # ns per traced op
    tally: object
    tracer: object
    cal: array  # calibration kernel ms, in the order taken
    marks: array  # per op: how many calibrations ran before it


def measure(wl, seconds: float, trace: bool, max_ops: int | None = None) -> Measured:
    """Run ops until `seconds` have passed (or `max_ops` ran) at the end of
    a round, timing the calibration kernel between them."""
    from workloads import Checked, Tally

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    m = Measured(array("q"), array("q"), Tally(), tracer, array("d"), array("l"))
    deadline = time.perf_counter() + seconds
    calibrated = -CAL_EVERY_S
    i = 0
    while True:
        if time.perf_counter() - calibrated >= CAL_EVERY_S:
            m.cal.append(_cal3())
            calibrated = time.perf_counter()
        m.marks.append(len(m.cal))
        on = trace and (i // wl.cycle) % 2 == 1
        if on:
            tracer.install()
            tracer.begin(i)
        start = time.perf_counter_ns()
        try:
            out, error = wl.run_op(i), None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out, error = None, exc
        elapsed = time.perf_counter_ns() - start
        if on:
            tracer.uninstall()
        (m.traced if on else m.untraced).append(elapsed)
        if error is None:
            m.tally.add(wl.check(i, out))
        else:
            m.tally.add(Checked(wl.outputs_per_op, wl.outputs_per_op,
                              errors=[f"op {i} raised {type(error).__name__}: {error}"]))
        i += 1
        if i == max_ops:
            break
        if i % wl.cycle == 0 and time.perf_counter() >= deadline:
            if not trace or (m.untraced and m.traced):
                break
    m.cal.append(_cal3())
    return m


def scaled_durations(m: Measured) -> list[float]:
    """Each op's ns scaled by CAL_REFERENCE_MS over the mean of the
    calibrations just before and just after it."""
    return [
        ns * 2 * CAL_REFERENCE_MS / (m.cal[k - 1] + m.cal[k])
        for ns, k in zip(m.untraced, m.marks)
    ]


def end_to_end(setup: list[tuple[float, float]], m: Measured) -> dict:
    """End-to-end metrics as {name: (value, samples)}; times are scaled to
    the reference speed, the `raw.*` ones are not."""
    tally, raw = m.tally, m.untraced
    durations = scaled_durations(m)
    busy_s = sum(durations) / 1e9
    out = {
        "setup_s": (statistics.median(s * CAL_REFERENCE_MS / c for s, c in setup), len(setup)),
        "op_p50_ms": (statistics.median(durations) / 1e6, len(durations)),
    }
    if len(durations) >= 100:
        out["op_p90_ms"] = (_p90(durations) / 1e6, len(durations))
    out["ops_per_s"] = (len(durations) / busy_s, len(durations))
    retrieved = sum(c.retrieved for c in tally.window)
    if retrieved:
        out["symbols_per_s"] = (tally.symbols / busy_s, len(durations))
        downloaded = sum(c.counts.get("sim.download_symbols", 0) for c in tally.window)
        out["download_per_symbol"] = (downloaded / retrieved, len(tally.window))
    out["failed_frac"] = (tally.failed / tally.attempted, tally.attempted)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    out["raw.setup_s"] = (statistics.median(s for s, _ in setup), len(setup))
    out["raw.op_p50_ms"] = (statistics.median(raw) / 1e6, len(raw))
    out["raw.ops_per_s"] = (len(raw) / (sum(raw) / 1e9), len(raw))
    out["cal_ms"] = (statistics.median(m.cal), len(m.cal))
    return out


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args) -> dict:
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run(args, clock: tuple[float, float], max_ops: int | None = None,
        out_dir: Path | None = None):
    """Set up, measure and report one workload; return the result object.

    `clock` is `start_clock()` taken before xstpir was imported.
    """
    import workloads

    wl = workloads.make(args.workload, args.seed)
    setup = [setup_sample(clock)]
    probing = time.perf_counter()
    while not args.trace and (len(setup) <= MIN_PROBES or (
            len(setup) <= MAX_PROBES and time.perf_counter() - probing < PROBE_SECONDS)):
        setup.append(probe_setup(args.workload, args.seed))
    m = measure(wl, args.seconds, bool(args.trace), max_ops)
    tally = m.tally
    for line in tally.errors:
        print(f"# check failed: {line}")
    if args.trace:
        from tracing import per_layer, per_layer_units

        metrics = per_layer(m.tracer.spans, wl.label, [c.counts for c in tally.window],
                            m.untraced, m.traced)
        units = dict(per_layer_units())
        out_dir = out_dir or ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        m.tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        reported = list(units)
    else:
        metrics = end_to_end(setup, m)
        units = END_TO_END_UNITS
        reported = list(CONTRACT_METRICS)
    for name, (value, samples) in metrics.items():
        print(f"# {name} {value:.6g} {units[name]} n={samples}")
    record = run_record(args)
    record["samples"] = {name: samples for name, (_, samples) in metrics.items()}
    print("# record " + json.dumps(record))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in reported},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    clock = start_clock()
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed)
        print(*setup_sample(clock))
        return 0
    print(json.dumps(run(args, clock)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
