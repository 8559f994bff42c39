"""Time each layer of one retrieval over a fixed, seeded grid of sizes,
or each command of a fixed list of audits.

    python3 bench/grid.py --seed 1 --out bench/BENCH_1.json
    python3 bench/grid.py --grid audit --out bench/BENCH_2.json

Retrieval rows are the csa sizes of ROADMAP.md's Status table and the four
instances of perfbench's retrieve-mix workload. Per row it times the
scheme's steps (storage, the N queries, the N answers, decode), the wire
(the 2N QUERY and ANSWER lines built and formatted from their payloads, and
the parse of the whole transcript), one whole `sim.run_retrieval`, and
`sim.replay` of its transcript, each called directly, with no trace
wrappers. Symbols per second is L over the retrieval's time.

Audit rows are the commands of ROADMAP.md's Audit CLI table, refusals
included. Per row it times `xstpir audit` as `cli.main` runs it in this
process (the report written to a temporary directory), and gives the exit
code, the report's verdict or the refusal's message, the engine's work
(`audit.estimate_work`, in `audit.WORK_UNITS`) and, for an exact run, that
work per second, and the share of the time spent in `affine.share_map` and
`affine.query_maps`, which the runner wraps while it times the row.

Each figure is the median over RUNS runs. A run repeats its call until it
has taken at least MIN_MS, and gives the mean time per call. It is
scaled, as perfbench scales its end-to-end times, by perfbench's reference
kernel time over the kernel's time around the run (perfbench/run.py's
`calibrate`, imported read-only), so figures from different runs of the
machine can be compared; the raw medians are kept beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xstpir import affine, audit, cli, sim  # noqa: E402
from xstpir.scheme import SCHEMES  # noqa: E402


def _perfbench_run():
    """perfbench/run.py as a module, loaded without writing its bytecode
    under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module, wrote = importlib.util.module_from_spec(spec), sys.dont_write_bytecode
    sys.modules[spec.name], sys.dont_write_bytecode = module, True  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = wrote
    return module


_PERFBENCH = _perfbench_run()
calibrate, CAL_REFERENCE_MS = _PERFBENCH.calibrate, _PERFBENCH.CAL_REFERENCE_MS

# (scheme, N, K, X, T, the grids it belongs to)
ROWS = (
    ("csa", 5, 2, 1, 1, ("status", "retrieve-mix")),
    ("csa", 12, 64, 2, 2, ("status",)),
    ("csa", 24, 256, 4, 4, ("status",)),
    ("csa", 48, 256, 8, 8, ("status",)),
    ("download_all", 3, 4, 1, 2, ("retrieve-mix",)),
    ("binary_n3", 3, 8, 1, 1, ("retrieve-mix",)),
    ("sym_xspir", 3, 4, 2, 1, ("retrieve-mix",)),
)
# Timings per step, and the least time one timing spends in its calls.
RUNS, MIN_MS = 5, 20.0
STEPS = ("storage", "queries", "answers", "decode", "wire_format", "wire_parse", "retrieval", "replay")
# The `xstpir audit` options of each audit row.
AUDIT_ROWS = (
    "--scheme csa -N 5 -K 2 -X 1 -T 1 --property sym-security",
    "--scheme csa -N 5 -K 2 -X 1 -T 1 --property sym-security --sampled",
    "--scheme csa -N 12 -K 64 -X 2 -T 2 --property security",
    "--scheme csa -N 12 -K 64 -X 2 -T 2 --property privacy",
    "--scheme csa -N 12 -K 64 -X 2 -T 2 --property correctness",
    "--scheme csa -N 12 -K 64 -X 2 -T 2 --property sym-security --sampled --samples 200",
    "--scheme csa -N 24 -K 256 -X 4 -T 4 --property security",
    "--scheme csa -N 24 -K 256 -X 4 -T 4 --property privacy",
    "--scheme csa -N 24 -K 256 -X 4 -T 4 --property sym-security",
    "--scheme binary_n3 -N 3 -K 16 -X 1 -T 1 --property sym-security",
    "--scheme sym_xspir -N 2 -K 64 -X 1 -T 1 --property correctness",
)
# The affine readers whose share of an audit's time a row reports.
READERS = ("share_map", "query_maps")


def _cal() -> float:
    return statistics.median(calibrate() for _ in range(3))


def time_call(fn, runs: int, min_ms: float) -> dict:
    """Calibrated and raw medians, in ms, of `runs` timings of `fn`, each
    the mean of as many calls as fill `min_ms`."""
    start = time.perf_counter()
    fn()  # warm the caches a retrieval at these dimensions fills once
    reps = max(1, int(min_ms / max((time.perf_counter() - start) * 1e3, 1e-3)))
    raw, scaled = [], []
    for _ in range(runs):
        before = _cal()
        start = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        ms = (time.perf_counter_ns() - start) / 1e6 / reps
        raw.append(ms)
        scaled.append(ms * 2 * CAL_REFERENCE_MS / (before + _cal()))
    return {"ms": statistics.median(scaled), "raw_ms": statistics.median(raw), "runs": runs, "calls": reps}


def measure_row(name: str, dims: tuple[int, int, int, int], runs: int, min_ms: float, seed: int) -> dict:
    """Every step of one retrieval of message K at these dimensions."""
    scheme = SCHEMES[name].make(*dims)
    rng = Random(seed)
    messages, theta = scheme.messages.sample(rng), scheme.K
    noise, randomness = scheme.storage_noises.sample(rng), scheme.query_randomness.sample(rng)
    shares = scheme.storage(messages, noise)
    queries = scheme.queries(theta, randomness)
    answers = [scheme.answer(s, q) for s, q in zip(shares, queries)]
    run = sim.run_retrieval(scheme.params, messages, theta, seed)
    text, wire = run.transcript.render(), run.transcript.queries + run.transcript.answers
    if scheme.decode(theta, answers) != run.plaintext or sim.replay(text)[1] != run.plaintext:
        raise SystemExit(f"{scheme.describe()}: a step decoded another value")
    calls = {
        "storage": lambda: scheme.storage(messages, noise),
        "queries": lambda: scheme.queries(theta, randomness),
        "answers": lambda: [scheme.answer(s, q) for s, q in zip(shares, queries)],
        "decode": lambda: scheme.decode(theta, answers),
        # fresh messages: a message keeps its line once formatted
        "wire_format": lambda: [sim.WireMessage(m.kind, m.server_id, m.payload).encode() for m in wire],
        "wire_parse": lambda: sim.Transcript.parse(text),
        "retrieval": lambda: sim.run_retrieval(scheme.params, messages, theta, seed),
        "replay": lambda: sim.replay(text),
    }
    steps = {step: time_call(calls[step], runs, min_ms) for step in STEPS}
    retrieval = steps["retrieval"]
    return {
        "scheme": name, **scheme.header(), "theta": theta, "wire_bytes": len(text.encode()),
        "steps": steps,
        "symbols_per_s": {"value": scheme.L / retrieval["ms"] * 1e3, "raw": scheme.L / retrieval["raw_ms"] * 1e3},
    }


def measure_audit(options: str, runs: int, min_ms: float) -> dict:
    """`xstpir audit <options>` timed in this process, with what it
    reported and the share of its time in each of READERS."""
    args = cli.build_parser().parse_args(["audit", *options.split()])
    scheme = SCHEMES[args.scheme].make(args.N, args.K, args.X, args.T, p=args.prime)
    kind = cli.AUDITS[args.property][1]
    engine, work = audit.exact_engine(scheme, kind), audit.estimate_work(scheme, kind, args.subset_size)
    spent = dict.fromkeys(("audit", *READERS), 0)

    def timed(name, fn):
        def call(*a, **kw):
            start = time.perf_counter_ns()
            try:
                return fn(*a, **kw)
            finally:
                spent[name] += time.perf_counter_ns() - start
        return call

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["audit", *options.split(), "--out", str(Path(tmp) / "report.txt")]
        out, err, codes = io.StringIO(), io.StringIO(), set()
        originals = {name: getattr(affine, name) for name in READERS}
        try:
            for name, fn in originals.items():
                setattr(affine, name, timed(name, fn))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                wall = time_call(timed("audit", lambda: codes.add(cli.main(argv))), runs, min_ms)
        finally:
            for name, fn in originals.items():
                setattr(affine, name, fn)
    (code,) = codes
    report = dict(line.split(" ", 1) for line in out.getvalue().splitlines() if line.startswith(("exhaustive ", "pass ")))
    exact = report.get("exhaustive") == "true"
    return {
        "options": options, "exit": code,
        "result": err.getvalue().splitlines()[0] if code == 2 else f"pass {report['pass']}",
        "exhaustive": exact, "engine": engine,
        "work": audit._figure(work), "work_units": audit.WORK_UNITS[engine].split(" (")[0],
        "wall": wall,
        # the work of the exact mode, which only an exact run does
        "work_per_s": {"value": work / wall["ms"] * 1e3, "raw": work / wall["raw_ms"] * 1e3} if exact else None,
        "share": {name: spent[name] / spent["audit"] for name in READERS},
    }


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_size() -> dict:
    """`wc -l` and `wc -c` of src/xstpir/*.py, totals."""
    data = [path.read_bytes() for path in sorted((ROOT / "src" / "xstpir").glob("*.py"))]
    return {"lines": sum(d.count(b"\n") for d in data), "bytes": sum(map(len, data))}


def grid(seed: int, kind: str = "retrieval") -> dict:
    cals, measured, status = [_cal()], [], _git("status", "--porcelain", "--", "src")
    if kind == "audit":
        jobs = [lambda o=options: measure_audit(o, RUNS, MIN_MS) for options in AUDIT_ROWS]
    else:
        jobs = [lambda r=row: {**measure_row(r[0], r[1:5], RUNS, MIN_MS, seed), "grids": list(r[5])}
                for row in ROWS]
    for job in jobs:
        measured.append(job())
        cals.append(_cal())
    return {
        "bench": f"{kind} grid",
        "git_sha": _git("rev-parse", "HEAD"),
        # the measured sources differ from git_sha's where this is true
        "src_uncommitted_changes": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cal_ms": statistics.median(cals),
        "cal_reference_ms": CAL_REFERENCE_MS,
        "src_xstpir": source_size(),
        "seed": seed,
        "runs": RUNS,
        "min_ms": MIN_MS,
        "rows": measured,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", choices=("retrieval", "audit"), default="retrieval",
                        help="the rows to measure (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the retrieval inputs; an audit row runs at the CLI's seed (default: %(default)s)")
    parser.add_argument("--out", help="JSON path (default: bench/BENCH_1.json, or BENCH_2.json for audits)")
    args = parser.parse_args(argv)
    out = args.out or str(ROOT / "bench" / ("BENCH_2.json" if args.grid == "audit" else "BENCH_1.json"))
    record = grid(args.seed, args.grid)
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    for row in record["rows"]:
        if args.grid == "audit":
            shares = " ".join(f"{name}={row['share'][name]:.1%}" for name in READERS)
            print(f"{row['options']}: {row['result']}, {row['wall']['ms']:.4g} ms, {shares}")
            continue
        steps = " ".join(f"{s}={row['steps'][s]['ms']:.4g}" for s in STEPS)
        print(f"{row['scheme']} ({row['N']},{row['K']},{row['X']},{row['T']}) p={row['p']} ms: {steps} "
              f"symbols/s={row['symbols_per_s']['value']:.4g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
