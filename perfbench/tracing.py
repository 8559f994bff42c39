"""Spans recorded from outside the program.

`Tracer.install` replaces public functions of xstpir's `csa`, `special`,
`sim` and `audit` modules (and `Transcript.render`/`parse`) with wrappers
that record one span per call: name, span id, parent id, op id, start and
end (`perf_counter_ns`), and, for the csa steps, the multiply-adds the call
performs as computed from its inputs. A span's parent is the innermost open
span of its own thread; a server thread has none of its own, so its spans
hang under the innermost open span of the thread running the op, the single
outstanding op. Spans stay in memory; `write` saves them when the run ends.

`per_layer` turns the spans of the traced ops, plus the exact counts the
checker took from the transcripts and reports, into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter_ns

from workloads import audit_entries


# csa multiply-adds per call, computed from the call's inputs:
# encode N*L*X*K, queries N*L*(T+1)*K + N*L^2, answer L*K, decode N^2*(N+1).
def _encode_work(messages, noise, params):
    return params.N * params.L * params.X * params.K


def _queries_work(theta, qnoise, params):
    return params.N * params.L * (params.T + 1) * params.K + params.N * params.L**2


def _answer_work(share, query):
    return len(share.rows) * len(share.rows[0])


def _decode_work(answers, params):
    return params.N**2 * (params.N + 1)


CSA_STEPS = ("csa.encode_storage", "csa.gen_queries", "csa.answer", "csa.decode")
SPECIAL_STEPS = (
    "special.download_all_encode", "special.download_all_decode",
    "special.binary_storage", "special.binary_queries",
    "special.sym_xspir_storage", "special.sym_xspir_queries",
)
SCHEMES = ("csa", "download_all", "binary_n3", "sym_xspir")
AUDITORS = ("audit_security", "audit_privacy", "audit_sym_security", "audit_correctness")
AUDIT_NAMES = tuple(e.name for e in audit_entries(0))


def _targets():
    """(owner, attribute, span name, work function) for every wrapped call."""
    from xstpir import audit, csa, sim, special

    work = dict(zip(CSA_STEPS, (_encode_work, _queries_work, _answer_work, _decode_work)))
    out = [(csa, step.split(".")[1], step, work[step]) for step in CSA_STEPS]
    out.append((csa, "solve_linear", "field.solve_linear", None))
    out += [(special, step.split(".")[1], step, None) for step in SPECIAL_STEPS]
    out += [
        (sim, "run_retrieval", "sim.run_retrieval", None),
        (sim, "replay", "sim.replay", None),
        (sim.Transcript, "render", "sim.render", None),
        (sim.Transcript, "parse", "sim.parse", None),
    ]
    out += [(audit, name, f"audit.{name}", None) for name in AUDITORS]
    return out


class Tracer:
    def __init__(self):
        # (op, span id, parent id, name, start ns, end ns, multiply-adds)
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, op: int) -> None:
        self.op = op
        self._op_stack = self._stack()

    def wrap(self, name: str, fn, work=None):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._op_stack
            parent = outer[-1] if outer else 0
            sid = next(ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end,
                              work(*args, **kwargs) if work else 0))

        return traced

    def install(self) -> None:
        for owner, attr, name, work in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, work))
            else:
                wrapped = self.wrap(name, original, work)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """JSON lines: one header, then one array per span (fields as above)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_ns",
                                            "end_ns", "muladds"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class OpProfile:
    """The spans of one traced op, summed by name."""

    def __init__(self, spans: list[tuple]):
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, _, parent, _, start, end, _ in spans:
            children[parent].append((start, end))
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.muladds = 0
        self.kernel_muladds = 0  # encode, gen_queries and answer only
        self.audits: list[int] = []  # audit span durations, in call order
        self.audit_scheme_ns = 0
        for _, sid, _, name, start, end, work in sorted(spans, key=lambda s: s[4]):
            dur = end - start
            self.ns[name] += dur
            self.calls[name] += 1
            self.muladds += work
            if name != "csa.decode":
                self.kernel_muladds += work
            if name in ("sim.run_retrieval", "sim.replay") or name.startswith("audit."):
                covered = _covered(children[sid], start, end)
                self.self_ns[name] += dur - covered
                if name.startswith("audit."):
                    self.audits.append(dur)
                    self.audit_scheme_ns += covered


def _median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("field.solve_linear.ms", "ms"), ("field.solve_linear.calls", "count"),
           ("field.muladds_per_s", "1/s")]
    for step in CSA_STEPS:
        out += [(f"{step}.ms", "ms"), (f"{step}.calls", "count")]
    out.append(("csa.muladds", "count"))
    out += [(f"{step}.ms", "ms") for step in SPECIAL_STEPS]
    out.append(("sim.run_retrieval.ms", "ms"))
    out += [(f"sim.run_retrieval.{s}.ms", "ms") for s in SCHEMES]
    out += [
        ("sim.transport.self_ms", "ms"), ("sim.threads_per_op", "count"),
        ("sim.render.ms", "ms"), ("sim.parse.ms", "ms"), ("sim.replay.self_ms", "ms"),
        ("sim.wire_bytes", "B"), ("sim.upload_symbols", "count"),
        ("sim.download_symbols", "count"),
    ]
    for name in AUDIT_NAMES:
        out += [(f"audit.{name}.s", "s"), (f"audit.{name}.enumerated", "count")]
    out += [("audit.realizations_per_s", "1/s"), ("audit.scheme_ms", "ms"),
            ("audit.self_ms", "ms"), ("trace_overhead_frac", "ratio")]
    return out


def per_layer(spans, label, window, untraced_ns, traced_ns):
    """Per-layer metrics as {name: (value, samples)}.

    `label(op)` names the op's scheme, `window` holds the count dicts of the
    first COUNT_OPS ops, and the two duration lists give the tracing
    overhead. A `.ms` metric is the median, over the traced ops that made
    the call, of the op's total time in it (0 where no op did); `.calls`
    and `csa.muladds` are means per traced op; the sim and audit counts
    are means over the first COUNT_OPS ops.
    """
    by_op: dict[int, list] = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    profiles = {op: OpProfile(s) for op, s in by_op.items()}
    n = len(traced_ns)
    out: dict[str, tuple[float, int]] = {}

    def timed(metric, name, ops=None, field="ns"):
        vals = [getattr(p, field)[name] for op, p in profiles.items()
                if (ops is None or op in ops) and p.calls[name]]
        out[metric] = (_median_ms(vals), len(vals))

    for step in ("field.solve_linear",) + CSA_STEPS + SPECIAL_STEPS + (
            "sim.run_retrieval", "sim.render", "sim.parse"):
        timed(f"{step}.ms", step)
    for step in ("field.solve_linear",) + CSA_STEPS:
        out[f"{step}.calls"] = (sum(p.calls[step] for p in profiles.values()) / n, n)
    kernel_ns = sum(p.ns[s] for p in profiles.values() for s in CSA_STEPS[:3])
    kernel_work = sum(p.kernel_muladds for p in profiles.values())
    out["field.muladds_per_s"] = (kernel_work / kernel_ns * 1e9 if kernel_ns else 0.0, n)
    out["csa.muladds"] = (sum(p.muladds for p in profiles.values()) / n, n)
    for scheme in SCHEMES:
        ops = {op for op in profiles if label(op) == scheme}
        timed(f"sim.run_retrieval.{scheme}.ms", "sim.run_retrieval", ops)
    timed("sim.transport.self_ms", "sim.run_retrieval", field="self_ns")
    timed("sim.replay.self_ms", "sim.replay", field="self_ns")

    for name in ("sim.threads_per_op", "sim.wire_bytes", "sim.upload_symbols",
                 "sim.download_symbols"):
        out[name] = (sum(c.get(name, 0) for c in window) / len(window), len(window))

    audit_ops = [p for p in profiles.values() if len(p.audits) == len(AUDIT_NAMES)]
    enum_ns = enum_work = 0
    for k, name in enumerate(AUDIT_NAMES):
        key = f"audit.{name}.enumerated"
        enumerated = sum(c.get(key, 0) for c in window) / len(window)
        out[key] = (enumerated, len(window))
        durations = [p.audits[k] for p in audit_ops]
        out[f"audit.{name}.s"] = (_median_ms(durations) / 1e3, len(durations))
        if enumerated:
            enum_ns += sum(durations)
            enum_work += enumerated * len(durations)
    out["audit.realizations_per_s"] = (enum_work / enum_ns * 1e9 if enum_ns else 0.0,
                                       len(audit_ops))
    out["audit.scheme_ms"] = (_median_ms([p.audit_scheme_ns for p in audit_ops]),
                              len(audit_ops))
    out["audit.self_ms"] = (
        _median_ms([sum(p.self_ns[f"audit.{a}"] for a in AUDITORS) for p in audit_ops]),
        len(audit_ops),
    )
    out["trace_overhead_frac"] = (
        statistics.median(traced_ns) / statistics.median(untraced_ns) - 1,
        len(traced_ns) + len(untraced_ns),
    )
    return out
