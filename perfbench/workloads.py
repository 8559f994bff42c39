"""The four benchmark workloads.

Each workload builds its inputs from the workload seed alone, runs one
operation per `run_op` call through the public xstpir API, and checks the
result in `check` against ground truth that the benchmark holds itself: its
own copy of every message, its own reading of each transcript's DECODED
line, and verdicts taken from the paper's theorems.

Every call into xstpir goes through a module or class attribute looked up
at call time (`sim.run_retrieval`, `getattr(audit, ...)`), so the wrappers
that the traced run installs on those attributes see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from xstpir import audit, sim
from xstpir.csa import CsaParams, MessageSet
from xstpir.special import DownloadAllParams, SymXspirParams

# Exact counts are averaged over this many leading ops, so that they depend
# only on the seed and never on how many ops fit in the measured time.
COUNT_OPS = 16


@dataclass
class Checked:
    """The checker's verdict on one op.

    `attempted` and `failed` count checked outputs (one per retrieval or
    replay, one per audit entry). `symbols` are desired symbols decoded and
    verified, `retrieved` the symbols the op asked for. `counts` holds the
    exact per-op counts reported as per-layer metrics.
    """

    attempted: int
    failed: int
    symbols: int = 0
    retrieved: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


@dataclass
class Tally:
    """Running totals of the checker's verdicts over a run.

    Only the first COUNT_OPS ops are kept whole (for the exact counts) and
    only the first few error messages, so the benchmark's own memory does
    not grow with the number of ops and `peak_rss_mb` stays the program's.
    """

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    symbols: int = 0
    window: list[Checked] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def add(self, checked: Checked) -> None:
        self.ops += 1
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.symbols += checked.symbols
        if len(self.window) < COUNT_OPS:
            self.window.append(checked)
        self.errors.extend(checked.errors[: 5 - len(self.errors)])


@dataclass(frozen=True)
class Instance:
    """One retrieval instance: params, the scheme's message object, and the
    benchmark's own copy of the messages (row k is message k + 1)."""

    scheme: str
    params: object
    messages: object
    truth: tuple[tuple[int, ...], ...]

    @property
    def K(self) -> int:
        return len(self.truth)


def _field_instance(scheme: str, params, rng: Random) -> Instance:
    """csa and download_all: a K x L MessageSet over GF(p)."""
    truth = tuple(
        tuple(rng.randrange(params.p) for _ in range(params.L))
        for _ in range(params.K)
    )
    return Instance(scheme, params, MessageSet.from_ints(truth, params.field), truth)


def _binary_instance(k: int, rng: Random) -> Instance:
    truth = tuple((rng.randrange(2),) for _ in range(k))
    return Instance("binary_n3", k, tuple(row[0] for row in truth), truth)


def _sym_xspir_instance(params: SymXspirParams, rng: Random) -> Instance:
    truth = tuple((rng.randrange(params.p),) for _ in range(params.K))
    messages = tuple(params.field(row[0]) for row in truth)
    return Instance("sym_xspir", params, messages, truth)


def wire_counts(transcript, text: str) -> dict[str, int]:
    """Symbols and bytes a transcript put on the wire.

    `text` is the rendered transcript; its QUERY and ANSWER lines (with
    their newlines) are the wire bytes.
    """
    return {
        "sim.upload_symbols": sum(len(q.payload) for q in transcript.queries),
        "sim.download_symbols": sum(len(a.payload) for a in transcript.answers),
        "sim.wire_bytes": sum(
            len(line) + 1
            for line in text.splitlines()
            if line.startswith(("QUERY ", "ANSWER"))
        ),
    }


class RetrieveWorkload:
    """One `run_retrieval` plus `Transcript.render` per op, round-robin over
    the instances, theta cycling over 1..K of each instance."""

    outputs_per_op = 1

    def __init__(self, seed: int, instances: list[Instance]):
        self.seed = seed
        self.instances = instances
        # A traced run alternates whole rounds, so every instance is traced.
        self.cycle = len(instances)

    def _pick(self, i: int) -> tuple[Instance, int]:
        inst = self.instances[i % self.cycle]
        return inst, (i // self.cycle) % inst.K + 1

    def label(self, i: int) -> str:
        return self._pick(i)[0].scheme

    def run_op(self, i: int):
        inst, theta = self._pick(i)
        run = sim.run_retrieval(
            inst.params, inst.messages, theta, self.seed * 1_000_000 + i
        )
        return run, run.transcript.render()

    def check(self, i: int, out) -> Checked:
        inst, theta = self._pick(i)
        run, text = out
        want = inst.truth[theta - 1]
        got = tuple(run.transcript.decoded)
        ok = got == want
        counts = wire_counts(run.transcript, text)
        counts["sim.threads_per_op"] = len(run.transcript.queries)
        return Checked(
            1, 0 if ok else 1, len(want) if ok else 0, len(want), counts,
            [] if ok else [f"op {i} {inst.scheme} theta {theta}: decoded {got}, want {want}"],
        )


def retrieve_mix(seed: int) -> RetrieveWorkload:
    rng = Random(seed)
    instances = [
        _field_instance("csa", CsaParams.make(5, 2, 1, 1), rng),
        _field_instance("download_all", DownloadAllParams.make(3, 4, 1, 2), rng),
        _binary_instance(8, rng),
        _sym_xspir_instance(SymXspirParams.make(2, 4), rng),
    ]
    return RetrieveWorkload(seed, instances)


def retrieve_bulk(seed: int) -> RetrieveWorkload:
    rng = Random(seed)
    params = CsaParams.make(12, 64, 2, 2)
    return RetrieveWorkload(seed, [_field_instance("csa", params, rng)])


class ReplayWorkload:
    """Set-up renders a few transcripts; each op replays the next one."""

    TRANSCRIPTS = 8
    outputs_per_op = 1

    def __init__(self, seed: int):
        self.cycle = 1
        rng = Random(seed)
        inst = _field_instance("csa", CsaParams.make(24, 32, 4, 4), rng)
        self.texts: list[str] = []
        self.truth: list[tuple[int, ...]] = []
        self.decoded_lines: list[tuple[int, ...]] = []
        for j in range(self.TRANSCRIPTS):
            theta = j % inst.K + 1
            run = sim.run_retrieval(
                inst.params, inst.messages, theta, seed * 1_000_000 + j
            )
            text = run.transcript.render()
            self.texts.append(text)
            self.truth.append(inst.truth[theta - 1])
            self.decoded_lines.append(_read_decoded_line(text))

    def label(self, i: int) -> str:
        return "csa"

    def run_op(self, i: int):
        return sim.replay(self.texts[i % self.TRANSCRIPTS])

    def check(self, i: int, out) -> Checked:
        j = i % self.TRANSCRIPTS
        transcript, decoded = out
        decoded = tuple(decoded)
        want = self.truth[j]
        ok = decoded == self.decoded_lines[j] and decoded == want
        counts = wire_counts(transcript, self.texts[j])
        counts["sim.threads_per_op"] = 0
        return Checked(
            1, 0 if ok else 1, len(want) if ok else 0, len(want), counts,
            [] if ok else [f"op {i} transcript {j}: re-decoded {decoded}, "
                           f"DECODED line {self.decoded_lines[j]}, plaintext {want}"],
        )


def _read_decoded_line(text: str) -> tuple[int, ...]:
    """The benchmark's own reading of a transcript's DECODED line."""
    for line in text.splitlines():
        if line.startswith("DECODED "):
            return tuple(int(v) for v in line.split()[2:])
    raise ValueError("transcript has no DECODED line")


@dataclass(frozen=True)
class AuditEntry:
    """One audit of the suite and the verdict the paper's theorems give.

    `secure` entries must pass with max_tv exactly 0; the others must fail
    with max_tv > 0.
    """

    name: str
    auditor: str
    make: object
    kwargs: dict
    secure: bool


def audit_entries(seed: int) -> tuple[AuditEntry, ...]:
    csa_3211 = lambda: audit.CsaInstance(CsaParams.make(3, 2, 1, 1))
    return (
        AuditEntry("privacy-csa-3211", "audit_privacy", csa_3211, {}, True),
        AuditEntry("security-csa-3211", "audit_security", csa_3211, {}, True),
        AuditEntry(
            "correctness-csa-4121", "audit_correctness",
            lambda: audit.CsaInstance(CsaParams.make(4, 1, 2, 1)), {}, True,
        ),
        AuditEntry("symsec-csa-3211", "audit_sym_security", csa_3211, {}, True),
        AuditEntry(
            "privacy-binary-k4", "audit_privacy",
            lambda: audit.BinaryInstance(4), {}, True,
        ),
        AuditEntry(
            "symsec-symx-x2k2", "audit_sym_security",
            lambda: audit.SymXspirInstance(SymXspirParams.make(2, 2)), {}, True,
        ),
        AuditEntry(
            "security-dl-2211", "audit_security",
            lambda: audit.DownloadAllInstance(DownloadAllParams.make(2, 2, 1, 1)),
            {}, True,
        ),
        # Planted failure: two colluding servers of a T = 1 scheme.
        AuditEntry(
            "overt-privacy-csa-3211", "audit_privacy", csa_3211,
            {"subset_size": 2}, False,
        ),
        # Planted failure, sampled: with X = 1, any two shares determine the
        # messages, so two distinct messages give disjoint share views.
        AuditEntry(
            "sampled-overt-security-csa-3211", "audit_security", csa_3211,
            {"subset_size": 2, "cap": 0, "samples": 2000, "seed": seed}, False,
        ),
    )


def verdict_ok(entry: AuditEntry, report) -> bool:
    if entry.secure:
        return report.passed is True and report.max_tv_distance == Fraction(0)
    return report.passed is False and report.max_tv_distance > 0


class AuditWorkload:
    """One op is one pass over the suite; each pass builds fresh instances,
    as one `xstpir audit` run per entry would."""

    def __init__(self, seed: int):
        self.cycle = 1
        self.entries = audit_entries(seed)
        self.outputs_per_op = len(self.entries)

    def label(self, i: int) -> str:
        return "audit"

    def run_op(self, i: int):
        results = []
        for entry in self.entries:
            try:
                results.append(getattr(audit, entry.auditor)(entry.make(), **entry.kwargs))
            except Exception as exc:  # a raising audit is a failed entry; the pass goes on
                results.append(exc)
        return results

    def check(self, i: int, out) -> Checked:
        checked = Checked(len(self.entries), 0)
        for entry, report in zip(self.entries, out):
            if isinstance(report, Exception):
                ok, enumerated = False, 0
                why = f"raised {type(report).__name__}: {report}"
            else:
                ok, enumerated = verdict_ok(entry, report), report.enumerated
                why = f"pass {report.passed} max_tv {report.max_tv_distance}"
            checked.counts[f"audit.{entry.name}.enumerated"] = enumerated
            if not ok:
                checked.failed += 1
                want = "pass, max_tv 0" if entry.secure else "fail, max_tv > 0"
                checked.errors.append(f"op {i} {entry.name}: {why}, want {want}")
        return checked


WORKLOADS = {
    "retrieve-mix": retrieve_mix,
    "retrieve-bulk": retrieve_bulk,
    "replay-verify": ReplayWorkload,
    "audit-suite": AuditWorkload,
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
