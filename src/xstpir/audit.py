"""Distribution audits: prove, by exhaustive enumeration over small
instances, that a scheme's shares, queries and answers have exactly the
distributions its guarantees require.

Four properties are checked, each by comparing exact outcome-frequency
tables built from full enumeration of the relevant randomness:

- X-security: any X servers' shares are identically distributed (over the
  storage noise) for every message realization;
- T-privacy: any T servers' joint view of (their queries, their shares) is
  identically distributed (over messages, storage noise and query
  randomness) for every retrieval index theta. The storage depends on
  neither theta nor the query randomness, so each theta's joint table is
  its query table times one share table common to every theta, and the
  distance between two such products is the distance between their query
  tables; the audit tabulates the query view alone;
- symmetric security: conditioned on (theta, the realized queries, the value
  of message theta), the answer tuple is identically distributed (over the
  storage noise) for every value of the other messages;
- correctness: the decoded value equals message theta on every realization.

Distances between tables are exact total-variation distances as Fractions;
an audit passes only at distance exactly 0 (correctness reuses the field as
an exact failure fraction). When the enumeration would exceed the cap the
audit falls back to seeded random sampling with an explicit tolerance and
the report is flagged non-exhaustive; the bundled acceptance instances are
all small enough to stay exhaustive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Sequence

from .scheme import (
    BinaryScheme,
    CsaScheme,
    DownloadAllScheme,
    Scheme,
    SymXspirScheme,
)

X_SECURITY = "X_SECURITY"
T_PRIVACY = "T_PRIVACY"
SYM_SECURITY = "SYM_SECURITY"
CORRECTNESS = "CORRECTNESS"

DEFAULT_CAP = 1 << 24
DEFAULT_SAMPLES = 20000
# Sampled mode cannot certify distance 0; it only flags gross violations.
SAMPLED_TOLERANCE = Fraction(1, 20)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit run; renders to a diffable key-value text block."""

    property: str
    instance: str
    subset_size: int
    subsets_checked: int
    max_tv_distance: Fraction
    passed: bool
    exhaustive: bool
    enumerated: int
    samples: int | None = None
    detail: str = ""

    def render(self) -> str:
        lines = [
            f"property {self.property}",
            f"instance {self.instance}",
            f"subset_size {self.subset_size}",
            f"subsets_checked {self.subsets_checked}",
            f"exhaustive {str(self.exhaustive).lower()}",
            f"enumerated {self.enumerated}",
        ]
        if self.samples is not None:
            lines.append(f"samples {self.samples}")
        lines.append(f"max_tv {self.max_tv_distance}")
        lines.append(f"pass {str(self.passed).lower()}")
        if self.detail:
            lines.append(f"detail {self.detail}")
        return "\n".join(lines) + "\n"


def _tv(c1: Counter, c2: Counter, total: int) -> Fraction:
    keys = set(c1) | set(c2)
    return Fraction(sum(abs(c1[k] - c2[k]) for k in keys), 2 * total)


def _max_pairwise_tv(counters: Sequence[Counter], total: int) -> Fraction:
    """Max TV over all pairs; identical tables are grouped first so the
    common all-equal case costs one pass."""
    reps: list[Counter] = []
    seen: set[tuple] = set()
    for c in counters:
        sig = tuple(sorted(c.items()))
        if sig not in seen:
            seen.add(sig)
            reps.append(c)
    best = Fraction(0)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            d = _tv(reps[i], reps[j], total)
            if d > best:
                best = d
    return best


def _max_tv(tables: dict[object, list[Counter]], total: int) -> Fraction:
    """Max pairwise TV within each entry's tables, each over `total`
    realizations."""
    max_tv = Fraction(0)
    for counters in tables.values():
        for c in counters:
            assert sum(c.values()) == total
        max_tv = max(max_tv, _max_pairwise_tv(counters, total))
    return max_tv


# The audits take any Scheme. The older adapter names stay, as the scheme
# classes themselves: CsaInstance(params), BinaryInstance(k, b=None), ...
CsaInstance = CsaScheme
DownloadAllInstance = DownloadAllScheme
BinaryInstance = BinaryScheme
SymXspirInstance = SymXspirScheme


def _subsets(inst: Scheme, size: int) -> list[tuple[int, ...]]:
    if not 1 <= size <= inst.N:
        raise ValueError(f"subset size must be in 1..{inst.N}, got {size}")
    return list(combinations(range(inst.N), size))


def audit_security(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """Shares of any `subset_size` servers must not depend on the messages.

    For each subset, the exact distribution of the restricted share tuple
    over all storage noise is tabulated per message value; the report carries
    the maximum pairwise total-variation distance found. A subset size
    outside 1..N raises ValueError.
    """
    size = inst.X if subset_size is None else subset_size
    subsets = _subsets(inst, size)
    noise_count = inst.storage_noises.size
    work = inst.messages.size * noise_count
    if work <= cap:
        messages = list(inst.messages)
        noises = list(inst.storage_noises)
        tables: dict[tuple, list[Counter]] = {
            s: [Counter() for _ in messages] for s in subsets
        }
        enumerated = 0
        for mi, m in enumerate(messages):
            for z in noises:
                keys = inst.share_payloads(inst.storage(m, z))
                enumerated += 1
                for s in subsets:
                    tables[s][mi][tuple(keys[i] for i in s)] += 1
        assert enumerated == work
        max_tv = _max_tv(tables, noise_count)
        return AuditReport(
            X_SECURITY, inst.describe(), size, len(subsets),
            max_tv, max_tv == 0, True, enumerated,
        )
    rng = Random(seed)
    max_tv = Fraction(0)
    for s in subsets:
        pair = [inst.messages.sample(rng) for _ in range(2)]
        tabs = []
        for m in pair:
            c: Counter = Counter()
            for _ in range(samples):
                keys = inst.share_payloads(inst.storage(m, inst.storage_noises.sample(rng)))
                c[tuple(keys[i] for i in s)] += 1
            tabs.append(c)
        max_tv = max(max_tv, _tv(tabs[0], tabs[1], samples))
    return _sampled_report(X_SECURITY, inst, size, len(subsets), max_tv, samples)


def audit_privacy(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """The joint view (queries, shares) of any `subset_size` servers must not
    depend on theta.

    The exhaustive table is built from the query view alone. The query view
    of a subset depends only on (theta, qr), the share view only on (m, z),
    and the two are enumerated independently, so theta's joint count of a
    view (a, b) is Q_theta(a) * S(b), with Q_theta counted over the query
    randomness and S over the `pairs` = |messages| * |storage noise| values
    of (m, z), the same S for every theta. Hence

        sum_{a,b} |Q_1(a) S(b) - Q_2(a) S(b)| / (2 |qr| pairs)
            = sum_a |Q_1(a) - Q_2(a)| / (2 |qr|),

    and the share enumeration cannot move max_tv. `enumerated` still counts
    the len(thetas) * |qr| * pairs joint realizations the table covers.
    The sampled fallback draws (m, z, qr) jointly. A subset size outside
    1..N raises ValueError.
    """
    size = inst.T if subset_size is None else subset_size
    subsets = _subsets(inst, size)
    thetas = list(inst.thetas)
    pairs = inst.messages.size * inst.storage_noises.size
    work = len(thetas) * pairs * inst.query_randomness.size
    if work <= cap:
        randomness = list(inst.query_randomness)
        tables: dict[tuple, list[Counter]] = {
            s: [Counter() for _ in thetas] for s in subsets
        }
        for ti, theta in enumerate(thetas):
            for qr in randomness:
                qkeys = inst.query_payloads(inst.queries(theta, qr))
                for s in subsets:
                    tables[s][ti][tuple(qkeys[i] for i in s)] += 1
        max_tv = _max_tv(tables, len(randomness))
        return AuditReport(
            T_PRIVACY, inst.describe(), size, len(subsets),
            max_tv, max_tv == 0, True, len(thetas) * len(randomness) * pairs,
        )
    rng = Random(seed)
    max_tv = Fraction(0)
    for s in subsets:
        tabs = []
        for theta in (thetas[0], thetas[-1]):
            c: Counter = Counter()
            for _ in range(samples):
                m = inst.messages.sample(rng)
                z = inst.storage_noises.sample(rng)
                qr = inst.query_randomness.sample(rng)
                qkeys = inst.query_payloads(inst.queries(theta, qr))
                skeys = inst.share_payloads(inst.storage(m, z))
                c[(tuple(qkeys[i] for i in s), tuple(skeys[i] for i in s))] += 1
            tabs.append(c)
        max_tv = max(max_tv, _tv(tabs[0], tabs[1], samples))
    return _sampled_report(T_PRIVACY, inst, size, len(subsets), max_tv, samples)


def _sampled_report(prop, inst, size, checked, max_tv, samples) -> AuditReport:
    return AuditReport(
        prop, inst.describe(), size, checked,
        max_tv, max_tv <= SAMPLED_TOLERANCE, False,
        0, samples, detail=f"sampled, tolerance {SAMPLED_TOLERANCE}",
    )


def _answers(inst: Scheme, shares, queries) -> tuple:
    """Every server's answer, zero queries included."""
    return tuple(map(inst.answer, shares, queries))


def audit_sym_security(
    inst: Scheme,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """Answers must reveal nothing beyond message theta.

    For every (theta, realized query tuple, value of message theta), the
    distribution of the full answer tuple over the storage noise must be the
    same for all values of the remaining messages. Schemes with T = 1 are
    expected to pass; running a T > 1 instance is allowed and documents the
    leak by reporting the nonzero distance.
    """
    thetas = list(inst.thetas)
    work = (
        len(thetas)
        * inst.query_randomness.size
        * inst.messages.size
        * inst.storage_noises.size
    )
    if work <= cap:
        messages = list(inst.messages)
        noises = list(inst.storage_noises)
        share_cache = [[inst.storage(m, z) for z in noises] for m in messages]
        max_tv = Fraction(0)
        enumerated = 0
        groups = 0
        for theta in thetas:
            realizations: dict[tuple, list] = {}
            for qr in inst.query_randomness:
                q = inst.queries(theta, qr)
                realizations.setdefault(inst.query_payloads(q), []).append(q)
            for qlist in realizations.values():
                by_desired: dict = {}
                for mi, m in enumerate(messages):
                    c: Counter = Counter()
                    for zi in range(len(noises)):
                        shares = share_cache[mi][zi]
                        for q in qlist:
                            c[_answers(inst, shares, q)] += 1
                            enumerated += 1
                    by_desired.setdefault(inst.plaintext(m, theta), []).append(c)
                max_tv = max(max_tv, _max_tv(by_desired, len(noises) * len(qlist)))
                groups += len(by_desired)
        assert enumerated == work
        return AuditReport(
            SYM_SECURITY, inst.describe(), inst.N, groups,
            max_tv, max_tv == 0, True, enumerated,
        )
    rng = Random(seed)
    max_tv = Fraction(0)
    groups = 0
    for theta in (thetas[0], thetas[-1]):
        q = inst.queries(theta, inst.query_randomness.sample(rng))
        base = inst.messages.draw(rng)
        other = inst.messages.draw(rng)
        # Give the pair the same message theta so they are comparable.
        desired = slice((theta - 1) * inst.L, theta * inst.L)
        other[desired] = base[desired]
        tabs = []
        for values in (base, other):
            m = inst.messages.build(values)
            c: Counter = Counter()
            for _ in range(samples):
                c[_answers(inst, inst.storage(m, inst.storage_noises.sample(rng)), q)] += 1
            tabs.append(c)
        max_tv = max(max_tv, _tv(tabs[0], tabs[1], samples))
        groups += 1
    return _sampled_report(SYM_SECURITY, inst, inst.N, groups, max_tv, samples)


def _attempt(make, *args):
    """make(*args), or the exception it raised."""
    try:
        return make(*args)
    except Exception as exc:
        return exc


def _decodes(inst: Scheme, theta: int, m, shares, queries) -> tuple[bool, Exception | None]:
    """Whether one realization decodes to message theta, and the first
    exception on its way: from building the shares, from building the
    queries (each passed in as the exception when it raised), or from the
    answers and decode."""
    for made in (shares, queries):
        if isinstance(made, Exception):
            return False, made
    try:
        answers = _answers(inst, shares, queries)
        return inst.decode(theta, answers) == inst.plaintext(m, theta), None
    except Exception as exc:
        return False, exc


def audit_correctness(
    inst: Scheme,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """decode must return message theta on every realization.

    The max_tv_distance field carries the exact failure fraction, so the
    pass condition is uniformly distance == 0. A realization whose storage,
    queries or decode raises (for instance after a corrupted-parameter
    injection) counts as a failure, and the first error in (theta, m, z, qr)
    order is surfaced in the detail field. The exhaustive mode builds the
    storage once per (m, z) and the queries once per (theta, qr).
    """
    thetas = list(inst.thetas)
    work = (
        len(thetas)
        * inst.messages.size
        * inst.storage_noises.size
        * inst.query_randomness.size
    )
    exhaustive = work <= cap
    if exhaustive:
        rounds = _exhaustive_rounds(inst, thetas)
    else:
        rounds = _sampled_rounds(inst, thetas, samples, Random(seed))
    detail = ""
    failures = enumerated = 0
    for theta, m, shares, queries in rounds:
        enumerated += 1
        ok, error = _decodes(inst, theta, m, shares, queries)
        if error is not None and not detail:
            detail = f"decode raised {type(error).__name__}: {error}"
        if not ok:
            failures += 1
    assert enumerated == (work if exhaustive else samples)
    return AuditReport(
        CORRECTNESS, inst.describe(), inst.N, len(thetas),
        Fraction(failures, enumerated), failures == 0, exhaustive,
        enumerated if exhaustive else 0, None if exhaustive else samples,
        detail=detail,
    )


def _exhaustive_rounds(inst: Scheme, thetas: list[int]):
    """Every (theta, m, shares, queries) in (theta, m, z, qr) order."""
    messages = list(inst.messages)
    randomness = list(inst.query_randomness)
    stored = [[_attempt(inst.storage, m, z) for z in inst.storage_noises] for m in messages]
    for theta in thetas:
        asked = [_attempt(inst.queries, theta, qr) for qr in randomness]
        for m, row in zip(messages, stored):
            for shares in row:
                for queries in asked:
                    yield theta, m, shares, queries


def _sampled_rounds(inst: Scheme, thetas: list[int], samples: int, rng: Random):
    for _ in range(samples):
        theta = thetas[rng.randrange(len(thetas))]
        m = inst.messages.sample(rng)
        z = inst.storage_noises.sample(rng)
        qr = inst.query_randomness.sample(rng)
        yield theta, m, _attempt(inst.storage, m, z), _attempt(inst.queries, theta, qr)


def estimate_work(inst: Scheme, prop: str, subset_size: int | None = None) -> int:
    """Enumeration size the exhaustive mode of the given audit would need."""
    pairs = inst.messages.size * inst.storage_noises.size
    if prop == X_SECURITY:
        return pairs
    return len(inst.thetas) * pairs * inst.query_randomness.size
