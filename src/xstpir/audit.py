"""Distribution audits: decide exactly, on small instances, that a scheme's
shares, queries and answers have the distributions its guarantees require.

Four properties are checked: X-security (any X servers' shares are
identically distributed over the storage noise for every message value),
T-privacy (any T servers' queries and shares are identically distributed
for every theta), symmetric security (given theta, the queries and message
theta, the answers are identically distributed over the storage noise for
every value of the other messages), and correctness (decode returns message
theta on every realization).

An exact report (`exhaustive true`) comes from one of three engines, as
`exact_engine` picks from the scheme's declarations (`Scheme`). The first
two read each declared map once (`affine.probe`) and check every
declaration at the check point of `affine.points`, so a declaration alone
cannot pass; a scheme declared linear that fails only off those points is
not caught.

Rank tests decide security and sym-security where the storage side is
declared `linear`, and privacy where the query side is (`linear_queries`).
Each compared view is then an affine image c + A u of uniform u, uniform
on c + colspan(A), so every TV distance is exactly 0 or 1. With shares_S =
c + M_S m + Z_S z, queries_S = q_S(theta) + R_S r, and answers = A_m m +
A_z z for a fixed query (its declared answer rows times the share map):
X-security of a subset S holds iff rank[M_S | Z_S] = rank Z_S; T-privacy
iff every q_S(theta) - q_S(1) lies in colspan(R_S), R probed at the first
theta and each other theta read in two calls; sym-security iff
rank[A_other | A_z] = rank A_z (A_other: A_m outside message theta) for
every theta and distinct query payload, one elimination each. Security
and privacy split [A | B] into the components of A (`affine.split`).

The identity test (`affine.identity`) decides correctness where both
sides are declared. g(u, v) = decode(answers) - message theta is then
bi-affine in the storage values u and the query randomness v; it is
assembled from the share map, the query map, the answer rows and decode
read at zero, unit and check answers, and its constant and u-, v- and
uv-coefficients must all vanish. Where one does not, or a call raises,
enumeration takes over within its cap; past it the report fails, not
exhaustive, max_tv 1, with the witness realization (theta, storage and
query point, what went wrong) in `detail`, never a sampled statistic.
Enumeration decides the rest from exact outcome-frequency tables over all
the randomness (sym_xspir's privacy and correctness, and a scheme that
declares nothing), and it is the oracle the other engines are tested
against.

Distances are exact Fractions; an exact audit passes only at distance 0
(correctness reports the exact failure fraction). When the exact engine's
work (`estimate_work`) would exceed the cap the audit runs on a seeded
draw, flagged non-exhaustive (fallback=False raises OverCap; samples below
1 raise ValueError). The first two engines then run their probes and the
tests of the draw: min(samples, C(N, size)) distinct subsets (privacy
comparing the first and the last theta), `samples` query realizations for
sym-security, min(samples, K) thetas for correctness. Such a report is
one-sided: max_tv 1 proves a failure, max_tv 0 says that none of the tests
run found one, and `detail` says how many ran. Enumeration's fallback
compares outcome frequencies over `samples` drawn realizations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import comb
from random import Random
from . import affine
from .scheme import BinaryScheme, CsaScheme, DownloadAllScheme, Scheme, SymXspirScheme

X_SECURITY = "X_SECURITY"
T_PRIVACY = "T_PRIVACY"
SYM_SECURITY = "SYM_SECURITY"
CORRECTNESS = "CORRECTNESS"

RANK_TESTS = "rank tests"
IDENTITY = "identity test"
ENUMERATION = "enumeration"
# The unit estimate_work counts in, per engine.
WORK_UNITS = {
    RANK_TESTS: "steps (payload symbols read from the scheme and elimination multiply-adds)",
    IDENTITY: "steps (payload symbols read from the scheme)",
    ENUMERATION: "realizations",
}

DEFAULT_CAP = 1 << 24
DEFAULT_SAMPLES = 20000
# Comparing sampled outcome frequencies cannot certify distance 0, only flag
# gross violations. The rank tests of a linear scheme need no tolerance.
SAMPLED_TOLERANCE = Fraction(1, 20)


class OverCap(ValueError):
    """An exact computation past its work cap, with no sampled fallback."""


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


def _max_tv(tables: dict[object, list[Counter]], total: int) -> Fraction:
    """Max pairwise TV within each entry's tables, each over `total`
    realizations; identical tables are grouped first, so the common
    all-equal case costs one pass."""
    assert all(sum(c.values()) == total for counters in tables.values() for c in counters)
    reps = [{tuple(sorted(c.items())): c for c in counters}.values() for counters in tables.values()]
    return max((_tv(a, b, total) for r in reps for a, b in combinations(r, 2)), default=Fraction(0))


# The audits take any Scheme. The older adapter names stay, as the scheme
# classes themselves: CsaInstance(params), BinaryInstance(k, b=None), ...
CsaInstance = CsaScheme
DownloadAllInstance = DownloadAllScheme
BinaryInstance = BinaryScheme
SymXspirInstance = SymXspirScheme


def _check_size(inst: Scheme, size: int) -> int:
    if not 1 <= size <= inst.N:
        raise ValueError(f"subset size must be in 1..{inst.N}, got {size}")
    return size


def _exact(inst: Scheme, prop: str, size, cap: int, samples: int, fallback: bool, engine=None):
    """Whether `engine` (by default `exact_engine`'s) runs, its `_plan` work
    within the cap, and `_plan`'s tests. Past the cap, OverCap unless
    `fallback` is allowed."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    engine = engine or exact_engine(inst, prop)
    work, tests = _plan(inst, prop, size, cap, engine)
    if work > cap and not fallback:
        raise OverCap(f"the exact audit by {engine} would take {work} {WORK_UNITS[engine]}, "
                      f"over the cap of {cap}")
    return work <= cap, tests


def _subsets_report(prop, inst, size, tests, exact, enumerated, samples, seed) -> AuditReport:
    """The split rank test `tests` on the size-subsets of the servers, in
    lexicographic order up to the first leak: on every one if `exact`,
    else on min(samples, C(N, size)) distinct ones drawn from Random(seed)."""
    total = comb(inst.N, size)
    subsets = combinations(range(inst.N), size)
    if not exact and samples < total:
        rng, drawn = Random(seed), set()
        while len(drawn) < samples:
            drawn.add(tuple(sorted(rng.sample(range(inst.N), size))))
        subsets = sorted(drawn)
    seen: dict = {}
    for tested, s in enumerate(subsets, 1):
        if leak := affine.leaks(tests, s, inst.p, seen):
            break
    return _report(prop, inst, size, total if exact else tested, Fraction(leak), exact,
                   enumerated, samples, f"rank tests on {tested} of {total} subsets")


def _report(prop, inst, size, checked, max_tv, exact, enumerated, samples, ranked=""):
    """Exact: pass at max_tv 0. Sampled by the exact tests `ranked` names:
    pass at 0 (1 is a failure). Else: pass within SAMPLED_TOLERANCE."""
    head = (prop, inst.describe(), size, checked, max_tv)
    if exact:
        return AuditReport(*head, max_tv == 0, True, enumerated)
    if ranked:
        return AuditReport(*head, max_tv == 0, False, 0, samples, f"sampled: {ranked}")
    return AuditReport(*head, max_tv <= SAMPLED_TOLERANCE, False, 0, samples,
                       f"sampled, tolerance {SAMPLED_TOLERANCE}")


def audit_security(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    fallback: bool = True,
) -> AuditReport:
    """Shares of any `subset_size` servers must not depend on the messages.

    The report carries, over the subsets, the maximum total-variation
    distance between the share views of two message values: by rank tests
    (`exact_engine`), else from the exact distribution of each subset's
    share tuple over all storage noise, tabulated per message value. A
    subset size outside 1..N raises ValueError.
    """
    size = _check_size(inst, inst.X if subset_size is None else subset_size)
    exact, tests = _exact(inst, X_SECURITY, size, cap, samples, fallback)
    enumerated = inst.messages.size * inst.storage_noises.size
    if exact_engine(inst, X_SECURITY) == RANK_TESTS:
        tests = _security_tests(inst) if tests is None else tests
        return _subsets_report(X_SECURITY, inst, size, tests, exact, enumerated, samples, seed)
    subsets, rng, z = list(combinations(range(inst.N), size)), Random(seed), inst.storage_noises
    # exact: every message value over all storage noise; sampled: two drawn
    # message values, each over `samples` draws of it
    messages = list(inst.messages) if exact else [inst.messages.sample(rng) for _ in range(2)]
    per = z.size if exact else samples
    draws = lambda: z if exact else (z.sample(rng) for _ in range(samples))
    views = ((i, inst.share_payloads(inst.storage(m, noise)))
             for i, m in enumerate(messages) for noise in draws())
    max_tv = _subset_tables(subsets, views, len(messages), per)
    return _report(X_SECURITY, inst, size, len(subsets), max_tv, exact, enumerated, samples)


def _security_tests(inst: Scheme) -> list:
    """[Z | M] of the share map, split: on every subset's rows the message
    columns must lie in the span of the noise columns."""
    spaces = (inst.messages, inst.storage_noises)
    km, dim = inst.messages.count, affine.dim(inst, spaces)
    shares = affine.storage_at(inst, inst.share_payloads)
    return affine.split(affine.probe(inst, shares, spaces), range(km, dim), range(km))


def _subset_tables(subsets, views, tables: int, per: int) -> Fraction:
    """Max TV, per subset, between `tables` tables of its view, each over
    `per` realizations: views yields (table, every server's payload)."""
    counts: dict[tuple, list[Counter]] = {s: [Counter() for _ in range(tables)] for s in subsets}
    for table, payloads in views:
        for s in subsets:
            counts[s][table][tuple(payloads[n] for n in s)] += 1
    return _max_tv(counts, per)


def audit_privacy(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    fallback: bool = True,
) -> AuditReport:
    """The joint view (queries, shares) of any `subset_size` servers must not
    depend on theta.

    Every engine decides it from the query view alone. The query view of
    a subset depends only on (theta, qr), the share view only on (m, z),
    and the two are drawn independently, so theta's joint count of a view
    (a, b) is Q_theta(a) * S(b), with Q_theta counted over the query
    randomness and S over the `pairs` = |messages| * |storage noise| values
    of (m, z), the same S for every theta. Hence

        sum_{a,b} |Q_1(a) S(b) - Q_2(a) S(b)| / (2 |qr| pairs)
            = sum_a |Q_1(a) - Q_2(a)| / (2 |qr|),

    and the share view cannot move max_tv. It is decided by rank tests
    (`exact_engine`) or by tabulating Q_theta; `enumerated` still counts
    the len(thetas) * |qr| * pairs joint realizations. The sampled mode
    compares the first and the last theta. A subset size outside 1..N
    raises ValueError.
    """
    size = _check_size(inst, inst.T if subset_size is None else subset_size)
    thetas, qr = list(inst.thetas), inst.query_randomness
    ends = [thetas[0], thetas[-1]]
    exact, tests = _exact(inst, T_PRIVACY, size, cap, samples, fallback)
    enumerated = len(thetas) * qr.size * inst.messages.size * inst.storage_noises.size
    if exact_engine(inst, T_PRIVACY) == RANK_TESTS:
        tests = tests if exact else _privacy_tests(inst, ends)
        return _subsets_report(T_PRIVACY, inst, size, tests, exact, enumerated, samples, seed)
    subsets, rng = list(combinations(range(inst.N), size)), Random(seed)
    # exact: every theta over all query randomness; sampled: the two ends,
    # each over `samples` draws of it
    compared, per = (thetas, qr.size) if exact else (ends, samples)
    draws = lambda: qr if exact else (qr.sample(rng) for _ in range(samples))
    views = ((i, inst.query_payloads(inst.queries(t, r)))
             for i, t in enumerate(compared) for r in draws())
    max_tv = _subset_tables(subsets, views, len(compared), per)
    return _report(T_PRIVACY, inst, size, len(subsets), max_tv, exact, enumerated, samples)


def _privacy_tests(inst: Scheme, thetas: list[int]) -> list:
    """[R | q(theta) - q(thetas[0]) for each later theta] of the query
    maps, split, R being the same for every theta (ValueError if not): on
    every subset's rows the differences must lie in the span of R."""
    kq, p, flat = inst.query_randomness.count, inst.p, count()
    first, (_, *others) = affine.query_maps(inst, thetas, [None] * 3)
    others = [constant for constant, _ in others]

    def row(c, js, aj):
        i = next(flat)
        extra = [(kq + t, d) for t, other in enumerate(others) if (d := (other[i] - c) % p)]
        return c, js + tuple(j for j, _ in extra), aj + tuple(d for _, d in extra)

    view = [[row(*r) for r in rows] for rows in first]
    return affine.split(view, range(kq), range(kq, kq + len(others)))


def _answers(inst: Scheme, shares, queries) -> tuple:
    """Every server's answer, zero queries included."""
    return tuple(map(inst.answer, shares, queries))


def audit_sym_security(
    inst: Scheme,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    fallback: bool = True,
) -> AuditReport:
    """Answers must reveal nothing beyond message theta.

    For every (theta, realized query tuple, value of message theta), the
    distribution of the full answer tuple over the storage noise must be the
    same for all values of the remaining messages. Schemes with T = 1 are
    expected to pass; running a T > 1 instance is allowed and documents the
    leak by reporting the nonzero distance. `subsets_checked` counts those
    (theta, query payload, value of message theta) groups, sampled rank
    tests the distinct (theta, query payload) pairs they test.
    """
    thetas, rng, qr = list(inst.thetas), Random(seed), inst.query_randomness
    exact, zero = _exact(inst, SYM_SECURITY, None, cap, samples, fallback)
    enumerated = len(thetas) * qr.size * inst.messages.size * inst.storage_noises.size
    if exact_engine(inst, SYM_SECURITY) == RANK_TESTS:
        if exact:
            asked = {t: _distinct_queries(inst, t) for t in thetas}
            pairs = ((t, q) for t in thetas for q, *_ in asked[t].values())
        else:
            drawn = (rng.choice(thetas) for _ in range(samples))
            pairs = ((t, inst.queries(t, qr.sample(rng))) for t in drawn)
        tested, distinct, leak = _sym_by_rank(inst, pairs, zero)
        # a linear plaintext is message theta's L values: p^L groups per payload
        checked = sum(map(len, asked.values())) * inst.p**inst.L if exact else distinct
        detail = f"rank tests on {tested} query realizations drawn from {len(thetas)} x {qr.base}^{qr.count}"
        return _report(SYM_SECURITY, inst, inst.N, checked, Fraction(leak), exact, enumerated,
                       samples, detail)
    if exact:
        max_tv, groups = _sym_security_by_enumeration(inst, thetas)
        return _report(SYM_SECURITY, inst, inst.N, groups, max_tv, True, enumerated, 0)
    tables = {}
    for i, theta in enumerate((thetas[0], thetas[-1])):
        q = inst.queries(theta, qr.sample(rng))
        base, other = inst.messages.draw(rng), inst.messages.draw(rng)
        desired = slice((theta - 1) * inst.L, theta * inst.L)
        other[desired] = base[desired]  # the same message theta, so they are comparable
        answers = affine.storage_at(inst, lambda stored: _answers(inst, stored, q))
        draw = lambda m: answers(m + inst.storage_noises.draw(rng))
        tables[i] = [Counter(draw(m) for _ in range(samples)) for m in (base, other)]
    return _report(SYM_SECURITY, inst, inst.N, 2, _max_tv(tables, samples), False, 0, samples)


def _distinct_queries(inst: Scheme, theta: int) -> dict[tuple, list]:
    """Every query tuple for theta, grouped by payload."""
    realizations: dict[tuple, list] = {}
    for qr in inst.query_randomness:
        q = inst.queries(theta, qr)
        realizations.setdefault(inst.query_payloads(q), []).append(q)
    return realizations


def _sym_by_rank(inst: Scheme, asked, zero) -> tuple[int, int, bool]:
    """rank[A_other | A_z] > rank A_z for the answers to each (theta, query
    tuple) in `asked`, up to the first leak, A being the declared answer
    rows composed with the share map: how many were tested, how many
    distinct (theta, payload) pairs among them, and whether one leaks."""
    km, kz, p, L = inst.messages.count, inst.storage_noises.count, inst.p, inst.L
    shares, stored = affine.share_map(inst, zero, [None] * 3)
    # each share row's (column, coefficient) pairs, the columns [noise | messages]
    place = [*range(kz, kz + km), *range(kz)]
    shares = [[tuple(zip(map(place.__getitem__, js), aj)) for _, js, aj in server] for server in shares]
    checked = inst.share_payloads(stored)
    verdicts: dict[tuple, bool] = {}  # by (theta, query payload)
    for tested, (theta, q) in enumerate(asked, 1):
        key = (theta, inst.query_payloads(q))
        if key not in verdicts:
            rows, cut = [], kz + (theta - 1) * L
            answers = list(map(inst.answer, stored, q))
            for view, declared in zip(shares, affine.declared(inst, key[1], checked, answers)):
                for js, aj in declared or ():
                    dense = [0] * (kz + km)
                    for i, a in zip(js, aj):
                        for j, b in view[i]:
                            dense[j] += a * b
                    del dense[cut:cut + L]  # message theta is given
                    rows.append(dense)
            verdicts[key] = affine.rank_grows(rows, kz, p)
        if verdicts[key]:
            break
    return tested, len(verdicts), verdicts[key]


def _sym_security_by_enumeration(inst: Scheme, thetas: list[int]) -> tuple[Fraction, int]:
    messages, noises = list(inst.messages), list(inst.storage_noises)
    share_cache = [[inst.storage(m, z) for z in noises] for m in messages]
    max_tv, groups = Fraction(0), 0
    for theta in thetas:
        for qlist in _distinct_queries(inst, theta).values():
            by_desired: dict = {}
            for mi, m in enumerate(messages):
                c: Counter = Counter()
                for shares in share_cache[mi]:
                    for q in qlist:
                        c[_answers(inst, shares, q)] += 1
                by_desired.setdefault(inst.plaintext(m, theta), []).append(c)
            max_tv = max(max_tv, _max_tv(by_desired, len(noises) * len(qlist)))
            groups += len(by_desired)
    return max_tv, groups


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
        return inst.decode(theta, _answers(inst, shares, queries)) == inst.plaintext(m, theta), None
    except Exception as exc:
        return False, exc


def audit_correctness(
    inst: Scheme,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    fallback: bool = True,
) -> AuditReport:
    """decode must return message theta on every realization.

    The max_tv_distance field carries the exact failure fraction, so the
    pass condition is uniformly distance == 0. A realization whose storage,
    queries or decode raises (for instance after a corrupted-parameter
    injection) counts as a failure, and the first error in (theta, m, z, qr)
    order is surfaced in the detail field. Enumeration (each storage once
    per (m, z), each query tuple once per (theta, qr)) runs where the
    identity test (`exact_engine`) fails, within its cap; past it the
    failure is reported with the identity test's witness and max_tv 1."""
    thetas, qr = list(inst.thetas), inst.query_randomness
    enumerated = len(thetas) * qr.size * inst.messages.size * inst.storage_noises.size
    exhaustive, zero = _exact(inst, CORRECTNESS, None, cap, samples, fallback)
    if exact_engine(inst, CORRECTNESS) == IDENTITY:
        drawn = thetas if exhaustive else sorted(Random(seed).sample(thetas, min(samples, len(thetas))))
        if (failed := affine.identity(inst, drawn, zero)) is None:
            return _report(CORRECTNESS, inst, inst.N, len(drawn), Fraction(0), exhaustive, enumerated,
                           samples, f"identity test on {len(drawn)} of {len(thetas)} thetas")
        if not (exhaustive and _exact(inst, CORRECTNESS, None, cap, samples, True, ENUMERATION)[0]):
            return AuditReport(CORRECTNESS, inst.describe(), inst.N, len(drawn), Fraction(1), False,
                               False, 0, None if exhaustive else samples, _witness(inst, *failed))
    if exhaustive:  # every (theta, m, z, qr), in that order
        stored = [(m, _attempt(inst.storage, m, z)) for m in inst.messages for z in inst.storage_noises]
        rounds = _rounds(inst, thetas, stored, list(qr))
    else:
        rounds = _sampled_rounds(inst, thetas, samples, Random(seed))
    detail, failures, count = "", 0, 0
    for count, realization in enumerate(rounds, 1):
        ok, error = _decodes(inst, *realization)
        if error is not None and not detail:
            detail = f"decode raised {type(error).__name__}: {error}"
        failures += not ok
    assert count == (enumerated if exhaustive else samples)
    return AuditReport(
        CORRECTNESS, inst.describe(), inst.N, len(thetas),
        Fraction(failures, count), failures == 0, exhaustive,
        enumerated if exhaustive else 0, None if exhaustive else samples,
        detail=detail,
    )


def _rounds(inst: Scheme, thetas: list[int], stored: list, randomness: list):
    """(theta, m, shares, queries), nested as theta, (m, shares) in `stored`, randomness."""
    for theta in thetas:
        asked = [_attempt(inst.queries, theta, qr) for qr in randomness]
        for m, shares in stored:
            for queries in asked:
                yield theta, m, shares, queries


def _witness(inst: Scheme, theta: int, u: list, v: list) -> str:
    """What goes wrong at theta in the realization at storage point u and
    query point v; ValueError if nothing does, though the identity test
    said so."""
    ok, error = _decodes(inst, theta, inst.messages.build(u[: inst.messages.count]),
                         _attempt(affine.storage_at(inst), u),
                         _attempt(inst.queries, theta, inst.query_randomness.build(v)))
    if ok:
        raise ValueError(f"{inst.describe()} decodes at theta {theta} where its declarations say it does not")
    name = lambda x: "zero" if not any(x) else f"unit {x.index(1)}" if x.count(0) == len(x) - 1 else "check"
    what = f"decode raised {type(error).__name__}: {error}" if error else "decode is not message theta"
    return f"identity test: theta {theta}, storage point {name(u)}, query point {name(v)}: {what}"


def _sampled_rounds(inst: Scheme, thetas: list[int], samples: int, rng: Random):
    for _ in range(samples):
        theta, m = thetas[rng.randrange(len(thetas))], inst.messages.sample(rng)
        z, qr = inst.storage_noises.sample(rng), inst.query_randomness.sample(rng)
        yield theta, m, _attempt(inst.storage, m, z), _attempt(inst.queries, theta, qr)


def exact_engine(inst: Scheme, prop: str) -> str:
    """The exact mode's engine: RANK_TESTS where the scheme declares the map
    this audit reads affine (`Scheme`), IDENTITY for correctness if both, else ENUMERATION."""
    if prop == CORRECTNESS:
        return IDENTITY if inst.linear and inst.linear_queries else ENUMERATION
    return RANK_TESTS if (inst.linear_queries if prop == T_PRIVACY else inst.linear) else ENUMERATION


def _elimination(rows: int, cols: int, pivot_cols: int) -> int:
    """A bound on the multiply-adds of `eliminate_mod` on rows x cols with
    pivots in `pivot_cols` columns: each pivot clears at most every row."""
    return rows * cols * min(rows, pivot_cols)


def estimate_work(inst: Scheme, prop: str, subset_size: int | None = None) -> int:
    """What the exact mode of this audit costs, in the unit of its engine
    (`exact_engine`, `WORK_UNITS`); the audits run it only when this is
    within their cap. Enumeration counts realizations: the (m, z) pairs for
    security, the (theta, qr) pairs of the query-side table for privacy,
    and every (theta, m, z, qr) for sym-security and correctness.

    The other engines count steps: each scheme call weighted by the
    payload symbols it returns, plus the `_elimination` bound of every rank
    test. Security: the storage probe (dim + 2 calls, dim = |m| + |z|) and
    per subset each split component, bounded by the rows of its `size`
    servers with the most. Privacy: the query probe of the first theta
    (qr.count + 2 calls), two calls per other theta, and the components
    likewise; counting them runs the probe, so when the probe alone costs
    more than DEFAULT_CAP the count is that cost. Sym-security: the storage
    probe, and per query of every theta its payloads, the N answers at the
    check point and one elimination. The identity test: the storage probe,
    the query maps, the answer rows at the zero and each unit query, and
    per theta the N answers at the check point and decodes at the answer
    probe's points and of the real answers.
    """
    return _plan(inst, prop, subset_size, DEFAULT_CAP, exact_engine(inst, prop))[0]


def _plan(inst: Scheme, prop: str, subset_size: int | None, cap: int, engine: str):
    """estimate_work's count for `engine`, probing only when the probe fits
    `cap` (else the count is the probe's cost), and the split rank tests of
    the exact mode when it probed for them (for sym-security and the
    identity test, the storage at zero or its error; else None)."""
    thetas = len(inst.thetas)
    m, z, qr = inst.messages, inst.storage_noises, inst.query_randomness
    if engine == ENUMERATION:
        counts = {X_SECURITY: m.size * z.size, T_PRIVACY: thetas * qr.size}
        return counts.get(prop, thetas * m.size * z.size * qr.size), None
    dim, queried = m.count + z.count, inst.N * inst.query_symbols
    if prop == T_PRIVACY:
        probe = (qr.count + 2 * thetas) * queried
    else:
        zero = _attempt(inst.storage, m.build([0] * m.count), z.build([0] * z.count))
        if (failed := isinstance(zero, Exception)) and prop != CORRECTNESS:
            raise zero
        probe = 0 if failed else (dim + 2) * sum(map(len, inst.share_payloads(zero)))
    width = inst.answer_symbols((1,) * inst.query_symbols)
    rows = inst.N * width
    if prop == CORRECTNESS:
        declared = (qr.count + 2 * thetas) * queried + (inst.query_symbols + 1) * width
        return probe + declared + thetas * (rows + (rows + 3) * inst.L), zero
    if prop == SYM_SECURITY:
        return probe + thetas * qr.size * (queried + rows + _elimination(rows, dim, z.count)), zero
    if probe > cap:
        return probe, None
    security = prop == X_SECURITY
    tests = _security_tests(inst) if security else _privacy_tests(inst, list(inst.thetas))
    size = (inst.X if security else inst.T) if subset_size is None else subset_size
    return probe + comb(inst.N, size) * sum(
        _elimination(sum(sorted(map(len, rows))[-size:]), width, na) for na, width, rows in tests
    ), tests
