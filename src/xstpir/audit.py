"""Distribution audits: decide exactly, on small instances, that a scheme's
shares, queries and answers have the distributions its guarantees require.

Four properties are checked:

- X-security: any X servers' shares are identically distributed (over the
  storage noise) for every message realization;
- T-privacy: any T servers' joint view of (their queries, their shares) is
  identically distributed (over messages, storage noise and query
  randomness) for every retrieval index theta;
- symmetric security: conditioned on (theta, the realized queries, the value
  of message theta), the answer tuple is identically distributed (over the
  storage noise) for every value of the other messages;
- correctness: the decoded value equals message theta on every realization.

An exact report (`exhaustive true`) comes from one of two engines.

Rank tests decide security, privacy and sym-security of a scheme that
declares itself `linear` (csa, download_all, binary_n3). Each view these
audits compare is then an affine image c + A u of uniform randomness u,
so it is uniform on the coset c + colspan(A): two such views have the same
distribution when their cosets coincide and disjoint supports otherwise,
and every total-variation distance is exactly 0 or 1. The matrices are
read through the `Scheme` interface alone (`xstpir.affine`), from the maps
at zero and at each unit vector of their Spaces, with one more evaluation
to check that the map is affine (ValueError if not). With shares_S = c + M_S m + Z_S z,
queries_S = q_S(theta) + R_S r and answers = c + A_m m + A_z z for a fixed
query, and A_other the columns of A_m outside message theta:

- X-security of a subset S holds iff rank[M_S | Z_S] = rank Z_S;
- T-privacy of S holds iff q_S(theta) - q_S(1) lies in colspan(R_S) for
  every theta (the share view is common to every theta, see below);
- sym-security holds iff rank[A_other | A_z] = rank A_z for every theta
  and every distinct query payload.

The report carries max_tv 1 if any test fails and 0 otherwise, and the
subsets_checked and enumerated fields the enumeration would give.

Enumeration decides everything else (sym_xspir, and correctness of every
scheme) from exact outcome-frequency tables over all the relevant
randomness, and it is the oracle the rank tests are tested against. The
storage depends on neither theta nor the query randomness, so each
theta's joint privacy table is its query table times one share table
common to every theta, and the distance between two such products is the
distance between their query tables; the privacy audit tabulates the
query view alone.

Distances are exact Fractions; an audit passes only at distance exactly 0
(correctness reuses the field as an exact failure fraction). When the
exact engine's work (`estimate_work`) would exceed the cap the audit falls
back to seeded random sampling with an explicit tolerance, and the report
is flagged non-exhaustive.

For a linear scheme, sampled security, privacy and sym-security read the
sampled view's affine map once, by the same probe: dim + 2 scheme calls
for a view of dim random values (privacy probes the queries of each of
the two thetas it compares, sym-security the answers to each of its two
sampled queries). Each draw's view is then evaluated on the audited
servers' rows alone. The values are drawn in the same order, and the
same views counted, as when the scheme is called per draw, which sampled
correctness and every scheme not declared linear still do; so the
reports are the same.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from typing import Sequence

from . import affine
from .field import eliminate_mod
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

RANK_TESTS = "rank tests"
ENUMERATION = "enumeration"
# The unit estimate_work counts in, per engine.
WORK_UNITS = {
    RANK_TESTS: "steps (scheme calls and elimination multiply-adds)",
    ENUMERATION: "realizations",
}

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
    reps = {tuple(sorted(c.items())): c for c in counters}.values()
    return max((_tv(a, b, total) for a, b in combinations(reps, 2)), default=Fraction(0))


def _max_tv(tables: dict[object, list[Counter]], total: int) -> Fraction:
    """Max pairwise TV within each entry's tables, each over `total`
    realizations."""
    assert all(sum(c.values()) == total for counters in tables.values() for c in counters)
    return max((_max_pairwise_tv(c, total) for c in tables.values()), default=Fraction(0))


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


def _verdict(leaks) -> Fraction:
    """The rank tests' max_tv: 1 if any test found a leak, else 0."""
    return Fraction(int(any(leaks)))


def _rank_grows(rows: list[list[int]], limit: int, p: int) -> bool:
    """Whether rank[A | B] > rank A mod p, for rows of [A | B] with A the
    first `limit` columns: whether some column of B lies outside colspan A."""
    rank = eliminate_mod(rows, p, limit)
    return any(any(row[limit:]) for row in rows[rank:])


def _sampled_tv(samples: int, tables) -> Fraction:
    """The TV distance between two tables, each a (view, draw) pair counting
    view(draw()) over `samples` draws, the first's all drawn first."""
    first, second = (Counter(view(draw()) for _ in range(samples)) for view, draw in tables)
    return _tv(first, second, samples)


def audit_security(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """Shares of any `subset_size` servers must not depend on the messages.

    The report carries, over the subsets, the maximum total-variation
    distance between the share views of two message values: by rank tests
    for a linear scheme, else from the exact distribution of each subset's
    share tuple over all storage noise, tabulated per message value. A
    subset size outside 1..N raises ValueError.
    """
    size = inst.X if subset_size is None else subset_size
    subsets = _subsets(inst, size)
    if estimate_work(inst, X_SECURITY, size) <= cap:
        if inst.linear:
            max_tv = _security_by_rank(inst, subsets)
        else:
            max_tv = _security_by_enumeration(inst, subsets)
        return AuditReport(
            X_SECURITY, inst.describe(), size, len(subsets),
            max_tv, max_tv == 0, True, inst.messages.size * inst.storage_noises.size,
        )
    rng, noise = Random(seed), inst.storage_noises.draw
    shares = affine.storage_at(inst, inst.share_payloads)
    view = affine.view(inst, shares, (inst.messages, inst.storage_noises))
    max_tv = Fraction(0)
    for s in subsets:
        pair = [inst.messages.draw(rng) for _ in range(2)]
        tables = [(view(s), lambda m=m: m + noise(rng)) for m in pair]
        max_tv = max(max_tv, _sampled_tv(samples, tables))
    return _sampled_report(X_SECURITY, inst, size, len(subsets), max_tv, samples)


def _security_by_rank(inst: Scheme, subsets) -> Fraction:
    """rank[M_S | Z_S] = rank Z_S for every subset S: the message columns
    of the share map lie in the span of its noise columns."""
    spaces = (inst.messages, inst.storage_noises)
    shares = affine.probe(inst, affine.storage_at(inst, inst.share_payloads), spaces)
    km, dim = inst.messages.count, affine.dim(inst, spaces)
    return _verdict(
        _rank_grows(
            [affine.dense(row, dim, km) for n in s for row in shares[n]],
            inst.storage_noises.count, inst.p,
        )
        for s in subsets
    )


def _security_by_enumeration(inst: Scheme, subsets) -> Fraction:
    messages = list(inst.messages)
    noises = list(inst.storage_noises)
    tables: dict[tuple, list[Counter]] = {s: [Counter() for _ in messages] for s in subsets}
    for mi, m in enumerate(messages):
        for z in noises:
            keys = inst.share_payloads(inst.storage(m, z))
            for s in subsets:
                tables[s][mi][tuple(keys[i] for i in s)] += 1
    return _max_tv(tables, len(noises))


def audit_privacy(
    inst: Scheme,
    subset_size: int | None = None,
    cap: int = DEFAULT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AuditReport:
    """The joint view (queries, shares) of any `subset_size` servers must not
    depend on theta.

    The exact engines decide it from the query view alone. The query view
    of a subset depends only on (theta, qr), the share view only on (m, z),
    and the two are drawn independently, so theta's joint count of a view
    (a, b) is Q_theta(a) * S(b), with Q_theta counted over the query
    randomness and S over the `pairs` = |messages| * |storage noise| values
    of (m, z), the same S for every theta. Hence

        sum_{a,b} |Q_1(a) S(b) - Q_2(a) S(b)| / (2 |qr| pairs)
            = sum_a |Q_1(a) - Q_2(a)| / (2 |qr|),

    and the share view cannot move max_tv. A linear scheme is decided by
    rank tests, any other by tabulating Q_theta. `enumerated` still counts
    the len(thetas) * |qr| * pairs joint realizations the table covers.
    The sampled fallback draws (m, z, qr) jointly. A subset size outside
    1..N raises ValueError.
    """
    size = inst.T if subset_size is None else subset_size
    subsets = _subsets(inst, size)
    thetas = list(inst.thetas)
    if estimate_work(inst, T_PRIVACY, size) <= cap:
        if inst.linear:
            max_tv = _privacy_by_rank(inst, thetas, subsets)
        else:
            max_tv = _privacy_by_enumeration(inst, thetas, subsets)
        pairs = inst.messages.size * inst.storage_noises.size
        return AuditReport(
            T_PRIVACY, inst.describe(), size, len(subsets),
            max_tv, max_tv == 0, True, len(thetas) * inst.query_randomness.size * pairs,
        )
    rng, spaces = Random(seed), (inst.messages, inst.storage_noises, inst.query_randomness)

    def draw():
        return [v for space in spaces for v in space.draw(rng)]

    ends = (thetas[0], thetas[-1])
    shares = affine.view(inst, affine.storage_at(inst, inst.share_payloads), spaces[:2])
    start = inst.messages.count + inst.storage_noises.count
    maps = _query_maps(inst, ends, start) if inst.linear else [None] * 2
    asked = [
        affine.view(inst, affine.queries_at(inst, theta), spaces[2:], start, rows)
        for theta, rows in zip(ends, maps)
    ]
    max_tv = Fraction(0)
    for s in subsets:
        share = shares(s)
        tables = [(lambda u, q=q(s): (q(u), share(u)), draw) for q in asked]
        max_tv = max(max_tv, _sampled_tv(samples, tables))
    return _sampled_report(T_PRIVACY, inst, size, len(subsets), max_tv, samples)


def _privacy_by_rank(inst: Scheme, thetas: list[int], subsets) -> Fraction:
    """q_S(theta) - q_S(thetas[0]) in colspan R_S for every subset S and
    theta, R_S being the same for every theta (ValueError if not)."""
    first, *others = _query_maps(inst, thetas)
    kq = inst.query_randomness.count
    return _verdict(
        _rank_grows(
            [
                affine.dense(row, kq) + [view[n][i][0] - row[0] for view in others]
                for n in s
                for i, row in enumerate(first[n])
            ],
            kq, inst.p,
        )
        for s in subsets
    )


def _query_maps(inst: Scheme, thetas, start: int = 0) -> list:
    """The affine query map of each theta (`affine.probe`, the query
    randomness held from u[start]). ValueError unless the randomness enters
    every theta's queries the same way."""
    space = (inst.query_randomness,)
    maps = [affine.probe(inst, affine.queries_at(inst, t), space, start) for t in thetas]
    coefficients = [[row[1:] for row in rows] for rows in maps[0]]
    for theta, rows in zip(thetas[1:], maps[1:]):
        if [[row[1:] for row in server] for server in rows] != coefficients:
            raise ValueError(
                f"{inst.describe()} is declared linear but the query randomness "
                f"enters the queries for theta {theta} differently"
            )
    return maps


def _privacy_by_enumeration(inst: Scheme, thetas: list[int], subsets) -> Fraction:
    randomness = list(inst.query_randomness)
    tables: dict[tuple, list[Counter]] = {s: [Counter() for _ in thetas] for s in subsets}
    for ti, theta in enumerate(thetas):
        for qr in randomness:
            qkeys = inst.query_payloads(inst.queries(theta, qr))
            for s in subsets:
                tables[s][ti][tuple(qkeys[i] for i in s)] += 1
    return _max_tv(tables, len(randomness))


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
    leak by reporting the nonzero distance. `subsets_checked` counts those
    (theta, query payload, value of message theta) groups.
    """
    thetas = list(inst.thetas)
    if estimate_work(inst, SYM_SECURITY) <= cap:
        if inst.linear:
            max_tv, groups = _sym_security_by_rank(inst, thetas)
        else:
            max_tv, groups = _sym_security_by_enumeration(inst, thetas)
        return AuditReport(
            SYM_SECURITY, inst.describe(), inst.N, groups,
            max_tv, max_tv == 0, True,
            len(thetas) * inst.query_randomness.size
            * inst.messages.size * inst.storage_noises.size,
        )
    rng, noise = Random(seed), inst.storage_noises.draw
    ends, spaces = (thetas[0], thetas[-1]), (inst.messages, inst.storage_noises)
    max_tv = Fraction(0)
    for theta in ends:
        q = inst.queries(theta, inst.query_randomness.sample(rng))
        base = inst.messages.draw(rng)
        other = inst.messages.draw(rng)
        # Give the pair the same message theta so they are comparable.
        desired = slice((theta - 1) * inst.L, theta * inst.L)
        other[desired] = base[desired]
        answers = affine.storage_at(inst, lambda stored: _answers(inst, stored, q))
        view = affine.view(inst, answers, spaces)(range(inst.N))
        tables = [(view, lambda m=m: m + noise(rng)) for m in (base, other)]
        max_tv = max(max_tv, _sampled_tv(samples, tables))
    return _sampled_report(SYM_SECURITY, inst, inst.N, len(ends), max_tv, samples)


def _distinct_queries(inst: Scheme, theta: int) -> dict[tuple, list]:
    """Every query tuple for theta, grouped by payload."""
    realizations: dict[tuple, list] = {}
    for qr in inst.query_randomness:
        q = inst.queries(theta, qr)
        realizations.setdefault(inst.query_payloads(q), []).append(q)
    return realizations


def _sym_security_by_rank(inst: Scheme, thetas: list[int]) -> tuple[Fraction, int]:
    """rank[A_other | A_z] = rank A_z for every theta and distinct query
    payload. The groups are counted without enumerating the messages: p to
    the rank of the plaintext map per distinct payload."""
    p, km, kz = inst.p, inst.messages.count, inst.storage_noises.count
    spaces = (inst.messages, inst.storage_noises)
    dim = affine.dim(inst, spaces)
    stored = list(map(affine.storage_at(inst), affine.points(dim, p)))
    leak, groups = False, 0
    for theta in thetas:
        plain = affine.probe(
            inst, lambda u: (inst.plaintext(inst.messages.build(u[:km]), theta),), spaces
        )
        asked = _distinct_queries(inst, theta)
        groups += len(asked) * p ** eliminate_mod([affine.dense(row, dim) for row in plain[0]], p)
        own = range(kz + (theta - 1) * inst.L, kz + theta * inst.L)  # message theta's columns
        for q, *_ in asked.values():
            if leak:
                break
            answers = affine.read((_answers(inst, s, q) for s in stored), dim, p)
            rows = [
                [a for j, a in enumerate(affine.dense(row, dim, km)) if j not in own]
                for server in answers
                for row in server or ()
            ]
            leak = _rank_grows(rows, kz, p)
    return Fraction(int(leak)), groups


def _sym_security_by_enumeration(inst: Scheme, thetas: list[int]) -> tuple[Fraction, int]:
    messages = list(inst.messages)
    noises = list(inst.storage_noises)
    share_cache = [[inst.storage(m, z) for z in noises] for m in messages]
    max_tv = Fraction(0)
    groups = 0
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
    work = estimate_work(inst, CORRECTNESS)
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


def exact_engine(inst: Scheme, prop: str) -> str:
    """How the exact mode of this audit decides it: RANK_TESTS or
    ENUMERATION."""
    return RANK_TESTS if inst.linear and prop != CORRECTNESS else ENUMERATION


def _elimination(rows: int, cols: int, pivot_cols: int) -> int:
    """A bound on the multiply-adds of `eliminate_mod` on rows x cols with
    pivots in `pivot_cols` columns: each pivot clears at most every row."""
    return rows * cols * min(rows, pivot_cols)


def estimate_work(inst: Scheme, prop: str, subset_size: int | None = None) -> int:
    """What the exact mode of this audit costs, in the unit of its engine
    (`exact_engine`, `WORK_UNITS`); the audits run it only when this is
    within the cap.

    Enumeration counts realizations: the (m, z) pairs for security, the
    (theta, qr) pairs of the query-side table for privacy, and every
    (theta, m, z, qr) for sym-security and correctness.

    Rank tests count steps: one per scheme call, plus the `_elimination`
    bound for every test. Security: a storage probe (dim + 2 calls, dim =
    |m| + |z| coordinates) and one test per subset, its rows the subset's
    share payloads (their lengths read from one storage call at zero).
    Privacy: a query probe per theta and one test per subset, on the
    subset's query payloads. Sym-security: the storage probe, per theta a
    plaintext probe and every query, and per query tuple (a bound on the
    distinct ones) the answers of every probe storage and one test on
    N * answer_symbols(an all-ones query) rows.
    """
    thetas = len(inst.thetas)
    m, z, qr = inst.messages, inst.storage_noises, inst.query_randomness
    if exact_engine(inst, prop) == ENUMERATION:
        if prop == X_SECURITY:
            return m.size * z.size
        if prop == T_PRIVACY:
            return thetas * qr.size
        return thetas * m.size * z.size * qr.size
    dim = m.count + z.count
    if prop == X_SECURITY:
        size = inst.X if subset_size is None else subset_size
        zero = inst.storage(m.build([0] * m.count), z.build([0] * z.count))
        rows = size * max(map(len, inst.share_payloads(zero)))
        return dim + 3 + comb(inst.N, size) * _elimination(rows, dim, z.count)
    if prop == T_PRIVACY:
        size = inst.T if subset_size is None else subset_size
        rows = size * inst.query_symbols
        tests = comb(inst.N, size) * _elimination(rows, qr.count + thetas - 1, qr.count)
        return thetas * (qr.count + 2) + tests
    rows = inst.N * inst.answer_symbols((1,) * inst.query_symbols)
    per_query = 1 + inst.N * (dim + 2) + _elimination(rows, dim, z.count)
    return (dim + 2) * (1 + thetas) + thetas * qr.size * per_query
