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
two read each declared map once (`affine.read`) and check every
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
every theta and distinct query payload, one elimination each, A built
from the query map where it is declared (`affine.sym_views`). Security
and privacy split [A | B] into the components of A (`affine.split`).

The identity test (`affine.identity`) decides correctness where the
storage side is declared. g = decode(answers) - message theta is then
affine in the storage values u for each query realization; it is
assembled from the share map, the answer rows and decode read at zero,
unit and check answers, and its constant and u-coefficients must vanish.
With the query side declared too, g(u, v) is bi-affine in u and the query
randomness v, the query map is read once, and its v- and uv-coefficients
must vanish as well; else each (theta, query realization) is tested.
Where a coefficient does not vanish, or a call raises, enumeration takes
over within its cap; past it the report fails, not exhaustive, max_tv 1,
with the witness realization (theta, storage and query point, what went
wrong) in `detail`.

Enumeration (`_enumeration`) tabulates a view per group over all the
randomness and compares the tables exactly. It decides sym_xspir's
privacy and every audit of a scheme that declares nothing, and it is the
oracle the other engines are tested against.

Distances are exact Fractions; an exact audit passes only at distance 0
(correctness reports the exact failure fraction). When the exact engine's
work (`estimate_work`) would exceed the cap the audit refuses with
OverCap (samples below 1 raise ValueError), unless its engine reads the
scheme's declared maps and `fallback` allows a seeded draw, flagged
non-exhaustive. The engine then runs its probes and the tests of the
draw (`_draw`, distinct values): min(samples, C(N, size)) subsets for
security and privacy; for sym-security and correctness min(samples,
K * |qr|) (theta, query realization) pairs, or min(samples, K) thetas
where the queries are declared affine. Such a report is one-sided: max_tv
1 proves a failure, max_tv 0 says that none of the tests run found one,
and `detail` says how many ran of how many ("rank tests on 50 of 50
(theta, query realization) pairs"). Enumeration has no such mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, log10
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
FULL_DIGITS = 30


class OverCap(ValueError):
    """An exact computation past its work cap, with no sampled fallback."""


def _figure(n: int) -> str:
    """n, or past FULL_DIGITS digits `about 10^k`: str(n) fails past 4,300 digits on 3.11+."""
    return str(n) if n < 10**FULL_DIGITS else f"about 10^{round(log10(n))}"


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
            f"enumerated {_figure(self.enumerated)}",
        ]
        if self.samples is not None:
            lines.append(f"samples {self.samples}")
        lines.append(f"max_tv {self.max_tv_distance}")
        lines.append(f"pass {str(self.passed).lower()}")
        if self.detail:
            lines.append(f"detail {self.detail}")
        return "\n".join(lines) + "\n"


def _max_tv(tables: dict) -> Fraction:
    """Max TV between two tables of one group (`_enumeration`), which must
    each count the same realizations; identical tables are grouped first,
    so the common all-equal case costs one pass."""
    worst = Fraction(0)
    for group in tables.values():
        (total,) = {sum(c.values()) for c in group.values()}
        for a, b in combinations({frozenset(c.items()): c for c in group.values()}.values(), 2):
            worst = max(worst, Fraction(sum(abs(a[k] - b[k]) for k in a.keys() | b.keys()), 2 * total))
    return worst


def _enumeration(views) -> dict:
    """The enumeration engine's tables: `views` yields, realization by
    realization over all the randomness, the (group, table, outcome)
    triples that realization shows. Per group, its tables by key, each
    counting its outcomes in the order they were first seen."""
    tables: dict = {}
    for (group, table, outcome), n in Counter(views).items():
        tables.setdefault(group, {}).setdefault(table, Counter())[outcome] = n
    return tables


# The audits take any Scheme. The older adapter names stay, as the scheme
# classes themselves: CsaInstance(params), BinaryInstance(k, b=None), ...
CsaInstance = CsaScheme
DownloadAllInstance = DownloadAllScheme
BinaryInstance = BinaryScheme
SymXspirInstance = SymXspirScheme


def _exact(inst: Scheme, prop: str, size, cap: int, samples: int, fallback: bool):
    """`exact_engine`'s engine, whether its `_plan` work is within the cap,
    and `_plan`'s zero storage and tests. Past the cap, OverCap unless
    `fallback` is allowed and the engine is not enumeration."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    engine = exact_engine(inst, prop)
    work, zero, tests = _plan(inst, prop, size, cap, engine)
    if work > cap and not (fallback and engine != ENUMERATION):
        raise OverCap(f"the exact audit by {engine} would take {_figure(work)} {WORK_UNITS[engine]}, "
                      f"over the cap of {cap}")
    return engine, work <= cap, zero, tests


def _draw(seed: int, samples: int, total: int, one) -> list:
    """min(samples, total) distinct values of one(rng), rng = Random(seed), sorted."""
    rng, drawn = Random(seed), set()
    while len(drawn) < min(samples, total):
        drawn.add(one(rng))
    return sorted(drawn)


def _pairs(inst: Scheme, exact: bool, samples: int, seed: int, values: bool = True) -> tuple:
    """The (theta, query randomness values) pairs an audit tests, in order,
    and how many there are: all of them if `exact` or `samples` covers them,
    else `_draw`'s, their values held as big-endian bytes that sort as the
    tuples do (past a byte a value, unpacked as they are iterated). Without
    `values`, one (theta, None) per theta."""
    thetas, qr = list(inst.thetas), inst.query_randomness
    total = len(thetas) * (qr.size if values else 1)
    if exact or samples >= total:
        every = product(range(qr.base), repeat=qr.count) if values else [None]
        return list(product(thetas, every)), total
    w = ((qr.base - 1).bit_length() + 7) // 8 or 1
    pack = lambda rng: b"".join(x.to_bytes(w, "big") for x in qr.draw(rng)) if values else None
    drawn = _draw(seed, samples, total, lambda rng: (rng.choice(thetas), pack(rng)))
    unpack = lambda b: tuple(int.from_bytes(b[j:j + w], "big") for j in range(0, len(b), w))
    return (((t, unpack(b)) for t, b in drawn) if w > 1 and values else drawn), total


def _report(prop, inst, size, checked, max_tv, exact, enumerated, samples, detail=""):
    """Exact: pass at max_tv 0. Else a seeded draw of the exact tests
    `detail` names, one-sided: pass at 0, and 1 is a proven failure."""
    head = (prop, inst.describe(), size, checked, max_tv, max_tv == 0, exact)
    return AuditReport(*head, enumerated) if exact else AuditReport(*head, 0, samples, f"sampled: {detail}")


def _subsets_audit(prop, inst, subset_size, cap, samples, seed, fallback) -> AuditReport:
    """X-security or T-privacy (`prop`) of the size-subsets of the servers.
    The split rank tests run in lexicographic order up to the first leak:
    on every subset if exact, else on min(samples, C(N, size)) distinct ones
    drawn from Random(seed). Enumeration tabulates each subset's view per
    message value (security: its shares over the storage noise) or per theta
    (privacy: its queries over the query randomness)."""
    security, thetas, qr = prop == X_SECURITY, list(inst.thetas), inst.query_randomness
    size = (inst.X if security else inst.T) if subset_size is None else subset_size
    if not 1 <= size <= inst.N:
        raise ValueError(f"subset size must be in 1..{inst.N}, got {size}")
    engine, exact, zero, tests = _exact(inst, prop, size, cap, samples, fallback)
    enumerated = inst.messages.size * inst.storage_noises.size * (1 if security else len(thetas) * qr.size)
    total, subsets = comb(inst.N, size), combinations(range(inst.N), size)
    if engine == ENUMERATION:
        if security:
            views = ((m, inst.share_payloads(inst.storage(m, z)))
                     for m in inst.messages for z in inst.storage_noises)
        else:
            views = ((t, inst.queries(t, r)) for t in thetas for r in qr)
        tables = _enumeration((s, table, tuple(y[n] for n in s))
                              for table, y in views for s in combinations(range(inst.N), size))
        return _report(prop, inst, size, total, _max_tv(tables), True, enumerated, None)
    if tests is None:  # past the cap, `_plan` did not probe
        tests = _security_tests(inst, zero) if security else _privacy_tests(inst)
    if not exact and samples < total:
        subsets = _draw(seed, samples, total, lambda rng: tuple(sorted(rng.sample(range(inst.N), size))))
    seen: dict = {}
    for tested, s in enumerate(subsets, 1):
        if leak := affine.leaks(tests, s, inst.p, seen):
            break
    return _report(prop, inst, size, total if exact else tested, Fraction(leak), exact,
                   enumerated, samples, f"rank tests on {tested} of {total} subsets")


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
    return _subsets_audit(X_SECURITY, inst, subset_size, cap, samples, seed, fallback)


def _security_tests(inst: Scheme, zero) -> list:
    """[Z | M] of the share map (given the storage at zero), split: on every
    subset's rows the message columns must lie in the span of the noise
    columns."""
    km, kz = inst.messages.count, inst.storage_noises.count
    shares = affine.share_map(inst, zero, [None] * 3)[0]
    return affine.split(shares, range(km, km + kz), range(km))


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
    the len(thetas) * |qr| * pairs joint realizations. A subset size
    outside 1..N raises ValueError.
    """
    return _subsets_audit(T_PRIVACY, inst, subset_size, cap, samples, seed, fallback)


def _privacy_tests(inst: Scheme) -> list:
    """[R | q(theta) - q(1) for each later theta] of the query maps, split,
    R being the same for every theta (ValueError if not): on every subset's
    rows the differences must lie in the span of R."""
    kq, p, flat = inst.query_randomness.count, inst.p, count()
    thetas = list(inst.thetas)
    first, mapped = affine.query_maps(inst, thetas, [None] * 3)
    others = [mapped(theta)[0] for theta in thetas[1:]]

    def row(c, js, aj):
        i = next(flat)
        extra = [(kq + t, d) for t, other in enumerate(others) if (d := (other[i] - c) % p)]
        return c, js + tuple(j for j, _ in extra), aj + tuple(d for _, d in extra)

    view = [[row(*r) for r in rows] for rows in first]
    return affine.split(view, range(kq), range(kq, kq + len(others)))


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
    tests the distinct (theta, query realization) pairs they test (every
    shipped query map is injective in its randomness: their payloads differ).
    """
    engine, exact, zero, _ = _exact(inst, SYM_SECURITY, None, cap, samples, fallback)
    asked, total = _pairs(inst, exact, samples, seed)
    enumerated = total * inst.messages.size * inst.storage_noises.size
    if not (engine == RANK_TESTS and inst.linear_queries):  # else no call per pair: the maps are read once
        ask = lambda t, v: (t, inst.queries(t, inst.query_randomness.build(v)))
        asked = [ask(*a) for a in asked] if exact else (ask(*a) for a in asked)  # lazy past the cap
    if engine == RANK_TESTS:
        views, distinct = affine.sym_views(inst, asked, zero)
        for tested, rows in enumerate(views, 1):
            if leak := affine.rank_grows(rows, inst.storage_noises.count, inst.p):
                break
        # a linear plaintext is message theta's L values: p^L groups per payload
        checked = distinct() * inst.p**inst.L if exact else tested
        detail = f"rank tests on {tested} of {_figure(total)} (theta, query realization) pairs"
        return _report(SYM_SECURITY, inst, inst.N, checked, Fraction(leak), exact, enumerated,
                       samples, detail)
    stored = [(m, inst.storage(m, z)) for m in inst.messages for z in inst.storage_noises]
    tables = _enumeration(((t, q, inst.plaintext(m, t)), m, tuple(map(inst.answer, shares, q)))
                          for m, shares in stored for t, q in asked)
    return _report(SYM_SECURITY, inst, inst.N, len(tables), _max_tv(tables), True, enumerated, samples)


def _attempt(make, *args):
    """make(*args), or the exception it raised."""
    try:
        return make(*args)
    except Exception as exc:
        return exc


def _decodes(inst: Scheme, theta: int, m, shares, queries) -> tuple[bool, str]:
    """Whether one realization decodes to message theta, and what the first
    exception on its way says ("" if none): from building the shares, from
    building the queries (each passed in as the exception when it raised),
    or from the answers and decode."""
    error = next((made for made in (shares, queries) if isinstance(made, Exception)), None)
    if error is None:
        try:
            answers = tuple(map(inst.answer, shares, queries))
            return inst.decode(theta, answers) == inst.plaintext(m, theta), ""
        except Exception as exc:
            error = exc
    return False, f"decode raised {type(error).__name__}: {error}"


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
    failure is reported with the identity test's witness and max_tv 1.
    `subsets_checked` counts the thetas tested."""
    thetas, qr = list(inst.thetas), inst.query_randomness
    enumerated = len(thetas) * qr.size * inst.messages.size * inst.storage_noises.size
    engine, exhaustive, zero, _ = _exact(inst, CORRECTNESS, None, cap, samples, fallback)
    if engine == IDENTITY:
        # one test per theta where the queries are declared affine, else one per (theta, qr)
        asked, total = _pairs(inst, exhaustive, samples, seed, not inst.linear_queries)
        asked = list(asked)
        checked = len({t for t, _ in asked})
        if (failed := affine.identity(inst, asked, zero)) is None:
            what = "thetas" if inst.linear_queries else "(theta, query realization) pairs"
            return _report(CORRECTNESS, inst, inst.N, checked, Fraction(0), exhaustive, enumerated,
                           samples, f"identity test on {len(asked)} of {_figure(total)} {what}")
        if not (exhaustive and _plan(inst, CORRECTNESS, None, cap, ENUMERATION)[0] <= cap):
            return AuditReport(CORRECTNESS, inst.describe(), inst.N, checked, Fraction(1), False,
                               False, 0, None if exhaustive else samples, _witness(inst, *failed))
    stored = [(m, _attempt(inst.storage, m, z)) for m in inst.messages for z in inst.storage_noises]
    asked = {t: [_attempt(inst.queries, t, r) for r in qr] for t in thetas}
    outcomes = _enumeration(((), (), _decodes(inst, t, m, shares, q))  # in (theta, m, z, qr) order
                            for t in thetas for m, shares in stored for q in asked[t])[()][()]
    failures = sum(n for (ok, _), n in outcomes.items() if not ok)
    detail = next((error for _, error in outcomes if error), "")
    return AuditReport(CORRECTNESS, inst.describe(), inst.N, len(thetas), Fraction(failures, enumerated),
                       failures == 0, True, enumerated, detail=detail)


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
    where = f"query point {name(v)}" if inst.linear_queries else f"query realization {tuple(v)}"
    what = error or "decode is not message theta"
    return f"identity test: theta {theta}, storage point {name(u)}, {where}: {what}"


def exact_engine(inst: Scheme, prop: str) -> str:
    """The exact mode's engine: RANK_TESTS where the scheme declares the map
    this audit reads affine (`Scheme`), IDENTITY for correctness where it
    declares `linear`, else ENUMERATION."""
    if prop == CORRECTNESS:
        return IDENTITY if inst.linear else ENUMERATION
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
    probe, and per (theta, qr) one elimination after its query payloads and
    N answers at the check point, or with declared queries its N * width x
    dim matrix (after the query probe and per theta N answers). The
    identity test: the storage probe, the query maps, the answer rows at
    the zero and each unit query, and per theta the N answers at the check
    point and decodes at the answer probe's points and of the real answers;
    without `linear_queries`, per theta the decodes at the answer probe's
    points, and per (theta, qr) its queries, the N answers at the check
    point and one real decode.
    """
    return _plan(inst, prop, subset_size, DEFAULT_CAP, exact_engine(inst, prop))[0]


def _plan(inst: Scheme, prop: str, subset_size: int | None, cap: int, engine: str):
    """(work, zero, tests): estimate_work's count for `engine`, probing only
    when the probe fits `cap` (else the count is the probe's cost); the
    storage at zero where the engine reads the share map (for correctness,
    its error if it raised), else None; and the split rank tests of the
    exact mode when it probed for them, else None."""
    thetas = len(inst.thetas)
    m, z, qr = inst.messages, inst.storage_noises, inst.query_randomness
    if engine == ENUMERATION:
        counts = {X_SECURITY: m.size * z.size, T_PRIVACY: thetas * qr.size}
        return counts.get(prop, thetas * m.size * z.size * qr.size), None, None
    dim, queried, zero = m.count + z.count, inst.N * inst.query_symbols, None
    maps = (qr.count + 2 * thetas) * queried  # the query map: the first theta's probe, two calls per other
    if prop == T_PRIVACY:
        probe = maps
    else:
        zero = _attempt(inst.storage, m.build([0] * m.count), z.build([0] * z.count))
        if (failed := isinstance(zero, Exception)) and prop != CORRECTNESS:
            raise zero
        probe = 0 if failed else (dim + 2) * sum(map(len, inst.share_payloads(zero)))
    rows = inst.N * (width := inst.answer_symbols((1,) * inst.query_symbols))
    if prop == CORRECTNESS and not inst.linear_queries:
        return probe + thetas * (qr.size * (queried + rows + inst.L) + (rows + 2) * inst.L), zero, None
    if prop == CORRECTNESS:
        declared = maps + (inst.query_symbols + 1) * width
        return probe + declared + thetas * (rows + (rows + 3) * inst.L), zero, None
    if prop == SYM_SECURITY:  # per pair its matrix, from the maps or from its queries and answers
        maps, per = (maps + thetas * rows, rows * dim) if inst.linear_queries else (0, queried + rows)
        return probe + maps + thetas * qr.size * (per + _elimination(rows, dim, z.count)), zero, None
    if probe > cap:
        return probe, zero, None
    security = prop == X_SECURITY
    tests = _security_tests(inst, zero) if security else _privacy_tests(inst)
    size = (inst.X if security else inst.T) if subset_size is None else subset_size
    return probe + comb(inst.N, size) * sum(
        _elimination(sum(sorted(map(len, rows))[-size:]), width, na) for na, width, rows in tests
    ), zero, tests
