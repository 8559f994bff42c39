"""Affine maps of a scheme's random values, read through the `Scheme`
interface: the probe behind the audits' rank tests (`audit.exact_engine`).

A map `at` takes the values of some Spaces, laid end to end as one list u
(messages, storage noise, query randomness, in that order), to per-server
payloads: a scheme's shares, its queries for one theta, or every server's
answer to one query. `probe` evaluates it at zero, at each unit vector and
at a check point with every coordinate nonzero, one evaluation at a time,
and keeps each payload coordinate as a sparse row (c, js, aj): the
coordinate is c + sum_i aj[i] * u[js[i]] mod p, over the nonzero
coefficients only, so memory is O(nonzeros) however long u is.

The audits' rank tests ask whether some column of B lies outside colspan A
in a matrix [A | B] of such rows. A is block diagonal over the connected
components of its row-column graph, so B lies in colspan A iff it does on
the rows of every component: `split` cuts the test into components, and
`leaks` eliminates those that B touches, each distinct one once.
"""

from __future__ import annotations

from itertools import count, islice

from .field import eliminate_mod
from .scheme import Scheme


def points(n: int, p: int):
    """Where the probe evaluates a map of n values, one point at a time:
    zero, each unit vector, and the check point."""
    yield [0] * n
    for j in range(n):
        x = [0] * n
        x[j] = 1
        yield x
    yield [i % (p - 1) + 1 for i in range(n)]


def _flat(payloads, shape: list) -> list[int]:
    if [None if y is None else len(y) for y in payloads] != shape:
        raise ValueError("a scheme declared linear is not affine: its payload shapes vary")
    return [v for y in payloads if y is not None for v in y]


def read(payloads, n: int, p: int) -> list:
    """The affine map of n values whose per-server payloads at the `points`
    are `payloads` (an iterable, read one payload tuple at a time): per
    server, None for a None payload (an ANSWER_EMPTY), else its
    coordinates' sparse rows. ValueError unless every payload has the zero
    point's shape and the one at the check point is the affine prediction
    there."""
    payloads = iter(payloads)
    zero = next(payloads)
    shape = [None if y is None else len(y) for y in zero]
    base = _flat(zero, shape)
    terms: list[list[tuple[int, int]]] = [[] for _ in base]
    for j, y in zip(range(n), payloads):
        y = _flat(y, shape)
        for i in [i for i, a, b in zip(count(), y, base) if a != b]:
            if a := (y[i] - base[i]) % p:
                terms[i].append((j, a))
    check = _flat(next(payloads), shape)
    for c, t, v in zip(base, terms, check):
        if (v - c - sum(a * (j % (p - 1) + 1) for j, a in t)) % p:
            raise ValueError("a scheme declared linear is not affine at the check point")
    rows = iter([
        (c % p, tuple(j for j, _ in t), tuple(a for _, a in t))
        for c, t in zip(base, terms)
    ])
    return [None if length is None else list(islice(rows, length)) for length in shape]


def dim(inst: Scheme, spaces) -> int:
    """How many values `spaces` hold; ValueError unless each has base p."""
    p = inst.p
    if any(space.base != p for space in spaces):
        raise ValueError(f"{inst.describe()} is declared linear but its Spaces are not all mod {p}")
    return sum(space.count for space in spaces)


def probe(inst: Scheme, at, spaces) -> list:
    """`read` of `at`, a map of the values of `spaces`."""
    n = dim(inst, spaces)
    return read(map(at, points(n, inst.p)), n, inst.p)


def storage_at(inst: Scheme, then=lambda stored: stored):
    """then(the storage), as a map of the (messages, storage noise) values."""
    km, build_m, build_z = inst.messages.count, inst.messages.build, inst.storage_noises.build
    return lambda u: then(inst.storage(build_m(u[:km]), build_z(u[km:])))


def queries_at(inst: Scheme, theta: int):
    """The query payloads for theta, as a map of the query randomness."""
    build = inst.query_randomness.build
    return lambda u: inst.query_payloads(inst.queries(theta, build(u)))


def rank_grows(rows: list[list[int]], limit: int, p: int) -> bool:
    """Whether rank[A | B] > rank A mod p, for rows of [A | B] with A the
    first `limit` columns: whether some column of B lies outside colspan A."""
    rank = eliminate_mod(rows, p, limit)
    return any(any(row[limit:]) for row in rows[rank:])


def split(view, pivots: range, others) -> list:
    """The rank test [A | B] on `view` (per server its sparse rows (c, js,
    aj), or None), A being the columns in `pivots` and B those in `others`
    (any other column is left out), split into the connected components of
    A's row-column graph; a row without A is a component alone, and a
    component B does not touch is dropped. Each is (na, width, per server
    its rows), a row being its (column, coefficient) pairs, with A's columns
    relabelled 0..na-1 and B's na..width-1, in column order."""
    rows = [(n, js, aj) for n, server in enumerate(view) for _, js, aj in server or ()]
    parent: dict[int, int] = {}

    def root(j):
        while (up := parent.get(j, j)) != j:
            parent[j] = j = parent.get(up, up)  # halve the path: point j at its grandparent
        return j

    for _, js, _ in rows:
        roots = {root(j) for j in js if j in pivots}
        parent.update(dict.fromkeys(roots, min(roots, default=0)))
    groups: dict[int, list] = {}
    for i, row in enumerate(rows):
        groups.setdefault(next((root(j) for j in row[1] if j in pivots), ~i), []).append(row)
    tests = []
    for group in groups.values():
        cols = {j for _, js, _ in group for j in js if j in pivots or j in others}
        label = {j: k for k, j in enumerate(sorted(cols, key=lambda j: (j not in pivots, j)))}
        na = sum(j in pivots for j in cols)
        if na < len(cols):
            per: list[list] = [[] for _ in view]
            for n, js, aj in group:
                per[n].append(tuple((label[j], v) for j, v in zip(js, aj) if j in label))
            tests.append((na, len(cols), tuple(map(tuple, per))))
    return tests


def leaks(tests, servers, p: int, seen: dict) -> bool:
    """Whether the rank test `tests` (`split`) grows the rank on the rows of
    `servers`: whether B leaves the span of A on some component. `seen`
    keeps each component's verdict, keyed by its rows."""
    for na, width, per in tests:
        key = (na, width, *(per[n] for n in servers))
        if key not in seen:
            rows = [dict(row) for part in key[2:] for row in part]
            seen[key] = rank_grows([[r.get(j, 0) for j in range(width)] for r in rows], na, p)
        if seen[key]:
            return True
    return False
