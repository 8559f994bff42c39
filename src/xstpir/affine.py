"""Affine maps of a scheme's random values, read through the `Scheme`
interface: the probe behind the audits of schemes declared `linear`.

A map `at` takes the values of some Spaces, laid end to end as one list u
(messages, storage noise, query randomness, in that order), to per-server
payloads: a scheme's shares, its queries for one theta, or every server's
answer to one query. `probe` evaluates it at zero, at each unit vector and
at a check point with every coordinate nonzero, one evaluation at a time,
and keeps each payload coordinate as a sparse row (c, js, aj): the
coordinate is c + sum_i aj[i] * u[js[i]] mod p, over the nonzero
coefficients only, so memory is O(nonzeros) however long u is. The audits
run rank tests on the rows (`dense`), and their sampled mode evaluates a
view of the audited servers from them (`view`) instead of calling the
scheme per draw.
"""

from __future__ import annotations

from functools import partial
from itertools import count, islice
from operator import mul

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


def read(payloads, n: int, p: int, start: int = 0) -> list:
    """The affine map of n values whose per-server payloads at the `points`
    are `payloads` (an iterable, read one payload tuple at a time), with
    the values held from u[start]: per server, None for a None payload (an
    ANSWER_EMPTY), else its coordinates' sparse rows. ValueError unless
    every payload has the zero point's shape and the one at the check point
    is the affine prediction there."""
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
        (c % p, tuple(start + j for j, _ in t), tuple(a for _, a in t))
        for c, t in zip(base, terms)
    ])
    return [None if length is None else list(islice(rows, length)) for length in shape]


def dim(inst: Scheme, spaces) -> int:
    """How many values `spaces` hold; ValueError unless each has base p."""
    p = inst.p
    if any(space.base != p for space in spaces):
        raise ValueError(f"{inst.describe()} is declared linear but its Spaces are not all mod {p}")
    return sum(space.count for space in spaces)


def probe(inst: Scheme, at, spaces, start: int = 0) -> list:
    """`read` of `at`, a map of the values of `spaces`."""
    n = dim(inst, spaces)
    return read(map(at, points(n, inst.p)), n, inst.p, start)


def dense(row, n: int, first: int = 0) -> list[int]:
    """A row's n coefficients, rotated to start at column `first`."""
    out = [0] * n
    for j, a in zip(row[1], row[2]):
        out[(j - first) % n] = a
    return out


def view(inst: Scheme, at, spaces, start: int = 0, rows=None):
    """`at` as a function of the audited servers, giving their view: u ->
    those servers' payloads, the values of `spaces` held from u[start]. For
    a linear scheme the view evaluates those servers' rows (`rows`, else
    `probe`'s); for any other it calls `at`."""
    if not inst.linear:
        stop = start + sum(space.count for space in spaces)
        return lambda servers: lambda u: tuple(map(at(u[start:stop]).__getitem__, servers))
    if rows is None:
        rows = probe(inst, at, spaces, start)
    return lambda servers: partial(_evaluate, inst.p, [rows[n] for n in servers])


def _evaluate(p: int, chosen: list, u: list[int]) -> tuple:
    get = u.__getitem__
    return tuple(
        None if rows is None
        else tuple([(c + sum(map(mul, a, map(get, js)))) % p for c, js, a in rows])
        for rows in chosen
    )


def storage_at(inst: Scheme, then=lambda stored: stored):
    """then(the storage), as a map of the (messages, storage noise) values."""
    km, build_m, build_z = inst.messages.count, inst.messages.build, inst.storage_noises.build
    return lambda u: then(inst.storage(build_m(u[:km]), build_z(u[km:])))


def queries_at(inst: Scheme, theta: int):
    """The query payloads for theta, as a map of the query randomness."""
    build = inst.query_randomness.build
    return lambda u: inst.query_payloads(inst.queries(theta, build(u)))
