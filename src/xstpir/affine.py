"""Affine maps of a scheme's random values, read through the `Scheme`
interface: the probe behind the audits' rank tests and identity test
(`audit.exact_engine`).

A map `at` takes the values of some Spaces, laid end to end as one list u
(messages, storage noise, query randomness, in that order), to per-server
payloads: a scheme's shares, its queries for one theta, or every server's
answer to one query. `read` takes its payloads at zero, at each unit
vector and at a check point with every coordinate nonzero (`points`), one
evaluation at a time, and keeps each payload coordinate as a sparse row
(c, js, aj): the coordinate is c + sum_i aj[i] * u[js[i]] mod p, over the
nonzero coefficients only, so memory is O(nonzeros) however long u is.

`share_map` and `query_maps` read a scheme's maps once each: the shares,
and the queries of the first theta, each other theta in two more calls
(`constants`), of which only the last theta's are kept; any other theta is
read again, in one call, when a test asks for it. A server's answer is
read from the rows the scheme declares for it (`Scheme.answer_rows`),
checked against `answer` at the check point; `forms` and `moved` apply
such declared rows to the maps without calling the scheme again. From them
`identity` assembles the correctness identity of a scheme declared linear,
and `sym_views` sym-security's rank tests: once per theta where the
queries are declared too, else per realization.

The audits' rank tests ask whether some column of B lies outside colspan A
in a matrix [A | B] of such rows. A is block diagonal over the connected
components of its row-column graph, so B lies in colspan A iff it does on
the rows of every component: `split` cuts the test into components, and
`leaks` eliminates those that B touches, each distinct one once.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice
from operator import mul, ne

from .field import eliminate_mod
from .scheme import Scheme


def check(n: int, p: int) -> list[int]:
    """The check point of n values: every coordinate nonzero."""
    return [i % (p - 1) + 1 for i in range(n)]


def points(n: int, p: int):
    """Where the probe evaluates a map of n values, one point at a time:
    zero, each unit vector, and the check point."""
    yield [0] * n
    for j in range(n):
        x = [0] * n
        x[j] = 1
        yield x
    yield check(n, p)


def _flat(payloads, shape: list) -> list[int]:
    if [None if y is None else len(y) for y in payloads] != shape:
        raise ValueError("a scheme declared linear is not affine: its payload shapes vary")
    return list(chain.from_iterable(y for y in payloads if y is not None))


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
        for i in compress(count(), map(ne, y, base)):
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


def constants(view, n: int, p: int):
    """A function of a map `at` of n values meant to share `view`'s
    coefficients (`read`): its constant, the payloads at zero flattened,
    or None unless it moves from there to the check point as `view` does;
    with `checked` False, its payloads at the check point less that move,
    in one call."""
    shape, x = [None if server is None else len(server) for server in view], check(n, p)
    moved = [sum(a * x[j] for j, a in zip(js, aj)) % p for server in view for _, js, aj in server or ()]

    def constant(at, checked=True):
        if not checked:
            return [(y - d) % p for y, d in zip(_flat(at(x), shape), moved)]
        base = _flat(at([0] * n), shape)
        return base if [(y - c) % p for y, c in zip(_flat(at(x), shape), base)] == moved else None

    return constant


def compose(row, rows: list, p: int) -> tuple:
    """The sparse row (c, js, aj) of sum(a * rows[i] for i, a in zip(*row)):
    declared coefficients (a row (js, aj)) applied to the rows of a map."""
    c, out = 0, {}
    for i, a in zip(*row):
        ci, js, aj = rows[i]
        c += a * ci
        for j, b in zip(js, aj):
            out[j] = out.get(j, 0) + a * b
    out = {j: r for j, v in out.items() if (r := v % p)}
    return c % p, tuple(out), tuple(out.values())


def answer_delta(inst: Scheme) -> tuple:
    """The answer rows' width, and their change along each query symbol (declared affine in it)."""
    qs = inst.query_symbols
    given = [inst.answer_rows(tuple(int(i == k) for i in range(qs))) for k in range(-1, qs)]
    width = next((len(rows) for rows in given if rows is not None), 0)
    base, *units = [rows or (((), ()),) * width for rows in given]
    return width, [[(js + bj, aj + tuple(-a for a in ba)) for (js, aj), (bj, ba) in zip(rows, base)]
                   for rows in units]


def moved(queries: list, shares: list, delta: list, width: int, p: int) -> dict:
    """Per (v index, u index or -1 for v alone), the coefficient in each
    answer symbol n * width + r of what moves with v in answers R(q(v)) s(u):
    q and s affine maps (`read`), delta[k] R's change along query symbol k."""
    out: dict[tuple, dict] = {}
    for n, rows in enumerate(queries):
        for k, (_, js, aj) in enumerate(rows):
            for r, row in enumerate(delta[k]):
                c, us, ua = compose(row, shares[n], p)
                for j, b in zip(js, aj):
                    for m, a in ((-1, c), *zip(us, ua)):
                        cell = out.setdefault((j, m), {})
                        cell[n * width + r] = cell.get(n * width + r, 0) + a * b
    return out


def dim(inst: Scheme, spaces) -> int:
    """How many values `spaces` hold; ValueError unless each has base p."""
    p = inst.p
    if any(space.base != p for space in spaces):
        raise ValueError(f"{inst.describe()} is declared linear but its Spaces are not all mod {p}")
    return sum(space.count for space in spaces)


def storage_at(inst: Scheme):
    """The storage, as a map of the (messages, storage noise) values."""
    km, build_m, build_z = inst.messages.count, inst.messages.build, inst.storage_noises.build
    return lambda u: inst.storage(build_m(u[:km]), build_z(u[km:]))


def query_maps(inst: Scheme, thetas: list[int], spot: list) -> tuple:
    """The query map of thetas[0] (`read`), and a function of a theta giving
    its queries' constant (flat) and its queries at the check point. Every
    later theta is read here in two calls: ValueError unless the randomness
    enters its queries as it enters thetas[0]'s. The first and the last
    theta's reads are kept and any other is read again, in one call at the
    check point, so what is held does not grow with the count of thetas.
    spot[0] and spot[2] follow the calls, to name the one that raises."""
    qr, asked, p = inst.query_randomness, [None], inst.p
    n = dim(inst, (qr,))

    def at(theta):
        def call(v):
            spot[0], spot[2] = theta, v
            asked[0] = inst.queries(theta, qr.build(v))
            return asked[0]
        return call

    first = read(map(at(thetas[0]), points(n, p)), n, p)
    shared = constants(first, n, p)
    kept = {thetas[0]: ([c for rows in first for c, _, _ in rows], asked[0])}
    for theta in thetas[1:]:
        if (constant := shared(at(theta))) is None:
            raise ValueError(f"{inst.describe()} is declared linear but the query randomness "
                             f"enters the queries for theta {theta} differently")
        kept[thetas[-1]] = constant, asked[0]  # in the end the last theta's
    return first, lambda theta: kept.get(theta) or (shared(at(theta), False), asked[0])


def share_map(inst: Scheme, zero, spot: list) -> tuple:
    """The share map (`read`, given the storage at zero), and the storage at
    its check point and that storage's share payloads; spot[1] follows the
    point read."""
    n, held, build = dim(inst, (inst.messages, inst.storage_noises)), [zero, None], storage_at(inst)

    def at(u):
        spot[1] = u
        held[0] = build(u)
        held[1] = inst.share_payloads(held[0])
        return held[1]

    rest = points(n, inst.p)
    spot[1] = next(rest)
    return read(chain([inst.share_payloads(zero)], map(at, rest)), n, inst.p), *held


def forms(inst: Scheme, shares: list, payloads, queries, answers, constant=None, width=0, how=compose) -> list:
    """The answer rows declared for `queries`, or for the flat payloads
    `constant`, times the share map (`how`); ValueError unless those for
    `queries` give `answers` from the share `payloads`, both at the check
    point."""
    p, qs, given = inst.p, inst.query_symbols, list(map(inst.answer_rows, queries))
    for n, rows, share, answer in zip(count(1), given, payloads, answers):
        got = None if rows is None else [sum(map(mul, map(share.__getitem__, js), aj)) for js, aj in rows]
        if (got is None) != (answer is None) or got is not None and (
                len(got) != len(answer) or any((v - g) % p for g, v in zip(got, answer))):
            raise ValueError(f"{inst.describe()} declares answer rows that are not "
                             f"server {n}'s answer at the check point")
    if constant is not None:
        given = [inst.answer_rows(tuple(constant[n * qs:][:qs])) for n in range(inst.N)]
    return [how(row, shares[n], p) for n, rows in enumerate(given) for row in rows or (((), ()),) * width]


def identity(inst: Scheme, asked: list, zero):
    """The identity test of `audit.audit_correctness` on `asked`, given the
    storage at zero: g = decode(answers) - message theta, affine in the
    storage values u, assembled from the share map, the declared answer
    rows (`forms`, checked at the check point) and decode's rows (decode
    read at zero, unit and check answers). `asked` lists (theta, query
    randomness values) pairs. For a scheme declared `linear_queries` they
    are (theta, None), one per theta: g(u, v) is then bi-affine in u and
    the query randomness v, assembled with the query map too, and its v-
    and uv-coefficients must vanish as well. Else each pair's real queries
    are tested, with no query map and no v or uv terms. None if every
    coefficient vanishes and a real decode at the check points is right,
    else the (theta, storage point, query point) of the call that raised or
    of a coefficient that does not vanish."""
    p, N, L, qr = inst.p, inst.N, inst.L, inst.query_randomness
    du, full = dim(inst, (inst.messages, inst.storage_noises)), inst.linear_queries
    unit = lambda n, j: [int(i == j) for i in range(n)]  # unit(n, -1) is zero
    if full:  # the answer rows' change along each query symbol
        dv, (width, delta) = dim(inst, (qr,)), answer_delta(inst)
    spot, probed, decoders = [asked[0][0], unit(du, -1), unit(qr.count, -1)], [], {}
    try:
        if isinstance(zero, Exception):
            raise zero
        shares, stored, payloads = share_map(inst, zero, spot)
        if full:  # per theta the queries' constant (at zero), and the queries at the check point
            first, mapped = query_maps(inst, [theta for theta, _ in asked], spot)
            asked = [(theta, check(dv, p)) for theta, _ in asked]
        spot[1] = check(du, p)
        checked = inst.messages.build(spot[1][: inst.messages.count])
        for spot[0], spot[2] in asked:  # the answers at the check points, and one real decode
            queries = mapped(spot[0])[1] if full else inst.queries(spot[0], qr.build(spot[2]))
            answers = list(map(inst.answer, stored, queries))
            width = width if full else next((len(a) for a in answers if a is not None), 0)
            if (spot[0], width) not in decoders:  # decode's rows
                at = lambda a: [inst.decode(spot[0], [tuple(a[n * width:][:width]) for n in range(N)])]
                decoders[spot[0], width] = read(map(at, points(N * width, p)), N * width, p)[0]
            decoded = inst.decode(spot[0], answers) == inst.plaintext(checked, spot[0])
            probed.append((spot[0], spot[2], None if full else queries, width, answers, decoded))
    except Exception:
        return tuple(spot)
    moving, products = {}, moved(first, shares, delta, width, p) if full else {}
    for j, m in sorted(products, key=lambda jm: jm[1] >= 0):  # each distinct moving column, v parts first
        if column := tuple((i, a % p) for i, a in products[j, m].items() if a % p):
            moving.setdefault(column, (j, m))
    for theta, v, queries, width, answers, decoded in probed:
        # g(u, 0) is read from the answer rows at the queries' constant (declared queries are
        # read again here, so no theta's are held past its own test), else g(u, v) at v
        constant, queries = mapped(theta) if full else (None, queries)
        point, g = unit(dv, -1) if full else v, forms(inst, shares, payloads, queries, answers, constant, width)
        for l, (c, js, aj) in enumerate(decoders[theta, width]):  # decode's row l - message theta's symbol l
            c, us, _ = compose((js + (-1,), aj + (1,)), [*g, (c, ((theta - 1) * L + l,), (-1,))], p)
            if c or us:
                return theta, unit(du, -1 if c else min(us)), point
            row = dict(zip(js, aj))
            for column, (j, m) in moving.items():
                if sum(row.get(i, 0) * a for i, a in column) % p:
                    return theta, unit(du, m), unit(dv, j)
        if not decoded:
            return theta, spot[1], v
    return None


def sym_views(inst: Scheme, asked, zero) -> tuple:
    """`audit.audit_sym_security`'s rank tests, given the storage at zero:
    per entry of `asked`, the rows of A = `forms` as [A_z | A_other] over
    [noise | messages but theta's], fresh lists, and a count of the
    distinct (theta, payload)s. Entries are (theta, queries), or with
    declared queries (theta, randomness values), in theta order: A is
    then a copy of theta's base (the answer rows at the queries' constant,
    laid out and reduced mod p once per theta) plus v_j times `moved`'s
    entries. Theta's own columns are deleted from each pair's rows."""
    km, kz, p, L = inst.messages.count, inst.storage_noises.count, inst.p, inst.L
    shares, stored, payloads = share_map(inst, zero, [None] * 3)
    place, moving = [*range(kz, kz + km), *range(kz)], []  # the columns: noise first
    shares = [[(c, tuple(map(place.__getitem__, js)), aj) for c, js, aj in rows] for rows in shares]

    def dense(row, rows, _) -> list:  # `compose`, laid out in the columns [noise | messages], unreduced
        out = [0] * (kz + km)
        for i, a in zip(*row):
            for j, b in zip(*rows[i][1:]):
                out[j] += a * b
        return out
    lay = lambda q, *at: forms(inst, shares, payloads, q, list(map(inst.answer, stored, q)), *at, how=dense)

    if inst.linear_queries:
        (first, mapped), (width, delta) = query_maps(inst, list(inst.thetas), [None] * 3), answer_delta(inst)
        moving = [[] for _ in range(inst.query_randomness.count)]
        for (j, m), cells in moved(first, shares, delta, width, p).items():  # the v part alone moves no span
            moving[j] += [(r, m, a % p) for r, a in cells.items() if m >= 0 and a % p]

    def views(current=None):
        for theta, x in asked:  # in theta order: each theta's base is built once
            if inst.linear_queries and theta != current:
                constant, queries = mapped(theta)
                base, current = [[v % p for v in row] for row in lay(queries, constant, width)], theta
            rows = [row[:] for row in base] if inst.linear_queries else lay(x)
            for vj, entries in zip(x, moving):  # no entries where the queries are not declared
                for r, c, a in entries if vj else ():
                    rows[r][c] += vj * a
            given = slice(kz + (theta - 1) * L, kz + theta * L)
            for row in rows:
                del row[given]
            yield rows

    if not inst.linear_queries:
        return views(), lambda: len(set(asked))
    rank = lambda: eliminate_mod([[dict(zip(js, aj)).get(j, 0) for j in range(len(moving))]
                                  for rows in first for _, js, aj in rows], p)
    return views(), lambda: len({t for t, _ in asked}) * p ** rank()  # p^rank R payloads a theta


def rank_grows(rows: list[list[int]], limit: int, p: int) -> bool:
    """Whether rank[A | B] > rank A mod p, for rows of [A | B] with A the
    first `limit` columns: whether some column of B lies outside colspan A.
    `eliminate_mod` reduces `rows` in place and leaves the rows past rank A
    zero in A's columns, so the test is whether any of them is nonzero."""
    return any(map(any, rows[eliminate_mod(rows, p, limit):]))


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
