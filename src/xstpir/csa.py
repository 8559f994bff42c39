"""Cross-subspace-alignment retrieval: X-secure storage, T-private queries,
for any server count N > X + T.

Each message is split into L = N - X - T symbols. Storage at server n mixes
the l-th symbol block with noise weighted by powers of (l + alpha_n); the
query for block l is scaled by the product of every (i + alpha_n) except the
l-th. In the scalar answer the cross terms then collapse into the span of
delta_n, delta_n*alpha_n, ..., delta_n*alpha_n^(X+T-1), where delta_n is the
full product. Stacking the N answers gives a square system whose first L
unknowns are the desired symbols and whose last X + T unknowns are aligned
interference.

The per-block scale is computed as the product with the l-th factor removed,
never as a division, so it is well defined even at points where a factor
vanishes.

Representation: every symbol is an int in range(p), the evaluation points
and the messages included. Noise, shares, queries, answers and decoded
symbols are ints too, and the storage, query, answer and decode maps run on
them; the noise is the nested tuple the scheme's `Space` builds, z[l][j] a
K-vector, whose shape each map checks once. A server's share and query are
each one flat payload of L blocks of K symbols, from the kernel to the
wire: the share held in a `StorageShare`, the query a bare tuple, as it
travels. Its answer is their dot product, and decode returns the L desired
symbols as a tuple.
What those maps need from the parameters alone (the points l + alpha_n,
their powers, the query scales, the desired rows of the inverse decoding
matrix and the check's factors) sits in one table per params value,
computed once from the definitions below (`delta_except`, `decoding_matrix`,
`solve_linear`).

Every server evaluates the same K-vector polynomial in its own point u, so
storage and queries share one mixing kernel. It packs each K-vector into one
int of lanes wide enough that (p - 1) + depth * (p - 1)^2 never carries
(8, 16, 32 or 64 bits, or whole bytes past 64), and builds each row with one
big-int multiply-add per noise term. The replay check of theta
(`constant_terms`) runs on the same lanes, N terms deep, with one big-int
multiply-add per server and one scale per block: its weight lambda_{n,l} /
s_{n,l} is P_l * c_n, P_l = prod_m (l + alpha_m), c_n = 1 / (delta_n
prod_{m != n} (alpha_m - alpha_n)). Lanes are reduced mod p by byte tables
where (bits / 8) * (p - 1) < 256 (`_unpack`), as 16-bit lanes are up to
p = 127; other lanes, answers and decoded symbols take one `% p` each. On
8- and 16-bit lanes the kernel's inputs are reduced through the j = 0
table, b -> b mod p, one `bytes.translate` per K-vector (`_pack`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import prod
from operator import mul
from random import Random
from sys import byteorder
from typing import Sequence

from .field import (
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    Space,
    is_prime,
    record,
    reshape,
    smallest_valid_prime,
    solve_linear,
)


def delta(alpha: int, length: int, p: int) -> int:
    """Product (1 + alpha)(2 + alpha) ... (length + alpha) mod p."""
    return prod(i + alpha for i in range(1, length + 1)) % p


def delta_except(alpha: int, length: int, skip: int, p: int) -> int:
    """delta(alpha, length, p) with the (skip + alpha) factor removed.

    This is the division-free reading of delta/(skip + alpha): the factor is
    eliminated from the product, so the value is defined for every alpha,
    including those where skip + alpha = 0 mod p.
    """
    if not 1 <= skip <= length:
        raise ValueError("skip index out of range")
    return prod(i + alpha for i in range(1, length + 1) if i != skip) % p


def choose_alphas(p: int, length: int, count: int) -> tuple[int, ...]:
    """First `count` values alpha in range(p) with alpha + i nonzero mod p
    for i in 1..length.

    v in range(p) is usable iff v + length < p, when v + 1 .. v + length stay
    strictly between 0 and p; so the excluded values are p - length .. p - 1,
    and for any p >= count + length this returns 0, 1, ..., count - 1. Raises
    InsufficientFieldError when fewer than `count` usable points exist.
    """
    usable = max(p - length, 0)
    if not 0 < count <= usable:
        raise InsufficientFieldError(
            f"GF({p}) has only {usable} usable evaluation points, need {count}"
        )
    return tuple(range(count))


@dataclass(frozen=True)
class CsaParams:
    """Parameters of one aligned-retrieval instance.

    N servers, K messages of L = N - X - T symbols each, X-secure storage,
    T-private queries, all over GF(p) with one distinct evaluation point per
    server.
    """

    N: int
    K: int
    X: int
    T: int
    L: int
    p: int
    alphas: tuple[int, ...]

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need K >= 1")
        if self.X < 1 or self.T < 1:
            raise ValueError("need X >= 1 and T >= 1")
        if self.N <= self.X + self.T:
            raise ValueError("need N > X + T; smaller N is the download-all regime")
        if self.L != self.N - self.X - self.T:
            raise ValueError("need L = N - X - T")
        if not is_prime(self.p) or self.p < self.N + self.L:
            raise ValueError(f"need a prime p >= N + L = {self.N + self.L}")
        if len(self.alphas) != self.N:
            raise ValueError("need one evaluation point per server")
        for alpha in self.alphas:
            if not isinstance(alpha, int) or not 0 <= alpha < self.p:
                raise ValueError("evaluation points must be ints in range(p)")
            # alpha + i vanishes for some i in 1..L iff alpha + L reaches p
            if alpha + self.L >= self.p:
                raise ValueError(f"evaluation point {alpha} has a vanishing shift")
        if len(set(self.alphas)) != self.N:
            raise ValueError("evaluation points must be pairwise distinct")

    @classmethod
    def make(cls, N: int, K: int, X: int, T: int, p: int | None = None) -> "CsaParams":
        """Fill in L, the default modulus and the default evaluation points."""
        L = N - X - T
        if L < 1:
            raise ValueError("csa needs N > X + T; for X < N <= X + T use download_all, "
                             "the download-all scheme")
        if p is None:
            p = smallest_valid_prime(N, L)
        elif not is_prime(p):  # before choose_alphas, whose error would name the wrong cause
            raise ValueError(f"need a prime p >= N + L = {N + L}")
        return cls(N, K, X, T, L, p, choose_alphas(p, L, N))

    @classmethod
    def _unvalidated(cls, N, K, X, T, L, p, alphas) -> "CsaParams":
        """Construct without invariant checks. Only for adversarial tests."""
        inst = object.__new__(cls)
        for name, value in (
            ("N", N), ("K", K), ("X", X), ("T", T),
            ("L", L), ("p", p), ("alphas", tuple(alphas)),
        ):
            object.__setattr__(inst, name, value)
        return inst

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.p)


class MessageSet(record("symbols", "p")):
    """K messages of L symbols each over GF(p); row k is message k, its
    symbols ints in range(p)."""

    __slots__ = ()

    def __init__(self, symbols: tuple[tuple[int, ...], ...], p: int):
        if not symbols or not symbols[0]:
            raise ValueError("need at least one message and one symbol")
        if len(set(map(len, symbols))) > 1:
            raise ValueError("all messages must have the same length")
        if min(map(min, symbols)) < 0 or max(map(max, symbols)) >= p:
            raise ValueError(f"message symbols must lie in range({p})")
        self._symbols, self._p = symbols, p

    @property
    def K(self) -> int:
        return len(self.symbols)

    @property
    def L(self) -> int:
        return len(self.symbols[0])

    def message(self, k: int) -> tuple[int, ...]:
        """Message k, 1-based."""
        if not 1 <= k <= self.K:
            raise ValueError(f"message index {k} outside 1..{self.K}")
        return self.symbols[k - 1]

    def check(self, params) -> None:
        """ValueError unless these are params.K messages of params.L
        symbols; FieldMismatchError unless they are over GF(params.p)."""
        if self.K != params.K or self.L != params.L:
            raise ValueError(
                f"messages are {self.K}x{self.L}, params need {params.K}x{params.L}"
            )
        if self.p != params.p:
            raise FieldMismatchError(f"messages must live in GF({params.p})")

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]], field: PrimeField) -> "MessageSet":
        return cls(tuple(tuple(map(field, row)) for row in rows), field.modulus)

    @classmethod
    def space(cls, k: int, length: int, field: PrimeField) -> Space:
        """Every set of k messages of `length` symbols, values row by row."""
        p = field.modulus
        return Space(p, k * length, lambda v: cls(reshape(v, (k, length)), p))

    @classmethod
    def random(cls, k: int, length: int, field: PrimeField, rng: Random) -> "MessageSet":
        return cls.space(k, length, field).sample(rng)


class StorageShare(record("payload", "p", "k")):
    """What one server stores: its L mixed K-vectors as one flat payload,
    ints in range(p); rows[l] is block l's. Its place in the `storage`
    tuple names its server."""

    __slots__ = ()

    def __init__(self, payload: tuple[int, ...], p: int, k: int):
        self._payload, self._p, self._k = payload, p, k

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._payload[i : i + self._k] for i in range(0, len(self._payload), self._k))


# Params values whose tables are kept; a run uses one or a few.
_TABLES = 16
# Noise z[l][j]: per block l (of L) and term j (of X or T) a K-vector.
Noise = Sequence[Sequence[Sequence[int]]]


class _Table:
    """Everything the scheme's maps need from the params alone, as ints mod p.

    For server n (0-based) and block l (0-based, the paper's l + 1):
    `powers[n][l]` is (1, u, u^2, ..., u^max(X, T)) with u = l + 1 + alpha_n,
    the weights of a storage row's terms (its base, then its noise);
    `query_weights[n][l]` is `powers[n][l]` times the query scale s_{n,l} =
    delta_except(alpha_n, L, l + 1), mod p. The decoder rows and the check
    weights' factors, `block_factors[l] * server_factors[n]` =
    lambda_{n,l} / s_{n,l} (the (l + alpha_n) in s_{n,l} cancels), are
    computed on first use, so corrupted params still encode and answer, and
    a failure is raised again by every later call instead of being kept.
    """

    def __init__(self, params: CsaParams):
        self.params = params
        p, depth = params.p, max(params.X, params.T)
        self.points = [
            [(l_index + alpha) % p for l_index in range(1, params.L + 1)]
            for alpha in params.alphas
        ]
        self.powers = [
            [tuple(pow(u, j, p) for j in range(depth + 1)) for u in row]
            for row in self.points
        ]
        self.query_weights = [
            [tuple(s * w % p for w in ws) for ws, s in zip(row, scales)]
            for row, scales in zip(self.powers, zip(*desired_columns(params)))
        ]
        # Lane width per depth for `_mix` (X, T) and `constant_terms` (N).
        self.lanes = {d: _lane_bits(p, d) for d in (params.X, params.T, params.N)}

    @cached_property
    def decoder(self) -> list[list[int]]:
        """The L desired rows of the inverse decoding matrix."""
        params, n = self.params, self.params.N
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        return solve_linear(decoding_matrix(params), identity, params.p)[: params.L]

    @cached_property
    def block_factors(self) -> list[int]:
        """P_l = prod over m of (l + alpha_m), per block l."""
        return [prod(us) % self.params.p for us in zip(*self.points)]

    @cached_property
    def server_factors(self) -> list[int]:
        """c_n = 1 / (delta_n * prod over m != n of (alpha_m - alpha_n))."""
        p, length, alphas = self.params.p, self.params.L, self.params.alphas
        return [
            pow(delta(a, length, p) * prod(b - a for b in alphas[:n] + alphas[n + 1 :]), -1, p)
            for n, a in enumerate(alphas)
        ]


@lru_cache(maxsize=_TABLES)
def _table(params: CsaParams) -> _Table:
    return _Table(params)


# Lane width in bits -> array typecode with items of that width.
_LANE_CODES = {array(code).itemsize * 8: code for code in "QIHB"}


def _lane_bits(p: int, depth: int) -> int:
    """Narrowest lane that holds (p - 1) + depth * (p - 1)^2, the largest
    value a packed row reaches before its reduction mod p: 8, 16, 32 or 64
    bits, or past 64 bits the fewest whole bytes."""
    need = ((p - 1) + depth * (p - 1) ** 2).bit_length()
    return next((bits for bits in sorted(_LANE_CODES) if need <= bits), -(-need // 8) * 8)


def _pack(values: Sequence[int], bits: int, p: int | None = None) -> int:
    """One int of `bits`-bit lanes holding `values` in native order, each
    reduced mod p first if p is given: by the j = 0 byte table where `bytes`
    takes them at 8 and 16 bits, else by a `% p` each. Bytes, and values at
    8 and 16 bits (below 256, as p is), go into each lane's low byte."""
    if p is not None:
        try:
            values = bytes(values).translate(_byte_table(p, 0)) if bits <= 16 else [v % p for v in values]
        except (TypeError, ValueError):
            values = [v % p for v in values]
    if bits == 8:
        return int.from_bytes(bytes(values), byteorder)
    if bits == 16 or isinstance(values, bytes):
        buf, step = bytearray(bits // 8 * len(values)), bits // 8
        buf[(step - 1) * (byteorder == "big") :: step] = bytes(values)
        return int.from_bytes(buf, byteorder)
    if bits in _LANE_CODES:
        return int.from_bytes(array(_LANE_CODES[bits], values).tobytes(), byteorder)
    return int.from_bytes(b"".join([int.to_bytes(v, bits // 8, byteorder) for v in values]), byteorder)


@lru_cache(maxsize=8 * _TABLES)  # up to 8 byte positions per modulus
def _byte_table(p: int, j: int) -> bytes:
    """The table b -> b * 256^j mod p, for p <= 256."""
    return bytes((b << 8 * j) % p for b in range(256))


@lru_cache(maxsize=_TABLES)
def _byte_tables(p: int, width: int) -> tuple[bytes, ...] | None:
    """Per byte position j of a `width`-byte lane, `_byte_table(p, j)`, if
    the lane's byte residues sum below 256; else None."""
    return tuple(_byte_table(p, j) for j in range(width)) if width * (p - 1) < 256 else None


def _unpack(accs: Sequence[int], count: int, bits: int, p: int) -> Sequence[int]:
    """The `count` lanes of each int in `accs`, each reduced mod p, in one
    flat run, read in one pass over all their bytes. With `_byte_tables`,
    each byte position goes through its table (`bytes.translate`), the
    positions add as ints of 8-bit lanes, which cannot carry, and the sum
    goes through the j = 0 table; else each lane takes its own `% p`."""
    raw = b"".join([acc.to_bytes(count * bits // 8, byteorder) for acc in accs])
    step, tables = bits // 8, _byte_tables(p, bits // 8)
    if tables and step == 1:
        return raw.translate(tables[0])  # one byte per lane: nothing to add
    if tables:
        starts = range(step) if byteorder == "little" else range(step - 1, -1, -1)
        total = sum([int.from_bytes(raw[i::step].translate(t), "little") for i, t in zip(starts, tables)])
        return total.to_bytes(len(raw) // step, "little").translate(tables[0])
    if bits in _LANE_CODES:
        return [v % p for v in memoryview(raw).cast(_LANE_CODES[bits])]
    return [int.from_bytes(raw[i : i + step], byteorder) % p for i in range(0, len(raw), step)]


def _mix(
    table: _Table,
    bases: Sequence[Sequence[int]],
    z: Noise,
    weights: list[list[tuple[int, ...]]],
) -> list[tuple[int, ...]]:
    """Per server n, one flat payload of the L vectors c_0 base_l + sum_j
    c_j z[l][j] mod p, (c_0, c_1, ...) = weights[n][l]: the table's `powers`
    for storage rows, its `query_weights` for query rows (0/1 bases only).

    Each K-vector is reduced mod p and packed into one int, on the table's
    lanes for the depth of z, once for all N servers; a row is then one
    big-int multiply-add per term, and all N * L rows are unpacked in one
    pass. No lane exceeds (p - 1) + depth * (p - 1)^2, which the lanes hold,
    so no lane carries into the next. On 8- and 16-bit lanes the reduction
    is one `bytes.translate` per vector through the j = 0 byte table.
    """
    p, k, bits = table.params.p, len(bases[0]), table.lanes[len(z[0])]
    terms = [[_pack(vec, bits, p) for vec in (base, *zl)] for base, zl in zip(bases, z)]
    accs = [sum(map(mul, ws, ts)) for row in weights for ws, ts in zip(row, terms)]
    lanes, step = _unpack(accs, k, bits, p), len(bases) * k
    return [tuple(lanes[i : i + step]) for i in range(0, len(lanes), step)]


def _check_noise(z: Noise, shape: tuple[int, int, int], kind: str) -> None:
    """ValueError unless the noise z[l][j] is a box of `shape`: its blocks,
    one depth for every block, one length for every K-vector."""
    blocks, depth, k = shape
    if len(z) != blocks or set(map(len, z)) != {depth} or set(map(len, chain.from_iterable(z))) != {k}:
        raise ValueError(f"{kind} noise has wrong shape")


def encode_storage(messages: MessageSet, noise: Noise, params: CsaParams) -> tuple[StorageShare, ...]:
    """Mix messages with noise into one share per server.

    Share row l at server n is column(l) + sum over x of (l + alpha_n)^x z[l][x],
    with the noise z[l][x] a K-vector of ints in range(p), for l in 1..L and
    x in 1..X. Any X of these shares are an invertible linear image of the
    noise alone, which is what makes the storage X-secure.
    """
    messages.check(params)
    _check_noise(noise, (params.L, params.X, params.K), "storage")
    try:
        table = _table(params)
        rows = _mix(table, list(zip(*messages.symbols)), noise, table.powers)
    except TypeError as exc:
        raise ValueError(f"storage noise must hold ints in range({params.p})") from exc
    return tuple(StorageShare(r, params.p, params.K) for r in rows)


def gen_queries(theta: int, qnoise: Noise, params: CsaParams) -> tuple[tuple[int, ...], ...]:
    """Build the N flat query payloads for retrieving message theta (1-based).

    Query column l at server n is the unit vector for theta plus the noise
    z'[l][t], K-vectors of ints in range(p) for t in 1..T, weighted by
    powers of (l + alpha_n), all scaled by the product of every (i + alpha_n)
    with i != l. Any T queries are uniform and independent of theta, which
    is what makes them T-private.
    """
    if not 1 <= theta <= params.K:
        raise ValueError(f"theta must be in 1..{params.K}")
    _check_noise(qnoise, (params.L, params.T, params.K), "query")
    unit = [int(k == theta) for k in range(1, params.K + 1)]
    table = _table(params)
    try:
        return tuple(_mix(table, [unit] * params.L, qnoise, table.query_weights))
    except TypeError as exc:
        raise ValueError(f"query noise must hold ints in range({params.p})") from exc


def answer(share: StorageShare, query: Sequence[int]) -> int:
    """One server's scalar answer: the dot product of its share and its
    flat query payload, which must be as long as the share."""
    if len(share.payload) != len(query):
        raise ValueError("share and query have different block counts")
    return sum(map(mul, share.payload, query)) % share.p


def decode(answers: Sequence[int], params: CsaParams) -> tuple[int, ...]:
    """Invert the answer system; the first L unknowns are the desired symbols.

    The desired rows of the inverse are computed once per params value. A
    singular decoding matrix cannot occur for validated params; if it does
    occur (corrupted evaluation points), the solver's error propagates.
    """
    if len(answers) != params.N:
        raise ValueError("need one answer per server")
    p = params.p
    return tuple(sum(map(mul, row, answers)) % p for row in _table(params).decoder)


def constant_terms(
    queries: Sequence[Sequence[int]], params: CsaParams
) -> tuple[tuple[int, ...], ...]:
    """Per block l, the K-vector sum over n of lambda_{n,l} / s_{n,l} * q_{n,l},
    from the N flat query payloads (block l at symbols l*K .. l*K + K - 1),
    tuples or bytes of symbols in range(p), which the packed lanes are sized
    for. The weight is P_l * c_n (`_Table`): the payloads, packed on the
    lanes for depth N, take one big-int multiply-add by c_n each, and all
    L * K lanes are unpacked in one pass and scaled by P_l per block.

    Unscaled, the query for block l is a polynomial in u = l + alpha_n of
    degree T < N whose constant term is the unit vector of theta;
    lambda_{n,l} are the Lagrange weights that evaluate it at u = 0 from its
    N values. Honest queries for theta give that unit vector in every block,
    whatever the noise, so this reads off which message they retrieve.
    """
    if len(queries) != params.N:
        raise ValueError("need one query per server")
    p, k, table = params.p, params.K, _table(params)
    bits = table.lanes[params.N]
    acc = sum(map(mul, table.server_factors, [_pack(q, bits) for q in queries]))
    lanes = _unpack([acc], params.L * k, bits, p)
    return tuple(
        tuple([v * f % p for v in lanes[i : i + k]])
        for i, f in zip(range(0, len(lanes), k), table.block_factors)
    )


def desired_columns(params: CsaParams) -> list[list[int]]:
    """Columns multiplying the desired symbols in the stacked answer vector.

    Column l has entries delta_except(alpha_n, L, l) over the servers n.
    """
    return [
        [delta_except(alpha, params.L, l_index, params.p) for alpha in params.alphas]
        for l_index in range(1, params.L + 1)
    ]


def interference_columns(params: CsaParams) -> list[list[int]]:
    """Columns spanning the aligned interference: delta_n * alpha_n^i."""
    p = params.p
    deltas = [delta(alpha, params.L, p) for alpha in params.alphas]
    return [
        [d * pow(alpha, i, p) % p for d, alpha in zip(deltas, params.alphas)]
        for i in range(params.X + params.T)
    ]


def decoding_matrix(params: CsaParams) -> list[list[int]]:
    """The N x N matrix mapping (desired symbols, interference) to answers.

    Row n is [delta_except(alpha_n, L, 1), ..., delta_except(alpha_n, L, L),
    delta_n, delta_n alpha_n, ..., delta_n alpha_n^(X+T-1)]. It is invertible
    for any N pairwise-distinct usable evaluation points.
    """
    cols = desired_columns(params) + interference_columns(params)
    return [[col[n] for col in cols] for n in range(params.N)]
