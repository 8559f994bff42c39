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

Representation: `Fe` field elements appear only in `CsaParams.alphas` and
in `MessageSet`. Noise, shares, queries, answers and decoded symbols are
plain ints in range(p), and the storage, query, answer and decode maps run
on them with one reduction mod p per output symbol. What those maps need
from the parameters alone (the points l + alpha_n, their powers, the query
scales, the desired rows of the inverse decoding matrix and the query
check weights) sits in one table per params value, computed once from the
`Fe` definitions below (`delta_except`, `decoding_matrix`, `solve_linear`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from random import Random
from typing import Iterator, Sequence

from .field import (
    Fe,
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    Space,
    is_prime,
    matrix_rank,
    nest,
    reshape,
    smallest_valid_prime,
    solve_linear,
)


def delta(alpha: Fe, length: int) -> Fe:
    """Product (1 + alpha)(2 + alpha) ... (length + alpha)."""
    acc = alpha.field.one
    for i in range(1, length + 1):
        acc = acc * (i + alpha)
    return acc


def delta_except(alpha: Fe, length: int, skip: int) -> Fe:
    """delta(alpha, length) with the (skip + alpha) factor removed.

    This is the division-free reading of delta/(skip + alpha): the factor is
    eliminated from the product, so the value is defined for every alpha,
    including those where skip + alpha = 0.
    """
    if not 1 <= skip <= length:
        raise ValueError("skip index out of range")
    acc = alpha.field.one
    for i in range(1, length + 1):
        if i != skip:
            acc = acc * (i + alpha)
    return acc


def choose_alphas(p: int, length: int, count: int) -> tuple[Fe, ...]:
    """First `count` field values alpha with alpha + i nonzero for i in 1..length.

    Scans upward from 0; values p - length .. p - 1 are the excluded ones, so
    for any p >= count + length this returns 0, 1, ..., count - 1. Raises
    InsufficientFieldError when fewer than `count` usable points exist.
    """
    field = PrimeField(p)
    out: list[Fe] = []
    for v in range(p):
        candidate = field(v)
        if all(candidate + i for i in range(1, length + 1)):
            out.append(candidate)
            if len(out) == count:
                return tuple(out)
    raise InsufficientFieldError(
        f"GF({p}) has only {len(out)} usable evaluation points, need {count}"
    )


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
    alphas: tuple[Fe, ...]

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
        field = PrimeField(self.p)
        for alpha in self.alphas:
            if not isinstance(alpha, Fe) or alpha.field is not field:
                raise ValueError("evaluation points must live in GF(p)")
            if not all(alpha + i for i in range(1, self.L + 1)):
                raise ValueError(f"evaluation point {alpha.value} has a vanishing shift")
        if len({a.value for a in self.alphas}) != self.N:
            raise ValueError("evaluation points must be pairwise distinct")

    @classmethod
    def make(cls, N: int, K: int, X: int, T: int, p: int | None = None) -> "CsaParams":
        """Fill in L, the default modulus and the default evaluation points."""
        L = N - X - T
        if L < 1:
            raise ValueError("need N > X + T; smaller N is the download-all regime")
        if p is None:
            p = smallest_valid_prime(N, L)
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


@dataclass(frozen=True)
class MessageSet:
    """K messages of L symbols each; row k is message k."""

    symbols: tuple[tuple[Fe, ...], ...]

    def __post_init__(self):
        if not self.symbols or not self.symbols[0]:
            raise ValueError("need at least one message and one symbol")
        width = len(self.symbols[0])
        if any(len(row) != width for row in self.symbols):
            raise ValueError("all messages must have the same length")

    @property
    def K(self) -> int:
        return len(self.symbols)

    @property
    def L(self) -> int:
        return len(self.symbols[0])

    def message(self, k: int) -> tuple[Fe, ...]:
        """Message k, 1-based."""
        if not 1 <= k <= self.K:
            raise ValueError(f"message index {k} outside 1..{self.K}")
        return self.symbols[k - 1]

    def column(self, l_index: int) -> tuple[Fe, ...]:
        """The K symbols at position l_index (1-based) across all messages."""
        if not 1 <= l_index <= self.L:
            raise ValueError(f"symbol index {l_index} outside 1..{self.L}")
        return tuple(row[l_index - 1] for row in self.symbols)

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]], field: PrimeField) -> "MessageSet":
        return cls(tuple(tuple(field(v) for v in row) for row in rows))

    @classmethod
    def space(cls, k: int, length: int, field: PrimeField) -> Space:
        """Every set of k messages of `length` symbols, values row by row."""
        return Space(field.modulus, k * length, lambda v: cls(nest(v, (k, length), field)))

    @classmethod
    def random(cls, k: int, length: int, field: PrimeField, rng: Random) -> "MessageSet":
        return cls.space(k, length, field).sample(rng)

    @classmethod
    def zeros(cls, k: int, length: int, field: PrimeField) -> "MessageSet":
        return cls(tuple((field.zero,) * length for _ in range(k)))


@dataclass(frozen=True)
class _Noise:
    """Uniform noise: z[l][j] is a K-vector of ints in range(p), for l in
    1..L and j in 1..J, with J given by the subclass's `_shape`."""

    z: tuple[tuple[tuple[int, ...], ...], ...]

    @staticmethod
    def _shape(params: CsaParams) -> tuple[int, int, int]:
        raise NotImplementedError

    @classmethod
    def space(cls, params: CsaParams) -> Space:
        shape = cls._shape(params)
        return Space(params.p, shape[0] * shape[1] * shape[2], lambda v: cls(reshape(v, shape)))

    @classmethod
    def random(cls, params: CsaParams, rng: Random):
        return cls.space(params).sample(rng)

    @classmethod
    def zeros(cls, params: CsaParams):
        space = cls.space(params)
        return space.build([0] * space.count)


@dataclass(frozen=True)
class StorageNoise(_Noise):
    """Storage-side noise: z[l][x] is a K-vector, for l in 1..L, x in 1..X."""

    @staticmethod
    def _shape(params: CsaParams) -> tuple[int, int, int]:
        return (params.L, params.X, params.K)


@dataclass(frozen=True)
class QueryNoise(_Noise):
    """Query-side noise: z[l][t] is a K-vector, for l in 1..L, t in 1..T."""

    @staticmethod
    def _shape(params: CsaParams) -> tuple[int, int, int]:
        return (params.L, params.T, params.K)


@dataclass(frozen=True)
class StorageShare:
    """What one server stores: rows[l] is the mixed K-vector for block l,
    ints in range(p)."""

    server_index: int
    rows: tuple[tuple[int, ...], ...]
    p: int


@dataclass(frozen=True)
class QueryShare:
    """What one server is asked: cols[l] is the scaled K-vector for block l,
    ints in range(p)."""

    server_index: int
    cols: tuple[tuple[int, ...], ...]
    p: int


@dataclass(frozen=True)
class DecodeOutput:
    """The L desired symbols, ints in range(p)."""

    desired: tuple[int, ...]


# Params values whose tables are kept; a run uses one or a few.
_TABLES = 16


class _Table:
    """Everything the scheme's maps need from the params alone, as ints mod p.

    For server n (0-based) and block l (0-based, the paper's l + 1):
    `powers[n][l]` is (u, u^2, ..., u^max(X, T)) with u = l + 1 + alpha_n,
    and `scales[n][l]` is delta_except(alpha_n, L, l + 1). The decoder rows
    and the query check weights need inverses; they are computed on first
    use, so corrupted params still encode and answer, and a failure is
    raised again by every later call instead of being kept.
    """

    def __init__(self, params: CsaParams):
        self.params = params
        p, depth = params.p, max(params.X, params.T)
        self.points = [
            [(l_index + alpha.value) % p for l_index in range(1, params.L + 1)]
            for alpha in params.alphas
        ]
        self.powers = [
            [tuple(pow(u, j, p) for j in range(1, depth + 1)) for u in row]
            for row in self.points
        ]
        self.scales = [
            [delta_except(alpha, params.L, l_index).value for l_index in range(1, params.L + 1)]
            for alpha in params.alphas
        ]

    @cached_property
    def decoder(self) -> list[list[int]]:
        """The L desired rows of the inverse decoding matrix, as ints."""
        params = self.params
        f, n = params.field, params.N
        identity = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
        inverse = solve_linear(decoding_matrix(params), identity)
        return [[e.value for e in row] for row in inverse[: params.L]]

    @cached_property
    def check_weights(self) -> list[list[int]]:
        """w[l][n] = lambda_{n,l} / s_{n,l}, with lambda_{n,l} the Lagrange
        weight at u = 0 over the N points of block l and s_{n,l} the query
        scale."""
        p = self.params.p
        out = []
        for l in range(self.params.L):
            points = [row[l] for row in self.points]
            weights = []
            for n, u in enumerate(points):
                num = den = 1
                for m, v in enumerate(points):
                    if m != n:
                        num = num * v % p
                        den = den * (v - u) % p
                weights.append(num * pow(den * self.scales[n][l], -1, p) % p)
            out.append(weights)
        return out


@lru_cache(maxsize=_TABLES)
def _table(params: CsaParams) -> _Table:
    return _Table(params)


def _mix(
    table: _Table,
    bases: Sequence[Sequence[int]],
    z: Sequence[Sequence[Sequence[int]]],
    scales: list[list[int]] | None,
) -> list[tuple[tuple[int, ...], ...]]:
    """Per server n, the L vectors base_l + sum_j u^j z[l][j] mod p, with
    u = l + alpha_n, each times s_{n,l} when `scales` is given."""
    p = table.params.p
    out = []
    for n, powers in enumerate(table.powers):
        rows = []
        for l, (base, zl, weights) in enumerate(zip(bases, z, powers)):
            row = base
            for w, zj in zip(weights, zl):
                row = [a + w * b for a, b in zip(row, zj)]
            if scales is None:
                rows.append(tuple([v % p for v in row]))
            else:
                s = scales[n][l]
                rows.append(tuple([s * v % p for v in row]))
        out.append(tuple(rows))
    return out


def _check_dims(params: CsaParams, messages: MessageSet) -> None:
    if messages.K != params.K or messages.L != params.L:
        raise ValueError(
            f"messages are {messages.K}x{messages.L}, params need {params.K}x{params.L}"
        )


def encode_storage(
    messages: MessageSet, noise: StorageNoise, params: CsaParams
) -> tuple[StorageShare, ...]:
    """Mix messages with noise into one share per server.

    Share row l at server n is column(l) + sum over x of (l + alpha_n)^x z[l][x].
    Any X of these shares are an invertible linear image of the noise alone,
    which is what makes the storage X-secure.
    """
    _check_dims(params, messages)
    if len(noise.z) != params.L or any(len(zl) != params.X for zl in noise.z):
        raise ValueError("storage noise has wrong shape")
    field = params.field
    if any(e.field is not field for row in messages.symbols for e in row):
        raise FieldMismatchError(f"messages must live in {field!r}")
    columns = [[e.value for e in col] for col in zip(*messages.symbols)]
    table = _table(params)
    try:
        rows = _mix(table, columns, noise.z, None)
    except TypeError as exc:
        raise ValueError(f"storage noise must hold ints in range({params.p})") from exc
    return tuple(StorageShare(n, r, params.p) for n, r in enumerate(rows, start=1))


def gen_queries(
    theta: int, qnoise: QueryNoise, params: CsaParams
) -> tuple[QueryShare, ...]:
    """Build the N query shares for retrieving message theta (1-based).

    Query column l at server n is the unit vector for theta plus noise
    weighted by powers of (l + alpha_n), all scaled by the product of every
    (i + alpha_n) with i != l. Any T queries are uniform and independent of
    theta, which is what makes them T-private.
    """
    if not 1 <= theta <= params.K:
        raise ValueError(f"theta must be in 1..{params.K}")
    if len(qnoise.z) != params.L or any(len(zl) != params.T for zl in qnoise.z):
        raise ValueError("query noise has wrong shape")
    unit = [int(k == theta) for k in range(1, params.K + 1)]
    table = _table(params)
    try:
        cols = _mix(table, [unit] * params.L, qnoise.z, table.scales)
    except TypeError as exc:
        raise ValueError(f"query noise must hold ints in range({params.p})") from exc
    return tuple(QueryShare(n, c, params.p) for n, c in enumerate(cols, start=1))


def answer(share: StorageShare, query: QueryShare) -> int:
    """One server's scalar answer: the dot product of its share and query."""
    if share.server_index != query.server_index:
        raise ValueError("share and query belong to different servers")
    if share.p != query.p:
        raise ValueError("share and query live in different fields")
    if len(share.rows) != len(query.cols):
        raise ValueError("share and query have different block counts")
    acc = 0
    for row, col in zip(share.rows, query.cols):
        if len(row) != len(col):
            raise ValueError("share and query have different message counts")
        acc += sum(map(mul, row, col))
    return acc % share.p


def decode(answers: Sequence[int], params: CsaParams) -> DecodeOutput:
    """Invert the answer system; the first L unknowns are the desired symbols.

    The desired rows of the inverse are computed once per params value. A
    singular decoding matrix cannot occur for validated params; if it does
    occur (corrupted evaluation points), the solver's error propagates.
    """
    if len(answers) != params.N:
        raise ValueError("need one answer per server")
    p = params.p
    return DecodeOutput(tuple(sum(map(mul, row, answers)) % p for row in _table(params).decoder))


def constant_terms(
    queries: Sequence[QueryShare], params: CsaParams
) -> tuple[tuple[int, ...], ...]:
    """Per block l, the K-vector sum over n of lambda_{n,l} / s_{n,l} * q_{n,l}.

    Unscaled, the query for block l is a polynomial in u = l + alpha_n of
    degree T < N whose constant term is the unit vector of theta;
    lambda_{n,l} are the Lagrange weights that evaluate it at u = 0 from its
    N values. Honest queries for theta give that unit vector in every block,
    whatever the noise, so this reads off which message they retrieve.
    """
    if len(queries) != params.N:
        raise ValueError("need one query per server")
    p = params.p
    return tuple(
        tuple(sum(map(mul, weights, column)) % p for column in zip(*(q.cols[l] for q in queries)))
        for l, weights in enumerate(_table(params).check_weights)
    )


def desired_columns(params: CsaParams) -> list[list[Fe]]:
    """Columns multiplying the desired symbols in the stacked answer vector.

    Column l has entries delta_except(alpha_n, L, l) over the servers n.
    """
    return [
        [delta_except(alpha, params.L, l_index) for alpha in params.alphas]
        for l_index in range(1, params.L + 1)
    ]


def interference_columns(params: CsaParams) -> list[list[Fe]]:
    """Columns spanning the aligned interference: delta_n * alpha_n^i."""
    deltas = [delta(alpha, params.L) for alpha in params.alphas]
    return [
        [d * alpha**i for d, alpha in zip(deltas, params.alphas)]
        for i in range(params.X + params.T)
    ]


def decoding_matrix(params: CsaParams) -> list[list[Fe]]:
    """The N x N matrix mapping (desired symbols, interference) to answers.

    Row n is [delta_except(alpha_n, L, 1), ..., delta_except(alpha_n, L, L),
    delta_n, delta_n alpha_n, ..., delta_n alpha_n^(X+T-1)]. It is invertible
    for any N pairwise-distinct usable evaluation points.
    """
    cols = desired_columns(params) + interference_columns(params)
    return [[col[n] for col in cols] for n in range(params.N)]


def interference_aligned(
    params: CsaParams,
    messages: MessageSet,
    noise: StorageNoise,
    qnoise: QueryNoise,
    theta: int,
) -> bool:
    """Check the alignment identity on a full round of honest answers.

    Subtracts the desired-symbol contribution from each answer and tests that
    the residual lies in the span of the X + T interference columns. Honest
    answers satisfy this for every choice of evaluation points, because the
    identity is polynomial in alpha; a corrupted answer generically does not.
    """
    shares = encode_storage(messages, noise, params)
    queries = gen_queries(theta, qnoise, params)
    residual = [params.field(answer(s, q)) for s, q in zip(shares, queries)]
    for col, w in zip(desired_columns(params), messages.message(theta)):
        residual = [r - w * c for r, c in zip(residual, col)]
    return residual_in_interference_span(params, residual)


def residual_in_interference_span(params: CsaParams, residual: Sequence[Fe]) -> bool:
    """True iff the residual vector lies in the interference column span."""
    cols = interference_columns(params)
    base_rows = [[col[n] for col in cols] for n in range(params.N)]
    base_rank = matrix_rank(base_rows)
    augmented = [row + [residual[n]] for n, row in enumerate(base_rows)]
    return matrix_rank(augmented) == base_rank


def iter_messages(params: CsaParams) -> Iterator[MessageSet]:
    """All p^(K*L) message sets, for exhaustive small-instance enumeration."""
    return iter(MessageSet.space(params.K, params.L, params.field))


def iter_storage_noise(params: CsaParams) -> Iterator[StorageNoise]:
    """All p^(L*X*K) storage-noise realizations."""
    return iter(StorageNoise.space(params))


def iter_query_noise(params: CsaParams) -> Iterator[QueryNoise]:
    """All p^(L*T*K) query-noise realizations."""
    return iter(QueryNoise.space(params))
