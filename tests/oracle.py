"""Reference arithmetic for the tests: prime-field elements as objects, and
the paper's formulas written with them.

The package runs every scheme on plain ints in range(p). The tests check
it against this module, which computes the same quantities another way:
`Fe` checks its field on every operation, elimination is textbook
Gauss-Jordan reduction on `Fe` rows, and each map is written symbol by
symbol as the paper states it. `lift` turns the package's ints into `Fe`
and `values` turns `Fe` back into ints for comparison.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from xstpir.csa import (
    CsaParams,
    MessageSet,
    answer,
    encode_storage,
    gen_queries,
)
from xstpir.field import FieldMismatchError, SingularMatrixError, is_prime
from xstpir.scheme import CsaScheme

# csa's noise as its Space builds it: z[l][j] is a K-vector of ints in
# range(p), for block l and noise term j (x in 1..X, or t in 1..T).
Noise = tuple[tuple[tuple[int, ...], ...], ...]


class Field:
    """The field of integers modulo a prime, as a maker of `Fe` elements.

    Instances are interned, so elements can compare their field by
    identity. Calling the field coerces an integer into it:
    ``Field(11)(14)`` is the element 3.
    """

    __slots__ = ("modulus",)
    _interned: dict[int, "Field"] = {}

    def __new__(cls, modulus: int) -> "Field":
        field = cls._interned.get(modulus)
        if field is None:
            if not is_prime(modulus):
                raise ValueError(f"field modulus must be prime, got {modulus}")
            field = super().__new__(cls)
            field.modulus = modulus
            cls._interned[modulus] = field
        return field

    def __call__(self, value: int) -> "Fe":
        return Fe(value % self.modulus, self)

    @property
    def zero(self) -> "Fe":
        return Fe(0, self)

    @property
    def one(self) -> "Fe":
        return Fe(1 % self.modulus, self)

    def __iter__(self) -> Iterator["Fe"]:
        return (Fe(v, self) for v in range(self.modulus))

    def random(self, rng) -> "Fe":
        """Uniform element drawn from an injected random.Random-like source."""
        return Fe(rng.randrange(self.modulus), self)

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


class Fe:
    """A single prime-field element. Immutable; value is kept reduced mod p.

    Supports +, -, *, /, unary -, integer powers and mixing with plain ints
    (which are coerced into the same field). Mixing elements of two different
    fields raises FieldMismatchError rather than guessing.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: Field):
        self.value = value
        self.field = field

    def _coerce(self, other) -> "Fe | None":
        if isinstance(other, Fe):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field!r} and {other.field!r} elements"
                )
            return other
        if isinstance(other, int):
            return Fe(other % self.field.modulus, self.field)
        return None

    def __add__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fe((self.value + other.value) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fe((self.value - other.value) % self.field.modulus, self.field)

    def __rsub__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fe((other.value - self.value) % self.field.modulus, self.field)

    def __mul__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fe((self.value * other.value) % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __neg__(self) -> "Fe":
        return Fe(-self.value % self.field.modulus, self.field)

    def inv(self) -> "Fe":
        """Multiplicative inverse via Fermat: v^(p-2) mod p."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.field!r}")
        p = self.field.modulus
        return Fe(pow(self.value, p - 2, p), self.field)

    def __truediv__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "Fe":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int) -> "Fe":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        return Fe(pow(self.value, exponent, self.field.modulus), self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fe)
            and self.field is other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.field.modulus))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value}%{self.field.modulus}"


def lift(ints, p: int):
    """An int, or nested sequences of ints, as `Fe` elements of GF(p)."""
    if isinstance(ints, int):
        return Field(p)(ints)
    return tuple(lift(v, p) for v in ints)


def values(elements):
    """An `Fe`, or nested sequences of them, as ints."""
    if isinstance(elements, Fe):
        return elements.value
    return tuple(values(e) for e in elements)


# ---------------------------------------------------------------------------
# linear algebra on Fe rows
# ---------------------------------------------------------------------------


def mat_vec(matrix: Sequence[Sequence[Fe]], vec: Sequence[Fe]) -> list[Fe]:
    """Matrix times column vector over a prime field."""
    out = []
    for row in matrix:
        if len(row) != len(vec):
            raise ValueError("matrix/vector dimension mismatch")
        acc = row[0] * vec[0]
        for a, b in zip(row[1:], vec[1:]):
            acc = acc + a * b
        out.append(acc)
    return out


def eliminate(rows: list[list[Fe]], limit: int | None = None) -> int:
    """In-place reduced row echelon form; returns the rank.

    Pivot choice is the first nonzero entry in the column. `limit` caps the
    columns eligible for pivoting so augmented columns do not count toward
    the rank.
    """
    if not rows:
        return 0
    n_cols = len(rows[0]) if limit is None else limit
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def matrix_rank(matrix: Sequence[Sequence[Fe]]) -> int:
    return eliminate([list(row) for row in matrix])


def is_invertible(matrix: Sequence[Sequence[Fe]]) -> bool:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    return matrix_rank(matrix) == n


def solve_linear(matrix: Sequence[Sequence[Fe]], rhs: Sequence) -> list:
    """Solve M x = y (or M X = Y, `rhs` given as n rows) by Gauss-Jordan
    elimination. Raises SingularMatrixError when M is not invertible."""
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear needs a square matrix and matching rhs")
    columns = isinstance(rhs[0], (list, tuple))
    tails = [list(y) if columns else [y] for y in rhs]
    if len({len(tail) for tail in tails}) != 1:
        raise ValueError("right-hand side rows differ in length")
    aug = [list(row) + tail for row, tail in zip(matrix, tails)]
    if eliminate(aug, limit=n) != n:
        raise SingularMatrixError("coefficient matrix is singular")
    return [row[n:] for row in aug] if columns else [row[n] for row in aug]


# ---------------------------------------------------------------------------
# cross-subspace alignment
# ---------------------------------------------------------------------------


def delta(alpha: Fe, length: int) -> Fe:
    """Product (1 + alpha)(2 + alpha) ... (length + alpha)."""
    acc = alpha.field.one
    for i in range(1, length + 1):
        acc = acc * (i + alpha)
    return acc


def delta_except(alpha: Fe, length: int, skip: int) -> Fe:
    """delta(alpha, length) with the (skip + alpha) factor removed."""
    if not 1 <= skip <= length:
        raise ValueError("skip index out of range")
    acc = alpha.field.one
    for i in range(1, length + 1):
        if i != skip:
            acc = acc * (i + alpha)
    return acc


def alphas(params: CsaParams) -> tuple[Fe, ...]:
    return lift(params.alphas, params.p)


def desired_columns(params: CsaParams) -> list[list[Fe]]:
    """Column l has entries delta_except(alpha_n, L, l) over the servers n."""
    return [
        [delta_except(alpha, params.L, l_index) for alpha in alphas(params)]
        for l_index in range(1, params.L + 1)
    ]


def interference_columns(params: CsaParams) -> list[list[Fe]]:
    """Columns spanning the aligned interference: delta_n * alpha_n^i."""
    points = alphas(params)
    deltas = [delta(alpha, params.L) for alpha in points]
    return [
        [d * alpha**i for d, alpha in zip(deltas, points)]
        for i in range(params.X + params.T)
    ]


def decoding_matrix(params: CsaParams) -> list[list[Fe]]:
    cols = desired_columns(params) + interference_columns(params)
    return [[col[n] for col in cols] for n in range(params.N)]


def check_weights(params: CsaParams) -> list[list[Fe]]:
    """Per block l and server n, lambda_{n,l} / s_{n,l}: the Lagrange
    weight at u = 0 over the points u_m = l + alpha_m, lambda_{n,l} = prod
    over m != n of u_m / (u_m - u_n), over the query scale
    s_{n,l} = delta_except(alpha_n, L, l)."""
    out = []
    for l_index in range(1, params.L + 1):
        points = [l_index + alpha for alpha in alphas(params)]
        row = []
        for n, (alpha, u) in enumerate(zip(alphas(params), points)):
            weight = delta_except(alpha, params.L, l_index).inv()
            for m, v in enumerate(points):
                if m != n:
                    weight = weight * v / (v - u)
            row.append(weight)
        out.append(row)
    return out


def constant_terms(payloads: Sequence[Sequence[int]], params: CsaParams) -> list[list[Fe]]:
    """Per block l, the unscaled queries evaluated at u = 0: block l of each
    flat payload is divided by its query scale, and the N values at the
    points u_n = l + alpha_n are interpolated at 0 by Lagrange's formula
    (`check_weights`)."""
    f, k = Field(params.p), params.K
    out = []
    for l_index, weights in enumerate(check_weights(params)):
        total = [f.zero] * k
        for weight, payload in zip(weights, payloads):
            block = payload[l_index * k : (l_index + 1) * k]
            total = [acc + weight * q for acc, q in zip(total, block)]
        out.append(total)
    return out


def interference_aligned(
    params: CsaParams,
    messages: MessageSet,
    noise: Noise,
    qnoise: Noise,
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
    residual = [Field(params.p)(answer(s, q)) for s, q in zip(shares, queries)]
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


def iter_storage_noise(params: CsaParams) -> Iterator[Noise]:
    """All p^(L*X*K) storage-noise realizations."""
    return iter(CsaScheme(params).storage_noises)


def iter_query_noise(params: CsaParams) -> Iterator[Noise]:
    """All p^(L*T*K) query-noise realizations."""
    return iter(CsaScheme(params).query_randomness)


def _noise(space, rng) -> Noise:
    return space.sample(rng) if rng is not None else space.build([0] * space.count)


def storage_noise(params: CsaParams, rng=None) -> Noise:
    """Storage noise z[l][x] as a retrieval draws it from `rng`; without one,
    all zeros."""
    return _noise(CsaScheme(params).storage_noises, rng)


def query_noise(params: CsaParams, rng=None) -> Noise:
    """Query noise z'[l][t] as a retrieval draws it from `rng`; without one,
    all zeros."""
    return _noise(CsaScheme(params).query_randomness, rng)


# ---------------------------------------------------------------------------
# download everything, and the symmetrically secure scheme
# ---------------------------------------------------------------------------


def noise_generator(params) -> list[list[Fe]]:
    """Entry (n, x) is n^(x+1) at the nonzero points 1..N."""
    field = Field(params.p)
    return [
        [field(n) ** (x + 1) for x in range(params.X)]
        for n in range(1, params.N + 1)
    ]


def download_all_encode(symbols, noise, params) -> tuple[tuple[Fe, ...], ...]:
    """Message k (row k of `symbols`), padded with X zeros to length N, plus
    the noise codeword of noise[k]; server n keeps coordinate n of each."""
    gen = noise_generator(params)
    zero = Field(params.p).zero
    shares = []
    for n in range(params.N):
        row = []
        for k in range(params.K):
            acc = symbols[k][n] if n < params.L else zero
            for x in range(params.X):
                acc = acc + gen[n][x] * noise[k][x]
            row.append(acc)
        shares.append(tuple(row))
    return tuple(shares)


def download_all_decode(payloads, params) -> tuple[tuple[Fe, ...], ...]:
    """Solve each message's noise from the last X coordinates, one message
    at a time, and subtract it from the first L."""
    gen = noise_generator(params)
    out = []
    for k in range(params.K):
        stored = [row[k] for row in payloads]
        noise = solve_linear(gen[params.L :], stored[params.L :]) if params.X else []
        cleaned = []
        for n in range(params.L):
            acc = stored[n]
            for x in range(params.X):
                acc = acc - gen[n][x] * noise[x]
            cleaned.append(acc)
        out.append(tuple(cleaned))
    return tuple(out)


def sym_xspir_storage(w, z, params) -> tuple:
    """Servers 1..X hold raw noise; server N holds W_k plus the noise of
    every noise server at (k, m)."""
    noise_servers = tuple(tuple(tuple(zk) for zk in z[x]) for x in range(params.X))
    masked = []
    for k in range(params.K):
        row = []
        for m in range(params.K):
            acc = w[k]
            for x in range(params.X):
                acc = acc + z[x][k][m]
            row.append(acc)
        masked.append(tuple(row))
    return noise_servers + (tuple(masked),)


def sym_xspir_answer(grid, request) -> tuple:
    """Entry (k, request_k) of the stored grid, for each message slot k."""
    return tuple(grid[k][request[k] - 1] for k in range(len(grid)))
