"""Exact arithmetic over prime fields and over GF(2) bit matrices.

Everything in this package reduces to the primitives here: the prime
field as its modulus, Gaussian elimination on int rows (ranks, solutions
of square systems, inverses), and a dedicated bit-matrix type for the
two-element field. Every operation is exact integer arithmetic; no
floating point is involved anywhere.

Representation: a symbol of GF(p) is a plain int in range(p), in every
scheme, its parameters and its messages; the maps reduce mod p where they
sum and return ints in range(p). One elimination, `eliminate_mod`, gives
ranks; `solve_linear` finishes it by back substitution for solutions and
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Iterator, Sequence


class FieldMismatchError(ValueError):
    """Symbols of one prime field given where another field's are needed."""


class SingularMatrixError(ValueError):
    """A matrix that must be inverted has no inverse over its field."""


class InsufficientFieldError(ValueError):
    """The field is too small to supply the evaluation points a scheme needs."""


def is_prime(n: int) -> bool:
    """Trial-division primality test. Moduli in this package are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_valid_prime(n: int, length: int) -> int:
    """Smallest prime p with p >= n + length.

    Such a field holds n evaluation points alpha with alpha + i nonzero for
    every shift i in 1..length, which is what an n-server scheme retrieving
    length symbols per message needs.
    """
    if n < 1 or length < 1:
        raise ValueError("server count and message length must be positive")
    p = n + length
    while not is_prime(p):
        p += 1
    return p


class PrimeField:
    """The field of integers modulo a prime, as its modulus.

    Instances are interned, so ``PrimeField(11) is PrimeField(11)`` holds.
    Symbols are plain ints in range(p); calling the field reduces an int
    into that range: ``PrimeField(11)(14)`` is 3.
    """

    __slots__ = ("modulus",)
    _interned: dict[int, "PrimeField"] = {}

    def __new__(cls, modulus: int) -> "PrimeField":
        field = cls._interned.get(modulus)
        if field is None:
            if not is_prime(modulus):
                raise ValueError(f"field modulus must be prime, got {modulus}")
            field = super().__new__(cls)
            field.modulus = modulus
            cls._interned[modulus] = field
        return field

    def __call__(self, value: int) -> int:
        return value % self.modulus

    def random(self, rng) -> int:
        """Uniform symbol drawn from an injected random.Random-like source."""
        return rng.randrange(self.modulus)

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


def reshape(values: Sequence, shape: Sequence[int]) -> tuple:
    """Flat row-major `values` as nested tuples of `shape`."""
    items = values
    for depth in range(len(shape) - 1, 0, -1):
        size = shape[depth]
        items = [tuple(items[i * size : (i + 1) * size]) for i in range(prod(shape[:depth]))]
    return tuple(items)


@dataclass(frozen=True)
class Space:
    """A uniform random object: `count` values in range(base), turned into
    its native form by `build`.

    Iterating enumerates every realization, in lexicographic order of the
    values; `sample` draws the values one by one, in the same order, from
    an injected random.Random-like source.
    """

    base: int
    count: int
    build: Callable[[Sequence[int]], object]

    @property
    def size(self) -> int:
        return self.base**self.count

    def __iter__(self) -> Iterator:
        return map(self.build, product(range(self.base), repeat=self.count))

    def draw(self, rng) -> list[int]:
        """`count` values in range(base), drawn as `rng.randrange(base)`
        draws each one: `getrandbits(base.bit_length())`, redrawn while the
        value is >= base. The values, and the state `rng` is left in, are
        those of the `randrange` loop."""
        base, getrandbits = self.base, rng.getrandbits
        bits = base.bit_length()
        values = []
        for _ in range(self.count):
            v = getrandbits(bits)
            while v >= base:
                v = getrandbits(bits)
            values.append(v)
        return values

    def sample(self, rng):
        return self.build(self.draw(rng))


def eliminate_mod(rows: list[list[int]], p: int, limit: int | None = None) -> int:
    """In-place row echelon reduction of int rows mod the prime p; returns
    the rank.

    Entries may be any ints; they are reduced mod p first. `limit` caps the
    columns eligible for pivoting, so augmented columns do not count toward
    the rank: rows from the returned rank on are then zero in the first
    `limit` columns and hold, in the others, what those columns cannot
    reach. Only the rows below each pivot are cleared, which is all a rank
    needs; `solve_linear` clears the rest.
    """
    rows[:] = [[v % p for v in row] for row in rows]
    if not rows:
        return 0
    n_cols = len(rows[0]) if limit is None else limit
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def solve_linear(matrix: Sequence[Sequence[int]], rhs: Sequence, p: int) -> list:
    """Solve the square system M x = y over GF(p) exactly.

    `rhs` is either the vector y, and the result the vector x, or a matrix
    Y given as n rows with one column per right-hand side, and the result
    the matrix X (n rows) with M X = Y; all columns share one elimination
    (`eliminate_mod`, then back substitution). Entries are any ints; the
    result holds ints in range(p). Raises SingularMatrixError when M is
    not invertible.
    """
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
    if eliminate_mod(aug, p, limit=n) != n:
        raise SingularMatrixError("coefficient matrix is singular")
    # Row i has its unit pivot in column i; clear the entries above each.
    for i in range(n - 1, 0, -1):
        pivot = aug[i]
        for r in range(i):
            factor = aug[r][i]
            if factor:
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], pivot)]
    return [row[n:] for row in aug] if columns else [row[n] for row in aug]


@dataclass(frozen=True)
class BinMatrix:
    """A matrix over GF(2), stored as a row-major tuple of 0/1 bits."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.bits) != self.rows * self.cols:
            raise ValueError("bit array length must equal rows * cols")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(b) & 1 for row in rows for b in row))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, k: int) -> "BinMatrix":
        return cls(k, k, tuple(1 if i == j else 0 for i in range(k) for j in range(k)))

    @classmethod
    def anti_identity(cls, k: int) -> "BinMatrix":
        """Ones on the anti-diagonal: entry (i, k-1-i) is 1."""
        return cls(
            k, k, tuple(1 if i + j == k - 1 else 0 for i in range(k) for j in range(k))
        )

    @classmethod
    def block(cls, grid: Sequence[Sequence["BinMatrix"]]) -> "BinMatrix":
        """Assemble a block matrix from a 2-d grid of compatible blocks."""
        row_heights = [band[0].rows for band in grid]
        col_widths = [blk.cols for blk in grid[0]]
        for band, height in zip(grid, row_heights):
            if len(band) != len(col_widths):
                raise ValueError("ragged block grid")
            for blk, width in zip(band, col_widths):
                if blk.rows != height or blk.cols != width:
                    raise ValueError("incompatible block dimensions")
        out_rows: list[list[int]] = []
        for band, height in zip(grid, row_heights):
            for i in range(height):
                row: list[int] = []
                for blk in band:
                    row.extend(blk.row(i))
                out_rows.append(row)
        return cls.from_rows(out_rows)

    def at(self, i: int, j: int) -> int:
        return self.bits[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.bits[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "BinMatrix":
        return BinMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in GF(2) matrix addition")
        return BinMatrix(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.bits, other.bits))
        )

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in GF(2) matrix product")
        rows = []
        other_t = other.transpose()
        for i in range(self.rows):
            r = self.row(i)
            rows.append(
                [bit_dot(r, other_t.row(j)) for j in range(other.cols)]
            )
        return BinMatrix.from_rows(rows) if rows else BinMatrix.zeros(0, other.cols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column bit-vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(bit_dot(self.row(i), vec) for i in range(self.rows))

    def vec_mul(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Row bit-vector times matrix."""
        if len(vec) != self.rows:
            raise ValueError("dimension mismatch")
        return tuple(
            bit_dot(vec, [self.at(i, j) for i in range(self.rows)])
            for j in range(self.cols)
        )

    def _row_masks(self) -> list[int]:
        return [
            int("".join(map(str, self.row(i))), 2) if self.cols else 0
            for i in range(self.rows)
        ]


def bit_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two bit vectors over GF(2)."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    acc = 0
    for a, b in zip(u, v):
        acc ^= a & b
    return acc


def bin_det(m: BinMatrix) -> int:
    """Determinant over GF(2): 1 iff the matrix has full rank."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    masks = m._row_masks()
    n = m.rows
    rank = 0
    for col in range(n - 1, -1, -1):
        bit = 1 << col
        pivot = next((r for r in range(rank, n) if masks[r] & bit), None)
        if pivot is None:
            return 0
        masks[rank], masks[pivot] = masks[pivot], masks[rank]
        for r in range(n):
            if r != rank and masks[r] & bit:
                masks[r] ^= masks[rank]
        rank += 1
    return 1


def bin_inv(m: BinMatrix) -> BinMatrix:
    """Inverse over GF(2) by Gauss-Jordan; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    masks = m._row_masks()
    aug = [(masks[i] << n) | (1 << (n - 1 - i)) for i in range(n)]
    rank = 0
    for col in range(2 * n - 1, n - 1, -1):
        bit = 1 << col
        pivot = next((r for r in range(rank, n) if aug[r] & bit), None)
        if pivot is None:
            raise SingularMatrixError("bit matrix is singular")
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for r in range(n):
            if r != rank and aug[r] & bit:
                aug[r] ^= aug[rank]
        rank += 1
    inv_bits = []
    for r in range(n):
        low = aug[r] & ((1 << n) - 1)
        inv_bits.extend((low >> (n - 1 - j)) & 1 for j in range(n))
    return BinMatrix(n, n, tuple(inv_bits))
