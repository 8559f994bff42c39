"""Exact arithmetic over prime fields.

Everything in this package reduces to the primitives here: the prime
field as its modulus, and Gaussian elimination on int rows (ranks,
solutions of square systems, inverses). GF(2) is the prime field at
p = 2, with no kernel of its own. Every operation is exact integer
arithmetic; no floating point is involved anywhere.

Representation: a symbol of GF(p) is a plain int in range(p), in every
scheme, its parameters and its messages; the maps reduce mod p where they
sum and return ints in range(p). One elimination, `eliminate_mod`, gives
ranks; `solve_linear` finishes it by back substitution for solutions and
inverses. `record` is the one pattern of the package's per-call value
records (csa's messages and shares, and the wire's messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from operator import attrgetter
from typing import Callable, Iterator, Sequence


class FieldMismatchError(ValueError):
    """Symbols of one prime field given where another field's are needed."""


class SingularMatrixError(ValueError):
    """A matrix that must be inverted has no inverse over its field."""


class InsufficientFieldError(ValueError):
    """The field is too small to supply the evaluation points a scheme needs."""


# Strong-probable-prime bases, and the bound below which they decide
# primality exactly (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the first 13 primes as bases.
    Raises ValueError at or above `_MR_BOUND`, where it is not proven exact."""
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide primality at or above {_MR_BOUND}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False  # a witnesses that n is composite
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

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


def record(*fields: str) -> type:
    """The base of a `__slots__` value record of two or more `fields`
    (`attrgetter` of one name gives a bare value): field f is kept in
    the slot `_f`, which the subclass's `__init__` sets, and read through a
    read-only property; `==`, `hash` and `repr` are those of a frozen
    dataclass of the fields, at about a third of its construction cost.
    A subclass declares its own `__slots__`: empty, or its private extras."""
    slots = tuple("_" + name for name in fields)
    values = attrgetter(*slots)

    class Record:
        __slots__ = slots

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        def __repr__(self):
            shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values(self)))
            return f"{type(self).__qualname__}({shown})"

    for name, slot in zip(fields, slots):
        setattr(Record, name, property(attrgetter(slot)))
    return Record


def reshape(values: Sequence, shape: Sequence[int]) -> tuple:
    """The prod(shape) flat row-major `values` as nested tuples of `shape`."""
    items = values
    for depth in range(len(shape) - 1, 0, -1):
        size = shape[depth]  # consecutive runs of `size`, or empty tuples
        items = list(zip(*[iter(items)] * size)) if size else [()] * prod(shape[:depth])
    return tuple(items)


# The count of values from which `Space.draw` takes its words in one call.
_BYTE_DRAW_MIN = 48


@lru_cache(maxsize=None)
def _byte_draw(base: int) -> tuple[bytes, bytes]:
    """For a base below 256: the table taking a word's top byte to the value
    `getrandbits(base.bit_length())` reads from that word, and the bytes
    whose value is >= base, which `Space.draw` rejects."""
    shift = 8 - base.bit_length()
    return bytes(b >> shift for b in range(256)), bytes(b for b in range(256) if b >> shift >= base)


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
        those of the `randrange` loop.

        For a base below 256 (at most 8 bits a value) and `_BYTE_DRAW_MIN`
        or more values, the words come in one `getrandbits(32 * need)` call:
        that is `need` 32-bit words, the first lowest, and `getrandbits(k)`
        for k <= 32 is the top k bits of one word, so each value is its
        word's top byte shifted. One `translate` shifts the bytes and
        deletes those whose value is >= base; the shortfall is drawn the
        same way, and once below `_BYTE_DRAW_MIN` by the loop."""
        base, getrandbits = self.base, rng.getrandbits
        count, values = self.count, []
        if count >= _BYTE_DRAW_MIN and base < 256:
            table, rejected, drawn = *_byte_draw(base), bytearray()
            while (need := self.count - len(drawn)) >= _BYTE_DRAW_MIN:
                drawn += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, rejected)
            values, count = list(drawn), need
        bits = base.bit_length()
        for _ in range(count):
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

    Entries may be any ints, and none is copied or reduced up front: a
    pivot is an entry nonzero mod p, and a row is reduced when it is
    normalised as a pivot row or cleared below one, and the rows past the
    rank at the end, so entries never grow past p and every row it leaves
    holds ints in range(p). `limit` caps the columns eligible for pivoting,
    so augmented columns do not count toward the rank: rows from the
    returned rank on are then zero in the first `limit` columns and hold,
    in the others, what those columns cannot reach. Only the rows below
    each pivot are cleared, which is all a rank needs; `solve_linear`
    clears the rest.
    """
    n, rank = len(rows), 0
    if not n:
        return 0
    for col in range(len(rows[0]) if limit is None else limit):
        for r in range(rank, n):
            if rows[r][col] % p:
                break
        else:
            continue
        row, rows[r] = rows[r], rows[rank]
        inv = pow(row[col], -1, p)
        top = rows[rank] = [v * inv % p for v in row]
        for r in range(rank + 1, n):
            if factor := rows[r][col] % p:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], top)]
        rank += 1
        if rank == n:
            return rank
    rows[rank:] = [[v % p for v in row] for row in rows[rank:]]
    return rank


def solve_linear(matrix: Sequence[Sequence[int]], rhs: Sequence, p: int) -> list:
    """Solve the square system M X = Y over GF(p) exactly.

    `rhs` is the matrix Y, given as n rows with one column per right-hand
    side, and the result the matrix X (n rows); all columns share one
    elimination (`eliminate_mod`, then back substitution). Entries are any
    ints; the result holds ints in range(p). Raises SingularMatrixError
    when M is not invertible, and ValueError for a vector `rhs`.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear needs a square matrix and matching rhs")
    if not all(isinstance(y, (list, tuple)) for y in rhs) or len(set(map(len, rhs))) != 1:
        raise ValueError("the right-hand side must be n rows of one length")
    aug = [[*row, *y] for row, y in zip(matrix, rhs)]
    if eliminate_mod(aug, p, limit=n) != n:
        raise SingularMatrixError("coefficient matrix is singular")
    # Row i has its unit pivot in column i; clear the entries above each.
    for i in range(n - 1, 0, -1):
        pivot = aug[i]
        for r in range(i):
            factor = aug[r][i]
            if factor:
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], pivot)]
    return [row[n:] for row in aug]
