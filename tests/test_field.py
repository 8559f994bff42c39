"""Exhaustive and randomized checks of the exact-arithmetic primitives.

The scalar tests check the `Fe` elements of the test oracle, which the int
code is compared against everywhere else; the elimination tests compare
the int elimination with the oracle's."""

import time
from math import prod
from random import Random

import oracle
import pytest
from oracle import Field, lift, values

from xstpir import field as field_mod
from xstpir.affine import rank_grows
from xstpir.field import (
    FieldMismatchError,
    PrimeField,
    SingularMatrixError,
    Space,
    eliminate_mod,
    is_prime,
    smallest_valid_prime,
    solve_linear,
)

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def _oracle_is_prime(n: int) -> bool:
    # Independent re-derivation: 6k+-1 wheel instead of the odd-step scan.
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


# ---------------------------------------------------------------------------
# scalar field arithmetic
# ---------------------------------------------------------------------------


def test_field_interning_and_validation():
    for field in (PrimeField, Field):
        assert field(7) is field(7)
        assert field(7) is not field(11)
        for bad in (0, 1, 4, 6, 9, 100):
            with pytest.raises(ValueError):
                field(bad)


def test_basic_op_examples():
    f5 = Field(5)
    assert f5(3) + f5(4) == f5(2)
    assert f5(3) * f5(4) == f5(2)
    assert -f5(2) == f5(3)
    assert f5(1) - f5(3) == f5(3)
    assert f5(7) == f5(2)  # coercion reduces mod p
    f11 = Field(11)
    assert f11(4).inv() == f11(3)
    assert f11(4) / f11(4) == f11.one
    assert f11(2) ** 10 == f11.one
    assert f11(2) ** -1 == f11(6)
    assert f11(0) ** 0 == f11.one


def test_int_operands_coerce():
    f7 = Field(7)
    a = f7(3)
    assert a + 5 == f7(1)
    assert 5 + a == f7(1)
    assert 2 - a == f7(6)
    assert a * 4 == f7(5)
    assert 1 / f7(3) == f7(5)


def test_mixed_field_arithmetic_rejected():
    a, b = Field(5)(2), Field(7)(2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FieldMismatchError):
            op()
    assert a != b  # equality is False, not an error
    assert a != 2  # no silent int equality


def test_inverse_exhaustive_all_primes_to_101():
    for p in PRIMES_TO_101:
        f = Field(p)
        for v in range(1, p):
            e = f(v)
            assert e * e.inv() == f.one
        with pytest.raises(ZeroDivisionError):
            f.zero.inv()


def test_negation_and_subtraction_consistent():
    for p in (2, 3, 13):
        f = Field(p)
        for a in f:
            assert a + (-a) == f.zero
            for b in f:
                assert a - b == a + (-b)


def test_element_hash_and_bool():
    f = Field(5)
    assert hash(f(3)) == hash(f(8))
    assert {f(0), f(5), f(1)} == {f(0), f(1)}
    assert not f(0)
    assert f(4)


# ---------------------------------------------------------------------------
# smallest_valid_prime
# ---------------------------------------------------------------------------


def test_smallest_valid_prime_examples():
    assert smallest_valid_prime(4, 1) == 5
    assert smallest_valid_prime(5, 2) == 7
    assert smallest_valid_prime(5, 3) == 11
    assert smallest_valid_prime(3, 1) == 5
    assert smallest_valid_prime(2, 1) == 3


def test_smallest_valid_prime_against_scan_oracle():
    for n in range(1, 13):
        for length in range(1, 13):
            got = smallest_valid_prime(n, length)
            assert got >= n + length
            assert _oracle_is_prime(got)
            # nothing smaller in [n + length, got) is prime
            assert all(not _oracle_is_prime(v) for v in range(n + length, got))


def test_smallest_valid_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        smallest_valid_prime(0, 3)
    with pytest.raises(ValueError):
        smallest_valid_prime(3, 0)


def test_is_prime_matches_oracle_below_100000():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if _oracle_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3_215_031_751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3_825_123_056_546_413_051,  # to the first nine prime bases
        318_665_857_834_031_151_167_461,  # to the first twelve
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_a_large_prime_modulus_quickly():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.01


def test_is_prime_refuses_moduli_past_its_proven_bound():
    bound = 3_317_044_064_679_887_385_961_981
    assert not is_prime(bound - 2)
    for n in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------


def test_solve_linear_worked_example():
    m = [[1, 1], [0, 1]]
    assert solve_linear(m, [3, 2], 5) == [1, 2]
    assert oracle.solve_linear(lift(m, 5), lift([3, 2], 5)) == list(lift([1, 2], 5))


def _invertible(m, p):
    return oracle.is_invertible(lift(m, p))


def test_solve_linear_random_roundtrip():
    rng = Random(123)
    for p in (5, 11, 97):
        f = PrimeField(p)
        done = 0
        while done < 40:
            n = rng.randrange(1, 6)
            m = [[f.random(rng) for _ in range(n)] for _ in range(n)]
            if not _invertible(m, p):
                continue
            x = [f.random(rng) for _ in range(n)]
            y = list(values(oracle.mat_vec(lift(m, p), lift(x, p))))
            assert solve_linear(m, y, p) == x
            done += 1


def test_solve_linear_matrix_rhs_matches_column_solves():
    rng = Random(31)
    f = PrimeField(11)
    done = 0
    while done < 30:
        n, width = rng.randrange(1, 6), rng.randrange(1, 4)
        m = [[f.random(rng) for _ in range(n)] for _ in range(n)]
        if not _invertible(m, 11):
            continue
        y = [[f.random(rng) for _ in range(width)] for _ in range(n)]
        x = solve_linear(m, y, 11)
        assert len(x) == n and all(len(row) == width for row in x)
        for j in range(width):
            assert [row[j] for row in x] == solve_linear(m, [row[j] for row in y], 11)
        done += 1
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [[1], [1, 2]], 11)


def test_solve_linear_singular_raises():
    m = [[1, 1], [2, 2]]
    with pytest.raises(SingularMatrixError):
        solve_linear(m, [1, 0], 5)


def test_solve_linear_shape_errors():
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1], 5)
    with pytest.raises(ValueError):
        solve_linear([[1]], [1, 2], 5)


# A non-minimal modulus beside the small ones, where reductions that a
# small p hides (a missing % p, an unreduced pivot) show.
SOLVE_PRIMES = [2, 3, 5, 7, 11, 101]


@pytest.mark.parametrize("p", SOLVE_PRIMES)
def test_solve_linear_matches_the_oracle(p):
    # vector and matrix right-hand sides, unreduced entries included, and
    # singular matrices, which both must refuse
    rng = Random(p * 7 + 1)
    solved = singular = 0
    while solved < 30 or singular < 5:
        n, width = rng.randrange(1, 6), rng.randrange(1, 4)
        m = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
        y = [rng.randrange(-p, 2 * p) for _ in range(n)]
        ys = [[rng.randrange(p) for _ in range(width)] for _ in range(n)]
        if not _invertible(m, p):
            for rhs in (y, ys):
                with pytest.raises(SingularMatrixError):
                    solve_linear(m, rhs, p)
                with pytest.raises(SingularMatrixError):
                    oracle.solve_linear(lift(m, p), lift(rhs, p))
            singular += 1
            continue
        fm = lift(m, p)
        assert solve_linear(m, y, p) == list(values(oracle.solve_linear(fm, lift(y, p))))
        want = [list(row) for row in values(oracle.solve_linear(fm, lift(ys, p)))]
        assert solve_linear(m, ys, p) == want
        solved += 1
    # a matrix made singular by repeating a row, at every size
    for n in range(2, 6):
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        m.append(list(m[0]))
        with pytest.raises(SingularMatrixError):
            solve_linear(m, [1] * n, p)


def test_matrix_rank_examples():
    for m, rank in (
        ([[0, 0], [0, 0]], 0),
        ([[1, 2], [2, 4]], 1),
        ([[1, 0], [0, 1]], 2),
    ):
        assert oracle.matrix_rank(lift(m, 7)) == rank
        assert eliminate_mod(m, 7) == rank


def _random_matrices(p, rng):
    """Zero, wide, tall, square and rank-deficient matrices of ints mod p."""
    yield [[0] * 4 for _ in range(3)]
    for _ in range(40):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        yield [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    for _ in range(20):
        rows, cols, rank = rng.randrange(2, 8), rng.randrange(2, 8), rng.randrange(1, 3)
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        yield [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left
        ]


@pytest.mark.parametrize("p", [2, 5, 13])
def test_int_rank_matches_the_fe_rank(p):
    f = Field(p)
    rng = Random(p)
    for m in _random_matrices(p, rng):
        want = oracle.eliminate([[f(v) for v in row] for row in m])
        assert eliminate_mod([list(row) for row in m], p) == want, m
        # unreduced and negative entries are the same matrix, and every row
        # the elimination leaves is reduced
        shifted = [[v - p * rng.randrange(-3, 4) for v in row] for row in m]
        assert eliminate_mod(shifted, p) == want
        assert all(v in range(p) for row in shifted for v in row)
        assert oracle.matrix_rank([[f(v) for v in row] for row in m]) == want
        # with a limit, the rank of the leading columns; the rows after it
        # are zero there
        limit = rng.randrange(len(m[0]) + 1)
        rows = [list(row) for row in m]
        rank = eliminate_mod(rows, p, limit)
        assert rank == oracle.eliminate([[f(v) for v in row[:limit]] for row in m])
        assert not any(any(row[:limit]) for row in rows[rank:])
        assert all(v in range(p) for row in rows for v in row)
    assert eliminate_mod([], p) == 0


@pytest.mark.parametrize("p", [2, 5, 13])
def test_rank_grows_matches_the_fe_ranks(p):
    # On the same seeded matrices, as given, unreduced and negative, and with
    # B all zero, at every limit from 0 (A empty) to the width (B empty):
    # rank_grows says whether rank [A | B] exceeds rank A by the oracle's
    # eliminations, and leaves every row in range(p).
    f, rng = Field(p), Random(p)
    rank = lambda m, limit=None: oracle.eliminate([[f(v) for v in row[:limit]] for row in m])
    for m in _random_matrices(p, rng):
        width = len(m[0])
        shifted = [[v - p * rng.randrange(-3, 4) for v in row] for row in m]
        for limit in range(width + 1):
            zero_b = [row[:limit] + [0] * (width - limit) for row in shifted]
            for given in (m, shifted, zero_b):
                rows = [list(row) for row in given]
                grows = rank_grows(rows, limit, p)
                assert grows == (rank(given) > rank(given, limit)), (given, limit)
                assert all(v in range(p) for row in rows for v in row)
            assert not rank_grows(zero_b, limit, p)


def test_reshape_nests_row_major_runs():
    # as slicing each level into prod(shape[:depth]) runs does, a dimension
    # of size 0 included (download_all at X = 0 reshapes to (K, 0))
    def sliced(values, shape):
        items = values
        for depth in range(len(shape) - 1, 0, -1):
            size = shape[depth]
            items = [tuple(items[i * size : (i + 1) * size]) for i in range(prod(shape[:depth]))]
        return tuple(items)

    for shape in [(1,), (5,), (2, 1), (1, 3), (3, 2, 4), (2, 0), (3, 0, 2), (0, 4), (2, 2, 1, 3)]:
        values = list(range(prod(shape)))
        assert field_mod.reshape(values, shape) == sliced(values, shape), shape
        assert field_mod.reshape(tuple(values), shape) == sliced(values, shape), shape
    assert field_mod.reshape([1, 2, 3, 4], (2, 2)) == ((1, 2), (3, 4))


@pytest.mark.parametrize("base", [2, 3, 5, 23, 64, 65, 128, 129, 255, 256, 257, 1009, 1031, 65521, 65535])
def test_space_draw_matches_the_randrange_loop(base):
    # the same values, and the source left in the same state, on both sides
    # of the count from which a base below 256 draws its words in one call,
    # and at bases of 9 to 16 bits, which draw one value per call
    least = field_mod._BYTE_DRAW_MIN
    for count in (0, 1, 2, least - 1, least, least + 1, 1000, 5000):
        a, b = Random(base * count + 1), Random(base * count + 1)
        assert Space(base, count, tuple).draw(a) == [b.randrange(base) for _ in range(count)]
        assert a.getstate() == b.getstate()


# ---------------------------------------------------------------------------
# GF(2): the int kernel at p = 2
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _oracle_product(a, b, p: int) -> list[list[int]]:
    """a times b over GF(p), one column of b at a time through the oracle."""
    columns = [values(oracle.mat_vec(lift(a, p), col)) for col in zip(*lift(b, p))]
    return [list(row) for row in zip(*columns)]


def test_bin_det_examples():
    assert eliminate_mod(_identity(5), 2) == 5
    assert eliminate_mod([[1, 1], [1, 1]], 2) == 1
    assert eliminate_mod([[0, 1], [1, 0]], 2) == 2
    with pytest.raises(ValueError):
        solve_linear([[0, 0, 0], [0, 0, 0]], [0, 0], 2)


def test_bin_inv_roundtrip_randomized():
    rng = Random(7)
    done = 0
    while done < 60:
        n = rng.randrange(1, 9)
        m = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        if eliminate_mod([list(row) for row in m], 2) < n:
            with pytest.raises(SingularMatrixError):
                solve_linear(m, _identity(n), 2)
            continue
        inv = solve_linear(m, _identity(n), 2)
        assert _oracle_product(m, inv, 2) == _identity(n)
        assert _oracle_product(inv, m, 2) == _identity(n)
        done += 1


def test_bin_det_agrees_with_exhaustive_3x3():
    # Independent oracle: cofactor expansion over GF(2) for all 512 matrices.
    def det3(r):
        a, b, c, d, e, f, g, h, i = r
        return (a * (e * i ^ f * h) ^ b * (d * i ^ f * g) ^ c * (d * h ^ e * g)) & 1

    from itertools import product

    for bits in product((0, 1), repeat=9):
        rows = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
        assert (eliminate_mod(rows, 2) == 3) == (det3(bits) == 1)
