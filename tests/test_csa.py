"""Cross-subspace alignment scheme: layout goldens, algebraic oracles, sweeps.

The expansion oracles recompute server answers from scratch in product form,
so a sign or indexing slip in the library cannot cancel itself out.
"""

import dataclasses
import hashlib
from itertools import chain, combinations, count, product
from math import isqrt, prod
from operator import mul
from random import Random
import sys
from types import SimpleNamespace

import oracle
import pytest
from oracle import (
    Field,
    desired_columns,
    interference_aligned,
    iter_messages,
    iter_query_noise,
    iter_storage_noise,
    lift,
    query_noise,
    residual_in_interference_span,
    storage_noise,
    values,
)

from xstpir import csa as csa_mod
from xstpir.csa import (
    CsaParams,
    MessageSet,
    answer,
    choose_alphas,
    decode,
    decoding_matrix,
    delta,
    delta_except,
    encode_storage,
    gen_queries,
)
from xstpir.scheme import CsaScheme
from xstpir.field import (
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    _MR_BOUND,
    SingularMatrixError,
    eliminate_mod,
    is_prime,
    solve_linear,
)


def _invertible(matrix, p):
    return eliminate_mod([list(row) for row in matrix], p) == len(matrix)


def _blocks(payload, k):
    """A flat query payload cut into its L K-vectors."""
    return tuple(payload[i : i + k] for i in range(0, len(payload), k))


def test_delta_goldens():
    assert delta(1, 3, 11) == 2  # 2 * 3 * 4 = 24
    assert delta(0, 3, 11) == 6
    assert delta(0, 0, 11) == 1  # empty product
    assert delta(4, 1, 5) == 0  # 1 + 4 vanishes mod 5


def test_delta_except_avoids_division():
    # (1 + 4) = 0 mod 5, yet skipping that factor must still work
    assert delta_except(4, 2, 1, 5) == 1  # remaining factor 2 + 4 = 6
    assert delta_except(4, 2, 2, 5) == 0  # remaining factor 1 + 4 = 0
    with pytest.raises(ValueError):
        delta_except(1, 2, 3, 5)


def test_delta_except_matches_quotient_when_invertible():
    # the int products against the oracle's, and the oracle's quotients
    for p in (5, 7, 11):
        f = Field(p)
        for length in range(1, 5):
            for a in f:
                full = f(delta(a.value, length, p))
                assert full == oracle.delta(a, length)
                for skip in range(1, length + 1):
                    got = f(delta_except(a.value, length, skip, p))
                    assert got == oracle.delta_except(a, length, skip)
                    factor = skip + a
                    if factor:
                        assert got == full / factor
                    assert got * factor == full


def test_choose_alphas_goldens():
    assert choose_alphas(5, 1, 3) == (0, 1, 2)
    assert choose_alphas(11, 3, 5) == tuple(range(5))


def test_choose_alphas_skips_forbidden_points():
    # alpha is usable iff no factor l + alpha vanishes, i.e. alpha is not in
    # {p - L, ..., p - 1}; verify against that direct scan for small fields
    for p in (5, 7, 11, 13):
        for length in range(1, p - 1):
            usable = [v for v in range(p) if all((l + v) % p for l in range(1, length + 1))]
            assert usable == list(range(p - length))
            got = choose_alphas(p, length, len(usable))
            assert got == tuple(usable)
            with pytest.raises(InsufficientFieldError):
                choose_alphas(p, length, len(usable) + 1)


def test_make_goldens():
    params = CsaParams.make(5, 2, 1, 1)
    assert (params.N, params.K, params.X, params.T) == (5, 2, 1, 1)
    assert params.L == 3
    assert params.p == 11  # smallest prime >= N + L = 8
    assert params.alphas == tuple(range(5))
    assert CsaParams.make(3, 1, 1, 1).p == 5
    assert CsaParams.make(4, 2, 1, 2).p == 5


def test_params_validation():
    f5 = PrimeField(5)  # its symbols are ints in range(5)
    with pytest.raises(ValueError, match="download-all"):
        CsaParams.make(3, 1, 1, 2)  # N = X + T has no surplus server
    with pytest.raises(ValueError):
        CsaParams.make(5, 0, 1, 1)
    with pytest.raises(ValueError):
        CsaParams(3, 1, 1, 1, L=2, p=5, alphas=(f5(0), f5(1), f5(2)))
    with pytest.raises(ValueError):
        CsaParams(3, 1, 1, 1, L=1, p=6, alphas=(f5(0), f5(1), f5(2)))
    with pytest.raises(ValueError):
        CsaParams(3, 1, 1, 1, L=1, p=5, alphas=(f5(0), f5(1), f5(1)))
    with pytest.raises(ValueError):
        # p - 1 = 4 is forbidden at L = 1 since 1 + 4 = 0
        CsaParams(3, 1, 1, 1, L=1, p=5, alphas=(f5(0), f5(1), f5(4)))
    with pytest.raises(InsufficientFieldError):
        CsaParams.make(5, 1, 1, 1, p=7)  # only 7 - 3 = 4 usable points for N = 5
    for p in (4, 1):  # refused as not prime, not for counting 2 or 0 usable points
        with pytest.raises(ValueError, match=r"^need a prime p >= N \+ L = 6$"):
            CsaParams.make(4, 1, 1, 1, p=p)
    for alphas in ((0, 1, 5), (0, 1, -1), (0, 1, 2.0), (0, 1, Field(5)(2))):
        with pytest.raises(ValueError, match=r"ints in range\(p\)"):
            CsaParams(3, 1, 1, 1, L=1, p=5, alphas=alphas)


def test_params_take_large_prime_moduli_and_refuse_undecidable_ones():
    params = CsaParams.make(4, 2, 1, 1, p=2**61 - 1)
    assert (params.p, params.alphas) == (2**61 - 1, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        CsaParams.make(4, 2, 1, 1, p=2**127 - 1)


def test_storage_layout_worked_example():
    # N = 5, X = 1, T = 2: two blocks, storage row l is W_l + (l + alpha) z_l
    params = CsaParams.make(5, 2, 1, 2)
    assert (params.L, params.p) == (2, 7)
    f = params.field
    w = MessageSet.from_ints([[1, 2], [3, 4]], f)  # rows are messages
    z = (((5, 6),), ((2, 1),))  # z[l][x] is a K-vector
    shares = encode_storage(w, z, params)
    assert len(shares) == params.N
    for share, alpha in zip(shares, oracle.alphas(params)):  # server n's share is shares[n - 1]
        assert len(share.rows) == params.L
        for l_index in range(1, params.L + 1):
            point = l_index + alpha
            expected = tuple(
                (w.message(k + 1)[l_index - 1] + point * z[l_index - 1][0][k]).value
                for k in range(params.K)
            )
            assert share.rows[l_index - 1] == expected


def test_storage_rejects_messages_from_another_field():
    params = CsaParams.make(5, 2, 1, 2)  # p = 7
    w = MessageSet.from_ints([[1, 2], [3, 4]], PrimeField(11))
    with pytest.raises(FieldMismatchError):
        encode_storage(w, storage_noise(params), params)


def test_noise_of_field_elements_is_rejected_by_name():
    # The maps take noise as ints in range(p); noise of field-element
    # objects built by hand must raise a ValueError that names the noise,
    # not a TypeError from the mix.
    params = CsaParams.make(5, 2, 1, 2)  # p = 7
    f = Field(params.p)
    w = MessageSet.from_ints([[1, 2], [3, 4]], params.field)
    z = (((f(5), f(6)),), ((f(2), f(1)),))
    with pytest.raises(ValueError, match=r"storage noise must hold ints in range\(7\)"):
        encode_storage(w, z, params)
    zp = (((f(1), f(2)), (f(3), f(4))), ((f(5), f(6)), (f(0), f(1))))
    with pytest.raises(ValueError, match=r"query noise must hold ints in range\(7\)"):
        gen_queries(1, zp, params)


def test_query_layout_worked_example():
    params = CsaParams.make(5, 2, 1, 2)
    f = Field(params.p)
    zp = (
        ((1, 2), (3, 4)),  # block 1: T = 2 noise K-vectors
        ((5, 6), (0, 1)),
    )
    theta = 2
    queries = gen_queries(theta, zp, params)
    for n, alpha in enumerate(oracle.alphas(params), start=1):
        q = _blocks(queries[n - 1], params.K)
        for l_index in range(1, params.L + 1):
            point = l_index + alpha
            scale = oracle.delta_except(alpha, params.L, l_index)
            expected = []
            for k in range(1, params.K + 1):
                acc = f.one if k == theta else f.zero
                weight = point
                for zt in zp[l_index - 1]:
                    acc = acc + weight * zt[k - 1]
                    weight = weight * point
                expected.append((scale * acc).value)
            assert q[l_index - 1] == tuple(expected)
    with pytest.raises(ValueError):
        gen_queries(0, zp, params)
    with pytest.raises(ValueError):
        gen_queries(3, zp, params)


def test_scalar_answer_expansion_oracle_exhaustive():
    # L = K = 1: answer must equal w + (1+a)(w z' + z) + (1+a)^2 z z'
    params = CsaParams.make(3, 1, 1, 1)
    f = Field(params.p)
    for wv, zv, zpv in product(range(5), repeat=3):
        w = MessageSet.from_ints([[wv]], params.field)
        z, zp = (((zv,),),), (((zpv,),),)
        shares = encode_storage(w, z, params)
        queries = gen_queries(1, zp, params)
        for n, alpha in enumerate(oracle.alphas(params)):
            point = 1 + alpha
            expected = f(wv) + point * (f(wv) * f(zpv) + f(zv)) + point * point * f(zv) * f(zpv)
            assert answer(shares[n], queries[n]) == expected.value


def test_two_block_product_form_oracle():
    # N = 5, X = 2, T = 1, K = 1: recompute each answer as
    #   (2+a)(w1 + (1+a)z11 + (1+a)^2 z12)(1 + (1+a)z'1)
    # + (1+a)(w2 + (2+a)z21 + (2+a)^2 z22)(1 + (2+a)z'2)
    params = CsaParams.make(5, 1, 2, 1, p=11)
    rng = Random(42)
    for _ in range(60):
        w = MessageSet.random(1, 2, params.field, rng)
        z = storage_noise(params, rng)
        zp = query_noise(params, rng)
        shares = encode_storage(w, z, params)
        queries = gen_queries(1, zp, params)
        answers = [answer(s, q) for s, q in zip(shares, queries)]
        for n, a in enumerate(oracle.alphas(params)):
            b, g = 1 + a, 2 + a
            w1, w2 = w.message(1)
            z11, z12 = (z[0][x][0] for x in range(2))
            z21, z22 = (z[1][x][0] for x in range(2))
            zp1, zp2 = zp[0][0][0], zp[1][0][0]
            expected = g * (w1 + b * z11 + b * b * z12) * (1 + b * zp1) + b * (
                w2 + g * z21 + g * g * z22
            ) * (1 + g * zp2)
            assert answers[n] == expected.value
        out = decode(answers, params)
        assert out == w.message(1)


# (N, K, X, T, p): L = 1 (N = X + T + 1) and longer messages, minimal and
# non-minimal primes (None picks the minimal one).
KERNEL_GRID = [
    (3, 1, 1, 1, None),
    (4, 3, 2, 1, None),
    (6, 2, 2, 3, 13),
    (5, 2, 1, 1, None),
    (5, 3, 1, 2, 23),
    (7, 3, 2, 2, 17),
    (8, 4, 1, 3, None),
]


def _largest_prime_below(bound):
    p = bound - 1
    while not is_prime(p):
        p -= 1
    return p


# The largest modulus the package accepts.
TOP_PRIME = _largest_prime_below(_MR_BOUND)

# The grid plus the size of the benchmark's bulk retrievals, where storage
# and queries both run on 16-bit lanes, and a size at the largest modulus,
# where both run on lanes past 64 bits.
KERNEL_POINTS = KERNEL_GRID + [(12, 64, 2, 2, None), (5, 3, 2, 2, TOP_PRIME)]


def _paper_rows(params, w, z, zp, theta):
    """Per server, its storage rows and query columns recomputed from the
    paper's definitions with the oracle's Fe arithmetic: S_n,l = W_l +
    sum_x u^x Z_l,x and Q_n,l = prod_{i != l} (i + alpha_n) (e_theta +
    sum_t u^t Z'_l,t), with u = l + alpha_n; one Fe tuple per block."""
    f = Field(params.p)
    out = []
    for alpha in oracle.alphas(params):
        rows, cols = [], []
        for l_index in range(1, params.L + 1):
            u = l_index + alpha
            scale = f.one
            for i in range(1, params.L + 1):
                if i != l_index:
                    scale = scale * (i + alpha)
            row, col = [], []
            for kk in range(params.K):
                s_sym = f(w.symbols[kk][l_index - 1])
                q_sym = f.one if kk + 1 == theta else f.zero
                for j in range(params.X):
                    s_sym = s_sym + u ** (j + 1) * z[l_index - 1][j][kk]
                for j in range(params.T):
                    q_sym = q_sym + u ** (j + 1) * zp[l_index - 1][j][kk]
                row.append(s_sym)
                col.append(scale * q_sym)
            rows.append(tuple(row))
            cols.append(tuple(col))
        out.append((rows, cols))
    return out


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_POINTS)
def test_kernel_matches_the_paper_formulas(n, k, x, t, p):
    # Shares, queries and answers recomputed from the paper's definitions
    # (`_paper_rows`); the answer is sum_l S_n,l . Q_n,l.
    params = CsaParams.make(n, k, x, t, p=p)
    f = Field(params.p)
    rng = Random(n * 1000 + k * 100 + x * 10 + t)
    for _ in range(4):
        w = MessageSet.random(k, params.L, params.field, rng)
        z = storage_noise(params, rng)
        zp = query_noise(params, rng)
        theta = rng.randrange(1, k + 1)
        shares = encode_storage(w, z, params)
        queries = gen_queries(theta, zp, params)
        answers = [answer(s, q) for s, q in zip(shares, queries)]
        for idx, (rows, cols) in enumerate(_paper_rows(params, w, z, zp, theta)):
            want_answer = f.zero
            for l_index, (row, col) in enumerate(zip(rows, cols), start=1):
                for s_sym, q_sym in zip(row, col):
                    want_answer = want_answer + s_sym * q_sym
                assert shares[idx].rows[l_index - 1] == values(row)
                assert _blocks(queries[idx], k)[l_index - 1] == values(col)
            assert answers[idx] == want_answer.value
        assert decode(answers, params) == w.message(theta)


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_POINTS + [(4, 2, 1, 1, TOP_PRIME), (6, 3, 1, 2, 2**31 - 1)])
def test_flat_payloads_match_the_paper_formulas(n, k, x, t, p):
    # Each share and query is one flat payload: the paper's L blocks of K
    # symbols, block after block; a share's `rows` cut it back into
    # K-tuples; a query is a bare tuple, the scheme's queries are the
    # kernel's, and its share payloads are the shares' own.
    params = CsaParams.make(n, k, x, t, p=p)
    scheme = CsaScheme(params)
    rng = Random(n * 1000 + k * 100 + x * 10 + t + 3)
    for _ in range(2):
        w = MessageSet.random(k, params.L, params.field, rng)
        z = storage_noise(params, rng)
        zp = query_noise(params, rng)
        theta = rng.randrange(1, k + 1)
        shares = encode_storage(w, z, params)
        queries = gen_queries(theta, zp, params)
        for idx, (rows, cols) in enumerate(_paper_rows(params, w, z, zp, theta)):
            share, query = shares[idx], queries[idx]
            assert share.payload == values(tuple(chain.from_iterable(rows)))
            assert type(query) is tuple and query == values(tuple(chain.from_iterable(cols)))
            assert len(share.payload) == len(query) == params.L * k
            assert (share.k, share.p) == (k, params.p)
            blocks = range(0, params.L * k, k)
            assert share.rows == tuple(share.payload[i : i + k] for i in blocks)
            assert all(type(v) is int for v in share.payload + query)
        assert scheme.queries(theta, zp) == queries
        for n_index, share in enumerate(shares):
            assert scheme.share_payloads(shares)[n_index] is share.payload


def _loop(p, weights, bases, z):
    """The reference for csa._mix, one symbol at a time: per server n and
    block l, sum_j c_j t_j mod p over the terms (base_l, z[l][0], z[l][1],
    ...), with (c_0, c_1, ...) = weights[n][l]."""
    return [
        tuple(
            tuple(sum(c * t[kk] for c, t in zip(ws, (base, *zl))) % p for kk in range(len(base)))
            for ws, base, zl in zip(row, bases, z)
        )
        for row in weights
    ]


def _flat(grid):
    """Per server, its blocks joined into one flat payload."""
    return [tuple(chain.from_iterable(blocks)) for blocks in grid]


def _paper_weights(params, depth, scaled):
    """Per server n and block l, (c, c u, ..., c u^depth) mod p with
    u = l + alpha_n, and c the product of (i + alpha_n) over i != l when
    `scaled` (queries), else 1 (storage)."""
    p, blocks = params.p, range(1, params.L + 1)
    return [
        [
            tuple(
                (prod(i + alpha for i in blocks if i != l) if scaled else 1) * (l + alpha) ** j % p
                for j in range(depth + 1)
            )
            for l in blocks
        ]
        for alpha in params.alphas
    ]


def _check_against_the_loop(params, w, z, zp, theta):
    """Shares and queries against the per-symbol reference."""
    p, unit = params.p, [int(kk == theta) for kk in range(1, params.K + 1)]
    assert [s.rows for s in encode_storage(w, z, params)] == _loop(
        p, _paper_weights(params, params.X, False), list(zip(*w.symbols)), z
    )
    assert [_blocks(q, params.K) for q in gen_queries(theta, zp, params)] == _loop(
        p, _paper_weights(params, params.T, True), [unit] * params.L, zp
    )


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_POINTS)
def test_packed_kernel_matches_the_loop(n, k, x, t, p):
    # The kernel against a per-symbol sum mod p of the paper's rows, in ints,
    # at the size's modulus and at the largest one, where the lanes are
    # past 64 bits.
    for prime in (p, TOP_PRIME):
        params = CsaParams.make(n, k, x, t, p=prime)
        rng = Random(n * 1000 + k * 100 + x * 10 + t + 1)
        for _ in range(3):
            w = MessageSet.random(k, params.L, params.field, rng)
            z = storage_noise(params, rng)
            zp = query_noise(params, rng)
            _check_against_the_loop(params, w, z, zp, rng.randrange(1, k + 1))


def test_unreduced_noise_gives_the_shares_of_its_residues():
    # Noise is reduced mod p before packing: negative values and values
    # >= p mix exactly as their residues do, at one and two noise terms
    # and on lanes past 64 bits.
    for params in (
        CsaParams.make(7, 3, 2, 2, p=17),
        CsaParams.make(5, 3, 1, 1),
        CsaParams.make(7, 3, 2, 2, p=TOP_PRIME),
    ):
        p = params.p
        rng = Random(77)
        w = MessageSet.random(3, params.L, params.field, rng)
        z = storage_noise(params, rng)
        zp = query_noise(params, rng)

        def shifted(noise):
            return tuple(
                tuple(tuple(v + p * rng.randrange(-3, 4) for v in zj) for zj in zl)
                for zl in noise
            )

        bare_z, bare_zp = shifted(z), shifted(zp)
        assert any(v < 0 for zl in bare_z for zj in zl for v in zj)
        assert any(v >= p for zl in bare_zp for zj in zl for v in zj)
        want = encode_storage(w, z, params), gen_queries(2, zp, params)
        assert (encode_storage(w, bare_z, params), gen_queries(2, bare_zp, params)) == want


@pytest.mark.parametrize("depth", [1, 2])
def test_noise_that_is_not_ints_is_rejected(depth):
    params = CsaParams.make(2 * depth + 3, 2, depth, depth, p=17)
    f = Field(params.p)
    w = MessageSet.from_ints([[0] * params.L] * 2, params.field)
    z = storage_noise(params)
    zp = query_noise(params)
    fe_z = tuple(tuple(tuple(map(f, zj)) for zj in zl) for zl in z)
    fe_zp = tuple(tuple(tuple(map(f, zj)) for zj in zl) for zl in zp)
    with pytest.raises(ValueError, match=r"storage noise must hold ints in range\(17\)"):
        encode_storage(w, fe_z, params)
    with pytest.raises(ValueError, match=r"query noise must hold ints in range\(17\)"):
        gen_queries(1, fe_zp, params)


def _ragged(params, depth, cut):
    """Zero noise whose vectors have K symbols, but the last one `cut`."""
    z = [[(0,) * params.K for _ in range(depth)] for _ in range(params.L)]
    z[-1][-1] = (0,) * cut
    return tuple(map(tuple, z))


def test_packed_kernel_rejects_noise_vectors_of_the_wrong_length():
    params = CsaParams.make(7, 2, 2, 2, p=17)
    w = MessageSet.from_ints([[0] * params.L] * 2, params.field)
    for cut in (1, 3):  # one symbol short, one too many
        vector = (0,) * cut
        z = ((vector,) * params.X,) * params.L
        with pytest.raises(ValueError, match="storage noise has wrong shape"):
            encode_storage(w, z, params)
        zp = ((vector,) * params.T,) * params.L
        with pytest.raises(ValueError, match="query noise has wrong shape"):
            gen_queries(1, zp, params)
    # a ragged grid is refused by the map that reads it, with two noise
    # terms and with one
    for params in (params, CsaParams.make(5, 2, 1, 1)):
        w = MessageSet.from_ints([[0] * params.L] * 2, params.field)
        for cut in (1, 3):
            with pytest.raises(ValueError, match="storage noise has wrong shape"):
                encode_storage(w, _ragged(params, params.X, cut), params)
            with pytest.raises(ValueError, match="query noise has wrong shape"):
                gen_queries(1, _ragged(params, params.T, cut), params)
    # blocks of two depths, either first, and too few or too many blocks
    params = CsaParams.make(7, 2, 2, 2, p=17)  # L = 3
    w = MessageSet.from_ints([[0] * params.L] * 2, params.field)
    deep, shallow = ((0, 0),) * 2, ((0, 0),)
    for z in ((deep, deep, shallow), (shallow, deep, deep), (deep,) * 2, (deep,) * 4, ()):
        with pytest.raises(ValueError, match="storage noise has wrong shape"):
            encode_storage(w, z, params)
        with pytest.raises(ValueError, match="query noise has wrong shape"):
            gen_queries(1, z, params)


@pytest.mark.parametrize("n,k,x,t", [(5, 2, 1, 1), (6, 3, 1, 2), (6, 3, 2, 1)])
def test_one_noise_term_rejects_noise_vectors_of_the_wrong_length(n, k, x, t):
    # A noise vector of the wrong length in any block is refused, not
    # zipped short or packed into the next lane: on a side with one noise
    # term per block, and at (6, 3, 2, 1) beside a side with two.
    params = CsaParams.make(n, k, x, t)
    w = MessageSet.from_ints([[0] * params.L] * k, params.field)

    def noise(depth, bad, cut):
        """Zero noise whose first vector in block `bad` has `cut` symbols."""
        return tuple(
            ((0,) * (cut if l == bad else k),) + ((0,) * k,) * (depth - 1)
            for l in range(params.L)
        )

    for cut in (1, k + 1):
        for bad in range(params.L):
            with pytest.raises(ValueError, match="storage noise has wrong shape"):
                encode_storage(w, noise(x, bad, cut), params)
            with pytest.raises(ValueError, match="query noise has wrong shape"):
                gen_queries(1, noise(t, bad, cut), params)


def _lane_limit(bits, depth):
    """The largest modulus m with (m - 1) + depth (m - 1)^2 < 2^bits, the
    largest prime at most m, and the smallest prime above m."""
    q = isqrt(2**bits // depth)
    while depth * q * q + q >= 2**bits:
        q -= 1
    limit = below = q + 1
    above = limit + 1
    while not is_prime(below):
        below -= 1
    while not is_prime(above):
        above += 1
    return limit, below, above


# The lane widths `_lane_bits` picks from: 8, 16, 32 and 64 bits, then
# every whole number of bytes.
def _narrowest_lane(bound):
    return next(bits for bits in chain((8, 16, 32, 64), count(72, 8)) if bound < 1 << bits)


def test_lane_width_is_the_narrowest_that_holds_a_row():
    primes = {2, TOP_PRIME}
    for depth in range(1, 65):
        for bits in (8, 16, 32, 64, 72, 128):
            primes.update(_lane_limit(bits, depth)[1:])
    for p in sorted(primes):
        for depth in range(1, 65):
            bits = csa_mod._lane_bits(p, depth)
            assert bits is not None
            assert bits == _narrowest_lane((p - 1) + depth * (p - 1) ** 2)


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("bits", [16, 32, 64, 72])
def test_lane_width_boundaries(bits, depth):
    limit, below, above = _lane_limit(bits, depth)
    wider = _narrowest_lane(1 << bits)
    assert csa_mod._lane_bits(limit, depth) == csa_mod._lane_bits(below, depth) == bits
    assert csa_mod._lane_bits(limit + 1, depth) == csa_mod._lane_bits(above, depth) == wider
    # At the limit every lane reaches the bound exactly and must not carry:
    # storage with base, weights and noise all p - 1, and queries with
    # scale and weights p - 1 on a unit base. The kernel's arithmetic holds
    # for any modulus, so the limit itself is tested, prime or not.
    for p in (limit, below):
        k, blocks, servers = 5, 2, 3
        top = p - 1
        z = [[[top] * k] * depth] * blocks
        table = SimpleNamespace(params=SimpleNamespace(p=p), lanes={depth: bits})
        for bases, weights in (
            ([[top] * k] * blocks, (1,) + (top,) * depth),
            ([[0, 0, 1, 0, 0]] * blocks, (top,) * (depth + 1)),
        ):
            weights = [[weights] * blocks] * servers
            assert csa_mod._mix(table, bases, z, weights) == _flat(_loop(p, weights, bases, z))
    # The same at the prime below the limit, through the table: the query
    # weights fold in the scale, and must be reduced mod p before packing.
    params = CsaParams.make(2 * depth + 3, 5, depth, depth, p=below)  # L = 3: scales other than 1
    assert csa_mod._table(params).lanes[depth] == bits
    top = below - 1
    w = MessageSet(((top,) * params.L,) * 5, below)
    z = ((((top,) * 5),) * depth,) * params.L
    _check_against_the_loop(params, w, z, z, 3)


def test_one_noise_term_and_lanes_past_64_bits_decode():
    _, below, above = _lane_limit(64, 2)
    for x, t, p, bits in ((2, 2, below, 64), (2, 2, above, 72), (1, 1, 23, 16)):
        params = CsaParams.make(5, 3, x, t, p=p)
        assert csa_mod._table(params).lanes[x] == bits
        rng = Random(p)
        w = MessageSet.random(3, params.L, params.field, rng)
        z = storage_noise(params, rng)
        zp = query_noise(params, rng)
        shares = encode_storage(w, z, params)
        queries = gen_queries(2, zp, params)
        answers = [answer(s, q) for s, q in zip(shares, queries)]
        assert decode(answers, params) == w.message(2)


# Per lane width in bits, the largest prime p with (bits / 8) (p - 1) < 256,
# where `_unpack` reduces through byte tables, and the first prime past it,
# where it falls back to one `%` per lane.
BYTE_TABLE_PRIMES = {8: (251, 257), 16: (127, 131), 32: (61, 67), 64: (31, 37)}


def _byte_table_primes(bits):
    last, past = BYTE_TABLE_PRIMES[bits]
    assert bits // 8 * (last - 1) < 256 <= bits // 8 * (past - 1)
    assert [q for q in range(last + 1, past + 1) if is_prime(q)] == [past]
    return [q for q in range(2, last + 1) if is_prime(q)], past


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("bits", [8, 16])
def test_byte_tables_reduce_every_lane_value_exactly(monkeypatch, order, bits):
    # Every lane value at every prime the tables serve, the largest
    # included, and at the first prime past them, in both byte orders: the
    # tables go through no `array` cast, so the patch holds. Past them,
    # 16-bit lanes are cast to native "H" items, so that prime is checked
    # in the native order only.
    monkeypatch.setattr(csa_mod, "byteorder", order)
    width, every = bits // 8, range(1 << bits)
    acc = int.from_bytes(b"".join(v.to_bytes(width, order) for v in every), order)
    served, past = _byte_table_primes(bits)
    for p in served + ([past] if bits == 8 or order == sys.byteorder else []):
        assert (csa_mod._byte_tables(p, width) is None) == (p == past)
        assert tuple(csa_mod._unpack([acc], len(every), bits, p)) == tuple(v % p for v in every)


@pytest.mark.parametrize("bits", [32, 64])
def test_byte_tables_reduce_wide_lanes_exactly(bits):
    # Random lane values and both extremes, at every prime the tables serve
    # and at the first one past them.
    rng, width = Random(bits), bits // 8
    lanes = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(4000)]
    accs = [csa_mod._pack(lanes[i : i + 6], bits) for i in range(0, len(lanes), 6)]
    served, past = _byte_table_primes(bits)
    for p in served + [past]:
        assert (csa_mod._byte_tables(p, width) is None) == (p == past)
        assert list(csa_mod._unpack(accs, 6, bits, p)) == [v % p for v in lanes]


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("bits", [8, 16])
def test_pack_then_unpack_round_trips(monkeypatch, order, bits):
    monkeypatch.setattr(csa_mod, "byteorder", order)
    rng = Random(bits)
    values = [0, 255] + [rng.randrange(256) for _ in range(300)]
    for p in (2, 11, 23, 83, 127) + ((131, 257) if order == sys.byteorder else ()):
        assert tuple(csa_mod._unpack([csa_mod._pack(values, bits)], len(values), bits, p)) == tuple(
            v % p for v in values
        )


def _reductions(monkeypatch):
    """The (lane width in bytes, tables or None) of each later `_unpack`."""
    seen, real = [], csa_mod._byte_tables
    monkeypatch.setattr(
        csa_mod, "_byte_tables", lambda p, width: seen.append((width, real(p, width))) or seen[-1][1]
    )
    return seen


@pytest.mark.parametrize("n,k,x,t", [(5, 2, 1, 1), (12, 64, 2, 2), (24, 256, 4, 4), (48, 256, 8, 8)])
def test_storage_and_queries_at_default_primes_reduce_through_byte_tables(monkeypatch, n, k, x, t):
    # The benchmark's and the ROADMAP's csa sizes, storage on the depth-X
    # lanes and queries on the depth-T ones: no per-lane `%` in either.
    params = CsaParams.make(n, k, x, t)
    seen = _reductions(monkeypatch)
    encode_storage(MessageSet.from_ints([[0] * params.L] * k, params.field), storage_noise(params), params)
    gen_queries(1, query_noise(params), params)
    table = csa_mod._table(params)
    assert [width for width, _ in seen] == [table.lanes[x] // 8, table.lanes[t] // 8]
    assert all(tables is not None for _, tables in seen)


# Noise values beside in-range ones: `bytes` takes those in [p, 256), which
# the j = 0 byte table reduces, and refuses the others, which then take one
# `% p` each. Every int (a bool included) mixes as its residue does; a
# float is refused as before.
ODD_NOISE = {
    "p": lambda p: p,
    "255": lambda p: 255,
    "-1": lambda p: -1,
    "-3p-1": lambda p: -3 * p - 1,
    "256": lambda p: 256,
    "10^30": lambda p: 10**30,
    "True": lambda p: True,
    "3.0": lambda p: 3.0,
}


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("odd", list(ODD_NOISE))
def test_noise_outside_the_byte_table_mixes_as_its_residue(monkeypatch, order, odd):
    # 8-bit lanes at p = 11 and 17, 16-bit ones at p = 23, and at
    # p = 2^61 - 1 lanes past 64 bits written a value at a time, where a
    # float escaped as AttributeError; none goes through an `array` cast,
    # so the byte-order patch holds.
    monkeypatch.setattr(csa_mod, "byteorder", order)
    for params in (CsaParams.make(5, 2, 1, 1), CsaParams.make(7, 3, 2, 2, p=17), CsaParams.make(12, 64, 2, 2),
                   CsaParams.make(5, 2, 1, 1, p=2**61 - 1)):
        p, value, rng = params.p, ODD_NOISE[odd](params.p), Random(params.p)
        w = MessageSet.random(params.K, params.L, params.field, rng)
        unit = [int(kk == 2) for kk in range(1, params.K + 1)]
        scheme = CsaScheme(params)
        for kind, space, run, bases, weights in (
            ("storage", scheme.storage_noises, lambda z: [s.rows for s in encode_storage(w, z, params)],
             list(zip(*w.symbols)), _paper_weights(params, params.X, False)),
            ("query", scheme.query_randomness, lambda z: [_blocks(q, params.K) for q in gen_queries(2, z, params)],
             [unit] * params.L, _paper_weights(params, params.T, True)),
        ):
            for where in (0, space.count // 2, space.count - 1):  # refused early, midway, late
                values = space.draw(rng)
                values[where] = value
                noise = space.build(values)
                if isinstance(value, float):
                    with pytest.raises(ValueError, match=f"{kind} noise must hold ints in range"):
                        run(noise)
                else:
                    assert run(noise) == _loop(p, weights, bases, noise)


# sha256 prefixes of the shares and queries of seeded inputs at the
# benchmark's and the ROADMAP's csa sizes, and of `constant_terms` of
# seeded in-range payloads at csa (24,32,4,4), as the kernel gave them
# when every input took its own `% p`: each byte order must give them.
PINNED_KERNEL = {
    (5, 2, 1, 1): ("f7312343549e4f7f", "13c02d3936326023"),
    (12, 64, 2, 2): ("bf1a985c3a40782f", "8204a7c158c64625"),
    (24, 256, 4, 4): ("de46f52dbf26405b", "593a88d87a913f06"),
    (48, 256, 8, 8): ("685e238a8d0c7fdc", "67ad7b27641c8981"),
}
PINNED_CHECK = "b72363cf2a835fb9"


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("order", ["little", "big"])
def test_kernel_outputs_match_their_pinned_digests(monkeypatch, order):
    monkeypatch.setattr(csa_mod, "byteorder", order)
    for (n, k, x, t), pinned in PINNED_KERNEL.items():
        params = CsaParams.make(n, k, x, t)
        rng = Random(n * 1000 + k)
        w = MessageSet.random(k, params.L, params.field, rng)
        shares = encode_storage(w, storage_noise(params, rng), params)
        queries = gen_queries(rng.randrange(1, k + 1), query_noise(params, rng), params)
        assert (_digest([s.rows for s in shares]), _digest([_blocks(q, k) for q in queries])) == pinned
    params = CsaParams.make(24, 32, 4, 4)
    rng = Random(24032)
    payloads = [tuple(rng.randrange(params.p) for _ in range(params.L * params.K)) for _ in range(params.N)]
    assert _digest(csa_mod.constant_terms(payloads, params)) == PINNED_CHECK
    assert _digest(csa_mod.constant_terms(list(map(bytes, payloads)), params)) == PINNED_CHECK


def test_constant_terms_of_replayed_transcripts_reduce_through_byte_tables(monkeypatch):
    # csa (24,32,4,4), the size of the benchmark's replays, at p = 41: 16-bit lanes.
    params = CsaParams.make(24, 32, 4, 4)
    seen = _reductions(monkeypatch)
    csa_mod.constant_terms([(0,) * (params.L * params.K)] * params.N, params)
    assert [width for width, _ in seen] == [2] and seen[0][1] is not None


# One csa instance per lane width of `constant_terms` (16, 32 and 64 bits,
# and two past 64 bits: 72 bits at p = 2^31 - 1 and 168 at the largest
# modulus), as (N, K, X, T, p); test_sim.py replays tampered transcripts of
# the same five.
CHECK_LANES = {
    16: (24, 32, 4, 4, 41),
    32: (6, 3, 1, 2, 1009),
    64: (7, 4, 2, 2, 65537),
    72: (8, 3, 2, 2, 2**31 - 1),
    168: (5, 3, 2, 2, TOP_PRIME),
}


@pytest.mark.parametrize("bits", list(CHECK_LANES))
def test_constant_terms_match_a_lagrange_evaluation(bits):
    # Arbitrary in-range payloads, not only honest queries.
    n, k, x, t, p = CHECK_LANES[bits]
    params = CsaParams.make(n, k, x, t, p=p)
    assert csa_mod._lane_bits(p, n) == bits
    rng = Random(p)
    for _ in range(3):
        payloads = [
            tuple(rng.randrange(p) for _ in range(params.L * k)) for _ in range(n)
        ]
        got = csa_mod.constant_terms(payloads, params)
        assert got == values(oracle.constant_terms(payloads, params))
    top = [(p - 1,) * (params.L * k)] * n
    assert csa_mod.constant_terms(top, params) == values(oracle.constant_terms(top, params))


@pytest.mark.parametrize("servers", [3, 8])
@pytest.mark.parametrize("bits", [16, 32, 64, 72])
def test_constant_terms_lane_width_boundaries(monkeypatch, bits, servers):
    # At the largest modulus each width holds for N servers, every symbol
    # and server factor p - 1 makes every lane reach (p - 1) + N (p - 1)^2's
    # N (p - 1)^2 exactly; it must not carry. Prime or not, as for `_mix`.
    limit, below, _ = _lane_limit(bits, servers)
    assert csa_mod._lane_bits(limit, servers) == bits
    k, blocks = 5, 3
    for p in (limit, below):
        params = SimpleNamespace(N=servers, K=k, L=blocks, p=p)
        table = SimpleNamespace(
            lanes={servers: bits}, server_factors=[p - 1] * servers, block_factors=[p - 1] * blocks
        )
        monkeypatch.setattr(csa_mod, "_table", lambda _: table)
        payloads = [[p - 1] * (blocks * k)] * servers
        want = ((servers * (p - 1) ** 2 % p * (p - 1) % p,) * k,) * blocks
        assert csa_mod.constant_terms(payloads, params) == want


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_POINTS + list(CHECK_LANES.values()))
def test_check_factors_multiply_to_the_lagrange_weights_over_the_scales(n, k, x, t, p):
    # P_l * c_n = lambda_{n,l} / s_{n,l}: the (l + alpha_n) in s_{n,l}
    # cancels the one in lambda_{n,l}'s numerator.
    params = CsaParams.make(n, k, x, t, p=p)
    table = csa_mod._table(params)
    got = [[b * c % params.p for c in table.server_factors] for b in table.block_factors]
    assert got == [list(values(row)) for row in oracle.check_weights(params)]


@pytest.mark.parametrize("bits", list(CHECK_LANES))
def test_constant_terms_read_bytes_as_their_symbols(bits):
    # Blocks of 32 symbols below 256 on each lane width, 32 and 64 bits among
    # them (p = 1009 and 65537), where an `array` would read bytes as words.
    n, _, x, t, p = CHECK_LANES[bits]
    params = CsaParams.make(n, 32, x, t, p=p)
    rng = Random(bits)
    for _ in range(3):
        payloads = [tuple(rng.randrange(min(p, 256)) for _ in range(params.L * 32)) for _ in range(n)]
        want = csa_mod.constant_terms(payloads, params)
        assert csa_mod.constant_terms(list(map(bytes, payloads)), params) == want
        assert want == values(oracle.constant_terms(payloads, params))


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 72, 168])
def test_pack_reads_bytes_as_their_symbols(bits):
    for symbols in ([1, 2, 3], [1, 2, 3, 4], list(range(64)), [255] * 8):
        assert csa_mod._pack(bytes(symbols), bits) == csa_mod._pack(symbols, bits)


def test_duplicate_points_raise_in_the_check_on_every_call():
    f = PrimeField(5)
    params = CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    )
    for _ in range(3):
        with pytest.raises(ValueError, match="not invertible"):
            csa_mod.constant_terms([(0,)] * 3, params)
        assert "server_factors" not in vars(csa_mod._table(params))  # the failure was not kept


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_POINTS)
def test_honest_queries_have_the_unit_vector_of_theta_as_constant_term(n, k, x, t, p):
    params = CsaParams.make(n, k, x, t, p=p)
    rng = Random(n * 1000 + k * 100 + x * 10 + t + 2)
    for theta in range(1, k + 1):
        queries = gen_queries(theta, query_noise(params, rng), params)
        unit = tuple(int(kk == theta) for kk in range(1, k + 1))
        assert csa_mod.constant_terms(queries, params) == (unit,) * params.L


def test_decode_of_arbitrary_answers_matches_elimination():
    # not only honest answers: decode is the inverse of the decoding matrix,
    # and that matrix is the oracle's
    rng = Random(8)
    for n, k, x, t, p in KERNEL_GRID:
        params = CsaParams.make(n, k, x, t, p=p)
        f = Field(params.p)
        matrix = oracle.decoding_matrix(params)
        assert lift(decoding_matrix(params), params.p) == tuple(map(tuple, matrix))
        for _ in range(5):
            answers = [rng.randrange(params.p) for _ in range(n)]
            want = oracle.solve_linear(matrix, [f(a) for a in answers])
            assert decode(answers, params) == values(want[: params.L])
            got = solve_linear(decoding_matrix(params), [[a] for a in answers], params.p)
            assert got == [[v] for v in values(want)]


def test_singular_decoder_raises_on_every_call(monkeypatch):
    f = PrimeField(5)
    params = CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    )
    calls = []
    solve = csa_mod.solve_linear

    def counting_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(csa_mod, "solve_linear", counting_solve)
    for attempt in range(1, 4):
        with pytest.raises(SingularMatrixError):
            decode([1, 2, 3], params)
        assert len(calls) == attempt  # the failure was not kept


def test_decoding_matrix_golden():
    params = CsaParams.make(3, 1, 1, 1)
    f = params.field
    rows = decoding_matrix(params)
    assert rows == [
        [f(1), f(1), f(0)],
        [f(1), f(2), f(2)],
        [f(1), f(3), f(1)],
    ]
    assert lift(rows, params.p) == tuple(map(tuple, oracle.decoding_matrix(params)))


def test_desired_column_product_identity():
    # each factor of delta is omitted exactly once across the L columns, so
    # the entrywise product of the desired columns is delta^(L-1)
    for n, k, x, t in [(5, 1, 1, 1), (5, 1, 1, 2), (7, 1, 2, 2), (6, 2, 1, 2)]:
        params = CsaParams.make(n, k, x, t)
        cols = desired_columns(params)
        assert values(cols) == tuple(map(tuple, csa_mod.desired_columns(params)))
        for idx, alpha in enumerate(oracle.alphas(params)):
            prod = Field(params.p).one
            for col in cols:
                prod = prod * col[idx]
            assert prod == oracle.delta(alpha, params.L) ** (params.L - 1)


def test_decode_exhaustive_tiny_instance():
    params = CsaParams.make(3, 1, 1, 1)
    count = 0
    for w in iter_messages(params):
        for z in iter_storage_noise(params):
            shares = encode_storage(w, z, params)
            for zp in iter_query_noise(params):
                queries = gen_queries(1, zp, params)
                answers = [answer(s, q) for s, q in zip(shares, queries)]
                assert decode(answers, params) == w.message(1)
                count += 1
    assert count == 5**3


def test_randomized_decode_across_regimes():
    rng = Random(99)
    for n, k, x, t in [(5, 3, 1, 1), (4, 2, 1, 2), (5, 2, 1, 2), (7, 2, 2, 2)]:
        params = CsaParams.make(n, k, x, t)
        for _ in range(25):
            w = MessageSet.random(k, params.L, params.field, rng)
            z = storage_noise(params, rng)
            zp = query_noise(params, rng)
            theta = rng.randrange(1, k + 1)
            shares = encode_storage(w, z, params)
            queries = gen_queries(theta, zp, params)
            answers = [answer(s, q) for s, q in zip(shares, queries)]
            assert decode(answers, params) == w.message(theta)


def test_storage_noise_coefficients_invertible_for_any_x_subset():
    # the noise terms seen by any X servers in one block form an invertible
    # X x X system, so their shares alone are a bijective image of the noise
    for n, x, t in [(3, 1, 1), (4, 2, 1), (5, 2, 2), (5, 1, 1)]:
        params = CsaParams.make(n, 1, x, t)
        for l_index in range(1, params.L + 1):
            for subset in combinations(oracle.alphas(params), x):
                m = [
                    [(l_index + a) ** (e + 1) for e in range(x)]
                    for a in subset
                ]
                assert oracle.is_invertible(m)


def test_answer_is_linear_in_the_query():
    params = CsaParams.make(4, 2, 1, 1)
    f = params.field
    rng = Random(5)
    w = MessageSet.random(2, params.L, f, rng)
    z = storage_noise(params, rng)
    share = encode_storage(w, z, params)[2]
    q1 = gen_queries(1, query_noise(params, rng), params)[2]
    q2 = gen_queries(2, query_noise(params, rng), params)[2]
    combined = tuple((a + b) % f.modulus for a, b in zip(q1, q2))
    assert answer(share, combined) == (answer(share, q1) + answer(share, q2)) % f.modulus
    with pytest.raises(ValueError):
        answer(share, q1 + (0,))


def test_a_received_query_of_the_wrong_length_or_shape_is_refused():
    # A received payload is answered as it is, so the answer map sees its
    # length: symbols too many (a whole block or not) or too few are
    # refused, not cut to length or read short, as is a query built for
    # another K, whose length is L times that K.
    params = CsaParams.make(5, 2, 1, 1)
    scheme, rng = CsaScheme(params), Random(6)
    share = scheme.storage(MessageSet.random(2, params.L, params.field, rng), storage_noise(params, rng))[0]
    q = scheme.queries(1, query_noise(params, rng))[0]
    assert len(q) == 6
    assert scheme.answer(share, q) == (sum(map(mul, share.payload, q)) % params.p,)
    for wrong in (q + (1, 2, 3), q + (1, 2), q + (0,), q[:-1], q[:-2], ()):
        with pytest.raises(ValueError, match="different block counts"):
            scheme.answer(share, wrong)
    for k in (3, 1):
        other = CsaParams.make(5, k, 1, 1)
        with pytest.raises(ValueError, match="different block counts"):
            answer(share, gen_queries(1, query_noise(other, rng), other)[0])


def _sweep_decoding_invertibility(p: int) -> int:
    """Every N-subset of usable points yields an invertible decoding matrix."""
    checked = 0
    for length in range(1, p - 2):
        usable = list(range(p - length))
        for n in range(length + 2, len(usable) + 1):
            for subset in combinations(usable, n):
                params = CsaParams(
                    N=n, K=1, X=1, T=n - length - 1, L=length, p=p, alphas=subset
                )
                assert _invertible(decoding_matrix(params), p), (p, length, subset)
                checked += 1
    return checked


def test_decoding_matrix_invertible_for_all_point_subsets_small_fields():
    # exhaustive over p = 5, 7, 11; subset counts pinned so nothing is skipped
    assert _sweep_decoding_invertibility(5) == 5
    assert _sweep_decoding_invertibility(7) == 48
    assert _sweep_decoding_invertibility(11) == 1451


def test_interference_alignment_honest_answers():
    rng = Random(17)
    for n, k, x, t in [(3, 1, 1, 1), (4, 2, 1, 1), (5, 1, 1, 2)]:
        params = CsaParams.make(n, k, x, t)
        for _ in range(20):
            w = MessageSet.random(k, params.L, params.field, rng)
            z = storage_noise(params, rng)
            zp = query_noise(params, rng)
            theta = rng.randrange(1, k + 1)
            assert interference_aligned(params, w, z, zp, theta)


def test_corrupted_answer_leaves_interference_span():
    params = CsaParams.make(3, 1, 1, 1)
    f = Field(params.p)
    rng = Random(3)
    w = MessageSet.random(1, 1, params.field, rng)
    z = storage_noise(params, rng)
    zp = query_noise(params, rng)
    shares = encode_storage(w, z, params)
    queries = gen_queries(1, zp, params)
    answers = [answer(s, q) for s, q in zip(shares, queries)]
    residual = list(lift(answers, params.p))
    for col, sym in zip(desired_columns(params), w.message(1)):
        residual = [r - sym * c for r, c in zip(residual, col)]
    assert residual_in_interference_span(params, residual)
    corrupted = [residual[0] + f.one] + residual[1:]
    assert not residual_in_interference_span(params, corrupted)


def test_honest_alignment_survives_wrong_evaluation_points():
    # the alignment identity is polynomial in alpha, so honest answers align
    # even when checked against points the servers did not actually use; a
    # tampered answer is what this check is for (see the corrupted test)
    params = CsaParams.make(3, 1, 1, 1)
    f = params.field
    wrong = CsaParams(3, 1, 1, 1, L=1, p=5, alphas=(f(0), f(1), f(3)))
    assert wrong.alphas == (0, 1, 3)
    rng = Random(11)
    for _ in range(20):
        w = MessageSet.random(1, 1, f, rng)
        z = storage_noise(wrong, rng)
        zp = query_noise(wrong, rng)
        assert interference_aligned(wrong, w, z, zp, 1)


def test_duplicate_points_make_decoding_singular():
    f = PrimeField(5)
    params = CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    )
    w = MessageSet.from_ints([[2]], f)
    z = storage_noise(params)
    zp = query_noise(params)
    shares = encode_storage(w, z, params)
    queries = gen_queries(1, zp, params)
    answers = [answer(s, q) for s, q in zip(shares, queries)]
    with pytest.raises(SingularMatrixError):
        decode(answers, params)


def test_enumerators_cover_the_whole_space():
    params = CsaParams.make(4, 2, 1, 1)  # L = 2, p = 7
    p = params.p
    assert sum(1 for _ in iter_messages(params)) == p ** (params.K * params.L)
    assert (
        sum(1 for _ in iter_storage_noise(params))
        == p ** (params.L * params.X * params.K)
    )
    assert (
        sum(1 for _ in iter_query_noise(params))
        == p ** (params.L * params.T * params.K)
    )


def test_message_set_accessors():
    f = PrimeField(5)
    w = MessageSet.from_ints([[1, 2], [3, 4]], f)
    assert w.K == 2 and w.L == 2 and w.p == 5
    assert w.message(2) == (f(3), f(4)) == (3, 4)
    # from_ints reduces into range(p); the constructor refuses other ints
    assert MessageSet.from_ints([[6, -1]], f) == MessageSet(((1, 4),), 5)
    for row in ((1, 5), (-1, 4)):
        with pytest.raises(ValueError, match=r"range\(5\)"):
            MessageSet((row,), 5)
    with pytest.raises(ValueError):
        w.message(0)
    with pytest.raises(ValueError):
        MessageSet.from_ints([[1, 2], [3]], f)


def test_make_primes_are_minimal():
    for n, k, x, t in [(3, 1, 1, 1), (5, 2, 1, 1), (7, 2, 2, 2), (6, 1, 2, 1)]:
        params = CsaParams.make(n, k, x, t)
        assert is_prime(params.p)
        assert params.p >= n + params.L
        assert all(not is_prime(v) for v in range(n + params.L, params.p))


# Each csa value record, its fields, and values differing in one field at a
# time (in order: a first value, then per field one that changes it).
RECORD_CASES = {
    "StorageShare": (csa_mod.StorageShare, ("payload", "p", "k"),
                     [((1, 2, 3, 4), 5, 2), ((1, 2, 3, 0), 5, 2), ((1, 2, 3, 4), 7, 2), ((1, 2, 3, 4), 5, 4)]),
    "MessageSet": (MessageSet, ("symbols", "p"),
                   [(((1, 2), (3, 4)), 5), (((1, 2), (3, 0)), 5), (((1, 2), (3, 4)), 7)]),
}


@pytest.mark.parametrize("name", list(RECORD_CASES))
def test_csa_records_are_the_records_frozen_dataclasses_are(name):
    # ==, !=, hash and repr as a frozen dataclass's of the same name and
    # fields, for records built positionally and by keyword; the fields are
    # read-only and no other attribute can be set.
    cls, names, fields = RECORD_CASES[name]
    ref_cls = dataclasses.make_dataclass(name, names, frozen=True)
    pairs = [(cls(*f), ref_cls(*f)) for f in fields]
    pairs += [(cls(**dict(zip(names, f))), ref) for f, (_, ref) in zip(fields, pairs)]
    for (a, ref_a), (b, ref_b) in product(pairs, repeat=2):
        assert (a == b) == (ref_a == ref_b)
        assert (a != b) == (ref_a != ref_b)
    for (record, ref), f in zip(pairs, fields * 2):
        assert tuple(getattr(record, n) for n in names) == f
        assert hash(record) == hash(ref) == hash(f)
        assert repr(record) == repr(ref)
        assert (record == f) is (ref == f) is False
        assert {record: 1}[cls(*f)] == 1
        for n in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, n, getattr(record, n, None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ref, n, getattr(ref, n, None))
        assert tuple(getattr(record, n) for n in names) == f


def test_records_of_the_same_fields_are_not_equal_across_classes():
    # as two frozen dataclasses are not: a share is not its payload, which
    # a query is; `rows` cuts it by k
    share = csa_mod.StorageShare((1, 2, 3, 4), 5, 2)
    assert share != share.payload and share.rows == ((1, 2), (3, 4))
