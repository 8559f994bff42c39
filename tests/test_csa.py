"""Cross-subspace alignment scheme: layout goldens, algebraic oracles, sweeps.

The expansion oracles recompute server answers from scratch in product form,
so a sign or indexing slip in the library cannot cancel itself out.
"""

from itertools import combinations, product
from random import Random

import pytest

from xstpir import csa as csa_mod
from xstpir.csa import (
    CsaParams,
    MessageSet,
    QueryNoise,
    QueryShare,
    StorageNoise,
    answer,
    choose_alphas,
    decode,
    decoding_matrix,
    delta,
    delta_except,
    desired_columns,
    encode_storage,
    gen_queries,
    interference_aligned,
    iter_messages,
    iter_query_noise,
    iter_storage_noise,
    residual_in_interference_span,
)
from xstpir.field import (
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    SingularMatrixError,
    is_invertible,
    is_prime,
    solve_linear,
)


def _values(symbols):
    return tuple(e.value for e in symbols)


def test_delta_goldens():
    f11 = PrimeField(11)
    assert delta(f11(1), 3) == f11(2)  # 2 * 3 * 4 = 24
    assert delta(f11(0), 3) == f11(6)
    assert delta(f11(0), 0) == f11.one  # empty product
    f5 = PrimeField(5)
    assert delta(f5(4), 1) == f5.zero  # 1 + 4 vanishes mod 5


def test_delta_except_avoids_division():
    f5 = PrimeField(5)
    # (1 + 4) = 0 mod 5, yet skipping that factor must still work
    assert delta_except(f5(4), 2, 1) == f5(1)  # remaining factor 2 + 4 = 6
    assert delta_except(f5(4), 2, 2) == f5(0)  # remaining factor 1 + 4 = 0
    with pytest.raises(ValueError):
        delta_except(f5(1), 2, 3)


def test_delta_except_matches_quotient_when_invertible():
    for p in (5, 7, 11):
        f = PrimeField(p)
        for length in range(1, 5):
            for a in f:
                full = delta(a, length)
                for skip in range(1, length + 1):
                    got = delta_except(a, length, skip)
                    factor = skip + a
                    if factor:
                        assert got == full / factor
                    assert got * factor == full


def test_choose_alphas_goldens():
    f5, f11 = PrimeField(5), PrimeField(11)
    assert choose_alphas(5, 1, 3) == (f5(0), f5(1), f5(2))
    assert choose_alphas(11, 3, 5) == tuple(f11(v) for v in range(5))


def test_choose_alphas_skips_forbidden_points():
    # alpha is usable iff no factor l + alpha vanishes, i.e. alpha is not in
    # {p - L, ..., p - 1}; verify against that direct scan for small fields
    for p in (5, 7, 11, 13):
        for length in range(1, p - 1):
            usable = [v for v in range(p) if all((l + v) % p for l in range(1, length + 1))]
            assert usable == list(range(p - length))
            f = PrimeField(p)
            got = choose_alphas(p, length, len(usable))
            assert got == tuple(f(v) for v in usable)
            with pytest.raises(InsufficientFieldError):
                choose_alphas(p, length, len(usable) + 1)


def test_make_goldens():
    params = CsaParams.make(5, 2, 1, 1)
    assert (params.N, params.K, params.X, params.T) == (5, 2, 1, 1)
    assert params.L == 3
    assert params.p == 11  # smallest prime >= N + L = 8
    assert params.alphas == tuple(params.field(v) for v in range(5))
    assert CsaParams.make(3, 1, 1, 1).p == 5
    assert CsaParams.make(4, 2, 1, 2).p == 5


def test_params_validation():
    f5 = PrimeField(5)
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


def test_storage_layout_worked_example():
    # N = 5, X = 1, T = 2: two blocks, storage row l is W_l + (l + alpha) z_l
    params = CsaParams.make(5, 2, 1, 2)
    assert (params.L, params.p) == (2, 7)
    f = params.field
    w = MessageSet.from_ints([[1, 2], [3, 4]], f)  # rows are messages
    z = StorageNoise(
        (((5, 6),), ((2, 1),))  # z[l][x] is a K-vector
    )
    shares = encode_storage(w, z, params)
    for n, alpha in enumerate(params.alphas, start=1):
        share = shares[n - 1]
        assert share.server_index == n
        assert len(share.rows) == params.L
        for l_index in range(1, params.L + 1):
            point = l_index + alpha
            expected = tuple(
                (w.column(l_index)[k] + point * z.z[l_index - 1][0][k]).value
                for k in range(params.K)
            )
            assert share.rows[l_index - 1] == expected


def test_storage_rejects_messages_from_another_field():
    params = CsaParams.make(5, 2, 1, 2)  # p = 7
    w = MessageSet.from_ints([[1, 2], [3, 4]], PrimeField(11))
    with pytest.raises(FieldMismatchError):
        encode_storage(w, StorageNoise.zeros(params), params)


def test_noise_of_field_elements_is_rejected_by_name():
    # The maps take noise as ints in range(p); Fe noise built by hand must
    # raise a ValueError that names the noise, not a TypeError from the mix.
    params = CsaParams.make(5, 2, 1, 2)  # p = 7
    f = params.field
    w = MessageSet.from_ints([[1, 2], [3, 4]], f)
    storage_noise = StorageNoise(((((f(5), f(6)),), ((f(2), f(1)),))))
    with pytest.raises(ValueError, match=r"storage noise must hold ints in range\(7\)"):
        encode_storage(w, storage_noise, params)
    query_noise = QueryNoise(
        (((f(1), f(2)), (f(3), f(4))), ((f(5), f(6)), (f(0), f(1))))
    )
    with pytest.raises(ValueError, match=r"query noise must hold ints in range\(7\)"):
        gen_queries(1, query_noise, params)


def test_query_layout_worked_example():
    params = CsaParams.make(5, 2, 1, 2)
    f = params.field
    zp = QueryNoise(
        (
            ((1, 2), (3, 4)),  # block 1: T = 2 noise K-vectors
            ((5, 6), (0, 1)),
        )
    )
    theta = 2
    queries = gen_queries(theta, zp, params)
    for n, alpha in enumerate(params.alphas, start=1):
        q = queries[n - 1]
        assert q.server_index == n
        for l_index in range(1, params.L + 1):
            point = l_index + alpha
            scale = delta_except(alpha, params.L, l_index)
            expected = []
            for k in range(1, params.K + 1):
                acc = f.one if k == theta else f.zero
                weight = point
                for zt in zp.z[l_index - 1]:
                    acc = acc + weight * zt[k - 1]
                    weight = weight * point
                expected.append((scale * acc).value)
            assert q.cols[l_index - 1] == tuple(expected)
    with pytest.raises(ValueError):
        gen_queries(0, zp, params)
    with pytest.raises(ValueError):
        gen_queries(3, zp, params)


def test_scalar_answer_expansion_oracle_exhaustive():
    # L = K = 1: answer must equal w + (1+a)(w z' + z) + (1+a)^2 z z'
    params = CsaParams.make(3, 1, 1, 1)
    f = params.field
    for wv, zv, zpv in product(range(5), repeat=3):
        w = MessageSet.from_ints([[wv]], f)
        z = StorageNoise((((zv,),),))
        zp = QueryNoise((((zpv,),),))
        shares = encode_storage(w, z, params)
        queries = gen_queries(1, zp, params)
        for n, alpha in enumerate(params.alphas):
            point = 1 + alpha
            expected = f(wv) + point * (f(wv) * f(zpv) + f(zv)) + point * point * f(zv) * f(zpv)
            assert answer(shares[n], queries[n]) == expected.value


def test_two_block_product_form_oracle():
    # N = 5, X = 2, T = 1, K = 1: recompute each answer as
    #   (2+a)(w1 + (1+a)z11 + (1+a)^2 z12)(1 + (1+a)z'1)
    # + (1+a)(w2 + (2+a)z21 + (2+a)^2 z22)(1 + (2+a)z'2)
    params = CsaParams.make(5, 1, 2, 1, p=11)
    f = params.field
    rng = Random(42)
    for _ in range(60):
        w = MessageSet.random(1, 2, f, rng)
        z = StorageNoise.random(params, rng)
        zp = QueryNoise.random(params, rng)
        shares = encode_storage(w, z, params)
        queries = gen_queries(1, zp, params)
        answers = [answer(s, q) for s, q in zip(shares, queries)]
        for n, a in enumerate(params.alphas):
            b, g = 1 + a, 2 + a
            w1, w2 = w.column(1)[0], w.column(2)[0]
            z11, z12 = (z.z[0][x][0] for x in range(2))
            z21, z22 = (z.z[1][x][0] for x in range(2))
            zp1, zp2 = zp.z[0][0][0], zp.z[1][0][0]
            expected = g * (w1 + b * z11 + b * b * z12) * (1 + b * zp1) + b * (
                w2 + g * z21 + g * g * z22
            ) * (1 + g * zp2)
            assert answers[n] == expected.value
        out = decode(answers, params)
        assert out.desired == _values(w.message(1))


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


@pytest.mark.parametrize("n,k,x,t,p", KERNEL_GRID)
def test_kernel_matches_the_paper_formulas(n, k, x, t, p):
    # Shares, queries and answers recomputed from the paper's definitions
    # with Fe arithmetic: S_n,l = W_l + sum_x u^x Z_l,x and
    # Q_n,l = prod_{i != l} (i + alpha_n) (e_theta + sum_t u^t Z'_l,t),
    # with u = l + alpha_n; the answer is sum_l S_n,l . Q_n,l.
    params = CsaParams.make(n, k, x, t, p=p)
    f = params.field
    rng = Random(n * 1000 + k * 100 + x * 10 + t)
    for _ in range(4):
        w = MessageSet.random(k, params.L, f, rng)
        z = StorageNoise.random(params, rng)
        zp = QueryNoise.random(params, rng)
        theta = rng.randrange(1, k + 1)
        shares = encode_storage(w, z, params)
        queries = gen_queries(theta, zp, params)
        answers = [answer(s, q) for s, q in zip(shares, queries)]
        for idx, alpha in enumerate(params.alphas):
            want_answer = f.zero
            for l_index in range(1, params.L + 1):
                u = l_index + alpha
                scale = f.one
                for i in range(1, params.L + 1):
                    if i != l_index:
                        scale = scale * (i + alpha)
                row, col = [], []
                for kk in range(k):
                    s_sym = w.symbols[kk][l_index - 1]
                    q_sym = f.one if kk + 1 == theta else f.zero
                    for j in range(x):
                        s_sym = s_sym + u ** (j + 1) * z.z[l_index - 1][j][kk]
                    for j in range(t):
                        q_sym = q_sym + u ** (j + 1) * zp.z[l_index - 1][j][kk]
                    q_sym = scale * q_sym
                    row.append(s_sym)
                    col.append(q_sym)
                    want_answer = want_answer + s_sym * q_sym
                assert shares[idx].rows[l_index - 1] == _values(row)
                assert queries[idx].cols[l_index - 1] == _values(col)
            assert answers[idx] == want_answer.value
        assert decode(answers, params).desired == _values(w.message(theta))


def test_decode_of_arbitrary_answers_matches_elimination():
    # not only honest answers: decode is the inverse of the decoding matrix
    rng = Random(8)
    for n, k, x, t, p in KERNEL_GRID:
        params = CsaParams.make(n, k, x, t, p=p)
        f = params.field
        matrix = decoding_matrix(params)
        for _ in range(5):
            answers = [rng.randrange(params.p) for _ in range(n)]
            want = solve_linear(matrix, [f(a) for a in answers])[: params.L]
            assert decode(answers, params).desired == _values(want)


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


def test_desired_column_product_identity():
    # each factor of delta is omitted exactly once across the L columns, so
    # the entrywise product of the desired columns is delta^(L-1)
    for n, k, x, t in [(5, 1, 1, 1), (5, 1, 1, 2), (7, 1, 2, 2), (6, 2, 1, 2)]:
        params = CsaParams.make(n, k, x, t)
        cols = desired_columns(params)
        for idx, alpha in enumerate(params.alphas):
            prod = params.field.one
            for col in cols:
                prod = prod * col[idx]
            assert prod == delta(alpha, params.L) ** (params.L - 1)


def test_decode_exhaustive_tiny_instance():
    params = CsaParams.make(3, 1, 1, 1)
    count = 0
    for w in iter_messages(params):
        for z in iter_storage_noise(params):
            shares = encode_storage(w, z, params)
            for zp in iter_query_noise(params):
                queries = gen_queries(1, zp, params)
                answers = [answer(s, q) for s, q in zip(shares, queries)]
                assert decode(answers, params).desired == _values(w.message(1))
                count += 1
    assert count == 5**3


def test_randomized_decode_across_regimes():
    rng = Random(99)
    for n, k, x, t in [(5, 3, 1, 1), (4, 2, 1, 2), (5, 2, 1, 2), (7, 2, 2, 2)]:
        params = CsaParams.make(n, k, x, t)
        f = params.field
        for _ in range(25):
            w = MessageSet.random(k, params.L, f, rng)
            z = StorageNoise.random(params, rng)
            zp = QueryNoise.random(params, rng)
            theta = rng.randrange(1, k + 1)
            shares = encode_storage(w, z, params)
            queries = gen_queries(theta, zp, params)
            answers = [answer(s, q) for s, q in zip(shares, queries)]
            assert decode(answers, params).desired == _values(w.message(theta))


def test_storage_noise_coefficients_invertible_for_any_x_subset():
    # the noise terms seen by any X servers in one block form an invertible
    # X x X system, so their shares alone are a bijective image of the noise
    for n, x, t in [(3, 1, 1), (4, 2, 1), (5, 2, 2), (5, 1, 1)]:
        params = CsaParams.make(n, 1, x, t)
        for l_index in range(1, params.L + 1):
            for subset in combinations(params.alphas, x):
                m = [
                    [(l_index + a) ** (e + 1) for e in range(x)]
                    for a in subset
                ]
                assert is_invertible(m)


def test_answer_is_linear_in_the_query():
    params = CsaParams.make(4, 2, 1, 1)
    f = params.field
    rng = Random(5)
    w = MessageSet.random(2, params.L, f, rng)
    z = StorageNoise.random(params, rng)
    share = encode_storage(w, z, params)[2]
    q1 = gen_queries(1, QueryNoise.random(params, rng), params)[2]
    q2 = gen_queries(2, QueryNoise.random(params, rng), params)[2]
    combined = QueryShare(
        q1.server_index,
        tuple(
            tuple((a + b) % f.modulus for a, b in zip(c1, c2))
            for c1, c2 in zip(q1.cols, q2.cols)
        ),
        f.modulus,
    )
    assert answer(share, combined) == (answer(share, q1) + answer(share, q2)) % f.modulus
    with pytest.raises(ValueError):
        answer(share, gen_queries(1, QueryNoise.zeros(params), params)[0])


def _sweep_decoding_invertibility(p: int) -> int:
    """Every N-subset of usable points yields an invertible decoding matrix."""
    checked = 0
    f = PrimeField(p)
    for length in range(1, p - 2):
        usable = [f(v) for v in range(p - length)]
        for n in range(length + 2, len(usable) + 1):
            for subset in combinations(usable, n):
                params = CsaParams(
                    N=n, K=1, X=1, T=n - length - 1, L=length, p=p, alphas=subset
                )
                assert is_invertible(decoding_matrix(params)), (p, length, subset)
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
        f = params.field
        for _ in range(20):
            w = MessageSet.random(k, params.L, f, rng)
            z = StorageNoise.random(params, rng)
            zp = QueryNoise.random(params, rng)
            theta = rng.randrange(1, k + 1)
            assert interference_aligned(params, w, z, zp, theta)


def test_corrupted_answer_leaves_interference_span():
    params = CsaParams.make(3, 1, 1, 1)
    f = params.field
    rng = Random(3)
    w = MessageSet.random(1, 1, f, rng)
    z = StorageNoise.random(params, rng)
    zp = QueryNoise.random(params, rng)
    shares = encode_storage(w, z, params)
    queries = gen_queries(1, zp, params)
    answers = [answer(s, q) for s, q in zip(shares, queries)]
    residual = list(answers)
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
    rng = Random(11)
    for _ in range(20):
        w = MessageSet.random(1, 1, f, rng)
        z = StorageNoise.random(wrong, rng)
        zp = QueryNoise.random(wrong, rng)
        assert interference_aligned(wrong, w, z, zp, 1)


def test_duplicate_points_make_decoding_singular():
    f = PrimeField(5)
    params = CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    )
    w = MessageSet.from_ints([[2]], f)
    z = StorageNoise.zeros(params)
    zp = QueryNoise.zeros(params)
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
    assert w.K == 2 and w.L == 2
    assert w.message(2) == (f(3), f(4))
    assert w.column(1) == (f(1), f(3))
    with pytest.raises(ValueError):
        w.message(0)
    with pytest.raises(ValueError):
        w.column(3)
    with pytest.raises(ValueError):
        MessageSet.from_ints([[1, 2], [3]], f)


def test_make_primes_are_minimal():
    for n, k, x, t in [(3, 1, 1, 1), (5, 2, 1, 1), (7, 2, 2, 2), (6, 1, 2, 1)]:
        params = CsaParams.make(n, k, x, t)
        assert is_prime(params.p)
        assert params.p >= n + params.L
        assert all(not is_prime(v) for v in range(n + params.L, params.p))
