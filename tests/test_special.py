"""The three schemes outside the aligned regime, checked exhaustively where
the state space allows it."""

from collections import Counter
from itertools import product
from random import Random

import oracle
import pytest
from oracle import Field, lift, values

from xstpir import special as special_mod
from xstpir.csa import MessageSet
from xstpir.field import (
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    eliminate_mod,
)
from xstpir.scheme import BinaryScheme, DownloadAllScheme, SymXspirScheme
from xstpir.sim import run_retrieval
from xstpir.special import (
    DownloadAllParams,
    SymXspirParams,
    binary_queries,
    binary_storage,
    build_B,
    download_all_decode,
    download_all_encode,
    sym_xspir_queries,
    sym_xspir_storage,
)


def _bits(k: int):
    return product((0, 1), repeat=k)


def _round(scheme, messages, noise, randomness, theta):
    """One retrieval through the scheme's own maps, without the wire:
    (queries, per-server answers, decoded value)."""
    queries = scheme.queries(theta, randomness)
    answers = tuple(map(scheme.answer, scheme.storage(messages, noise), queries))
    return queries, answers, scheme.decode(theta, answers)


def _downloaded(answers) -> tuple[int, ...]:
    return tuple(0 if a is None else len(a) for a in answers)


# ---------------------------------------------------------------------------
# download-everything regime (X < N <= X + T)
# ---------------------------------------------------------------------------


def test_download_all_params_validation():
    assert DownloadAllParams.make(2, 1, 1, 1).p == 3
    assert DownloadAllParams.make(3, 1, 1, 2).p == 5
    assert DownloadAllParams.make(4, 2, 2, 2).p == 5
    with pytest.raises(ValueError, match="aligned"):
        DownloadAllParams.make(3, 1, 1, 1)  # N > X + T belongs to the CSA scheme
    with pytest.raises(ValueError):
        DownloadAllParams.make(2, 1, 2, 1)  # N <= X: nothing retrievable
    with pytest.raises(InsufficientFieldError):
        DownloadAllParams(2, 1, 1, 1, p=2)  # needs p > N
    with pytest.raises(InsufficientFieldError):
        DownloadAllParams(4, 1, 2, 2, p=4)


def test_download_all_exhaustive_tiny_instance():
    params = DownloadAllParams.make(2, 2, 1, 1)
    scheme = DownloadAllScheme(params)
    f = params.field
    assert params.L == 1
    rounds = 0
    for w1, w2 in product(range(3), repeat=2):
        w = MessageSet.from_ints([[w1], [w2]], f)
        for z1, z2 in product(range(3), repeat=2):
            noise = ((f(z1),), (f(z2),))
            for theta in (1, 2):
                _, answers, decoded = _round(scheme, w, noise, None, theta)
                assert decoded == w.message(theta)
                assert sum(_downloaded(answers)) == params.N * params.K
                rounds += 1
    assert rounds == 3**4 * 2


def test_download_all_decode_matches_independent_oracle():
    # X = 1: the last server stores pure noise scaled by N, so
    # z_k = payload[N-1][k] / N and symbol l is payload[l][k] - (l+1) z_k
    params = DownloadAllParams.make(3, 2, 1, 2)
    rng = Random(8)
    for _ in range(50):
        w = MessageSet.random(params.K, params.L, params.field, rng)
        noise = lift(DownloadAllScheme(params).storage_noises.sample(rng), params.p)
        payloads = lift(download_all_encode(w, values(noise), params), params.p)
        got = lift(download_all_decode(values(payloads), params), params.p)
        for k in range(params.K):
            z_k = payloads[params.N - 1][k] / params.N
            assert z_k == noise[k][0]
            oracle = tuple(
                payloads[l][k] - (l + 1) * z_k for l in range(params.L)
            )
            assert got[k] == oracle
        assert values(got) == w.symbols


def test_download_all_decode_of_arbitrary_payloads_matches_per_message_solves():
    # X = 2, payloads not from any encoding: each message's noise solved on
    # its own from the tail block must give the same output
    params = DownloadAllParams.make(4, 3, 2, 2)
    f = Field(params.p)
    gen = [[f(n) ** (x + 1) for x in range(params.X)] for n in range(1, params.N + 1)]
    rng = Random(12)
    for _ in range(20):
        payloads = [[f.random(rng) for _ in range(params.K)] for _ in range(params.N)]
        got = lift(download_all_decode(values(payloads), params), params.p)
        for k in range(params.K):
            stored = [row[k] for row in payloads]
            noise = oracle.solve_linear(gen[params.L :], stored[params.L :])
            want = tuple(
                stored[n] - sum((g * z for g, z in zip(gen[n], noise)), f.zero)
                for n in range(params.L)
            )
            assert got[k] == want


def test_download_all_runs_without_storage_noise():
    # X = 0: the noise block has an empty row per message
    params = DownloadAllParams.make(1, 2, 0, 1)
    assert DownloadAllScheme(params).storage_noises.sample(Random(0)) == ((), ())
    w = MessageSet.from_ints([[1], [0]], params.field)
    assert run_retrieval(params, w, 1, seed=0).transcript.decoded == (1,)


def test_download_all_single_server_view_is_uniform():
    # over the noise, each server's stored column is uniform on F_p^K and its
    # distribution does not depend on the messages
    params = DownloadAllParams.make(2, 2, 1, 1)
    f = params.field
    tables = []
    for w1, w2 in product(range(3), repeat=2):
        w = MessageSet.from_ints([[w1], [w2]], f)
        per_server = [Counter() for _ in range(params.N)]
        for z1, z2 in product(range(3), repeat=2):
            noise = ((f(z1),), (f(z2),))
            shares = download_all_encode(w, noise, params)
            for n, payload in enumerate(shares):
                per_server[n][payload] += 1
        for table in per_server:
            assert set(table.values()) == {1}  # uniform over all 9 pairs
        tables.append(per_server)
    assert all(t == tables[0] for t in tables)


# (N, K, X, T, p): X = 0 (no tail to solve) and X = 1, 2, 3, 4, 5; X = N - 1
# and X = T; minimal primes from 2 to 11, and non-minimal ones
DOWNLOAD_ALL_GRID = [
    (1, 2, 0, 1, 2),
    (2, 3, 0, 2, 3),
    (2, 2, 1, 1, 3),
    (3, 2, 1, 2, 5),
    (4, 3, 2, 2, 5),
    (6, 2, 3, 3, 7),
    (9, 2, 5, 4, 11),
    (3, 3, 2, 1, 13),
    (3, 4, 1, 2, 5),
    (4, 3, 3, 1, 5),
    (5, 2, 4, 1, 11),
]


@pytest.mark.parametrize("n,k,x,t,p", DOWNLOAD_ALL_GRID)
def test_download_all_matches_the_oracle(monkeypatch, n, k, x, t, p):
    # the int maps against the oracle's symbol-by-symbol Fe maps, on seeded
    # messages and noise, and on payloads that no encoding produced; the
    # decoder rows come from one inverse of the tail per params value
    params = DownloadAllParams(n, k, x, t, p)
    assert params.p == p
    solves, solve = [], special_mod.solve_linear
    monkeypatch.setattr(special_mod, "solve_linear", lambda *args: solves.append(args) or solve(*args))
    special_mod._download_all_decoder.cache_clear()
    rng = Random(n * 1000 + k * 100 + x * 10 + t)
    for _ in range(10):
        w = MessageSet.random(k, params.L, params.field, rng)
        noise = DownloadAllScheme(params).storage_noises.sample(rng)
        shares = download_all_encode(w, noise, params)
        assert shares == values(oracle.download_all_encode(lift(w.symbols, p), lift(noise, p), params))
        assert download_all_decode(shares, params) == w.symbols
        payloads = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        want = values(oracle.download_all_decode(lift(payloads, p), params))
        assert download_all_decode(payloads, params) == want
    assert download_all_decode(shares, DownloadAllParams(n, k, x, t, p)) == w.symbols
    assert len(solves) == 1


def test_download_all_shape_errors():
    params = DownloadAllParams.make(2, 2, 1, 1)
    f = params.field
    w = MessageSet.from_ints([[1], [2]], f)
    with pytest.raises(ValueError):
        download_all_encode(w, ((f(0),),), params)  # noise not K x X
    with pytest.raises(ValueError):
        download_all_decode(((f(0), f(0)),), params)  # missing a server
    with pytest.raises(ValueError):
        run_retrieval(params, w, 3, seed=0)  # theta outside 1..K
    with pytest.raises(ValueError):
        download_all_encode(MessageSet.from_ints([[1, 2]], f), ((0,), (0,)), params)
    with pytest.raises(FieldMismatchError):
        download_all_encode(MessageSet.from_ints([[1], [2]], PrimeField(5)), ((0,), (0,)), params)


# ---------------------------------------------------------------------------
# three-server single-bit scheme over GF(2)
# ---------------------------------------------------------------------------


def test_build_b_goldens():
    assert build_B(2) == ((1, 1), (1, 0))
    assert build_B(3) == ((0, 1, 1), (1, 1, 0), (1, 0, 0))
    assert build_B(4) == (
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    )
    assert build_B(5) == (
        (0, 0, 1, 0, 1),
        (0, 1, 0, 1, 0),
        (1, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    )
    with pytest.raises(ValueError):
        build_B(1)


def test_build_b_and_complement_invertible():
    for k in range(2, 17):
        b = build_B(k)
        assert eliminate_mod(list(b), 2) == k
        i_plus_b = [[v ^ (i == j) for j, v in enumerate(row)] for i, row in enumerate(b)]
        assert eliminate_mod(i_plus_b, 2) == k


def test_binary_layout_closed_forms():
    # the closed forms on the oracle's GF(2) elements, as the paper states them
    rng = Random(21)
    f = Field(2)
    for k in (2, 3, 5):
        b = build_B(k)
        fb = lift(b, 2)
        fb_t = list(zip(*fb))  # Z B is B^T Z
        i_plus_b = [[v + f(int(i == j)) for j, v in enumerate(row)] for i, row in enumerate(fb)]
        for _ in range(20):
            w = tuple(rng.randrange(2) for _ in range(k))
            z = tuple(rng.randrange(2) for _ in range(k))
            zp = tuple(rng.randrange(2) for _ in range(k))
            theta = rng.randrange(1, k + 1)
            fw, fz, fzp = lift(w, 2), lift(z, 2), lift(zp, 2)
            s1, s2, s3 = binary_storage(w, z, b)
            assert s1 == values(tuple(a + c for a, c in zip(fw, fz)))
            assert s2 == values(tuple(a + c for a, c in zip(fw, oracle.mat_vec(fb_t, fz))))
            assert s3 == z
            unit = lift(tuple(1 if i == theta - 1 else 0 for i in range(k)), 2)
            q1, q2, q3 = binary_queries(theta, zp, b)
            assert q1 == zp
            assert q2 == values(tuple(a + c for a, c in zip(unit, fzp)))
            assert q3 == values(tuple(
                a + c for a, c in zip(oracle.mat_vec(i_plus_b, fzp), oracle.mat_vec(fb, unit))
            ))


def test_binary_round_exhaustive():
    for k in (2, 3):
        scheme = BinaryScheme(k)
        state_space = 0
        for w in _bits(k):
            for z in _bits(k):
                for zp in _bits(k):
                    for theta in range(1, k + 1):
                        queries, answers, decoded = _round(scheme, w, z, zp, theta)
                        assert decoded == (w[theta - 1],)
                        for q, a, d in zip(queries, answers, _downloaded(answers)):
                            assert (a is None) == (not any(q))
                            assert d == (0 if a is None else 1)
                            assert d == scheme.answer_symbols(q)
                        state_space += 1
        assert state_space == 8**k * k


def test_binary_download_count_depends_only_on_query_noise():
    # per theta, exactly three choices of Z' silence one server each, so the
    # total download over the 2^K query noises is 3 * 2^K - 3 for every theta
    for k in (2, 3, 4):
        scheme = BinaryScheme(k)
        w = (0,) * k
        z = (0,) * k
        for theta in range(1, k + 1):
            total = 0
            silent = 0
            for zp in _bits(k):
                downloaded = _downloaded(_round(scheme, w, z, zp, theta)[1])
                total += sum(downloaded)
                silent += downloaded.count(0)
            assert total == 3 * 2**k - 3
            assert silent == 3


def test_binary_query_distribution_is_theta_independent():
    for k in (2, 3):
        b = build_B(k)
        tables = []
        for theta in range(1, k + 1):
            per_server = [Counter() for _ in range(3)]
            for zp in _bits(k):
                for s, q in enumerate(binary_queries(theta, zp, b)):
                    per_server[s][q] += 1
            for table in per_server:
                assert set(table.values()) == {1}  # each query vector once
            tables.append(per_server)
        assert all(t == tables[0] for t in tables)


def test_binary_storage_distribution_is_message_independent():
    for k in (2, 3):
        b = build_B(k)
        tables = []
        for w in _bits(k):
            per_server = [Counter() for _ in range(3)]
            for z in _bits(k):
                for s, vec in enumerate(binary_storage(w, z, b)):
                    per_server[s][vec] += 1
            for table in per_server:
                assert set(table.values()) == {1}
            tables.append(per_server)
        assert all(t == tables[0] for t in tables)


def test_binary_answer_zero_query_is_free():
    answer = BinaryScheme(3).answer
    assert answer((1, 0, 1), (0, 0, 0)) is None
    assert answer((1, 0, 1), (1, 0, 1)) == (0,)
    assert answer((1, 0, 1), (1, 1, 0)) == (1,)


def test_binary_state_validation():
    with pytest.raises(ValueError, match="K >= 2"):
        BinaryScheme.make(3, 1, 1, 1)
    # with I + B singular (here B = I), server 3's query is the theta unit
    # vector whatever the query noise: B must keep I + B invertible
    for zp in _bits(2):
        assert binary_queries(2, zp, ((1, 0), (0, 1)))[2] == (0, 1)
    with pytest.raises(ValueError, match="bit vectors"):
        binary_storage((0, 2), (0, 0), build_B(2))
    with pytest.raises(ValueError, match="bit vector"):
        binary_queries(1, (0, 2), build_B(2))
    with pytest.raises(ValueError):
        run_retrieval(2, (0, 2), 1, seed=0)
    with pytest.raises(ValueError):
        binary_storage((0, 0, 0), (0, 0, 0), build_B(2))
    assert BinaryScheme(4).b == build_B(4)


# ---------------------------------------------------------------------------
# symmetrically secure scheme (N = X + 1)
# ---------------------------------------------------------------------------


def test_sym_xspir_params():
    params = SymXspirParams.make(2, 3)
    assert (params.N, params.T, params.p) == (3, 1, 2)
    assert SymXspirParams.make(1, 2, p=5).p == 5
    with pytest.raises(ValueError):
        SymXspirParams.make(0, 2)
    with pytest.raises(ValueError):
        SymXspirParams.make(1, 2, p=4)


def test_sym_xspir_exhaustive_binary_instance():
    params = SymXspirParams.make(1, 2)
    scheme = SymXspirScheme(params)
    f = params.field
    rounds = 0
    for w_bits in _bits(2):
        w = tuple(f(v) for v in w_bits)
        for z_bits in _bits(4):
            z = (
                (
                    tuple(f(v) for v in z_bits[:2]),
                    tuple(f(v) for v in z_bits[2:]),
                ),
            )
            for m_o in (1, 2):
                for theta in (1, 2):
                    _, answers, decoded = _round(scheme, w, z, m_o, theta)
                    assert decoded == (w[theta - 1],)
                    assert _downloaded(answers) == (2, 2)
                    rounds += 1
    assert rounds == 4 * 16 * 2 * 2


def test_sym_xspir_randomized_wider_instance():
    params = SymXspirParams.make(2, 3, p=5)
    scheme = SymXspirScheme(params)
    rng = Random(31)
    for _ in range(200):
        w = scheme.messages.sample(rng)
        z = scheme.storage_noises.sample(rng)
        m_o = scheme.query_randomness.sample(rng)
        theta = rng.randrange(1, params.K + 1)
        _, answers, decoded = _round(scheme, w, z, m_o, theta)
        assert decoded == (w[theta - 1],)
        assert _downloaded(answers) == (params.K,) * params.N
        assert sum(_downloaded(answers)) == params.K * params.N


def test_sym_xspir_query_structure():
    params = SymXspirParams.make(1, 3)
    # noise server sees the constant column; the masked server sees a shifted
    # diagonal that is a bijection on 1..K
    assert sym_xspir_queries(2, 1, params) == ((1, 1, 1), (3, 1, 2))
    for theta in (1, 2, 3):
        for m_o in (1, 2, 3):
            flat, shifted = sym_xspir_queries(theta, m_o, params)
            assert flat == (m_o,) * 3
            assert sorted(shifted) == [1, 2, 3]
            assert shifted[theta - 1] == m_o
    with pytest.raises(ValueError):
        sym_xspir_queries(4, 1, params)
    with pytest.raises(ValueError):
        sym_xspir_queries(1, 0, params)


def test_sym_xspir_answer_slots():
    params = SymXspirParams.make(2, 2, p=3)
    scheme = SymXspirScheme(params)
    rng = Random(13)
    for _ in range(50):
        w = scheme.messages.sample(rng)
        z = scheme.storage_noises.sample(rng)
        m_o = scheme.query_randomness.sample(rng)
        theta = rng.randrange(1, 3)
        _, answers, _ = _round(scheme, w, z, m_o, theta)
        # noise servers return their grid entries at the constant column
        for x in range(params.X):
            assert answers[x][theta - 1] == z[x][theta - 1][m_o - 1]
        # the masked server's theta slot carries W_theta under the same noise
        masked = answers[params.N - 1][theta - 1]
        expected = Field(params.p)(w[theta - 1])
        for x in range(params.X):
            expected = expected + z[x][theta - 1][m_o - 1]
        assert masked == expected.value


def test_sym_xspir_storage_shapes():
    params = SymXspirParams.make(1, 2, p=3)
    f = Field(params.p)
    w = (f(1), f(2))
    z = (((f(0), f(1)), (f(2), f(0))),)
    grids = sym_xspir_storage(values(w), values(z), params)
    assert len(grids) == params.N
    assert grids[0] == values(z[0])
    assert grids[1] == values((
        (f(1) + f(0), f(1) + f(1)),
        (f(2) + f(2), f(2) + f(0)),
    ))
    with pytest.raises(ValueError):
        sym_xspir_queries(1, 3, params)  # m_o outside 1..K
    with pytest.raises(ValueError):
        sym_xspir_storage(w, (z[0][:1],), params)
    with pytest.raises(ValueError):
        sym_xspir_storage(w[:1], z, params)


@pytest.mark.parametrize("x,k,p", [(1, 2, 2), (2, 3, 3), (1, 4, 5), (3, 2, 7), (2, 2, 11), (2, 3, 13)])
def test_sym_xspir_matches_the_oracle(x, k, p):
    # storage and every answer against the oracle's Fe maps; unreduced
    # messages and noise store as their residues
    params = SymXspirParams.make(x, k, p=p)
    scheme = SymXspirScheme(params)
    rng = Random(x * 100 + k * 10 + p)
    for _ in range(10):
        w = tuple(rng.randrange(p) for _ in range(k))
        z = scheme.storage_noises.sample(rng)
        grids = sym_xspir_storage(w, z, params)
        want = oracle.sym_xspir_storage(lift(w, p), lift(z, p), params)
        assert grids == values(want)
        shifted = sym_xspir_storage(
            tuple(v + p * rng.randrange(-2, 3) for v in w),
            tuple(tuple(tuple(v - p for v in row) for row in zx) for zx in z),
            params,
        )
        assert shifted == grids
        for theta in range(1, k + 1):
            for m_o in range(1, k + 1):
                for grid, fe_grid, request in zip(grids, want, sym_xspir_queries(theta, m_o, params)):
                    assert scheme.answer(grid, request) == values(
                        oracle.sym_xspir_answer(fe_grid, request)
                    )
