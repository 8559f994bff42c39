"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every numeric claim is exact (Fraction equality or integer
comparison); runtime budgets are asserted with perf_counter.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from random import Random

from oracle import iter_messages, iter_query_noise, iter_storage_noise

from xstpir import cli
from xstpir.audit import (
    BinaryInstance,
    CsaInstance,
    DownloadAllInstance,
    SymXspirInstance,
    audit_correctness,
    audit_privacy,
    audit_security,
    audit_sym_security,
)
from xstpir.capacity import (
    best_mds_pir_asym,
    c_n3,
    c_pir,
    c_tpir,
    rate_le_sqrt_bound,
    sqrt_bound_lt_asymptotic,
    xstpir_asymptotic,
    xstpir_upper_bound,
)
from xstpir.csa import (
    CsaParams,
    MessageSet,
    answer,
    decode,
    decoding_matrix,
    encode_storage,
    gen_queries,
)
from xstpir.field import PrimeField, eliminate_mod
from xstpir.sim import KIND_ANSWER_EMPTY, empirical_rate, replay, run_retrieval
from xstpir.special import DownloadAllParams, SymXspirParams, build_B


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} PASS {description} ({elapsed:.2f}s)")


def test_01_golden_bit_matrices():
    with criterion(1, "golden B matrices and invertibility through K=64"):
        started = time.perf_counter()
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
        for k in range(2, 65):
            b = build_B(k)
            assert eliminate_mod(list(b), 2) == k
            i_plus_b = [[v ^ (i == j) for j, v in enumerate(row)] for i, row in enumerate(b)]
            assert eliminate_mod(i_plus_b, 2) == k
        assert time.perf_counter() - started < 1.0


def test_02_aligned_scheme_exhaustive_correctness():
    with criterion(2, "aligned scheme decodes all 125 tiny realizations"):
        started = time.perf_counter()
        params = CsaParams.make(3, 1, 1, 1)
        combos = 0
        for w in iter_messages(params):
            for z in iter_storage_noise(params):
                shares = encode_storage(w, z, params)
                for zp in iter_query_noise(params):
                    queries = gen_queries(1, zp, params)
                    answers = [answer(s, q) for s, q in zip(shares, queries)]
                    assert decode(answers, params) == w.message(1)
                    combos += 1
        assert combos == 125
        assert time.perf_counter() - started < 1.0


def test_03_aligned_scheme_randomized_trials_and_rates():
    cases = [
        (5, 3, 1, 1, Fraction(3, 5)),
        (4, 2, 2, 1, Fraction(1, 4)),
        (5, 2, 1, 2, Fraction(2, 5)),
        (7, 2, 2, 2, Fraction(3, 7)),
    ]
    with criterion(3, "1000 seeded retrievals per regime, exact rates"):
        started = time.perf_counter()
        for n, k, x, t, expected_rate in cases:
            params = CsaParams.make(n, k, x, t)
            full_rate_seen = 0
            for i in range(1000):
                rng = Random(i)
                w = MessageSet.random(k, params.L, params.field, rng)
                theta = i % k + 1
                run = run_retrieval(params, w, theta, seed=i, rng=rng)
                assert run.transcript.decoded == run.plaintext
                zero_queries = sum(
                    1 for a in run.transcript.answers if a.kind == KIND_ANSWER_EMPTY
                )
                if zero_queries == 0:
                    rate = Fraction(params.L, run.transcript.total_downloaded)
                    assert rate == expected_rate
                    full_rate_seen += 1
            # a server goes silent with probability p^-(K L); most trials
            # must still exercise the exact rate check
            full_prob = (1 - Fraction(1, params.p ** (k * params.L))) ** n
            assert full_rate_seen > 0.9 * float(full_prob) * 1000
        assert time.perf_counter() - started < 30.0


def test_04_decoding_matrix_invertible_over_all_point_subsets():
    with criterion(4, "every point subset decodes, p up to 13"):
        started = time.perf_counter()
        checked = 0
        for p in (5, 7, 11, 13):
            for length in range(1, p - 2):
                usable = range(p - length)
                for n in range(length + 2, len(usable) + 1):
                    for subset in combinations(usable, n):
                        params = CsaParams(
                            N=n, K=1, X=1, T=n - length - 1,
                            L=length, p=p, alphas=subset,
                        )
                        assert eliminate_mod(decoding_matrix(params), p) == n, (p, subset)
                        checked += 1
        assert checked == 5 + 48 + 1451 + 6610
        assert time.perf_counter() - started < 60.0


def test_05_exact_rate_identities():
    with criterion(5, "exhaustive empirical rates equal the closed forms"):
        assert empirical_rate(2, exhaustive=True) == Fraction(4, 9)
        assert empirical_rate(3, exhaustive=True) == Fraction(8, 21)
        assert empirical_rate(
            CsaParams.make(3, 1, 1, 1), exhaustive=True
        ) == Fraction(5, 12)
        assert empirical_rate(
            DownloadAllParams.make(2, 3, 1, 1), exhaustive=True
        ) == Fraction(1, 6)
        assert empirical_rate(
            SymXspirParams.make(1, 2), exhaustive=True
        ) == Fraction(1, 4)


def test_06_capacity_golden_values():
    with criterion(6, "closed-form capacity goldens"):
        assert c_pir(2, 2) == Fraction(2, 3)
        assert c_tpir(2, 2, 2) == Fraction(1, 2)
        for k in range(1, 21):
            assert xstpir_upper_bound(3, k, 1, 1) == c_n3(k)
        assert xstpir_asymptotic(5, 1, 1) == Fraction(3, 5)
        assert xstpir_asymptotic(4, 2, 1) == Fraction(1, 4)
        assert xstpir_asymptotic(5, 1, 2) == Fraction(2, 5)
        assert xstpir_asymptotic(7, 2, 2) == Fraction(3, 7)


def test_07_audit_suite():
    tiny = [
        CsaInstance(CsaParams.make(3, 1, 1, 1)),
        CsaInstance(CsaParams.make(3, 2, 1, 1)),
        CsaInstance(CsaParams.make(4, 1, 2, 1)),
        BinaryInstance(2),
        BinaryInstance(3),
        SymXspirInstance(SymXspirParams.make(1, 2)),
        DownloadAllInstance(DownloadAllParams.make(2, 1, 1, 1)),
        DownloadAllInstance(DownloadAllParams.make(2, 2, 1, 1)),
    ]
    with criterion(7, "distribution audits: clean passes and planted failures"):
        started = time.perf_counter()
        for inst in tiny:
            for auditor in (audit_security, audit_privacy, audit_correctness):
                report = auditor(inst)
                assert report.exhaustive, report.render()
                assert report.passed, report.render()
                assert report.max_tv_distance == 0

        # symmetric security holds exactly where it is claimed to
        for inst in [
            BinaryInstance(2),
            BinaryInstance(3),
            SymXspirInstance(SymXspirParams.make(1, 2)),
            CsaInstance(CsaParams.make(3, 2, 1, 1)),  # T = 1
        ]:
            report = audit_sym_security(inst)
            assert report.passed and report.max_tv_distance == 0, report.render()

        # and fails at T = 2, exactly as documented
        leak = audit_sym_security(CsaInstance(CsaParams.make(4, 2, 1, 2, p=5)))
        assert not leak.passed
        assert leak.max_tv_distance > 0

        # negative controls: each planted defect is caught
        over_x = audit_security(CsaInstance(CsaParams.make(3, 1, 1, 1)), subset_size=2)
        assert not over_x.passed and over_x.max_tv_distance == 1

        over_t = audit_privacy(CsaInstance(CsaParams.make(3, 2, 1, 1)), subset_size=2)
        assert not over_t.passed and over_t.max_tv_distance > 0

        bad_b = audit_privacy(BinaryInstance(2, b=((1, 0), (0, 1))))
        assert not bad_b.passed and bad_b.max_tv_distance == 1

        f = PrimeField(5)
        dup = CsaParams._unvalidated(
            N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
        )
        broken = audit_correctness(CsaInstance(dup))
        assert not broken.passed
        assert "SingularMatrixError" in broken.detail
        assert time.perf_counter() - started < 300.0


def test_08_mds_comparison_ordering():
    with criterion(8, "best MDS rate <= squared root bound < 1 - 2/N, N to 100"):
        for n in range(3, 101):
            _, best = best_mds_pir_asym(n)
            assert rate_le_sqrt_bound(best, n), n
            assert sqrt_bound_lt_asymptotic(n), n
            # transitive consequence, checked directly in exact arithmetic
            assert best < xstpir_asymptotic(n, 1, 1)
            assert 0 <= best <= 1


def test_09_determinism_and_replay(tmp_path, capsys, monkeypatch):
    with criterion(9, "byte-identical transcripts per seed; replay re-decodes"):
        monkeypatch.chdir(tmp_path)
        argv = ["retrieve", "--scheme", "csa", "-N", "5", "-K", "2", "-X", "1",
                "-T", "1", "--seed", "21"]
        assert cli.main([*argv, "--out", "first.txt"]) == 0
        assert cli.main([*argv, "--out", "second.txt"]) == 0
        capsys.readouterr()
        first = (tmp_path / "first.txt").read_bytes()
        assert first == (tmp_path / "second.txt").read_bytes()

        text = first.decode()
        transcript, redecoded = replay(text)
        assert redecoded == transcript.decoded

        # the library path is just as deterministic as the CLI path
        params = CsaParams.make(5, 2, 1, 1)
        rng = Random(21)
        w = MessageSet.random(2, 3, params.field, rng)
        run = run_retrieval(params, w, 1, seed=21, rng=rng)
        assert run.transcript.render() == text
