"""Distribution audits: the tiny instances must come out exactly clean, and
planted defects must be caught."""

import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb
from random import Random

import pytest

from xstpir import affine
from xstpir import audit as audit_mod
from xstpir.audit import (
    CORRECTNESS,
    DEFAULT_CAP,
    ENUMERATION,
    FULL_DIGITS,
    IDENTITY,
    RANK_TESTS,
    SYM_SECURITY,
    T_PRIVACY,
    X_SECURITY,
    AuditReport,
    BinaryInstance,
    CsaInstance,
    DownloadAllInstance,
    OverCap,
    SymXspirInstance,
    audit_correctness,
    audit_privacy,
    audit_security,
    audit_sym_security,
    estimate_work,
    exact_engine,
)
from xstpir.csa import CsaParams, MessageSet, QueryNoise
from xstpir.field import PrimeField
from xstpir.special import DownloadAllParams, SymXspirParams

ZERO = Fraction(0)
ONE = Fraction(1)


def _csa(n, k, x, t, p=None):
    return CsaInstance(CsaParams.make(n, k, x, t, p))


def _dl(n, k, x, t):
    return DownloadAllInstance(DownloadAllParams.make(n, k, x, t))


def _symx(x, k, p=None):
    return SymXspirInstance(SymXspirParams.make(x, k, p))


def _broken_csa():
    """csa (3,1,1,1) with two equal alphas: its decoder matrix is singular."""
    f = PrimeField(5)
    return CsaInstance(CsaParams._unvalidated(N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))))


def _enumerated(inst):
    """inst, audited by enumeration: a test-side subclass of its class that
    declares neither its storage side (`linear`) nor its queries
    (`linear_queries`) affine. The oracle the rank tests and the identity
    test must agree with; it has no sampled mode, so past the cap its
    audits refuse with OverCap whatever `fallback` says."""
    cls = type(inst)
    declared = {"linear": False, "linear_queries": False}
    inst.__class__ = type(f"Enumerated{cls.__name__}", (cls,), declared)
    return inst


PROPERTY = {
    audit_security: X_SECURITY,
    audit_privacy: T_PRIVACY,
    audit_sym_security: SYM_SECURITY,
    audit_correctness: CORRECTNESS,
}


# ---------------------------------------------------------------------------
# clean instances: every distance is exactly zero
# ---------------------------------------------------------------------------


def test_security_exact_zero_on_clean_instances():
    for inst in [
        _csa(3, 1, 1, 1),
        _csa(3, 2, 1, 1),
        _csa(4, 1, 2, 1),
        _dl(2, 1, 1, 1),
        _dl(2, 2, 1, 1),
        BinaryInstance(2),
        BinaryInstance(3),
        _symx(1, 2),
    ]:
        report = audit_security(inst)
        assert report.passed, report.render()
        assert report.max_tv_distance == ZERO
        assert report.exhaustive


def test_privacy_exact_zero_on_clean_instances():
    for inst in [
        _csa(3, 1, 1, 1),
        _csa(3, 2, 1, 1),
        _csa(4, 1, 2, 1),
        _dl(2, 1, 1, 1),
        _dl(2, 2, 1, 1),
        BinaryInstance(2),
        BinaryInstance(3),
        _symx(1, 2),
    ]:
        report = audit_privacy(inst)
        assert report.passed, report.render()
        assert report.max_tv_distance == ZERO
        assert report.exhaustive


def test_correctness_zero_failures_on_clean_instances():
    for inst in [
        _csa(3, 1, 1, 1),
        _csa(3, 2, 1, 1),
        _dl(2, 2, 1, 1),
        BinaryInstance(2),
        BinaryInstance(3),
        _symx(1, 2),
    ]:
        report = audit_correctness(inst)
        assert report.passed, report.render()
        assert report.max_tv_distance == ZERO  # failure fraction


def test_sym_security_holds_where_designed_to():
    # the bit scheme, the N = X + 1 scheme, and the aligned scheme at T = 1
    # leak nothing beyond the requested message
    for inst in [
        BinaryInstance(2),
        BinaryInstance(3),
        _symx(1, 2),
        _csa(3, 2, 1, 1),
        _dl(2, 1, 1, 1),  # K = 1: there is nothing else to leak
    ]:
        report = audit_sym_security(inst)
        assert report.passed, report.render()
        assert report.max_tv_distance == ZERO


# ---------------------------------------------------------------------------
# enumeration sizes: nothing silently skipped
# ---------------------------------------------------------------------------


def test_enumerated_counts_match_state_space_products():
    inst = _csa(3, 2, 1, 1)  # p = 5, L = 1, K = 2
    assert audit_security(inst).enumerated == 5**2 * 5**2
    assert audit_privacy(inst).enumerated == 2 * 5**2 * 5**2 * 5**2
    assert audit_correctness(inst).enumerated == 2 * 5**2 * 5**2 * 5**2

    b = BinaryInstance(2)
    assert audit_security(b).enumerated == 4 * 4
    assert audit_privacy(b).enumerated == 2 * 4 * 4 * 4

    s = _symx(1, 2)  # p = 2: 4 messages, 16 noise grids, 2 columns
    assert audit_security(s).enumerated == 4 * 16
    assert audit_privacy(s).enumerated == 2 * 4 * 16 * 2
    assert audit_sym_security(s).enumerated == 2 * 4 * 16 * 2

    d = _dl(2, 2, 1, 1)  # p = 3, no query randomness
    assert audit_security(d).enumerated == 9 * 9
    assert audit_privacy(d).enumerated == 2 * 9 * 9


# audit, prop, instance, kwargs, engine, work. The rank tests count the
# probe (calls x payload symbols it reads) plus, per subset, the elimination
# bound rows * cols * min(rows, A's cols) of each split component B touches.
BOUNDARY_CASES = {
    # csa (3,2,1,1): dim 4 (2 message, 2 noise symbols), 6 share symbols;
    # per subset two components, 1 row x (1 noise + 1 message column)
    "security-rank": (
        audit_security, X_SECURITY, lambda: _csa(3, 2, 1, 1), {}, RANK_TESTS,
        6 * 6 + 3 * 2 * (1 * 2 * 1),
    ),
    # csa (4,1,2,1): dim 3, 4 share symbols; one component, 3 rows x (2 + 1)
    "security-rank-pairs": (
        audit_security, X_SECURITY, lambda: _csa(4, 1, 2, 1), {"subset_size": 3},
        RANK_TESTS, 5 * 4 + 4 * (3 * 3 * 2),
    ),
    # binary_n3 K = 2: the first theta's probe (2 + 2 calls) and 2 calls
    # for the other, x 6 query symbols; every query symbol in one
    # component, 2 rows a server x (2 + 1 theta difference)
    "privacy-rank": (
        audit_privacy, T_PRIVACY, lambda: BinaryInstance(2), {}, RANK_TESTS,
        (4 + 2) * 6 + 3 * (2 * 3 * 2),
    ),
    # csa (3,2,1,1): (4 + 2) calls x 6 query symbols; two components,
    # 2 rows x (1 + 1)
    "privacy-rank-pairs": (
        audit_privacy, T_PRIVACY, lambda: _csa(3, 2, 1, 1), {"subset_size": 2},
        RANK_TESTS, (4 + 2) * 6 + 3 * 2 * (2 * 2 * 1),
    ),
    # csa (3,2,1,1), p = 5, its queries declared: the storage probe (6 x 6);
    # the query map as privacy reads it, (2 + 2 * 2) calls x 6 query
    # symbols; per theta its 3 one-symbol answers at the check point; then
    # for 2 thetas x 25 query realizations, the 3 x 4 matrix assembled from
    # the maps and a 3 x 4 elimination with 2 pivots
    "symsec-rank": (
        audit_sym_security, SYM_SECURITY, lambda: _csa(3, 2, 1, 1), {}, RANK_TESTS,
        6 * 6 + (2 + 2 * 2) * 6 + 2 * 3 + 2 * 25 * (3 * 4 + 3 * 4 * 2),
    ),
    # sym_xspir (1,2), p = 2: dim 6 (2 message, 4 noise symbols), 8 share
    # symbols. Per subset four components, one per noise symbol z_km, each
    # 1 row x (z_km + w_k): the noise server holds z_km, the masked server
    # w_k + z_km.
    "security-rank-symx": (
        audit_security, X_SECURITY, lambda: _symx(1, 2), {}, RANK_TESTS, 8 * 8 + 2 * 4 * (1 * 2 * 1),
    ),
    # the storage probe, then for 2 thetas x 2 queries: 4 query symbols, 2
    # answers of 2 symbols at the check point, and a 4 x 6 elimination with
    # 4 pivots
    "symsec-rank-symx": (
        audit_sym_security, SYM_SECURITY, lambda: _symx(1, 2), {}, RANK_TESTS,
        8 * 8 + 2 * 2 * (4 + 4 + 4 * 6 * 4),
    ),
    # sym_xspir (p = 2): 4 messages, 16 noise grids, 2 columns, 2 thetas
    "security-enumeration": (
        audit_security, X_SECURITY, lambda: _enumerated(_symx(1, 2)), {}, ENUMERATION, 4 * 16,
    ),
    "privacy-enumeration": (audit_privacy, T_PRIVACY, lambda: _symx(1, 2), {}, ENUMERATION, 2 * 2),
    "symsec-enumeration": (
        audit_sym_security, SYM_SECURITY, lambda: _enumerated(_symx(1, 2)), {}, ENUMERATION,
        2 * 4 * 16 * 2,
    ),
    "correctness-enumeration": (
        audit_correctness, CORRECTNESS, lambda: _enumerated(_csa(3, 1, 1, 1)), {}, ENUMERATION,
        5 * 5 * 5,
    ),
    # csa (3,1,1,1): dim_u 2, 3 share symbols, so 4 storage points x 3;
    # the query map (1 + 2 calls for 1 theta) x 3 query symbols; the answer
    # rows at the zero query and 1 unit query, one symbol each; for the
    # theta, 3 one-symbol answers at the check point and decodes of L = 1
    # symbol at 3 + 2 answer points and at the real answers
    "correctness-identity": (
        audit_correctness, CORRECTNESS, lambda: _csa(3, 1, 1, 1), {}, IDENTITY,
        4 * 3 + 3 * 3 + 2 * 1 + 1 * (3 + (3 + 3) * 1),
    ),
    # sym_xspir (1,2), p = 2, its queries not declared: the storage probe
    # (8 points x 8 share symbols); per (theta, qr), 2 x 2 = 4 query symbols,
    # 2 answers of 2 symbols at the check point and one decode of L = 1;
    # per theta, decodes at the 4 + 2 answer points
    "correctness-identity-symx": (
        audit_correctness, CORRECTNESS, lambda: _symx(1, 2), {}, IDENTITY,
        8 * 8 + 2 * (2 * (4 + 4 + 1) + (4 + 2) * 1),
    ),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_estimate_work_is_the_cap_boundary(case):
    # the cap is compared with the work of the engine that runs: at the
    # estimate the exact engine runs; one below it the sampled one, or for
    # enumeration, which has no sampled mode, a refusal
    auditor, prop, make, kwargs, engine, closed_form = BOUNDARY_CASES[case]
    inst = make()
    assert exact_engine(inst, prop) == engine
    work = estimate_work(inst, prop, kwargs.get("subset_size"))
    if closed_form is not None:
        assert work == closed_form
    exact = auditor(inst, cap=work, samples=40, seed=1, **kwargs)
    assert exact.exhaustive and exact.samples is None
    if engine == ENUMERATION:
        with pytest.raises(OverCap, match=f"by enumeration would take {work} realizations"):
            auditor(make(), cap=work - 1, samples=40, seed=1, **kwargs)
        return
    sampled = auditor(make(), cap=work - 1, samples=40, seed=1, **kwargs)
    assert not sampled.exhaustive and sampled.samples == 40


def test_default_subset_sizes_follow_the_instance():
    inst = _csa(4, 1, 2, 1)
    sec = audit_security(inst)
    assert sec.subset_size == 2  # X
    assert sec.subsets_checked == 6  # C(4, 2)
    priv = audit_privacy(inst)
    assert priv.subset_size == 1  # T
    assert priv.subsets_checked == 4


def test_subset_sizes_outside_1_to_n_are_rejected():
    # an empty subset list would pass vacuously with subsets_checked 0
    inst = _csa(3, 1, 1, 1)
    for auditor in (audit_security, audit_privacy):
        for size in (0, 4):
            with pytest.raises(ValueError, match="subset size must be in 1..3"):
                auditor(inst, subset_size=size)
            with pytest.raises(ValueError, match="subset size"):
                auditor(inst, subset_size=size, cap=0, samples=10)
    assert audit_security(inst, subset_size=3).subsets_checked == 1


# ---------------------------------------------------------------------------
# planted defects
# ---------------------------------------------------------------------------


def test_security_fails_beyond_designed_collusion():
    report = audit_security(_csa(3, 1, 1, 1), subset_size=2)
    assert not report.passed
    assert report.max_tv_distance == ONE  # shares determine the message


def test_privacy_fails_beyond_designed_collusion():
    report = audit_privacy(_csa(3, 2, 1, 1), subset_size=2)
    assert not report.passed
    assert report.max_tv_distance > ZERO


def test_privacy_fails_with_identity_mixing_matrix():
    # B = I makes the third query (I + B) Z' + B e_theta = e_theta in clear
    report = audit_privacy(BinaryInstance(2, b=((1, 0), (0, 1))))
    assert not report.passed
    assert report.max_tv_distance == ONE


def test_correctness_surfaces_decode_errors():
    report = audit_correctness(_broken_csa())
    assert not report.passed
    assert report.max_tv_distance == ONE
    assert "SingularMatrixError" in report.detail


def test_sym_security_fails_for_download_everything_with_two_messages():
    # downloading all N*K symbols necessarily reveals the other message; the
    # audit quantifies that as a maximal distance
    report = audit_sym_security(_dl(2, 2, 1, 1))
    assert not report.passed
    assert report.max_tv_distance == ONE


def test_sym_security_fails_for_aligned_scheme_at_t_2():
    # with T = 2 the query noise space is too big for the answers to stay
    # independent of the undesired message
    report = audit_sym_security(_csa(4, 2, 1, 2, p=5))
    assert not report.passed
    assert report.max_tv_distance > ZERO
    assert report.enumerated == 2 * 5**2 * 5**2 * 5**4


# ---------------------------------------------------------------------------
# sampled fallback
# ---------------------------------------------------------------------------


def test_sampled_mode_engages_when_capped():
    # a linear scheme: rank tests on drawn subsets, here all three
    report = audit_security(BinaryInstance(2), cap=0, samples=6000, seed=1)
    assert not report.exhaustive
    assert report.samples == 6000
    assert report.passed
    assert report.max_tv_distance == ZERO
    assert report.detail == "sampled: rank tests on 3 of 3 subsets"
    # sym_xspir passes the same way; by enumeration there is no sampled
    # mode, and past the cap the audit is refused
    report = audit_security(_symx(1, 2), cap=0, samples=6000, seed=1)
    assert not report.exhaustive and report.samples == 6000
    assert report.passed and report.max_tv_distance == ZERO
    assert report.detail == "sampled: rank tests on 2 of 2 subsets"
    with pytest.raises(OverCap, match="by enumeration"):
        audit_security(_enumerated(_symx(1, 2)), cap=0, samples=6000, seed=1)
    # sym-security draws distinct (theta, query realization) pairs: samples
    # past their number test each pair once
    for inst, samples, pairs in ((_csa(3, 2, 1, 1), 200, 50), (_symx(1, 3), 100, 9)):
        report = audit_sym_security(inst, cap=0, samples=samples, seed=3)
        assert not report.exhaustive and report.passed and report.samples == samples
        assert report.detail == f"sampled: rank tests on {pairs} of {pairs} (theta, query realization) pairs"


def test_sampled_mode_still_catches_gross_leaks():
    # by rank tests; when not declared linear the enumeration catches it
    # within the cap and refuses past it
    identity = ((1, 0), (0, 1))
    report = audit_privacy(BinaryInstance(2, b=identity), cap=0, samples=400, seed=1)
    assert not report.exhaustive
    assert not report.passed
    assert not audit_privacy(_enumerated(BinaryInstance(2, b=identity))).passed
    with pytest.raises(OverCap, match="by enumeration"):
        audit_privacy(_enumerated(BinaryInstance(2, b=identity)), cap=0, samples=400, seed=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_sym_security_compares_differing_undesired_messages(seed):
    # download_all at K = 2 hands the user the other message, so a sampled
    # pair of message sets that differ there is at distance 1; a pair that
    # shared it (a message set compared with itself) would pass. At K = 1
    # there is no other message to leak. By the rank tests on a draw; when
    # not declared linear, by the enumeration within the cap (the same
    # verdicts), and refused past it.
    leak = audit_sym_security(_dl(2, 2, 1, 1), cap=0, samples=2000, seed=seed)
    assert not leak.exhaustive and leak.samples == 2000
    assert leak.max_tv_distance == ONE and not leak.passed
    alone = audit_sym_security(_dl(2, 1, 1, 1), cap=0, samples=2000, seed=seed)
    assert not alone.exhaustive and alone.passed
    for k, passed in ((2, False), (1, True)):
        assert audit_sym_security(_enumerated(_dl(2, k, 1, 1)), seed=seed).passed == passed
        with pytest.raises(OverCap, match="by enumeration"):
            audit_sym_security(_enumerated(_dl(2, k, 1, 1)), cap=0, samples=2000, seed=seed)


def test_sampled_mode_is_seed_deterministic():
    a = audit_privacy(_csa(3, 1, 1, 1), cap=0, samples=300, seed=7)
    b = audit_privacy(_csa(3, 1, 1, 1), cap=0, samples=300, seed=7)
    assert a == b
    c = audit_privacy(_csa(3, 1, 1, 1), cap=0, samples=300, seed=8)
    assert c.samples == 300  # different seed still runs the same protocol


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_report_render_format():
    report = audit_security(BinaryInstance(2))
    text = report.render()
    assert text.splitlines()[0] == "property X_SECURITY"
    assert "instance binary_n3 N=3 K=2 X=1 T=1 p=2" in text
    assert "exhaustive true" in text
    assert "max_tv 0" in text
    assert text.endswith("pass true\n")


def test_report_is_a_plain_value():
    r1 = audit_security(BinaryInstance(2))
    r2 = audit_security(BinaryInstance(2))
    assert r1 == r2
    assert isinstance(r1, AuditReport)


# ---------------------------------------------------------------------------
# the exhaustive audits do only the work their result depends on
# ---------------------------------------------------------------------------


def _joint_privacy_reference(inst, size):
    """The joint (query view, share view) enumeration over every (theta, qr,
    m, z), with the max pairwise TV over thetas per subset: the table the
    privacy audit's query-only table factors."""
    subsets = list(combinations(range(inst.N), size))
    thetas = list(inst.thetas)
    share_keys = [
        inst.share_payloads(inst.storage(m, z))
        for m in inst.messages
        for z in inst.storage_noises
    ]
    tables = {s: [Counter() for _ in thetas] for s in subsets}
    enumerated = 0
    for ti, theta in enumerate(thetas):
        for qr in inst.query_randomness:
            qkeys = inst.queries(theta, qr)
            for skeys in share_keys:
                enumerated += 1
                for s in subsets:
                    view = (tuple(qkeys[i] for i in s), tuple(skeys[i] for i in s))
                    tables[s][ti][view] += 1
    total = enumerated // len(thetas)
    max_tv = ZERO
    for counters in tables.values():
        for c1, c2 in combinations(counters, 2):
            diff = sum(abs(c1[k] - c2[k]) for k in set(c1) | set(c2))
            max_tv = max(max_tv, Fraction(diff, 2 * total))
    return max_tv, enumerated, len(subsets)


PRIVACY_CASES = {
    "csa-3111": (lambda: _csa(3, 1, 1, 1), None),
    "csa-3211": (lambda: _csa(3, 2, 1, 1), None),
    "csa-4121": (lambda: _csa(4, 1, 2, 1), None),
    "dl-2111": (lambda: _dl(2, 1, 1, 1), None),
    "dl-2211": (lambda: _dl(2, 2, 1, 1), None),
    "binary-k2": (lambda: BinaryInstance(2), None),
    "binary-k3": (lambda: BinaryInstance(3), None),
    "symx-x1k2": (lambda: _symx(1, 2), None),
    # planted failures
    "csa-3211-pairs": (lambda: _csa(3, 2, 1, 1), 2),
    "binary-identity": (lambda: BinaryInstance(2, b=((1, 0), (0, 1))), None),
}


@pytest.mark.parametrize("case", PRIVACY_CASES)
def test_privacy_matches_the_joint_enumeration(case):
    make, subset_size = PRIVACY_CASES[case]
    inst = make()
    report = audit_privacy(inst, subset_size=subset_size)
    assert (report.max_tv_distance, report.enumerated, report.subsets_checked) == (
        _joint_privacy_reference(inst, report.subset_size)
    )


def _count_calls(inst):
    """Wrap inst's storage, queries and answer methods; the Counter counts
    calls."""
    calls = Counter()
    for name in ("storage", "queries", "answer"):
        def counted(*args, _method=getattr(inst, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        setattr(inst, name, counted)
    return calls


WORK_CASES = {
    "csa-3211": lambda: _csa(3, 2, 1, 1),
    "csa-4121": lambda: _csa(4, 1, 2, 1),
    "dl-2211": lambda: _dl(2, 2, 1, 1),
    "binary-k2": lambda: BinaryInstance(2),
    "symx-x1k2": lambda: _symx(1, 2),
}


@pytest.mark.parametrize("case", WORK_CASES)
def test_exhaustive_privacy_builds_each_query_once_and_no_storage(case):
    inst = _enumerated(WORK_CASES[case]())
    calls = _count_calls(inst)
    assert audit_privacy(inst).exhaustive
    assert calls["queries"] == len(inst.thetas) * inst.query_randomness.size
    assert calls["storage"] == 0


@pytest.mark.parametrize("case", WORK_CASES)
def test_exhaustive_correctness_builds_each_storage_and_query_once(case):
    inst = _enumerated(WORK_CASES[case]())
    calls = _count_calls(inst)
    assert audit_correctness(inst).exhaustive
    assert calls["storage"] == inst.messages.size * inst.storage_noises.size
    assert calls["queries"] == len(inst.thetas) * inst.query_randomness.size


@pytest.mark.parametrize("case", WORK_CASES)
def test_the_identity_test_builds_each_storage_and_query_point_once(case):
    # zero, each unit vector and the check point of the storage
    inst = WORK_CASES[case]()
    calls = _count_calls(inst)
    assert exact_engine(inst, CORRECTNESS) == IDENTITY
    assert audit_correctness(inst).exhaustive
    assert calls["storage"] == inst.messages.count + inst.storage_noises.count + 2
    if inst.linear_queries:
        # the first theta's query map, then zero and the check point per theta
        assert calls["queries"] == inst.query_randomness.count + 2 * len(inst.thetas)
        # each server's answer at the check points, per theta
        assert calls["answer"] == inst.N * len(inst.thetas)
    else:  # sym_xspir: each (theta, qr) once, and its answers at the storage check point
        assert calls["queries"] == len(inst.thetas) * inst.query_randomness.size
        assert calls["answer"] == inst.N * calls["queries"]


def _per_realization_reference(inst):
    """Correctness as one storage, queries and decode per (theta, m, z, qr),
    in that order: the failure fraction and the first error's detail."""
    failures = enumerated = 0
    detail = ""
    for theta, m, z, qr in product(
        list(inst.thetas), list(inst.messages), list(inst.storage_noises),
        list(inst.query_randomness),
    ):
        enumerated += 1
        try:
            answers = tuple(map(inst.answer, inst.storage(m, z), inst.queries(theta, qr)))
            ok = inst.decode(theta, answers) == inst.plaintext(m, theta)
        except Exception as exc:
            ok = False
            if not detail:
                detail = f"decode raised {type(exc).__name__}: {exc}"
        failures += not ok
    return Fraction(failures, enumerated), detail


class _QueriesFailForTheta2(CsaInstance):
    def queries(self, theta, randomness):
        if theta == 2:
            raise RuntimeError("no queries for theta 2")
        return super().queries(theta, randomness)


class _StorageFailsForOneMessage(CsaInstance):
    def __init__(self, params, index):
        super().__init__(params)
        self.bad = list(self.messages)[index]

    def storage(self, messages, noise):
        if messages == self.bad:
            raise RuntimeError("no storage for this message")
        return super().storage(messages, noise)


class _BothFail(_StorageFailsForOneMessage):
    def queries(self, theta, randomness):
        if theta == 1:
            raise RuntimeError("no queries for theta 1")
        return super().queries(theta, randomness)


FAILURE_CASES = {
    # theta 2 is half of all realizations
    "queries": (
        lambda p: _QueriesFailForTheta2(p), Fraction(1, 2),
        "decode raised RuntimeError: no queries for theta 2",
    ),
    # one of the 25 messages, not the first enumerated
    "storage": (
        lambda p: _StorageFailsForOneMessage(p, 7), Fraction(1, 25),
        "decode raised RuntimeError: no storage for this message",
    ),
    # the first realization fails both ways: storage comes first
    "storage-before-queries": (
        lambda p: _BothFail(p, 0), Fraction(1, 2) + Fraction(1, 2 * 25),
        "decode raised RuntimeError: no storage for this message",
    ),
}


@pytest.mark.parametrize("case", FAILURE_CASES)
def test_correctness_failures_match_the_per_realization_loop(case):
    make, fraction, detail = FAILURE_CASES[case]
    inst = make(CsaParams.make(3, 2, 1, 1))  # p = 5, 25 messages, 2 thetas
    report = audit_correctness(inst)
    assert (report.max_tv_distance, report.detail) == _per_realization_reference(inst)
    assert (report.max_tv_distance, report.detail) == (fraction, detail)
    assert not report.passed
    assert report.enumerated == 2 * 5**2 * 5**2 * 5**2


# ---------------------------------------------------------------------------
# the rank tests against the enumeration
# ---------------------------------------------------------------------------

class _AnswersTheWholeGrid(SymXspirInstance):
    """Every server answers with its whole stored grid, so the user learns
    every message: a planted sym-security leak."""

    def answer(self, share, query):
        return tuple(chain.from_iterable(share))

    def answer_symbols(self, query):
        return self.K * self.K

    def answer_rows(self, query):
        return tuple(((i,), (1,)) for i in range(self.K * self.K))


class _CollapsedQueryNoise(CsaInstance):
    """csa whose query noise enters only through the sum of its values, the
    same way for every theta: affine but not injective, so realizations
    share payloads (at (3,2,1,1), 5 payloads a theta for 25 realizations)."""

    def queries(self, theta, randomness):
        values = list(chain.from_iterable(chain.from_iterable(randomness.z)))
        collapsed = [sum(values) % self.p] + [0] * (len(values) - 1)
        return super().queries(theta, self.query_randomness.build(collapsed))


# Every security, privacy and sym-security audit the rank tests decide in
# the tests, the goldens included: audit, instance, kwargs.
ORACLE_CASES = {
    "security-csa-3111": (audit_security, lambda: _csa(3, 1, 1, 1), {}),
    "security-csa-3211": (audit_security, lambda: _csa(3, 2, 1, 1), {}),
    "security-csa-4121": (audit_security, lambda: _csa(4, 1, 2, 1), {}),
    "security-dl-2111": (audit_security, lambda: _dl(2, 1, 1, 1), {}),
    "security-dl-2211": (audit_security, lambda: _dl(2, 2, 1, 1), {}),
    "security-binary-k2": (audit_security, lambda: BinaryInstance(2), {}),
    "security-binary-k3": (audit_security, lambda: BinaryInstance(3), {}),
    "security-csa-4121-triples": (audit_security, lambda: _csa(4, 1, 2, 1), {"subset_size": 3}),
    "privacy-csa-3111": (audit_privacy, lambda: _csa(3, 1, 1, 1), {}),
    "privacy-csa-3211": (audit_privacy, lambda: _csa(3, 2, 1, 1), {}),
    "privacy-csa-4121": (audit_privacy, lambda: _csa(4, 1, 2, 1), {}),
    "privacy-dl-2111": (audit_privacy, lambda: _dl(2, 1, 1, 1), {}),
    "privacy-dl-2211": (audit_privacy, lambda: _dl(2, 2, 1, 1), {}),
    "privacy-binary-k2": (audit_privacy, lambda: BinaryInstance(2), {}),
    "privacy-binary-k3": (audit_privacy, lambda: BinaryInstance(3), {}),
    "privacy-binary-k4": (audit_privacy, lambda: BinaryInstance(4), {}),
    "symsec-csa-3211": (audit_sym_security, lambda: _csa(3, 2, 1, 1), {}),
    "symsec-dl-2111": (audit_sym_security, lambda: _dl(2, 1, 1, 1), {}),
    "symsec-binary-k2": (audit_sym_security, lambda: BinaryInstance(2), {}),
    "symsec-binary-k3": (audit_sym_security, lambda: BinaryInstance(3), {}),
    "symsec-csa-3111": (audit_sym_security, lambda: _csa(3, 1, 1, 1), {}),
    "symsec-csa-4121": (audit_sym_security, lambda: _csa(4, 1, 2, 1), {}),
    "symsec-binary-k4": (audit_sym_security, lambda: BinaryInstance(4), {}),
    "symsec-binary-identity": (
        audit_sym_security, lambda: BinaryInstance(2, b=((1, 0), (0, 1))), {},
    ),
    # planted failures: over_x, over_t, bad_b, download-everything with two
    # messages, and the aligned scheme at T = 2
    "over-x-csa-3111": (audit_security, lambda: _csa(3, 1, 1, 1), {"subset_size": 2}),
    "over-x-csa-3211": (audit_security, lambda: _csa(3, 2, 1, 1), {"subset_size": 2}),
    "over-t-csa-3211": (audit_privacy, lambda: _csa(3, 2, 1, 1), {"subset_size": 2}),
    "bad-b-binary-k2": (audit_privacy, lambda: BinaryInstance(2, b=((1, 0), (0, 1))), {}),
    "symsec-dl-2211": (audit_sym_security, lambda: _dl(2, 2, 1, 1), {}),
    "symsec-csa-4212": (audit_sym_security, lambda: _csa(4, 2, 1, 2, p=5), {}),
    # sym_xspir declares its storage side linear, not its queries
    "security-symx-x1k2": (audit_security, lambda: _symx(1, 2), {}),
    "security-symx-x1k2p3": (audit_security, lambda: _symx(1, 2, 3), {}),
    "security-symx-x2k2": (audit_security, lambda: _symx(2, 2), {}),
    "symsec-symx-x1k2": (audit_sym_security, lambda: _symx(1, 2), {}),
    "symsec-symx-x1k2p3": (audit_sym_security, lambda: _symx(1, 2, 3), {}),
    "symsec-symx-x2k2": (audit_sym_security, lambda: _symx(2, 2), {}),
    # planted failures: all N servers, and answers that hand over the grid
    "over-x-symx-x1k2": (audit_security, lambda: _symx(1, 2), {"subset_size": 2}),
    "over-x-symx-x1k2p3": (audit_security, lambda: _symx(1, 2, 3), {"subset_size": 2}),
    "over-x-symx-x2k2": (audit_security, lambda: _symx(2, 2), {"subset_size": 3}),
    "symsec-symx-whole-grid": (
        audit_sym_security, lambda: _AnswersTheWholeGrid(SymXspirParams.make(1, 2)), {},
    ),
    # subsets_checked counts distinct payloads: p^rank of the query map's
    # randomness part per theta, 2 * 5 * 5 here
    "symsec-csa-3211-collapsed": (
        audit_sym_security, lambda: _CollapsedQueryNoise(CsaParams.make(3, 2, 1, 1)), {},
    ),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_rank_tests_match_the_enumeration(case):
    auditor, make, kwargs = ORACLE_CASES[case]
    inst = make()
    assert exact_engine(inst, PROPERTY[auditor]) == RANK_TESTS
    report = auditor(inst, **kwargs)
    assert report == auditor(_enumerated(make()), **kwargs)  # field by field
    assert report.exhaustive and report.max_tv_distance in (ZERO, ONE)


@pytest.mark.parametrize("case", [c for c in ORACLE_CASES if "symx" in c])
def test_sym_xspir_rank_tests_pass_it_and_catch_the_planted_leaks(case):
    auditor, make, kwargs = ORACLE_CASES[case]
    report = auditor(make(), **kwargs)
    planted = case.startswith("over-x") or case.endswith("whole-grid")
    assert (report.passed, report.max_tv_distance) == ((False, ONE) if planted else (True, ZERO))


def test_sym_xspir_privacy_stays_on_the_enumeration():
    # its queries are column indices, not affine in the query randomness;
    # at K = p = 2 the probe's one-point check could pass by chance.
    # Correctness needs only the storage side: the identity test runs on
    # each (theta, query realization)
    for inst in (_symx(1, 2), _symx(2, 3, 5)):
        assert exact_engine(inst, T_PRIVACY) == ENUMERATION
        assert exact_engine(inst, CORRECTNESS) == IDENTITY
        assert exact_engine(inst, X_SECURITY) == exact_engine(inst, SYM_SECURITY) == RANK_TESTS


class _SquaresMessages(CsaInstance):
    """Declared linear, but stores the square of every message symbol."""

    def storage(self, messages, noise):
        rows = [[v**2 for v in row] for row in messages.symbols]
        return super().storage(MessageSet.from_ints(rows, self.params.field), noise)


class _SquaresQueryNoise(CsaInstance):
    def queries(self, theta, randomness):
        z = tuple(tuple(tuple(v * v % self.p for v in k) for k in t) for t in randomness.z)
        return super().queries(theta, QueryNoise(z))


class _NoiseDependsOnTheta(CsaInstance):
    """Affine for each theta, but theta 2 scales the query noise by 2."""

    def queries(self, theta, randomness):
        scale = 2 if theta == 2 else 1
        z = tuple(tuple(tuple(v * scale % self.p for v in k) for k in t) for t in randomness.z)
        return super().queries(theta, QueryNoise(z))


class _NoiseReversedForTheta2(CsaInstance):
    """Affine for each theta, but theta 2 takes the query noise values in
    reverse order: its queries move with the randomness unlike theta 1's."""

    def queries(self, theta, randomness):
        if theta == 2:
            space = self.query_randomness
            randomness = space.build(list(chain.from_iterable(chain.from_iterable(randomness.z)))[::-1])
        return super().queries(theta, randomness)


def _wrong_modulus():
    inst = BinaryInstance(2)
    inst.p = 3  # its Spaces stay mod 2
    return inst


NOT_LINEAR_CASES = {
    "storage": (
        lambda: _SquaresMessages(CsaParams.make(3, 2, 1, 1)),
        (audit_security, audit_sym_security), "not affine",
    ),
    "queries": (
        lambda: _SquaresQueryNoise(CsaParams.make(3, 2, 1, 1)), (audit_privacy,), "not affine",
    ),
    "theta": (
        lambda: _NoiseDependsOnTheta(CsaParams.make(3, 2, 1, 1)),
        (audit_privacy, audit_sym_security), "differently",
    ),
    # sym-security reads the query map once: every theta but the first in
    # two calls, refused where the randomness enters them differently
    "theta-order": (
        lambda: _NoiseReversedForTheta2(CsaParams.make(3, 2, 1, 1)),
        (audit_sym_security, audit_privacy), "enters the queries for theta 2 differently",
    ),
    "modulus": (_wrong_modulus, (audit_security, audit_privacy), "not all mod 3"),
}


@pytest.mark.parametrize("case", NOT_LINEAR_CASES)
def test_a_scheme_declared_linear_that_is_not_raises(case):
    make, auditors, message = NOT_LINEAR_CASES[case]
    for auditor in auditors:
        for cap in (DEFAULT_CAP, 0):  # the exact engine, then the sampled one
            with pytest.raises(ValueError, match=message):
                auditor(make(), cap=cap, samples=50)


def test_the_identity_test_refuses_spaces_not_mod_p():
    # its points are values mod p, and its sampled mode runs the same
    # probes on drawn thetas, as the rank tests' sampled modes do
    for cap in (DEFAULT_CAP, 0):
        with pytest.raises(ValueError, match="not all mod 3"):
            audit_correctness(_wrong_modulus(), cap=cap, samples=50)


class _AsksForTheNextMessage(CsaInstance):
    """Declared linear, but its queries for theta ask for message
    theta mod K + 1."""

    def queries(self, theta, randomness):
        return super().queries(theta % self.K + 1, randomness)


class _DoublesServer1QueryNoise(CsaInstance):
    """Declared linear, but server 1's query noise counts twice, so the
    interference no longer aligns: wrong only where both the storage and the
    query noise are nonzero, in the uv-coefficients of g alone."""

    def queries(self, theta, randomness):
        first, *rest = super().queries(theta, randomness)
        qr = self.query_randomness
        clean = super().queries(theta, qr.build([0] * qr.count))[0]
        return (tuple((2 * a - b) % self.p for a, b in zip(first, clean)), *rest)


class _AsksForTheWrongThetaOnce(SymXspirInstance):
    """Queries for theta mod K + 1 when the private column m_o is 1: one of
    the K query realizations is wrong for every theta."""

    def queries(self, theta, randomness):
        return super().queries(theta % self.K + 1 if randomness == 1 else theta, randomness)


# Every correctness audit the identity test decides in the tests, the
# goldens included, and planted failures: instance, failure fraction.
CORRECTNESS_ORACLE_CASES = {
    "csa-3111": (lambda: _csa(3, 1, 1, 1), ZERO),
    "csa-3211": (lambda: _csa(3, 2, 1, 1), ZERO),
    "csa-4121": (lambda: _csa(4, 1, 2, 1), ZERO),
    "dl-2111": (lambda: _dl(2, 1, 1, 1), ZERO),
    "dl-2211": (lambda: _dl(2, 2, 1, 1), ZERO),
    "binary-k2": (lambda: BinaryInstance(2), ZERO),
    "binary-k3": (lambda: BinaryInstance(3), ZERO),
    "binary-k4": (lambda: BinaryInstance(4), ZERO),
    # decode raises SingularMatrixError on every realization
    "broken-csa": (_broken_csa, ONE),
    # storage or queries raise; "storage" only at the message part of the
    # storage check point
    **{
        f"raises-{case}": (lambda make=make: make(CsaParams.make(3, 2, 1, 1)), fraction)
        for case, (make, fraction, _) in FAILURE_CASES.items()
    },
    # squares agree with the values on the grid of 0 and unit vectors: only
    # the check point (1, 2, 3, 4) shows the failure
    "squares-messages": (lambda: _SquaresMessages(CsaParams.make(3, 2, 1, 1)), Fraction(3, 5)),
    # wrong wherever messages 1 and 2 differ
    "asks-for-the-next-message": (
        lambda: _AsksForTheNextMessage(CsaParams.make(3, 2, 1, 1)), Fraction(4, 5),
    ),
    "doubles-server-1-query-noise": (
        lambda: _DoublesServer1QueryNoise(CsaParams.make(3, 2, 1, 1)), Fraction(96, 125),
    ),
    # sym_xspir declares its storage side only: one test per (theta, qr)
    "symx-x1k2": (lambda: _symx(1, 2), ZERO),
    "symx-x1k2p3": (lambda: _symx(1, 2, 3), ZERO),
    "symx-x2k2": (lambda: _symx(2, 2), ZERO),
    "symx-x1k2p5": (lambda: _symx(1, 2, 5), ZERO),
    # half of the realizations ask for the other message, which decodes
    # wrong unless the noise read in its place is the same: 1/2 x 2/3
    "symx-wrong-theta-once": (
        lambda: _AsksForTheWrongThetaOnce(SymXspirParams.make(1, 2, 3)), Fraction(1, 3),
    ),
}


@pytest.mark.parametrize("case", CORRECTNESS_ORACLE_CASES)
def test_the_identity_test_matches_the_enumeration(case):
    make, fraction = CORRECTNESS_ORACLE_CASES[case]
    inst = make()
    assert exact_engine(inst, CORRECTNESS) == IDENTITY
    report = audit_correctness(inst)
    assert report == audit_correctness(_enumerated(make()))  # field by field
    assert report.exhaustive
    assert (report.max_tv_distance, report.passed) == (fraction, fraction == 0)


class _StorageFailsAtTheCheckPoint(CsaInstance):
    """Declared linear, but its storage raises for one message value: at
    csa (5,2,1,1) (p = 11), (1, 2, 3 / 4, 5, 6), the message part of the
    storage check point, which a drawn realization all but never hits."""

    def storage(self, messages, noise):
        if messages.symbols == ((1, 2, 3), (4, 5, 6)):
            raise RuntimeError("no storage for this message")
        return super().storage(messages, noise)


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 0], ids=["identity", "sampled"])
def test_a_failure_the_identity_test_proves_is_reported_past_the_enumeration(cap):
    # 1.1e19 realizations, past any enumeration: the identity test sees the
    # storage raise at its check point, and the report keeps that witness,
    # which drawn realizations would all but never hit
    inst = _StorageFailsAtTheCheckPoint(CsaParams.make(5, 2, 1, 1))
    report = audit_correctness(inst, cap=cap, samples=2000)
    assert (report.passed, report.exhaustive, report.max_tv_distance) == (False, False, ONE)
    assert report.samples == (2000 if cap == 0 else None)
    assert report.detail == ("identity test: theta 1, storage point check, query point zero: "
                             "decode raised RuntimeError: no storage for this message")
    if cap:  # the witness is a proof, so an audit without fallback reports it too
        assert audit_correctness(inst, cap=cap, fallback=False) == report


def test_sampled_correctness_runs_the_identity_test_on_drawn_thetas():
    report = audit_correctness(_csa(3, 2, 1, 1), cap=0, samples=1, seed=0)
    assert (report.passed, report.exhaustive, report.max_tv_distance) == (True, False, ZERO)
    assert report.detail == "sampled: identity test on 1 of 2 thetas"
    # decoding message 2 for theta 1: the u-coefficient of message 1 is off
    report = audit_correctness(_AsksForTheNextMessage(CsaParams.make(3, 2, 1, 1)), cap=0, samples=5)
    assert (report.passed, report.max_tv_distance, report.subsets_checked) == (False, ONE, 2)
    assert report.detail == ("identity test: theta 1, storage point unit 0, query point zero: "
                             "decode is not message theta")
    # a declaration its calls contradict, though the scheme decodes: refused
    with pytest.raises(ValueError, match="decodes at theta 2 where its declarations say"):
        audit_correctness(_NoiseDependsOnTheta(CsaParams.make(3, 2, 1, 1)), cap=0, samples=5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_correctness_runs_the_identity_test_on_drawn_realizations(seed):
    # sym_xspir declares no query map, so the draw is of (theta, query
    # realization) pairs, one-sided and seed-deterministic: the secure
    # instance passes on every seed, the planted wrong query fails
    report = audit_correctness(_symx(2, 4, 5), cap=0, samples=5, seed=seed)
    assert (report.passed, report.exhaustive, report.max_tv_distance) == (True, False, ZERO)
    assert report.detail == "sampled: identity test on 5 of 16 (theta, query realization) pairs"
    assert report == audit_correctness(_symx(2, 4, 5), cap=0, samples=5, seed=seed)
    planted = _AsksForTheWrongThetaOnce(SymXspirParams.make(2, 4, 5))
    report = audit_correctness(planted, cap=0, samples=16, seed=seed)
    assert (report.passed, report.exhaustive, report.max_tv_distance) == (False, False, ONE)
    assert report.detail.startswith("identity test: theta 1, storage point unit ")
    assert report.detail.endswith(", query realization (0,): decode is not message theta")


class _ShiftedAnswerRows(CsaInstance):
    """Declares each answer row one share symbol off: a false declaration."""

    def answer_rows(self, query):
        (js, aj), = super().answer_rows(query)
        return ((tuple((j + 1) % len(query) for j in js), aj),)


@pytest.mark.parametrize("auditor", [audit_sym_security, audit_correctness])
def test_answer_rows_that_are_not_the_answers_raise(auditor):
    # checked against `answer` at the check point, exact and sampled
    for cap in (DEFAULT_CAP, 0):
        with pytest.raises(ValueError, match="declares answer rows that are not server"):
            auditor(_ShiftedAnswerRows(CsaParams.make(3, 2, 1, 1)), cap=cap, samples=50)


# ---------------------------------------------------------------------------
# the split rank tests against one elimination and the enumeration
# ---------------------------------------------------------------------------

# Every linear instance the audit tests use, planted leaks included, but
# for csa (12,64,2,2), whose unsplit tests are 1,024 x 1,536 eliminations.
LINEAR_INSTANCES = {
    "csa-3111": lambda: _csa(3, 1, 1, 1),
    "csa-3211": lambda: _csa(3, 2, 1, 1),
    "csa-4121": lambda: _csa(4, 1, 2, 1),
    "csa-4212": lambda: _csa(4, 2, 1, 2, p=5),
    "csa-5211": lambda: _csa(5, 2, 1, 1),
    "dl-2111": lambda: _dl(2, 1, 1, 1),
    "dl-2211": lambda: _dl(2, 2, 1, 1),
    "binary-k2": lambda: BinaryInstance(2),
    "binary-k3": lambda: BinaryInstance(3),
    "binary-k4": lambda: BinaryInstance(4),
    "binary-identity": lambda: BinaryInstance(2, b=((1, 0), (0, 1))),
}


def _dense(row, columns):
    """A sparse row's coefficients in the order of `columns`."""
    coefficients = dict(zip(row[1], row[2]))
    return [coefficients.get(j, 0) for j in columns]


def _unsplit(inst, auditor, size):
    """max_tv by one elimination of each size-subset's whole [A | B]:
    [noise | messages] of the shares, or [query randomness | q(theta) -
    q(1) for each later theta] of the queries."""
    p, km, kz = inst.p, inst.messages.count, inst.storage_noises.count
    if auditor is audit_security:
        at = affine.storage_at(inst)
        view = affine.read((inst.share_payloads(at(u)) for u in affine.points(km + kz, p)), km + kz, p)
        columns, limit = [*range(km, km + kz), *range(km)], kz
    else:
        kq, thetas = inst.query_randomness.count, list(inst.thetas)
        build = inst.query_randomness.build
        first, *others = [
            affine.read((inst.queries(t, build(u)) for u in affine.points(kq, p)),
                        kq, p)
            for t in thetas
        ]
        view = [
            [
                (c, js + tuple(range(kq, kq + len(others))),
                 aj + tuple(other[n][i][0] - c for other in others))
                for i, (c, js, aj) in enumerate(rows)
            ]
            for n, rows in enumerate(first)
        ]
        columns, limit = list(range(kq + len(others))), kq
    return Fraction(int(any(
        affine.rank_grows([_dense(row, columns) for n in s for row in view[n]], limit, p)
        for s in combinations(range(inst.N), size)
    )))


@pytest.mark.parametrize("case", LINEAR_INSTANCES)
def test_split_rank_tests_match_one_elimination_and_the_enumeration(case):
    make = LINEAR_INSTANCES[case]
    for auditor, prop in ((audit_security, X_SECURITY), (audit_privacy, T_PRIVACY)):
        for size in range(1, make().N + 1):
            report = auditor(make(), subset_size=size)
            assert report.exhaustive
            assert report.max_tv_distance == _unsplit(make(), auditor, size)
            # the oracle, where it is quick (not at csa (5,2,1,1))
            if estimate_work(_enumerated(make()), prop, size) <= 10**5:
                assert report == auditor(_enumerated(make()), subset_size=size)  # field by field


def _split_against_one_elimination(view, na, nb, p, seen):
    tests = affine.split(view, range(na), range(na, na + nb))
    for size in range(1, len(view) + 1):
        for s in combinations(range(len(view)), size):
            rows = [_dense(row, range(na + nb)) for n in s for row in view[n] or ()]
            expected = affine.rank_grows(rows, na, p)
            assert affine.leaks(tests, s, p, seen) == expected, (view, s)


def test_split_keeps_a_component_whole_after_a_long_chain():
    # Rows over A columns (2,3), (1,2), (0,1) chain 3 -> 2 -> 1 -> 0; the
    # find on 3 for the row (3,4) must not cut 1 off from 0, or the rows
    # (0,1) and (0,) form a component without B, are dropped, and the
    # contradiction x3 = 1 against x0 = ... = x3 = 0 goes unseen.
    view = [[(0, js, (1,) * len(js)) for js in ((2, 3), (1, 2), (0, 1), (3, 4), (0,))]]
    assert affine.rank_grows([_dense(row, range(5)) for row in view[0]], 4, 2)
    _split_against_one_elimination(view, 4, 1, 2, {})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_split_matches_one_elimination_on_random_sparse_matrices(p):
    # Random [A | B | ignored] rows over up to four servers, every server
    # subset tested: the components' verdicts, cached across all of the
    # matrices, against one elimination of [A | B]. Up to 9 A columns and
    # 8 rows of at most 3 columns per server give long chains of unions.
    rng, seen = Random(p), {}
    for _ in range(400):
        na, nb = rng.randrange(10), rng.randrange(1, 4)
        view = []
        for _ in range(rng.randrange(1, 5)):
            server = []
            for _ in range(rng.randrange(9)):
                k = rng.randrange(1, min(4, na + nb + 2))
                js = tuple(sorted(rng.sample(range(na + nb + 1), k)))
                server.append((0, js, tuple(rng.randrange(1, p) for _ in js)))
            view.append(server if server or rng.random() < 0.5 else None)
        _split_against_one_elimination(view, na, nb, p, seen)


# ---------------------------------------------------------------------------
# sampled audits of a linear scheme: rank tests on a draw
# ---------------------------------------------------------------------------

SAMPLED_INSTANCES = {
    "csa-3211": lambda: _csa(3, 2, 1, 1),
    "csa-3111": lambda: _csa(3, 1, 1, 1),
    "csa-4121": lambda: _csa(4, 1, 2, 1),
    "csa-5211": lambda: _csa(5, 2, 1, 1),
    "binary-k2": lambda: BinaryInstance(2),
    "binary-k4": lambda: BinaryInstance(4),
    "binary-identity": lambda: BinaryInstance(2, b=((1, 0), (0, 1))),
    "dl-2211": lambda: _dl(2, 2, 1, 1),
}


@pytest.mark.parametrize("case", SAMPLED_INSTANCES)
def test_sampled_views_match_the_per_draw_scheme_calls(case):
    # A sampled rank test is one-sided: its FAIL is a proven leak, so the
    # exact report fails too (and that one equals the per-draw enumeration,
    # see test_rank_tests_match_the_enumeration); when the draws cover every
    # subset its verdict is the exact one.
    make = SAMPLED_INSTANCES[case]
    n = make().N
    runs = [(audit_sym_security, SYM_SECURITY, {})] + [
        (auditor, prop, {"subset_size": size})
        for auditor, prop in ((audit_security, X_SECURITY), (audit_privacy, T_PRIVACY))
        for size in range(1, n + 1)
    ]
    for auditor, prop, kwargs in runs:
        size, work = kwargs.get("subset_size"), estimate_work(make(), prop, kwargs.get("subset_size"))
        # csa (5,2,1,1) sym-security is past the exact cap; it is T = 1, so secure
        exact = auditor(make(), **kwargs) if work <= DEFAULT_CAP else None
        for seed, samples in product((0, 1, 2), (1, 60)):
            report = auditor(make(), cap=0, samples=samples, seed=seed, **kwargs)
            if work == 0:  # download_all's queries are empty: nothing to test
                assert report == exact
                continue
            assert not report.exhaustive and report.samples == samples
            assert report.max_tv_distance in (ZERO, ONE)
            assert report.passed == (report.max_tv_distance == ZERO)
            assert "sampled: rank tests on" in report.detail
            if exact is None:
                assert report.passed
            elif not report.passed:
                assert not exact.passed
            if size is not None and samples >= comb(n, size):
                assert report.subsets_checked <= comb(n, size)
                assert report.max_tv_distance == exact.max_tv_distance


@pytest.mark.parametrize("case", [*SAMPLED_INSTANCES, "csa-4212"])
def test_sym_security_from_the_maps_matches_the_real_queries(case):
    # Declared queries: each pair's matrix is assembled from the share and
    # query maps. Undeclared (a subclass), the same rank tests run on each
    # pair's real queries and answers. Every report must be the same, the
    # exact ones' subsets_checked (distinct payloads) included; csa
    # (4,2,1,2) leaks.
    make = SAMPLED_INSTANCES.get(case, lambda: _csa(4, 2, 1, 2, p=5))

    def real(inst):
        inst.__class__ = type(f"Real{type(inst).__name__}", (type(inst),), {"linear_queries": False})
        return inst

    runs = [{"cap": 0, "samples": samples, "seed": seed} for samples, seed in product((1, 7, 60), (0, 1, 2))]
    if max(estimate_work(make(), SYM_SECURITY), estimate_work(real(make()), SYM_SECURITY)) <= DEFAULT_CAP:
        runs.append({})
    for kwargs in runs:
        assert audit_sym_security(make(), **kwargs) == audit_sym_security(real(make()), **kwargs), kwargs


def test_sampled_audits_of_a_linear_scheme_call_it_once_per_probe_point():
    for samples in (10, 400):
        inst = _csa(3, 2, 1, 1)
        dim, kq = inst.messages.count + inst.storage_noises.count, inst.query_randomness.count
        calls = _count_calls(inst)
        audit_security(inst, subset_size=2, cap=0, samples=samples)
        assert calls == {"storage": dim + 2}  # the probe, the work count's zero point reused
        calls.clear()
        audit_privacy(inst, subset_size=2, cap=0, samples=samples)
        # the first theta's probe, then zero and the check point of the
        # last; no storage
        assert calls == {"queries": kq + 2 + 2}
        calls.clear()
        report = audit_sym_security(inst, cap=0, samples=samples)
        # the storage at every probe point (the work count's zero point
        # reused), the query map as privacy reads it, and each server's
        # answer at the check point once per theta: no call per drawn
        # (theta, query realization) pair, of which there are 10 or all 50
        assert calls == {"storage": dim + 2, "queries": kq + 2 * inst.K, "answer": inst.N * inst.K}
        assert report.subsets_checked == min(samples, len(inst.thetas) * inst.query_randomness.size)
    # past the cap, but with the query probe within it: the privacy tests
    # the work count probed for are the ones the draw runs, all K thetas
    inst = _csa(5, 2, 1, 1)
    calls = _count_calls(inst)
    report = audit_privacy(inst, subset_size=2, cap=300, samples=4)
    assert (report.exhaustive, report.passed) == (False, False)  # T = 1: two servers learn theta
    assert calls == {"queries": inst.query_randomness.count + 2 * inst.K}
    # the exact audit runs the split its work count probed for, and the
    # count itself leaves nothing on the scheme
    inst = _csa(3, 2, 1, 1)
    calls = _count_calls(inst)
    state = dict(vars(inst))
    assert estimate_work(inst, X_SECURITY) > 0 and vars(inst) == state
    calls.clear()
    assert audit_security(inst).exhaustive
    assert calls == {"storage": dim + 2}  # the zero point, then the rest of the probe


@pytest.mark.parametrize("auditor", PROPERTY)
@pytest.mark.parametrize("make", [lambda: _csa(3, 2, 1, 1), lambda: _symx(1, 2)],
                         ids=["csa-3211", "symx-x1k2"])
def test_samples_below_one_are_refused_before_any_work(auditor, make):
    # they raised UnboundLocalError or ZeroDivisionError, or passed vacuously
    inst = make()
    calls = _count_calls(inst)
    for cap, samples in product((0, DEFAULT_CAP), (0, -3)):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            auditor(inst, cap=cap, samples=samples)
    assert not calls


@pytest.mark.parametrize("auditor", PROPERTY)
def test_an_audit_without_fallback_refuses_past_the_cap(auditor):
    # it names the exact work in its engine's unit, and runs nothing more
    inst = _csa(3, 2, 1, 1)
    with pytest.raises(OverCap, match=r"would take \d+ \w+.*, over the cap of 0$"):
        auditor(inst, cap=0, fallback=False)
    assert auditor(inst, fallback=False).exhaustive


def test_counts_past_the_full_digits_print_as_a_power_of_ten():
    # a count is never converted to str whole: Python 3.11+ refuses past
    # 4,300 digits, and an audit's work or total can have far more
    assert audit_mod._figure(0) == "0"
    assert audit_mod._figure(10**FULL_DIGITS - 1) == "9" * FULL_DIGITS
    assert audit_mod._figure(10**FULL_DIGITS) == f"about 10^{FULL_DIGITS}"
    assert audit_mod._figure(3 * 10**40) == "about 10^40"
    assert audit_mod._figure(9 * 10**40) == "about 10^41"
    assert audit_mod._figure(11**100_000) == "about 10^104139"  # 104,140 digits
    # sampled sym-security of csa (5,16,1,1) draws from 16 * 11^48 pairs
    report = audit_sym_security(_csa(5, 16, 1, 1), samples=2)
    assert report.detail == "sampled: rank tests on 2 of about 10^51 (theta, query realization) pairs"
    # an exact report renders its enumerated count the same way
    report = audit_correctness(_csa(5, 16, 1, 1))
    assert report.enumerated == 16 * 11**48 * 11**48 * 11**48 and report.exhaustive
    assert "enumerated about 10^151\n" in report.render()


def test_the_sampled_probe_holds_only_the_nonzero_coefficients():
    # A dense table of the csa (12,64,2,2) share map would hold 1,538
    # evaluations x 6,144 symbols, about 75 MB; each share symbol has 3
    # nonzero coefficients (one message symbol, X = 2 noise symbols), and
    # each split component of a subset's test is 2 rows x 3 columns. The
    # probe and the 66 tests fit the default cap, so the audit is exact.
    inst = _csa(12, 64, 2, 2)
    tracemalloc.start()
    try:
        report = audit_security(inst, samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exhaustive and report.subsets_checked == 66
    assert report.max_tv_distance == ZERO and report.passed
    assert peak < 50_000_000


def test_sampled_sym_security_keeps_no_payload_past_its_test():
    # csa (5,32,1,1): each drawn pair's query payloads are 5 x 96 symbols.
    # Keeping them all until the audit ends grew the peak by about 3 MB
    # from 200 to 800 draws, and the drawn pairs as tuples of 96 ints by
    # 444 KB; held as 96 bytes each, the 600 more pairs take about 110 KB.
    inst, peaks = _csa(5, 32, 1, 1), {}
    audit_sym_security(inst, cap=0, samples=200, seed=1)  # fills the caches, to count in neither peak
    for samples in (200, 800):
        gc.collect()  # one before each peak, none within one alone (see the identity test's peaks)
        tracemalloc.start()
        try:
            report = audit_sym_security(inst, cap=0, samples=samples, seed=1)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.subsets_checked == samples
        assert report.detail == f"sampled: rank tests on {samples} of about 10^101 (theta, query realization) pairs"
    assert peaks[800] - peaks[200] < 150_000


def test_the_query_maps_hold_no_theta_past_the_first_and_the_last():
    # query_maps reads every theta, but keeps only the first and the last
    # theta's reads and reads any other again when it is asked for. Keeping
    # every theta's constant and queries made what it holds grow as K^2 at
    # csa (5,K,1,1): 0.9 times the first theta's map past it at K = 8 and
    # 4.3 times at K = 32. Now the thetas past the first add a fraction of
    # the first map, the same at every K, and each re-read is theta's own.
    for k in (8, 32):
        inst, held = _csa(5, k, 1, 1), {}
        thetas = list(inst.thetas)
        affine.query_maps(inst, thetas, [None] * 3)  # fills the caches, to count in neither
        for asked in ([1], thetas):
            tracemalloc.start()
            try:
                first, mapped = affine.query_maps(inst, asked, [None] * 3)
                held[len(asked)] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held[k] - held[1] < held[1] / 2, (k, held)
        qr = inst.query_randomness
        for theta in (1, 2, k // 2, k):
            constant, queries = mapped(theta)
            assert queries == inst.queries(theta, qr.build(affine.check(qr.count, inst.p)))
            at_zero = inst.queries(theta, qr.build([0] * qr.count))
            assert constant == list(chain.from_iterable(at_zero))


def test_the_identity_test_holds_no_theta_past_its_own_test():
    # exact correctness of csa (5,K,1,1): the identity test reads each
    # theta's declared queries again for its test instead of keeping every
    # theta's constant and queries until the tests run, so its peak grows
    # about as K does. Kept, it grew 2.9 times from K = 32 to K = 64.
    # A full collection empties the free lists, so the objects taken from
    # them are traced after it and not before: one that falls within one
    # K's audit only (as the tests run before this one decide) raised that
    # K's peak to 2.8 times the one before. Each peak starts after one.
    peaks = {}
    for k in (16, 32, 64):
        inst = _csa(5, k, 1, 1)
        audit_correctness(inst)  # fills the caches, to count in no peak
        gc.collect()
        tracemalloc.start()
        try:
            report = audit_correctness(inst)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.exhaustive and report.passed
    assert peaks[32] < 2.4 * peaks[16] and peaks[64] < 2.4 * peaks[32], peaks


@pytest.mark.parametrize("p", [5, 257, 65537])
def test_drawn_values_are_packed_in_the_order_of_their_tuples(p):
    # each drawn values list is held as bytes, one a value below 256 (read
    # as they are) and w big-endian ones past it (unpacked as the pairs are
    # read): the draw, its order and its values stay those of the tuples
    inst = _csa(3, 2, 1, 1, p=p)
    qr, thetas = inst.query_randomness, list(inst.thetas)
    tuples = audit_mod._draw(4, 30, 2 * p**2, lambda rng: (rng.choice(thetas), tuple(qr.draw(rng))))
    pairs, total = audit_mod._pairs(inst, False, 30, 4)
    assert total == 2 * p**2 and [(t, tuple(v)) for t, v in pairs] == tuples
