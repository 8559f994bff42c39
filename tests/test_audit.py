"""Distribution audits: the tiny instances must come out exactly clean, and
planted defects must be caught."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from xstpir.audit import (
    CORRECTNESS,
    SYM_SECURITY,
    T_PRIVACY,
    X_SECURITY,
    AuditReport,
    BinaryInstance,
    CsaInstance,
    DownloadAllInstance,
    SymXspirInstance,
    audit_correctness,
    audit_privacy,
    audit_security,
    audit_sym_security,
    estimate_work,
)
from xstpir.csa import CsaParams
from xstpir.field import BinMatrix, PrimeField
from xstpir.special import DownloadAllParams, SymXspirParams

ZERO = Fraction(0)
ONE = Fraction(1)


def _csa(n, k, x, t, p=None):
    return CsaInstance(CsaParams.make(n, k, x, t, p))


def _dl(n, k, x, t):
    return DownloadAllInstance(DownloadAllParams.make(n, k, x, t))


def _symx(x, k, p=None):
    return SymXspirInstance(SymXspirParams.make(x, k, p))


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


def test_estimate_work_matches_exhaustive_enumeration():
    for inst in [_csa(3, 2, 1, 1), BinaryInstance(2), _symx(1, 2), _dl(2, 2, 1, 1)]:
        assert audit_security(inst).enumerated == estimate_work(inst, X_SECURITY)
        assert audit_privacy(inst).enumerated == estimate_work(inst, T_PRIVACY)
        assert audit_sym_security(inst).enumerated == estimate_work(inst, SYM_SECURITY)
        assert audit_correctness(inst).enumerated == estimate_work(inst, CORRECTNESS)


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
    report = audit_privacy(BinaryInstance(2, b=BinMatrix.identity(2)))
    assert not report.passed
    assert report.max_tv_distance == ONE


def test_correctness_surfaces_decode_errors():
    f = PrimeField(5)
    params = CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    )
    report = audit_correctness(CsaInstance(params))
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
    report = audit_security(BinaryInstance(2), cap=0, samples=6000, seed=1)
    assert not report.exhaustive
    assert report.samples == 6000
    assert report.passed
    assert report.max_tv_distance <= Fraction(1, 20)
    assert "tolerance" in report.detail


def test_sampled_mode_still_catches_gross_leaks():
    report = audit_privacy(
        BinaryInstance(2, b=BinMatrix.identity(2)), cap=0, samples=400, seed=1
    )
    assert not report.exhaustive
    assert not report.passed


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
            qkeys = inst.query_payloads(inst.queries(theta, qr))
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
    "binary-identity": (lambda: BinaryInstance(2, b=BinMatrix.identity(2)), None),
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
    """Wrap inst's storage and queries methods; the Counter counts calls."""
    calls = Counter()
    for name in ("storage", "queries"):
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
    inst = WORK_CASES[case]()
    calls = _count_calls(inst)
    assert audit_privacy(inst).exhaustive
    assert calls["queries"] == len(inst.thetas) * inst.query_randomness.size
    assert calls["storage"] == 0


@pytest.mark.parametrize("case", WORK_CASES)
def test_exhaustive_correctness_builds_each_storage_and_query_once(case):
    inst = WORK_CASES[case]()
    calls = _count_calls(inst)
    assert audit_correctness(inst).exhaustive
    assert calls["storage"] == inst.messages.size * inst.storage_noises.size
    assert calls["queries"] == len(inst.thetas) * inst.query_randomness.size


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
