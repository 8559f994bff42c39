"""Distribution audits: the tiny instances must come out exactly clean, and
planted defects must be caught."""

from fractions import Fraction

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
