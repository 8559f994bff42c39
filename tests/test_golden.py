"""Byte-exact goldens: rendered transcripts and audit reports.

Each case below renders one transcript or one audit report; the test
compares it with the file of the same name under tests/golden/. The files
pin the RNG draw order (storage noise before query randomness), the wire
lines, and the enumerated, subsets_checked and detail fields of the audits.

To rewrite the files after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path
from random import Random

import pytest

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
from xstpir.csa import CsaParams, MessageSet
from xstpir.field import PrimeField
from xstpir.sim import replay, run_retrieval
from xstpir.special import DownloadAllParams, SymXspirParams

GOLDEN = Path(__file__).parent / "golden"


def _field_messages(params, rng):
    return MessageSet.random(params.K, params.L, params.field, rng)


def _transcript(params, make_messages, theta, seed):
    # The messages come from the same generator as the retrieval, as in
    # `xstpir retrieve`.
    rng = Random(seed)
    messages = make_messages(params, rng)
    return run_retrieval(params, messages, theta, seed, rng=rng).transcript.render()


def _bits(k, rng):
    return tuple(rng.randrange(2) for _ in range(k))


def _symbols(params, rng):
    return tuple(rng.randrange(params.p) for _ in range(params.K))


TRANSCRIPTS = {
    "csa-5211-seed0": (CsaParams.make(5, 2, 1, 1), _field_messages, 1, 0),
    "csa-5211-seed21": (CsaParams.make(5, 2, 1, 1), _field_messages, 2, 21),
    "csa-3111-seed0": (CsaParams.make(3, 1, 1, 1), _field_messages, 1, 0),
    # seed 3 silences a server: its transcript has an ANSWER_EMPTY line
    "csa-3111-seed3": (CsaParams.make(3, 1, 1, 1), _field_messages, 1, 3),
    "csa-5212-seed4": (CsaParams.make(5, 2, 1, 2), _field_messages, 2, 4),
    "download_all-3412-seed0": (DownloadAllParams.make(3, 4, 1, 2), _field_messages, 3, 0),
    "download_all-2211-seed5": (DownloadAllParams.make(2, 2, 1, 1), _field_messages, 1, 5),
    "binary_n3-k8-seed0": (8, _bits, 5, 0),
    "binary_n3-k3-seed9": (3, _bits, 2, 9),
    "sym_xspir-x2k4-seed0": (SymXspirParams.make(2, 4), _symbols, 3, 0),
    "sym_xspir-x1k3p5-seed2": (SymXspirParams.make(1, 3, p=5), _symbols, 1, 2),
}


def _csa(n, k, x, t, p=None):
    return CsaInstance(CsaParams.make(n, k, x, t, p))


def _broken_csa():
    f = PrimeField(5)
    return CsaInstance(CsaParams._unvalidated(
        N=3, K=1, X=1, T=1, L=1, p=5, alphas=(f(0), f(1), f(1))
    ))


AUDITS = {
    # the nine entries of the benchmark's audit suite (workload seed 1)
    "privacy-csa-3211": (audit_privacy, lambda: _csa(3, 2, 1, 1), {}),
    "security-csa-3211": (audit_security, lambda: _csa(3, 2, 1, 1), {}),
    "correctness-csa-4121": (audit_correctness, lambda: _csa(4, 1, 2, 1), {}),
    "symsec-csa-3211": (audit_sym_security, lambda: _csa(3, 2, 1, 1), {}),
    "privacy-binary-k4": (audit_privacy, lambda: BinaryInstance(4), {}),
    "symsec-symx-x2k2": (
        audit_sym_security, lambda: SymXspirInstance(SymXspirParams.make(2, 2)), {},
    ),
    "security-dl-2211": (
        audit_security, lambda: DownloadAllInstance(DownloadAllParams.make(2, 2, 1, 1)), {},
    ),
    "overt-privacy-csa-3211": (audit_privacy, lambda: _csa(3, 2, 1, 1), {"subset_size": 2}),
    "sampled-overt-security-csa-3211": (
        audit_security, lambda: _csa(3, 2, 1, 1),
        {"subset_size": 2, "cap": 0, "samples": 2000, "seed": 1},
    ),
    # the seeded sampled-mode cases of test_audit.py
    "sampled-security-binary-k2": (
        audit_security, lambda: BinaryInstance(2), {"cap": 0, "samples": 6000, "seed": 1},
    ),
    "sampled-privacy-binary-identity": (
        audit_privacy, lambda: BinaryInstance(2, b=((1, 0), (0, 1))),
        {"cap": 0, "samples": 400, "seed": 1},
    ),
    "sampled-privacy-csa-3111-seed7": (
        audit_privacy, lambda: _csa(3, 1, 1, 1), {"cap": 0, "samples": 300, "seed": 7},
    ),
    "sampled-privacy-csa-3111-seed8": (
        audit_privacy, lambda: _csa(3, 1, 1, 1), {"cap": 0, "samples": 300, "seed": 8},
    ),
    # the sampled paths of the other two audits, and decode errors in detail
    "sampled-symsec-csa-3211": (
        audit_sym_security, lambda: _csa(3, 2, 1, 1), {"cap": 0, "samples": 200, "seed": 3},
    ),
    "sampled-correctness-symx-x1k2": (
        audit_correctness, lambda: SymXspirInstance(SymXspirParams.make(1, 2, p=5)),
        {"cap": 0, "samples": 200, "seed": 3},
    ),
    "correctness-broken-csa": (audit_correctness, _broken_csa, {}),
    "correctness-dl-2211": (
        audit_correctness, lambda: DownloadAllInstance(DownloadAllParams.make(2, 2, 1, 1)), {},
    ),
    "symsec-binary-k3": (audit_sym_security, lambda: BinaryInstance(3), {}),
}


def render(kind: str, name: str) -> str:
    if kind == "transcripts":
        return _transcript(*TRANSCRIPTS[name])
    auditor, make, kwargs = AUDITS[name]
    return auditor(make(), **kwargs).render()


CASES = [("transcripts", n) for n in TRANSCRIPTS] + [("audits", n) for n in AUDITS]


@pytest.mark.parametrize("kind,name", CASES, ids=[f"{k}/{n}" for k, n in CASES])
def test_output_matches_golden(kind, name):
    assert render(kind, name) == (GOLDEN / kind / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_golden_transcripts_replay_to_their_decoded_line(name):
    # replay's query checks accept every golden run, ANSWER_EMPTY included
    transcript, redecoded = replay((GOLDEN / "transcripts" / f"{name}.txt").read_text())
    assert redecoded == transcript.decoded



def test_transcripts_render_alike_in_any_order_in_one_process():
    # every retrieval and replay of a params value shares one scheme: none
    # may leave state in it that changes the next one's bytes
    names = list(TRANSCRIPTS)
    for name in names + names[::-1]:
        text = render("transcripts", name)
        assert text == (GOLDEN / "transcripts" / f"{name}.txt").read_text()
        transcript, redecoded = replay(text)
        assert redecoded == transcript.decoded

if __name__ == "__main__":
    for kind, name in CASES:
        path = GOLDEN / kind / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(kind, name))
        print(f"wrote {path}")
