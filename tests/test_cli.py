"""Command-line surface: exit codes, printed values, config handling."""

import subprocess
import sys
import time

import pytest

from xstpir import sim
from xstpir.cli import REGISTRY, main
from xstpir.scheme import CsaScheme


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CSA_ARGS = ["--scheme", "csa", "-N", "5", "-K", "2", "-X", "1", "-T", "1"]
BINARY_ARGS = ["--scheme", "binary_n3", "-N", "3", "-K", "2", "-X", "1", "-T", "1"]


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------


def test_retrieve_happy_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["retrieve", *CSA_ARGS, "--seed", "0"], capsys)
    assert code == 0
    assert "scheme csa N=5 K=2 X=1 T=1 p=11 L=3" in out
    assert "match true" in out
    assert "transcript written to transcript.txt" in out
    text = (tmp_path / "transcript.txt").read_text()
    assert text.startswith("scheme csa\n")
    assert "DECODED 3" in text


def test_retrieve_is_seed_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("a.txt", "b.txt"):
        code, _, _ = run_cli(
            ["retrieve", *CSA_ARGS, "--seed", "7", "--out", name], capsys
        )
        assert code == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    code, _, _ = run_cli(
        ["retrieve", *CSA_ARGS, "--seed", "8", "--out", "c.txt"], capsys
    )
    assert code == 0
    assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "c.txt").read_bytes()


def test_retrieve_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XSTPIR_SEED", "9")
    code, out, _ = run_cli(["retrieve", *CSA_ARGS, "--out", "t.txt"], capsys)
    assert code == 0
    assert "seed=9" in out
    assert "seed 9" in (tmp_path / "t.txt").read_text()
    # an explicit flag still wins over the environment
    code, out, _ = run_cli(
        ["retrieve", *CSA_ARGS, "--seed", "4", "--out", "t2.txt"], capsys
    )
    assert code == 0
    assert "seed=4" in out


def test_retrieve_bad_environment_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XSTPIR_SEED", "not-a-number")
    code, _, err = run_cli(["retrieve", *CSA_ARGS], capsys)
    assert code == 2
    assert "XSTPIR_SEED" in err


def test_retrieve_all_schemes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in [
        BINARY_ARGS,
        ["--scheme", "download_all", "-N", "2", "-K", "2", "-X", "1", "-T", "1"],
        ["--scheme", "sym_xspir", "-N", "3", "-K", "2", "-X", "2", "-T", "1",
         "--prime", "3"],
    ]:
        code, out, _ = run_cli(["retrieve", *args, "--seed", "1"], capsys)
        assert code == 0
        assert "match true" in out


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["retrieve", "--scheme", "csa", "-N", "3", "-K", "1", "-X", "1", "-T", "2"],
        ["retrieve", "--scheme", "csa", "-N", "5", "-K", "2", "-X", "1"],
        ["retrieve", "--scheme", "binary_n3", "-N", "3", "-K", "1", "-X", "1",
         "-T", "1"],
        ["retrieve", "--scheme", "binary_n3", "-N", "4", "-K", "2", "-X", "1",
         "-T", "1"],
        ["retrieve", *BINARY_ARGS, "--prime", "3"],
        ["retrieve", "--scheme", "download_all", "-N", "3", "-K", "1", "-X", "1",
         "-T", "1"],
        ["retrieve", "--scheme", "sym_xspir", "-N", "3", "-K", "2", "-X", "1",
         "-T", "1"],
        ["retrieve", "--scheme", "sym_xspir", "-N", "2", "-K", "2", "-X", "1",
         "-T", "2"],
        ["retrieve", *CSA_ARGS, "--theta", "3"],
        ["retrieve", *CSA_ARGS, "-N", "0"],
        ["capacity", "-N", "3", "-X", "3", "-T", "1"],
        ["capacity", "-N", "3", "-X", "1"],
        ["bench", "--n-min", "2", "--n-max", "4"],
        ["audit", *CSA_ARGS],  # no --property
        # collusion sizes outside 1..N: no subset to audit
        ["audit", "--scheme", "csa", "-N", "3", "-K", "1", "-X", "1", "-T", "1",
         "--property", "security", "--subset-size", "4"],
        ["audit", "--scheme", "csa", "-N", "3", "-K", "1", "-X", "1", "-T", "1",
         "--property", "privacy", "--subset-size", "0"],
        # properties that audit no collusion set take no subset size
        ["audit", "--scheme", "csa", "-N", "3", "-K", "1", "-X", "1", "-T", "1",
         "--property", "correctness", "--subset-size", "9"],
        ["audit", "--scheme", "sym_xspir", "-N", "2", "-K", "2", "-X", "1", "-T", "1",
         "--property", "sym-security", "--subset-size", "1"],
        # sampled audits and rates need at least one draw
        ["audit", "--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
         "--property", "security", "--sampled", "--cap", "0", "--samples", "0"],
        ["audit", "--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
         "--property", "correctness", "--sampled", "--cap", "0", "--samples", "0"],
        ["audit", "--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
         "--property", "security", "--sampled", "--cap", "0", "--samples", "-3"],
        ["rate", "--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
         "--trials", "0"],
        ["rate", "--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
         "--theta", "9"],
    ],
)
def test_usage_errors_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_prime_past_the_primality_bound_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["retrieve", *CSA_ARGS, "--prime", str(2**127 - 1)], capsys)
    assert code == 2
    assert "3317044064679887385961981" in err


def test_unknown_scheme_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", "--scheme", "bogus", "-N", "3", "-K", "1", "-X", "1",
              "-T", "1"])
    assert exc.value.code == 2


def test_binary_k1_message_names_the_working_regimes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["retrieve", "--scheme", "binary_n3", "-N", "3", "-K", "1", "-X", "1",
         "-T", "1"],
        capsys,
    )
    assert code == 2
    assert "K >= 2" in err


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_pass_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", *BINARY_ARGS, "--property", "privacy"], capsys
    )
    assert code == 0
    assert "pass true" in out
    report = (tmp_path / "audit_report.txt").read_text()
    assert report.splitlines()[0] == "property T_PRIVACY"
    assert "max_tv 0" in report


def test_audit_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", "--scheme", "csa", "-N", "3", "-K", "2", "-X", "1", "-T", "1",
         "--property", "privacy", "--subset-size", "2", "--out", "r.txt"],
        capsys,
    )
    assert code == 1
    assert "pass false" in out
    assert "pass false" in (tmp_path / "r.txt").read_text()


def test_audit_refuses_oversized_enumeration(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["audit", *BINARY_ARGS, "--property", "privacy", "--cap", "10"], capsys
    )
    assert code == 2
    # the exact work it refused, in the unit of the engine that would run:
    # the query probe (4 calls at the first theta, 2 at the other, x 6
    # symbols) is already over the cap, so the count stops there, without
    # probing
    assert "rank tests would take 36 steps" in err
    assert "--sampled" in err


def test_audit_refuses_a_work_count_of_more_digits_than_str_converts(tmp_path, capsys,
                                                                     monkeypatch):
    # The exact sym-security of csa (24,256,4,4) would take about 10^26433
    # steps: the refusal names that count without converting it to str,
    # which past 4,300 digits raises ValueError on Python 3.11+.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["audit", "--scheme", "csa", "-N", "24", "-K", "256", "-X", "4", "-T", "4",
         "--property", "sym-security"], capsys
    )
    assert code == 2
    assert "by rank tests would take about 10^26433 steps" in err
    assert "--sampled" in err


def test_audit_refuses_an_enumeration_past_the_cap_even_when_sampled(tmp_path, capsys,
                                                                      monkeypatch):
    # sym_xspir privacy runs by enumeration, which has no sampled mode: past
    # the cap it is refused and only a higher cap is suggested (a sampled
    # outcome statistic here used to fail this secure instance)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["audit", "--scheme", "sym_xspir", "-N", "2", "-K", "64", "-X", "1", "-T", "1",
         "--property", "privacy", "--sampled", "--cap", "0", "--samples", "2000"], capsys
    )
    assert code == 2
    assert "by enumeration would take 4096 realizations" in err
    assert "raise --cap" in err
    assert "--sampled" not in err


def test_audit_sampled_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", *BINARY_ARGS, "--property", "security", "--cap", "10",
         "--sampled", "--samples", "6000", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "exhaustive false" in out
    assert "samples 6000" in out


def test_audit_sampled_allows_only_the_fallback_beyond_the_cap(tmp_path, capsys, monkeypatch):
    # csa N=5 is within the cap of the rank tests, so --sampled changes
    # nothing: the audit is exact
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["audit", *CSA_ARGS, "--property", "security", "--sampled"], capsys)
    assert code == 0
    assert "exhaustive true" in out
    assert "max_tv 0\npass true" in out


def test_audit_sampled_over_collusion_fails_exactly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", *CSA_ARGS, "--property", "security", "--sampled", "--subset-size", "2"],
        capsys,
    )
    assert code == 1
    assert "exhaustive true" in out
    assert "max_tv 1\npass false" in out


def test_audit_sampled_rank_tests_pass_a_secure_instance(tmp_path, capsys, monkeypatch):
    # comparing sampled share histograms read 19787/20000 here
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", *CSA_ARGS, "--property", "security", "--sampled", "--cap", "0"], capsys
    )
    assert code == 0
    assert "exhaustive false" in out
    assert "max_tv 0\npass true" in out
    assert "detail sampled: rank tests on 5 of 5 subsets" in out


LARGE_CSA_ARGS = ["--scheme", "csa", "-N", "12", "-K", "64", "-X", "2", "-T", "2"]


@pytest.mark.parametrize("extra,code,verdict", [
    ([], 0, "max_tv 0\npass true"),
    (["--subset-size", "3"], 1, "max_tv 1\npass false"),
])
def test_audit_decides_a_large_csa_security_exactly(extra, code, verdict, tmp_path, capsys,
                                                    monkeypatch):
    # the split rank tests fit the default cap at csa (12,64,2,2)
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    got, out, _ = run_cli(["audit", *LARGE_CSA_ARGS, "--property", "security", *extra], capsys)
    assert time.perf_counter() - started < 5
    assert got == code
    assert "exhaustive true" in out
    assert verdict in out


@pytest.mark.parametrize("prop,extra,code,verdict", [
    ("privacy", [], 0, "max_tv 0\npass true"),
    ("privacy", ["--subset-size", "3"], 1, "max_tv 1\npass false"),
    ("correctness", [], 0, "max_tv 0\npass true"),
], ids=["privacy", "privacy-triples", "correctness"])
def test_audit_decides_large_csa_privacy_and_correctness_exactly(prop, extra, code, verdict,
                                                                 tmp_path, capsys, monkeypatch):
    # the query map is probed at the first theta only, and correctness is
    # assembled from the maps, so both fit the default cap at csa
    # (12,64,2,2); each ran in 2-4 s on a 2-core VM
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    got, out, _ = run_cli(["audit", *LARGE_CSA_ARGS, "--property", prop, *extra], capsys)
    assert time.perf_counter() - started < 10
    assert got == code
    assert "exhaustive true" in out
    assert verdict in out


class _StorageFailsAtTheCheckPoint(CsaScheme):
    """csa whose storage raises only for the messages (1, 2, 3 / 4, 5, 6),
    the message part of the identity test's storage check point at
    (5,2,1,1)."""

    def storage(self, messages, noise):
        if messages.symbols == ((1, 2, 3), (4, 5, 6)):
            raise RuntimeError("no storage for this message")
        return super().storage(messages, noise)


@pytest.mark.parametrize("extra", [[], ["--sampled"], ["--sampled", "--cap", "0"]])
def test_audit_fails_a_correctness_failure_it_proves_past_any_enumeration(extra, tmp_path, capsys,
                                                                          monkeypatch):
    # the identity test's witness is reported, never a sampled pass
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(REGISTRY, "csa", _StorageFailsAtTheCheckPoint)
    code, out, _ = run_cli(["audit", *CSA_ARGS, "--property", "correctness", *extra], capsys)
    assert code == 1
    assert "exhaustive false" in out
    assert "max_tv 1\npass false\ndetail identity test: theta 1, storage point check" in out


def test_audit_decides_csa_correctness_past_any_enumeration(tmp_path, capsys, monkeypatch):
    # 1.1e19 realizations: the identity test decodes at each storage point
    # times each query point instead
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    code, out, _ = run_cli(["audit", "--scheme", "csa", "-N", "5", "-K", "2", "-X", "1", "-T", "1",
                            "--property", "correctness"], capsys)
    assert time.perf_counter() - started < 5
    assert code == 0
    assert "exhaustive true" in out
    assert "max_tv 0\npass true" in out


LARGE_SYMX_ARGS = ["--scheme", "sym_xspir", "-N", "3", "-K", "4", "-X", "2", "-T", "1",
                   "--prime", "5"]


@pytest.mark.parametrize("prop", ["security", "sym-security", "correctness"])
def test_audit_decides_a_large_sym_xspir_storage_side_exactly(prop, tmp_path, capsys,
                                                              monkeypatch):
    # 5^(4 + 2 * 16) storage realizations, past any enumeration: the rank
    # tests read the share and answer maps instead, and the identity test
    # reads them once for each of the 4 x 4 (theta, query realization) pairs
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    code, out, _ = run_cli(["audit", *LARGE_SYMX_ARGS, "--property", prop], capsys)
    assert time.perf_counter() - started < 5
    assert code == 0
    assert "exhaustive true" in out
    assert "max_tv 0\npass true" in out


def test_audit_correctness_properties(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["audit", "--scheme", "sym_xspir", "-N", "2", "-K", "2", "-X", "1",
         "-T", "1", "--property", "sym-security"],
        capsys,
    )
    assert code == 0
    assert "property SYM_SECURITY" in out


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_exhaustive_matches_closed_form(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["rate", *BINARY_ARGS, "--exhaustive"], capsys)
    assert code == 0
    assert "4/9" in out
    assert "match true" in out

    code, out, _ = run_cli(
        ["rate", "--scheme", "csa", "-N", "3", "-K", "1", "-X", "1", "-T", "1",
         "--exhaustive"],
        capsys,
    )
    assert code == 0
    assert "5/12" in out
    assert "match true" in out


@pytest.mark.parametrize("argv", [
    ["--scheme", "csa", "-N", "4", "-K", "2", "-X", "1", "-T", "1",
     "--prime", "2305843009213693951"],
    LARGE_CSA_ARGS,
])
def test_rate_exhaustive_refuses_past_the_cap(argv, capsys, tmp_path, monkeypatch):
    # before enumerating: the first ran out of memory, the second never ended
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    code, out, err = run_cli(["rate", *argv, "--exhaustive"], capsys)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "query realizations, over the cap of 16777216" in err
    assert "--trials" in err


def test_rate_exhaustive_reports_only_the_cap_refusal_as_usage(capsys, tmp_path, monkeypatch):
    # any other error of the exact rate is not a usage mistake
    monkeypatch.chdir(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("not a cap refusal")

    monkeypatch.setattr(sim, "empirical_rate", broken)
    with pytest.raises(ValueError, match="^not a cap refusal$"):
        run_cli(["rate", *BINARY_ARGS, "--exhaustive"], capsys)


def test_rate_sampled_mode_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["rate", *BINARY_ARGS, "--trials", "60", "--seed", "3"], capsys
    )
    assert code == 0
    assert "sampled over 60 trials" in out


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_tight_cases(capsys):
    code, out, _ = run_cli(["capacity", "-N", "3", "-K", "2", "-X", "1", "-T", "1"],
                           capsys)
    assert code == 0
    assert "upper bound 4/9" in out
    assert "achieved 4/9" in out
    assert "scheme=binary_n3 TIGHT" in out

    code, out, _ = run_cli(["capacity", "-N", "2", "-K", "3", "-X", "1", "-T", "1"],
                           capsys)
    assert code == 0
    assert "upper bound 1/6" in out
    assert "scheme=download_all TIGHT" in out


def test_capacity_asymptotic_only(capsys):
    code, out, _ = run_cli(["capacity", "-N", "5", "-X", "1", "-T", "1"], capsys)
    assert code == 0
    assert "K=inf" in out
    assert "asymptotic capacity 3/5" in out
    assert "upper bound" not in out


def test_capacity_aligned_regime_row(capsys):
    code, out, _ = run_cli(["capacity", "-N", "5", "-K", "2", "-X", "1", "-T", "2"],
                           capsys)
    assert code == 0
    assert "scheme=csa" in out
    assert "asymptotic capacity 2/5" in out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_csv_stdout(capsys):
    code, out, _ = run_cli(["bench", "--n-min", "3", "--n-max", "10"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("N,mds_best_M,mds_best_num,mds_best_den,mds_best,"
                        "sqrt_bound,xstpir_num,xstpir_den,xstpir")
    assert len(lines) == 9
    assert lines[2] == "4,2,1,4,0.250000,0.250000,1,2,0.500000"


def test_bench_csv_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["bench", "--n-min", "3", "--n-max", "6", "--out", "rates.csv"], capsys
    )
    assert code == 0
    assert "wrote 4 rows to rates.csv" in out
    body = (tmp_path / "rates.csv").read_text().splitlines()
    assert len(body) == 5


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# a csa experiment\n"
        "scheme = csa\n"
        "N = 5\n"
        "K = 2\n"
        "X = 1\n"
        "T = 1\n"
        "seed = 3\n"
    )
    code, out, _ = run_cli(["retrieve", "--config", str(cfg)], capsys)
    assert code == 0
    assert "N=5 K=2" in out
    assert "seed=3" in out


def test_explicit_flags_beat_config_values(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme=csa\nN=5\nK=2\nX=1\nT=1\nseed=3\n")
    code, out, _ = run_cli(
        ["retrieve", "--config", str(cfg), "-K", "3", "--seed", "12"], capsys
    )
    assert code == 0
    assert "K=3" in out
    assert "seed=12" in out


def test_config_bool_keys(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("scheme=binary_n3\nN=3\nK=2\nX=1\nT=1\nexhaustive=true\n")
    code, out, _ = run_cli(["rate", "--config", str(cfg)], capsys)
    assert code == 0
    assert "empirical rate (exhaustive)" in out
    assert "4/9" in out


def test_config_rejects_unknown_and_malformed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("scheme=csa\nwidth=4\n")
    code, _, err = run_cli(["retrieve", "--config", str(bad_key)], capsys)
    assert code == 2
    assert "width" in err

    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("scheme csa\n")
    code, _, err = run_cli(["retrieve", "--config", str(bad_line)], capsys)
    assert code == 2
    assert "key=value" in err

    code, _, err = run_cli(["retrieve", "--config", "no-such-file.cfg"], capsys)
    assert code == 2
    assert "cannot read config file" in err


def test_config_type_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad3.cfg"
    cfg.write_text("scheme=csa\nN=five\n")
    code, _, err = run_cli(["retrieve", "--config", str(cfg)], capsys)
    assert code == 2
    assert "integer" in err

    cfg.write_text("scheme=csa\nN=4\nK=2\nX=1\nT=1\ntrials=0\n")
    code, _, err = run_cli(["rate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "trials must be >= 1" in err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_python_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "xstpir", "capacity", "-N", "3", "-K", "2",
         "-X", "1", "-T", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4/9" in proc.stdout
