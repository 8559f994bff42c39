"""Command-line front end.

Subcommands: retrieve (run one retrieval, write the transcript), audit (run
a distribution audit, write the report), rate (empirical download rate),
capacity (exact bounds and achieved rates), bench (CSV rate curves over N).

Exit codes: 0 on success, 1 when an audit fails, 2 on usage errors. Any
option of retrieve, audit and rate can also come from a key=value config
file ('#' starts a comment), read as the flags `-K=v` or `--key=v` (`_` read
as `-`) put before the command line's, which win; the subcommand's parser
checks them as it checks any flag. Types, choices and defaults live only
in `build_parser`; the seed, for one, comes from `--seed` (or `seed =` in
the file), else is 0.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from . import audit as audit_mod
from . import capacity, sim
from .scheme import SCHEMES as REGISTRY
from .scheme import Scheme

SCHEMES = tuple(REGISTRY)
# property name: (audit, what it checks)
AUDITS = {
    "security": (audit_mod.audit_security, audit_mod.X_SECURITY),
    "privacy": (audit_mod.audit_privacy, audit_mod.T_PRIVACY),
    "sym-security": (audit_mod.audit_sym_security, audit_mod.SYM_SECURITY),
    "correctness": (audit_mod.audit_correctness, audit_mod.CORRECTNESS),
}
PROPERTIES = tuple(AUDITS)


class UsageError(ValueError):
    """Bad command line or config: reported on stderr with exit code 2."""


class _FileParser(argparse.ArgumentParser):
    """The parser a config file's flags are checked by: its errors are
    UsageErrors, and it has no -h and takes no abbreviated option."""

    def __init__(self, **kwargs):
        super().__init__(**{**kwargs, "add_help": False, "allow_abbrev": False})

    def error(self, message: str):
        raise UsageError(message)


def integer(raw: str) -> int:
    """int, named so that argparse reports `invalid integer value`."""
    return int(raw)


def positive(raw: str) -> int:
    """An int of at least 1."""
    if (value := int(raw)) < 1:
        raise ValueError(raw)
    return value


def boolean(raw: str) -> bool:
    """true/false/1/0, any case."""
    if raw.lower() not in ("true", "false", "1", "0"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1")


# A flag that is true when given bare and takes a `boolean` value.
SWITCH = {"nargs": "?", "const": True, "default": False, "type": boolean, "metavar": "BOOL"}


def read_config_file(path: str) -> list[str]:
    """The flags of a file's key=value lines, `-K=v` or `--key=v` with `_`
    read as `-`; blank lines and '#' comments are ignored."""
    flags = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.append(f"{'-' if len(key) == 1 else '--'}{key.replace('_', '-')}={value}")
    return flags


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The flags of the config file, checked as the subcommand checks flags."""
    flags = read_config_file(args.config)
    try:
        if build_parser(_FileParser).parse_args([args.command, *flags]).config is not None:
            raise UsageError("a config file cannot set config")
    except UsageError as exc:
        raise UsageError(f"config file {args.config}: {exc}") from None
    return flags


def _scheme(args: argparse.Namespace) -> Scheme:
    """The scheme the options name, at their dimensions and modulus;
    out-of-regime dimensions and a theta past K are a UsageError."""
    missing = [name for name in ("scheme", "N", "K", "X", "T")
               if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")
    try:
        scheme = REGISTRY[args.scheme].make(args.N, args.K, args.X, args.T, p=args.prime)
        scheme.check_theta(getattr(args, "theta", 1))  # audit takes no theta
    except ValueError as exc:  # InsufficientFieldError included
        raise UsageError(str(exc)) from exc
    return scheme


def _fmt(value: Fraction) -> str:
    return f"{value} ({float(value):.6f})"


def cmd_retrieve(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    rng = Random(args.seed)
    messages = scheme.messages.sample(rng)
    run = sim.run_retrieval(scheme.params, messages, args.theta, args.seed, rng=rng)
    t = run.transcript
    Path(args.out).write_text(t.render())
    print(f"scheme {t.scheme} N={t.N} K={t.K} X={t.X} T={t.T} p={t.p} L={t.L} "
          f"theta={t.theta} seed={t.seed}")
    print(f"plaintext {' '.join(map(str, run.plaintext))}")
    print(f"decoded   {' '.join(map(str, t.decoded))}")
    print(f"match {'true' if t.decoded == run.plaintext else 'false'}")
    print(f"downloads per server: {' '.join(map(str, t.downloaded))} "
          f"(total {t.total_downloaded})")
    rate = Fraction(t.L, t.total_downloaded) if t.total_downloaded else Fraction(0)
    print(f"rate this retrieval: {_fmt(rate)}")
    print(f"transcript written to {args.out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    inst = _scheme(args)
    prop = args.property
    if prop is None:
        raise UsageError(f"--property is required; pick one of {PROPERTIES}")
    auditor, kind = AUDITS[prop]
    kwargs = {"cap": args.cap, "samples": args.samples, "seed": args.seed, "fallback": args.sampled}
    if args.subset_size is not None:
        if kind not in (audit_mod.X_SECURITY, audit_mod.T_PRIVACY):
            raise UsageError(f"--subset-size applies to security and privacy, not {prop}")
        kwargs["subset_size"] = args.subset_size
    try:
        report = auditor(inst, **kwargs)
    except audit_mod.OverCap as exc:
        # enumeration has no sampled mode: only a higher cap lets it run
        sampled = audit_mod.exact_engine(inst, kind) != audit_mod.ENUMERATION
        hint = "rerun with --sampled (or raise --cap)" if sampled else "raise --cap"
        raise UsageError(f"{exc}; {hint} to proceed") from exc
    except ValueError as exc:  # a subset size outside 1..N, given or the default X = 0
        raise UsageError(str(exc)) from exc
    Path(args.out).write_text(report.render())
    sys.stdout.write(report.render())
    print(f"report written to {args.out}")
    return 0 if report.passed else 1


def cmd_rate(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    try:
        measured = sim.empirical_rate(
            scheme.params, exhaustive=args.exhaustive, trials=args.trials, seed=args.seed, theta=args.theta
        )
    except audit_mod.OverCap as exc:
        raise UsageError(f"{exc}; rerun without --exhaustive to sample --trials retrievals") from exc
    closed = scheme.closed_form_rate()
    mode = "exhaustive" if args.exhaustive else f"sampled over {args.trials} trials"
    print(f"scheme {scheme.name} N={scheme.N} K={scheme.K} X={scheme.X} T={scheme.T}")
    print(f"empirical rate ({mode}): {_fmt(measured)}")
    print(f"closed form: {_fmt(closed)}")
    print(f"match {'true' if measured == closed else 'false'}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    n, x, t = args.N, args.X, args.T
    if n is None or x is None or t is None:
        raise UsageError("capacity needs -N, -X and -T (and optionally -K)")
    if not 0 <= x < n or t < 1:
        raise UsageError("need 0 <= X < N and T >= 1")
    k = args.K
    print(f"N={n} X={x} T={t}" + (f" K={k}" if k is not None else " K=inf"))
    asym = capacity.xstpir_asymptotic(n, x, t)
    if k is None:
        print(f"asymptotic capacity {_fmt(asym)}")
        return 0
    if k < 1:
        raise UsageError("K must be >= 1")
    bound = capacity.xstpir_upper_bound(n, k, x, t)
    print(f"upper bound {_fmt(bound)}")
    print(f"asymptotic capacity {_fmt(asym)}")
    achieved, scheme, tight = _best_achieved(n, k, x, t, bound)
    if achieved is not None:
        tag = " TIGHT" if tight else ""
        print(f"achieved {_fmt(achieved)} scheme={scheme}{tag}")
    return 0


def _best_achieved(n, k, x, t, bound):
    """Best rate this package actually achieves at finite K, if any."""
    best = None
    for cls in REGISTRY.values():
        try:
            scheme = cls.make(n, k, x, t)
        except ValueError:
            continue  # outside the scheme's regime
        rate = scheme.closed_form_rate()
        if best is None or rate > best[0]:
            best = (rate, scheme.name)
    if best is None:
        return None, "", False
    return best[0], best[1], best[0] == bound


def cmd_bench(args: argparse.Namespace) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min < 3 or n_max < n_min:
        raise UsageError("need 3 <= n-min <= n-max")
    lines = ["N,mds_best_M,mds_best_num,mds_best_den,mds_best,sqrt_bound,"
             "xstpir_num,xstpir_den,xstpir"]
    for n in range(n_min, n_max + 1):
        best_m, mds = capacity.best_mds_pir_asym(n)
        ours = capacity.xstpir_asymptotic(n, 1, 1)
        # Exact ordering checks: MDS best <= (1-1/sqrt(N))^2 < 1 - 2/N.
        assert capacity.rate_le_sqrt_bound(mds, n)
        assert capacity.sqrt_bound_lt_asymptotic(n)
        lines.append(
            f"{n},{best_m},{mds.numerator},{mds.denominator},{float(mds):.6f},"
            f"{capacity.sqrt_bound_float(n):.6f},"
            f"{ours.numerator},{ours.denominator},{float(ours):.6f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {n_max - n_min + 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_scheme_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("-N", type=integer, help="number of servers")
    p.add_argument("-K", type=integer, help="number of messages")
    p.add_argument("-X", type=integer, help="storage security threshold")
    p.add_argument("-T", type=integer, help="query privacy threshold")
    p.add_argument("--prime", type=integer, help="field modulus override")
    p.add_argument("--seed", type=integer, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument("--config", help="key=value config file")


def build_parser(cls=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = cls(
        prog="xstpir",
        description="X-secure T-private information retrieval: schemes, audits, rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retrieve", help="run one retrieval and write its transcript")
    _add_scheme_options(p)
    p.add_argument("--theta", type=integer, default=1,
                   help="message index, 1-based (default: %(default)s)")
    p.add_argument("--out", default="transcript.txt",
                   help="transcript path (default: %(default)s)")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("audit", help="run a distribution audit and write its report")
    _add_scheme_options(p)
    p.add_argument("--property", choices=PROPERTIES)
    p.add_argument("--subset-size", type=integer, help="override the audited collusion size")
    p.add_argument("--sampled", **SWITCH, help="allow the randomized fallback beyond the cap")
    p.add_argument("--samples", type=positive, default=audit_mod.DEFAULT_SAMPLES,
                   help="draws of the sampled fallback (default: %(default)s)")
    p.add_argument("--cap", type=integer, default=audit_mod.DEFAULT_CAP,
                   help="max work of the exact audit (default: %(default)s)")
    p.add_argument("--out", default="audit_report.txt",
                   help="report path (default: %(default)s)")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("rate", help="measure the download rate")
    _add_scheme_options(p)
    p.add_argument("--theta", type=integer, default=1,
                   help="message index, 1-based (default: %(default)s)")
    p.add_argument("--exhaustive", **SWITCH, help="enumerate the query randomness exactly")
    p.add_argument("--trials", type=positive, default=1000,
                   help="sampled retrievals (default: %(default)s)")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("capacity", help="print exact bounds and achieved rates")
    p.add_argument("-N", type=integer)
    p.add_argument("-K", type=integer, help="omit for the asymptotic row only")
    p.add_argument("-X", type=integer)
    p.add_argument("-T", type=integer)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("bench", help="CSV rate curves over a range of N (X=T=1)")
    p.add_argument("--n-min", type=integer, default=3, help="(default: %(default)s)")
    p.add_argument("--n-max", type=integer, default=100, help="(default: %(default)s)")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args([args.command, *_config_flags(args), *argv[1:]])
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
