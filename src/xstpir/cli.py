"""Command-line front end.

Subcommands: retrieve (run one retrieval, write the transcript), audit (run
a distribution audit, write the report), rate (empirical download rate),
capacity (exact bounds and achieved rates), bench (CSV rate curves over N).

Exit codes: 0 on success, 1 when an audit fails, 2 on usage errors. Every
numeric option can also come from a key=value config file ('#' starts a
comment); explicit flags win over the file. The default seed comes from the
XSTPIR_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import os
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


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
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
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_INT_KEYS = ("N", "K", "X", "T", "seed", "theta", "prime", "trials", "samples",
             "cap", "subset_size", "n_min", "n_max")
_BOOL_KEYS = ("exhaustive", "sampled")
_STR_KEYS = ("scheme", "property", "out")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then parse value types."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, raw in file_values.items():
        attr = key.replace("-", "_")
        if attr not in vars(args):
            raise UsageError(f"config key {key!r} is not an option of this command")
        if attr in _BOOL_KEYS:
            # store_true flags default to False, so False means "not given".
            if getattr(args, attr):
                continue
            if raw.lower() not in ("true", "false", "0", "1"):
                raise UsageError(f"config key {key!r} wants true/false, got {raw!r}")
            setattr(args, attr, raw.lower() in ("true", "1"))
            continue
        if getattr(args, attr) is not None:
            continue  # explicit flag wins
        if attr in _INT_KEYS:
            try:
                setattr(args, attr, int(raw))
            except ValueError:
                raise UsageError(f"config key {key!r} wants an integer, got {raw!r}")
        elif attr in _STR_KEYS:
            setattr(args, attr, raw)
        else:
            raise UsageError(f"config key {key!r} is not recognized")
    return args


def _default_seed() -> int:
    raw = os.environ.get("XSTPIR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"XSTPIR_SEED must be an integer, got {raw!r}")


def _scheme_and_seed(args: argparse.Namespace) -> tuple[Scheme, int]:
    """The scheme the options name, at their dimensions and modulus, and the
    seed; out-of-regime dimensions are a UsageError. The scheme is checked
    here because argparse's choices never see a config file's value."""
    missing = [name for name in ("scheme", "N", "K", "X", "T")
               if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")
    seed = args.seed if args.seed is not None else _default_seed()
    if args.scheme not in REGISTRY:
        raise UsageError(f"unknown scheme {args.scheme!r}; pick one of {SCHEMES}")
    try:
        return REGISTRY[args.scheme].make(args.N, args.K, args.X, args.T, p=args.prime), seed
    except ValueError as exc:  # InsufficientFieldError included
        raise UsageError(str(exc)) from exc


def _fmt(value: Fraction) -> str:
    return f"{value} ({float(value):.6f})"


def _theta(args: argparse.Namespace, scheme: Scheme) -> int:
    theta = args.theta if args.theta is not None else 1
    try:
        scheme.check_theta(theta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return theta


def _positive(args: argparse.Namespace, name: str, default: int) -> int:
    value = getattr(args, name)
    if value is None:
        return default
    if value < 1:
        raise UsageError(f"--{name} must be >= 1, got {value}")
    return value


def cmd_retrieve(args: argparse.Namespace) -> int:
    scheme, seed = _scheme_and_seed(args)
    theta = _theta(args, scheme)
    rng = Random(seed)
    messages = scheme.messages.sample(rng)
    run = sim.run_retrieval(scheme.params, messages, theta, seed, rng=rng)
    t = run.transcript
    out = args.out if args.out is not None else "transcript.txt"
    Path(out).write_text(t.render())
    print(f"scheme {t.scheme} N={t.N} K={t.K} X={t.X} T={t.T} p={t.p} L={t.L} "
          f"theta={t.theta} seed={t.seed}")
    print(f"plaintext {' '.join(map(str, run.plaintext))}")
    print(f"decoded   {' '.join(map(str, t.decoded))}")
    print(f"match {'true' if t.decoded == run.plaintext else 'false'}")
    print(f"downloads per server: {' '.join(map(str, t.downloaded))} "
          f"(total {t.total_downloaded})")
    rate = Fraction(t.L, t.total_downloaded) if t.total_downloaded else Fraction(0)
    print(f"rate this retrieval: {_fmt(rate)}")
    print(f"transcript written to {out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    inst, seed = _scheme_and_seed(args)
    prop = args.property
    if prop is None:
        raise UsageError(f"--property is required; pick one of {PROPERTIES}")
    cap = args.cap if args.cap is not None else audit_mod.DEFAULT_CAP
    samples = _positive(args, "samples", audit_mod.DEFAULT_SAMPLES)
    auditor, kind = AUDITS[prop]
    kwargs = {"cap": cap, "samples": samples, "seed": seed, "fallback": bool(args.sampled)}
    if args.subset_size is not None:
        if kind not in (audit_mod.X_SECURITY, audit_mod.T_PRIVACY):
            raise UsageError(f"--subset-size applies to security and privacy, not {prop}")
        if not 1 <= args.subset_size <= inst.N:
            raise UsageError(f"--subset-size must be in 1..{inst.N}, got {args.subset_size}")
        kwargs["subset_size"] = args.subset_size
    try:
        report = auditor(inst, **kwargs)
    except audit_mod.OverCap as exc:
        # enumeration has no sampled mode: only a higher cap lets it run
        sampled = audit_mod.exact_engine(inst, kind) != audit_mod.ENUMERATION
        hint = "rerun with --sampled (or raise --cap)" if sampled else "raise --cap"
        raise UsageError(f"{exc}; {hint} to proceed") from exc
    out = args.out if args.out is not None else "audit_report.txt"
    Path(out).write_text(report.render())
    sys.stdout.write(report.render())
    print(f"report written to {out}")
    return 0 if report.passed else 1


def cmd_rate(args: argparse.Namespace) -> int:
    scheme, seed = _scheme_and_seed(args)
    theta = _theta(args, scheme)
    exhaustive = bool(args.exhaustive)
    trials = _positive(args, "trials", 1000)
    try:
        measured = sim.empirical_rate(
            scheme.params, exhaustive=exhaustive, trials=trials, seed=seed, theta=theta
        )
    except audit_mod.OverCap as exc:
        raise UsageError(f"{exc}; rerun without --exhaustive to sample --trials retrievals") from exc
    closed = scheme.closed_form_rate()
    mode = "exhaustive" if exhaustive else f"sampled over {trials} trials"
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
    n_min = args.n_min if args.n_min is not None else 3
    n_max = args.n_max if args.n_max is not None else 100
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
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("-N", type=int, default=None, help="number of servers")
    p.add_argument("-K", type=int, default=None, help="number of messages")
    p.add_argument("-X", type=int, default=None, help="storage security threshold")
    p.add_argument("-T", type=int, default=None, help="query privacy threshold")
    p.add_argument("--prime", type=int, default=None, help="field modulus override")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $XSTPIR_SEED or 0)")
    p.add_argument("--config", default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xstpir",
        description="X-secure T-private information retrieval: schemes, audits, rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retrieve", help="run one retrieval and write its transcript")
    _add_scheme_options(p)
    p.add_argument("--theta", type=int, default=None, help="message index, 1-based")
    p.add_argument("--out", default=None, help="transcript path (default transcript.txt)")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("audit", help="run a distribution audit and write its report")
    _add_scheme_options(p)
    p.add_argument("--property", choices=PROPERTIES, default=None)
    p.add_argument("--subset-size", dest="subset_size", type=int, default=None,
                   help="override the audited collusion size")
    p.add_argument("--sampled", action="store_true",
                   help="allow the randomized fallback beyond the cap")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="max work of the exact audit")
    p.add_argument("--out", default=None, help="report path (default audit_report.txt)")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("rate", help="measure the download rate")
    _add_scheme_options(p)
    p.add_argument("--theta", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate the query randomness exactly")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("capacity", help="print exact bounds and achieved rates")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-K", type=int, default=None, help="omit for the asymptotic row only")
    p.add_argument("-X", type=int, default=None)
    p.add_argument("-T", type=int, default=None)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("bench", help="CSV rate curves over a range of N (X=T=1)")
    p.add_argument("--n-min", dest="n_min", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config"):
            args = _merge_config(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
