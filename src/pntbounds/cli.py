"""Command-line surface: recompute the constant tables, bracket constants,
region crossovers, small-range verification, and envelope evaluation.

Output is deterministic byte-for-byte for fixed flags and table file.
Exit codes: 0 all checks certify, 1 verification/computation failure,
2 usage error.  Each subcommand imports the modules it calls, so that a
process compiles and loads only what it runs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import zfr

if TYPE_CHECKING:
    from .engine import BoundConstants
    from .extnum import ExtReal
    from .zdensity import DensityTable

ENV_TABLE = "PNT_DENSITY_TABLE"

CSV_HEADER = "X,sigma,K,A,B,C,eps0_mantissa,eps0_exp10"


def eps0_sci(e: ExtReal) -> str:
    """Scientific notation, 3 significant digits, mantissa rounded up."""
    m, exp10 = e.log10_parts()
    num, den = m.as_integer_ratio()
    m = -(-num * 100 // den) / 100.0  # exact ceiling at 2 decimals, as engine._round_down floors
    if m >= 10.0:
        m /= 10.0
        exp10 += 1
    return f"{m:.2f}e{exp10:+03d}"


def finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor +-inf."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _resolve_table(args: argparse.Namespace) -> DensityTable:
    from .zdensity import load_table
    path = args.density_table or os.environ.get(ENV_TABLE) or None
    return load_table(path)


def _rows_text(rows: Sequence[BoundConstants]) -> str:
    out = io.StringIO()
    out.write(f"{'X':>8} {'sigma':>10} {'K':>2} {'A':>8} {'B':>6} {'C':>7} {'eps0':>13}\n")
    for r in rows:
        out.write(f"{r.label:>8} {r.sigma:>10.6f} {r.K:>2d} {r.A:>8.3f} "
                  f"{r.B:>6.3f} {r.C:>7.4f} {eps0_sci(r.eps0):>13}\n")
    return out.getvalue()


def _rows_csv(rows: Sequence[BoundConstants]) -> str:
    import csv
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_HEADER.split(","))
    for r in rows:
        m, e = r.eps0.log10_parts()
        w.writerow([f"{r.X:.10g}", f"{r.sigma:.7f}", r.K, f"{r.A:.3f}",
                    f"{r.B:.3f}", f"{r.C:.4f}", f"{m:.6f}", e])
    return out.getvalue()


def _rows_json(rows: Sequence[BoundConstants]) -> str:
    import json
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"


def _emit_rows(rows: Sequence[BoundConstants], fmt: str) -> None:
    sys.stdout.write({"json": _rows_json, "csv": _rows_csv}.get(fmt, _rows_text)(rows))


def _table1_unused_flag(args: argparse.Namespace) -> str | None:
    """Why a ``table1`` flag would go unused beside the others, if one would."""
    from . import engine
    if args.log_x0 is None:
        flag = next((f for f in ("sigma", "K", "regime") if getattr(args, f) is not None), None)
        return flag and f"--{flag} applies only to a --log-x0 row"
    if args.rows is not None:
        return "--rows cannot be combined with --log-x0"
    if args.optimize and (args.sigma, args.K) != (None, None):
        return "--optimize chooses sigma and K and cannot be combined with --sigma or --K"
    if args.K is not None and len(engine.REGIMES[args.regime].Ks) == 1:
        return f"--K applies only to the medium regime, not {args.regime}"
    return None


def cmd_table1(args: argparse.Namespace) -> int:
    from . import engine
    auto = args.log_x0 is not None and args.regime in (None, "auto")
    if auto:
        args.regime = "large" if args.log_x0 >= engine.REGIMES["large"].min_log_x0 else "medium"
    if reason := _table1_unused_flag(args):
        args.usage_error(reason)
    table = _resolve_table(args)
    if auto and args.log_x0 >= engine.REGIMES["vk"].min_log_x0 and args.log_x0 >= engine.regime_compare(
            engine.compute_default_rows(table), engine.compute_row(engine.VK_DEFAULT_PARAMS, table)).upper_log_x:
        args.regime = "vk"  # from the upper envelope crossing on, where the VK envelope is the smaller
    params = engine.DEFAULT_ROW_PARAMS
    if args.log_x0 is not None:
        # sigma and K of the regime's table row with the largest anchor at or below the custom one
        same = [p for p in (*engine.DEFAULT_ROW_PARAMS, engine.VK_DEFAULT_PARAMS) if p.regime == args.regime]
        base = max((p for p in same if p.anchor <= args.log_x0), key=lambda p: p.anchor, default=same[0])
        params = [base._replace(label=f"{args.log_x0:g}", X=args.log_x0, anchor=args.log_x0,
                                sigma=base.sigma if args.sigma is None else args.sigma,
                                K=base.K if args.K is None else args.K)]
    elif args.rows:
        wanted = {w.strip() for w in args.rows.split(",")}
        params = [p for p in params if p.label in wanted]
        if not params:
            print(f"error: no rows match {sorted(wanted)}", file=sys.stderr)
            return 2
    rows = []
    for p in params:
        try:
            row = (engine.optimize(p.anchor, p.regime, table, claim_X=p.X, label=p.label) if args.optimize
                   else engine.compute_row(p, table))
        except engine.CertificationError as exc:
            print(f"error: row {p.label}: {exc}", file=sys.stderr)
            return 1
        try:
            row.eps0.log10_parts()  # an eps0 too extreme to print is named by its row, before any row prints
        except ValueError as exc:
            print(f"error: row {p.label}: {exc}", file=sys.stderr)
            return 1
        rows.append(row)
    _emit_rows(rows, args.format)
    return 0


def cmd_brackets(args: argparse.Namespace) -> int:
    from . import regimes
    if args.regime == "nu3":
        x0s = [args.log_x0] if args.log_x0 is not None else [regimes.MIN_LOG_X0_NU3]
        make = regimes.bracket_nu3
    else:
        x0s = [args.log_x0] if args.log_x0 is not None else [1e5, 1e6, 1e7, 1e8, 1e9, 1e10]
        make = regimes.bracket_nu2
    rows = [make(x) for x in x0s]
    if args.format == "json":
        import json
        payload = [{"region": b.region_kind, "log_x0": b.log_x0, "B0": b.B0,
                    "B1": b.B1, "B2": b.B2, "B3": b.B3} for b in rows]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'log_x0':>8} {'B0':>10} {'B1':>10} {'B2':>10} {'B3':>10}")
        for b in rows:
            print(f"{b.log_x0:>8.0e} {b.B0:>10.7f} {b.B1:>10.7f} {b.B2:>10.7f} {b.B3:>10.7f}")
    return 0


def cmd_crossovers(args: argparse.Namespace) -> int:
    from . import engine
    table = _resolve_table(args)
    region = zfr.envelope_crossovers()
    rows = engine.compute_default_rows(table)
    vk = engine.compute_row(engine.VK_DEFAULT_PARAMS, table)
    env = engine.regime_compare(rows, vk)
    if args.format == "json":
        import json
        payload = {
            "region_crossovers": [{"pair": c.pair, "root_log_t": c.root_log_t} for c in region],
            "envelope_crossings": {"lower_log_x": env.lower_log_x, "upper_log_x": env.upper_log_x},
        }
        print(json.dumps(payload, indent=2))
    else:
        for c in region:
            print(f"region crossover {c.pair}: log t = {c.root_log_t:.4f}")
        print(f"envelope crossing (sqrt vs vk), lower: log x = {env.lower_log_x:.4f}")
        print(f"envelope crossing (sqrt vs vk), upper: log x = {env.upper_log_x:.6e}")
    return 0


def cmd_verify_small(args: argparse.Namespace) -> int:
    from . import derived, engine, primes
    table = _resolve_table(args)
    pt = primes.build_sieve(int(max(engine.SIEVE_CHECKED_HI.values())))
    first = engine.compute_row(engine.DEFAULT_ROW_PARAMS[0], table)
    checks = derived.small_range_checks(first, pt)
    coverage = engine.piecewise_coverage(first, pt)
    for rep in checks:
        print(f"{rep.quantity:>6} on [{rep.lo:g}, {rep.hi:g}]: {'pass' if rep.passed else 'FAIL'} "
              f"({rep.n_points} points, worst margin {rep.worst_margin:.6g} at x = {rep.worst_x:g})")
    for seg in coverage.segments:
        print(f"segment {seg.span}: {seg.status.upper()} - {seg.detail}")
    return 0 if coverage.hard_pass and all(rep.passed for rep in checks) else 1


def cmd_eval(args: argparse.Namespace) -> int:
    from . import derived, engine, regimes
    from .extnum import ExtReal
    table = _resolve_table(args)
    q = args.quantity
    if args.log_x < (min_log_x := math.log(engine.SIEVE_CHECKED_HI[q])):
        print(f"error: log x = {args.log_x:g} is below the analytically verified "
              f"range for {q} (log x >= {min_log_x:.4f}); "
              "use `pntbounds verify-small` for the sieve-checked range",
              file=sys.stderr)
        return 2
    rows = engine.compute_default_rows(table)
    vk = engine.compute_row(engine.VK_DEFAULT_PARAMS, table)
    applicable = [r for r in (*rows, vk) if r.X <= args.log_x]
    best_val, best_src = min((regimes.log_envelope(kind, math.log(a), b, c, args.log_x), src)
                             for src, kind, a, b, c in derived.served_envelopes(q, applicable))
    rel = ExtReal.exp_of(best_val)
    payload = {"quantity": q, "log_x": args.log_x, "source": best_src,
               "relative_bound": eps0_sci(rel)}
    if args.log_x <= 700.0:
        payload["absolute_bound"] = eps0_sci(ExtReal.exp_of(best_val + args.log_x))
    if args.format == "json":
        import json
        m, e = rel.log10_parts()
        payload["relative_bound"] = {"mantissa": m, "decimal_exponent": e}
        print(json.dumps(payload, indent=2))
    else:
        line = f"{q} at log x = {args.log_x:g}: relative bound {payload['relative_bound']}"
        if "absolute_bound" in payload:
            line += f", absolute bound {payload['absolute_bound']}"
        line += f" (from row {best_src})"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pntbounds",
        description="Recompute certified error-term bounds for the prime counting functions.",
    )
    parser.add_argument("--density-table", default=None,
                        help=f"path to a zero-density CSV (default: ${ENV_TABLE} or packaged)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="recompute the psi-bound constant table")
    p.add_argument("--rows", default=None, help="comma-separated row labels, e.g. 6000,1e5")
    p.add_argument("--optimize", action="store_true", help="re-optimize sigma and K per row")
    p.add_argument("--regime", choices=["medium", "large", "vk", "auto"], default=None,
                   help="auto (the default): medium below log x0 = 1e5, VK from the upper envelope crossing "
                        "that crossovers reports (computed, not yet proved), large between")
    p.add_argument("--log-x0", dest="log_x0", type=finite_float, default=None,
                   help="compute a single custom row anchored here")
    p.add_argument("--sigma", type=finite_float, default=None,
                   help="sigma of the --log-x0 row (not with --optimize)")
    p.add_argument("--K", type=int, default=None,
                   help="K of a medium --log-x0 row (not with --optimize)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_table1, usage_error=p.error)

    p = sub.add_parser("brackets", help="turning-point/minimum bracket constants")
    p.add_argument("--regime", choices=["nu2", "nu3"], default="nu2")
    p.add_argument("--log-x0", dest="log_x0", type=finite_float, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("crossovers", help="zero-free-region and envelope crossovers")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_crossovers)

    p = sub.add_parser("verify-small", help="sieve-check the small-range claims")
    p.set_defaults(func=cmd_verify_small)

    p = sub.add_parser("eval", help="best certified envelope at a given log x")
    p.add_argument("--log-x", dest="log_x", type=finite_float, required=True)
    p.add_argument("--quantity", choices=["psi", "theta", "pi"], required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, zfr.PntBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
