"""Correctness gate: an independent sieve, mpmath's li, and reference output.

Nothing here imports pntbounds, except ``capture``, which records the
reference files from the program as it stands:

    python3 perfbench/check.py --capture

Re-capture only when a change to the printed output is intended; the
ROADMAP pins `table1`, `brackets`, `crossovers` and `verify-small` as
byte-identical.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "reference"
CSV = ROOT / "src" / "pntbounds" / "data" / "zero_density.csv"

# CLI argv -> reference file holding its exact output
CLI_REFERENCE = {
    ("table1",): "table1.txt",
    ("table1", "--format", "json"): "table1.json",
    ("table1", "--format", "csv"): "table1.csv",
    ("brackets", "--regime", "nu2"): "brackets_nu2.txt",
    ("brackets", "--regime", "nu3"): "brackets_nu3.txt",
    ("crossovers",): "crossovers.txt",
    ("verify-small",): "verify_small.txt",
}
REL_TOL = 1e-9
# The unrounded constants are themselves float results (B = (5 - 2 sigma)/2
# at sigma = 0.989 gives 1.5110000000000001 for the exact 1.511), so
# "rounded toward validity" is checked up to that arithmetic's own error.
# An undershoot beyond it, such as rounding 9.380000000005 down to 9.38,
# still fails.
ROUNDING_ULPS = 8


def cli_argv(args) -> list[str]:
    """Full command line of one CLI request, with the bundled table explicit."""
    return [sys.executable, "-m", "pntbounds.cli", "--density-table", str(CSV), *args]


def load_reference(ref_dir: Path = REF_DIR) -> dict:
    cli = {name: (ref_dir / name).read_text(encoding="utf-8") for name in CLI_REFERENCE.values()}
    api = json.loads((ref_dir / "api.json").read_text(encoding="utf-8"))
    return {"cli": cli, "api": api, "rows": json.loads(cli["table1.json"])}


def close(got, want) -> bool:
    """Structural equality; floats agree to REL_TOL, everything else exactly."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(want) and all(
            close(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300)
    return type(got) is type(want) and got == want


def row_invariants(row: dict) -> bool:
    """Rounding goes toward validity: A and B up, C down; row is certified."""
    def at_least(big: float, small: float) -> bool:
        return big >= small - ROUNDING_ULPS * math.ulp(small)

    m = row["eps0"]["mantissa"]
    return (row["A_unrounded"] > 0.0 and at_least(row["A"], row["A_unrounded"])
            and at_least(row["B"], row["B_unrounded"]) and at_least(row["C_unrounded"], row["C"])
            and row["monotone_certified"] is True and 0.98 <= row["sigma"] < 1.0
            and 1.0 <= m < 10.0)


def vk_decay_arg(log_x):
    return log_x ** 0.6 / np.log(log_x) ** 0.2


class Independent:
    """Sieve-side truth written apart from pntbounds.primes."""

    def __init__(self, limit: int) -> None:
        odd = np.ones((limit - 1) // 2 + 1, dtype=bool)  # odd[i] <-> 2i + 1
        odd[0] = False
        for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2::p] = False
        self.primes = np.concatenate([[2], 2 * np.flatnonzero(odd) + 1]).astype(np.int64)
        self.theta_cum = np.cumsum(np.log(self.primes.astype(float)))
        powers, logs = [], []
        for p in self.primes[self.primes <= math.isqrt(limit)].tolist():
            q = p * p
            while q <= limit:
                powers.append(q)
                logs.append(math.log(p))
                q *= p
        pp = np.concatenate([self.primes, np.array(powers, dtype=np.int64)])
        lg = np.concatenate([np.log(self.primes.astype(float)), np.array(logs)])
        order = np.argsort(pp, kind="stable")
        self.pp, self.pp_log = pp[order], lg[order]
        self.psi_cum = np.cumsum(self.pp_log)
        self._li: dict[float, float] = {}

    def pi(self, x):
        return np.searchsorted(self.primes, np.floor(x), side="right").astype(float)

    def theta(self, x):
        k = np.searchsorted(self.primes, np.floor(x), side="right")
        return np.where(k > 0, self.theta_cum[np.maximum(k - 1, 0)], 0.0)

    def psi(self, x):
        k = np.searchsorted(self.pp, np.floor(x), side="right")
        return np.where(k > 0, self.psi_cum[np.maximum(k - 1, 0)], 0.0)

    def li(self, x: float) -> float:
        if x not in self._li:
            self._li[x] = float(mpmath.li(x))
        return self._li[x]

    def report(self, quantity: str, lo: float, hi: float, bound) -> dict:
        """What verify_pointwise must return, checked point by point in its order."""
        if quantity == "psi":
            sel = (self.pp >= lo) & (self.pp <= hi)
            xs, jumps = self.pp[sel].astype(float), self.pp_log[sel]
        else:
            p = self.primes[(self.primes >= lo) & (self.primes <= hi)]
            xs = p.astype(float)
            jumps = np.log(xs) if quantity == "theta" else np.ones_like(xs)
        f = {"psi": self.psi, "theta": self.theta, "pi": self.pi}[quantity]
        after = f(xs)
        pts = np.concatenate([np.repeat(xs, 2), [lo, hi]])
        vals = np.concatenate([np.column_stack([after, after - jumps]).ravel(), f(np.array([lo, hi]))])
        main = pts if quantity != "pi" else np.array([self.li(float(x)) for x in pts])
        margin = bound(pts) - np.abs(vals - main)
        return {"n_points": int(pts.size), "passed": bool(np.all(margin >= 0.0)),
                "worst_margin": float(margin.min()), "points": pts, "margins": margin}


def verify_bounds(ref: dict) -> dict:
    """The three envelopes `verify-small` checks, from the reference constants."""
    first = ref["rows"][0]
    a, b, c = first["A"], first["B"], first["C"]
    a1 = ref["api"]["theta"][first["label"]]
    pic = ref["api"]["pi_classical"]

    def psi(x):
        lx = np.log(x)
        return np.exp(math.log(a) + b * np.log(lx) - c * np.sqrt(lx)) * x

    def theta(x):
        lx = np.log(x)
        return a1 * x * lx ** b * np.exp(-c * np.sqrt(lx))

    def pi(x):
        lx = np.log(x)
        return pic["A2"] * x * lx ** (pic["B"] - 1.0) * np.exp(-pic["C"] * np.sqrt(lx))

    return {"psi": psi, "theta": theta, "pi": pi}


def check_verify(got: dict, want: dict) -> bool:
    if got["n_points"] != want["n_points"] or got["passed"] != want["passed"]:
        return False
    tol = REL_TOL * max(1.0, float(np.max(want["points"])))
    if abs(got["worst_margin"] - want["worst_margin"]) > tol:
        return False
    at = want["margins"][want["points"] == got["worst_x"]]
    return bool(at.size) and bool(np.min(np.abs(at - want["worst_margin"])) <= tol)


def expected_eval(ref: dict, quantity: str, log_x: float) -> tuple[float, str]:
    """(ln relative bound, source row) that `eval` must print, recomputed."""
    rows, api = ref["rows"], ref["api"]
    vk = api["vk_row"]
    ll = math.log(log_x)
    cands = []
    if quantity in ("psi", "theta"):
        for r in rows:
            if r["X"] <= log_x:
                a = r["A"] if quantity == "psi" else api["theta"][r["label"]]
                cands.append((math.log(a) + r["B"] * ll - r["C"] * math.sqrt(log_x), r["label"]))
        if vk["X"] <= log_x:
            a = vk["A"] if quantity == "psi" else api["theta"]["vk"]
            cands.append((math.log(a) + vk["B"] * ll - vk["C"] * float(vk_decay_arg(log_x)), "vk"))
    else:
        for name in ("classical", "vk"):
            pic = api[f"pi_{name}"]
            u = math.sqrt(log_x) if pic["u_kind"] == "sqrt_log" else float(vk_decay_arg(log_x))
            cands.append((math.log(pic["A2"]) + (pic["B"] - 1.0) * ll - pic["C"] * u, name))
    return min(cands)


def check_cli(args: list[str], rc: int, out: str, ref: dict) -> bool:
    """Exit code 0 and the output the reference (or a recomputation) demands."""
    if rc != 0:
        return False
    try:
        return _cli_output_ok(args, out, ref)
    except (ValueError, KeyError, IndexError, TypeError):  # malformed output is wrong output
        return False


def _cli_output_ok(args: list[str], out: str, ref: dict) -> bool:
    key = tuple(args)
    if key in CLI_REFERENCE:
        return out == ref["cli"][CLI_REFERENCE[key]]
    cmd = args[0]
    if cmd == "table1" and "--rows" in args:
        wanted = set(args[args.index("--rows") + 1].split(","))
        lines = ref["cli"]["table1.txt"].splitlines(keepends=True)
        keep = [ln for ln in lines[1:] if ln.split()[0] in wanted]
        return out == lines[0] + "".join(keep)
    if cmd == "table1" and "--log-x0" in args:
        rows = json.loads(out)
        log_x0 = float(args[args.index("--log-x0") + 1])
        regime = args[args.index("--regime") + 1]
        return (len(rows) == 1 and row_invariants(rows[0]) and rows[0]["regime"] == regime
                and rows[0]["X"] == log_x0)
    if cmd == "table1" and "--optimize" in args:
        lines = out.splitlines()
        return len(lines) == 16 and [ln.split()[0] for ln in lines[1:]] == [
            r["label"] for r in ref["rows"]]
    if cmd == "eval":
        got = json.loads(out)
        log_x = float(args[args.index("--log-x") + 1])
        want_log, want_src = expected_eval(ref, got["quantity"], log_x)
        rb = got["relative_bound"]
        have_log = math.log(rb["mantissa"]) + rb["decimal_exponent"] * math.log(10.0)
        return got["source"] == want_src and abs(have_log - want_log) <= 1e-9 * max(1.0, abs(want_log))
    return False


def capture(ref_dir: Path = REF_DIR) -> None:
    """Record the reference outputs from the program in this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    from pntbounds import derived, engine, primes, zdensity

    ref_dir.mkdir(exist_ok=True)
    for args, name in CLI_REFERENCE.items():
        res = subprocess.run(cli_argv(args), capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
        (ref_dir / name).write_text(res.stdout, encoding="utf-8")
    table = zdensity.load_table(CSV)
    rows = engine.compute_default_rows(table)
    vk = engine.compute_row(engine.VK_DEFAULT_PARAMS, table)
    theta = {r.label: derived.theta_constants(r).A1 for r in rows}
    theta["vk"] = derived.theta_constants(vk, extra=0.001).A1
    keep = ("A2_unrounded", "A2", "A1", "B", "C", "alpha", "u_kind")
    pis = {name: {k: getattr(fn(), k) for k in keep} for name, fn in
           (("pi_classical", derived.pi_constants_classical), ("pi_vk", derived.pi_constants_vk))}
    cmp_ = engine.regime_compare(rows, vk)
    cov = engine.piecewise_coverage(rows[0], primes.build_sieve(10_000))
    api = {"vk_row": vk.as_dict(), "theta": theta, **pis,
           "regime_compare": {"lower": cmp_.lower_log_x, "upper": cmp_.upper_log_x},
           "coverage": [[s.span, s.status, s.detail] for s in cov.segments]}
    (ref_dir / "api.json").write_text(json.dumps(api, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 perfbench/check.py --capture")
    capture()
