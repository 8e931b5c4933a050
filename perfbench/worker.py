"""Child process of the benchmark: one fresh interpreter per workload run.

    worker.py setup  WORKLOAD CSV          start up, print "ready", exit
    worker.py run    WORKLOAD CSV SECONDS  start up, then run the request
                                           cycles read from stdin
    worker.py trace  WORKLOAD CSV SECONDS  the same with span wrappers, plus
                                           the per-layer sweep
    worker.py cli    SPANS_PATH ARGS...    one traced CLI call

Start-up is everything up to the first request: interpreter start,
``import pntbounds`` and ``load_table``, plus the sieves and the
`verify-small` envelopes on the verify workload.  The parent times it
from spawn to the "ready" line.  Results go to stdout as one JSON line.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from dataclasses import asdict

from cores import FastCore
from spans import Tracer, alternate, self_times, write

SECOND_SIEVE_LIMIT = 1_000_000


def start(workload: str, csv: str) -> dict:
    from pntbounds import primes, zdensity

    ctx = {"table": zdensity.load_table(csv), "core": FastCore()}
    if workload == "verify":
        ctx["sieve"] = primes.build_sieve(primes.DEFAULT_SIEVE_LIMIT)
        ctx["sieve_small"] = primes.build_sieve(SECOND_SIEVE_LIMIT)
        ctx["bounds"], ctx["first"] = verify_small_bounds(ctx["table"])
    return ctx


def verify_small_bounds(table):
    """The envelopes exactly as `pntbounds verify-small` builds them."""
    from pntbounds import derived, engine

    first = engine.compute_default_rows(table)[0]

    def psi_bound(x: float) -> float:
        return math.exp(first.log_rel_envelope(math.log(x))) * x

    theta_a1 = derived.theta_constants(first).A1

    def theta_bound(x: float) -> float:
        lx = math.log(x)
        return theta_a1 * x * lx**first.B * math.exp(-first.C * math.sqrt(lx))

    pi_c = derived.pi_constants_classical()

    def pi_bound(x: float) -> float:
        lx = math.log(x)
        return pi_c.A2 * x * lx ** (pi_c.B - 1.0) * math.exp(-pi_c.C * math.sqrt(lx))

    return {"psi": psi_bound, "theta": theta_bound, "pi": pi_bound}, first


# -- requests: each returns the program's raw result ---------------------------


def op_table(ctx, req):
    from pntbounds import engine
    ctx["rows"] = engine.compute_default_rows(ctx["table"])
    return ctx["rows"]


def op_vk_row(ctx, req):
    from pntbounds import engine
    ctx["vk"] = engine.compute_row(engine.VK_DEFAULT_PARAMS, ctx["table"])
    return ctx["vk"]


def op_theta(ctx, req):
    from pntbounds import derived
    rows = ctx["rows"] + [ctx["vk"]]
    row = rows[req["row"]]
    return derived.theta_constants(row, extra=0.001 if row.regime == "vk" else 0.01)


def op_pi(ctx, req):
    from pntbounds import derived
    return getattr(derived, f"pi_constants_{req['set']}")()


def op_regime_compare(ctx, req):
    from pntbounds import engine
    return engine.regime_compare(ctx["rows"], ctx["vk"])


def op_optimize(ctx, req):
    from pntbounds import engine
    claim = req["anchor"] if req["regime"] == "medium" else None
    return engine.optimize(req["anchor"], req["regime"], ctx["table"], claim_X=claim)


def op_verify(ctx, req):
    from pntbounds import primes
    pt = ctx["sieve"] if req["sieve"] == "main" else ctx["sieve_small"]
    q = req["quantity"]
    return primes.verify_pointwise(pt, ctx["bounds"][q], q, 2.0, req["hi"])


def op_coverage(ctx, req):
    from pntbounds import engine
    return engine.piecewise_coverage(ctx["first"], ctx["sieve"])


OPS = {"table": op_table, "vk_row": op_vk_row, "theta": op_theta, "pi": op_pi,
       "regime_compare": op_regime_compare, "optimize": op_optimize,
       "verify": op_verify, "coverage": op_coverage}


def summary(op: str, out):
    """JSON form of a result, for the parent's correctness gate."""
    if op == "table":
        return [r.as_dict() for r in out]
    if op in ("vk_row", "optimize"):
        return out.as_dict()
    if op == "theta":
        return {"label": out.source_label, "A1": out.A1}
    if op == "pi":
        return {k: getattr(out, k) for k in ("A2_unrounded", "A2", "A1", "B", "C", "alpha", "u_kind")}
    if op == "regime_compare":
        return {"lower": out.lower_log_x, "upper": out.upper_log_x}
    if op == "verify":
        return {k: v for k, v in asdict(out).items() if k in ("passed", "worst_margin", "worst_x", "n_points")}
    return [[s.span, s.status, s.detail] for s in out.segments]


def run_cycles(ctx, cycles, seconds: float, n_cycles: int | None = None) -> dict:
    """Closed loop over whole cycles until ``seconds`` pass (or ``n_cycles`` are done).

    Every cycle is finished, so each run sees the same request mix.  A
    cycle's time is the sum of its request latencies, which leaves out the
    vCPU probe before each request.
    """
    latencies, raw, cycle_s = [], [], []
    done = 0
    t_start = time.perf_counter()
    while True:
        cycle = cycles[done % len(cycles)]
        for i, req in enumerate(cycle):
            ctx["core"].pick()
            t0 = time.perf_counter()
            try:
                out, err = OPS[req["op"]](ctx, req), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            raw.append((done % len(cycles), i, out, err))
        done += 1
        now = time.perf_counter()
        cycle_s.append(sum(latencies[-len(cycle):]))
        if (n_cycles is None and now - t_start >= seconds) or done == n_cycles:
            break
    results = [[c, i, None if err else summary(cycles[c][i]["op"], out), err]
               for c, i, out, err in raw]
    return {"latencies": latencies, "results": results, "cycle_s": cycle_s,
            "elapsed": sum(cycle_s)}


def traced_pairs(ctx, cycles, seconds: float, tracer: Tracer):
    """Each cycle once untraced and once traced (``spans.alternate``).
    Returns (loops, untraced s, overhead s)."""
    loops = []

    def run_once(k: int, traced: bool) -> float:
        if traced:
            tracer.install()
        loop = run_cycles(ctx, [cycles[k % len(cycles)]], 0.0, n_cycles=1)
        tracer.uninstall()
        loop["results"] = [[k % len(cycles), i, got, err] for _c, i, got, err in loop["results"]]
        loops.append(loop)
        return loop["elapsed"]

    untraced, traced = alternate(run_once, seconds)
    return loops, untraced, traced - untraced


def point_probes(ctx, spec) -> dict:
    """psi/theta/pi at seeded points and li at sampled jump points (untimed)."""
    from pntbounds import primes
    pt = ctx["sieve"]
    return {"points": [[x, pt.psi(x), pt.theta(x), pt.pi_count(x)] for x in spec["points"]],
            "li": [[x, primes.li(x)] for x in spec["li_points"]]}


# -- traced sweep: one probe per per-layer metric -------------------------------


def sweep(ctx, tracer: Tracer, spec) -> dict:
    from pntbounds import derived, engine, primes, zdensity, zfr

    table = ctx["table"]
    m: dict[str, float] = {}

    def probe(name, fn, n=1):
        ctx["core"].pick()
        with tracer.span("probe", name):
            for _ in range(n):
                out = fn()
        m[name] = (tracer.spans[-1][5] - tracer.spans[-1][4]) / n
        return out

    before = dict(tracer.counts)
    sweep_t0 = time.perf_counter()
    probe("zdensity.load_table_s", lambda: zdensity.load_table(ctx["csv"]))
    pt = probe("primes.build_sieve_s", lambda: primes.build_sieve(primes.DEFAULT_SIEVE_LIMIT))
    pt_small = primes.build_sieve(SECOND_SIEVE_LIMIT)
    m["primes.sieve_mb"] = (pt.limit + 1 + pt.primes.nbytes + pt._cum_log.nbytes) / 2**20
    bounds, first = verify_small_bounds(table)
    points = 0
    for req in spec["verify"]:
        q, size = req["quantity"], req["size"]
        rep = probe(f"primes.verify_{q}_s.{size}",
                    lambda: primes.verify_pointwise(pt, bounds[q], q, 2.0, req["hi"]))
        points += rep.n_points
    m["primes.points_checked"] = points
    xs = spec["psi_points"]
    for limit, sieve in (("1e7", pt), ("1e6", pt_small)):
        probe(f"primes.psi_call_us.{limit}", lambda: [sieve.psi(x) for x in xs])
        m[f"primes.psi_call_us.{limit}"] *= 1e6 / len(xs)
    probe("primes.li_call_us", lambda: [primes.li(x) for x in spec["li_points"]])
    m["primes.li_call_us"] *= 1e6 / len(spec["li_points"])

    n_opt = 0
    for req in spec["optimize"]:
        probe(f"engine.optimize_{req['regime']}_s", lambda: op_optimize(ctx, req))
        n_opt += 1
    for regime, params in (("medium", engine.DEFAULT_ROW_PARAMS[0]),
                           ("large", engine.DEFAULT_ROW_PARAMS[9]),
                           ("vk", engine.VK_DEFAULT_PARAMS)):
        probe(f"engine.row_{regime}_s", lambda: engine.compute_row(params, table), n=20)
    rows = engine.compute_default_rows(table)
    vk = engine.compute_row(engine.VK_DEFAULT_PARAMS, table)
    probe("engine.regime_compare_s", lambda: engine.regime_compare(rows, vk))
    probe("engine.coverage_s", lambda: engine.piecewise_coverage(first, pt))
    probe("zfr.envelope_crossovers_s", zfr.envelope_crossovers)
    probe("derived.theta_constants_s", lambda: [derived.theta_constants(r) for r in rows])
    m["derived.theta_constants_s"] /= len(rows)
    probe("derived.pi_constants_s",
          lambda: (derived.pi_constants_classical(), derived.pi_constants_vk()))

    opt_ids = {s[0] for s in tracer.spans if s[3] == "engine.optimize" and s[4] >= sweep_t0}
    attempts = sum(1 for s in tracer.spans
                   if s[3] in ("engine.medium_bound", "engine.large_bound", "engine.vk_bound")
                   and s[1] in opt_ids)
    m["engine.cert_attempts"] = attempts / n_opt
    m["engine.cert_yield"] = n_opt / attempts
    m["regimes.bracket_s"] = sum(t1 - t0 for _s, _p, _l, n, t0, t1 in tracer.spans
                                 if n.startswith("regimes.bracket") and t0 >= sweep_t0)
    delta = {k: tracer.counts[k] - before.get(k, 0) for k in tracer.counts}
    m["regimes.bracket_calls"] = delta.get("regimes.bracket_nu2", 0) + delta.get("regimes.bracket_nu3", 0)
    m["engine.certify_monotone_calls"] = delta.get("engine.certify_monotone", 0)
    m["zdensity.coeffs_calls"] = delta.get("zdensity.coeffs", 0)
    m["extnum.exp_of_calls"] = delta.get("extnum.exp_of", 0)
    return m


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        tracer = Tracer()
        with tracer.span("cli", "cli.import"):
            from pntbounds import cli
        tracer.install()
        with tracer.span("cli", "cli.main"):
            rc = cli.main(argv[2:])
        sys.stdout.flush()
        write(argv[1], tracer.dump())
        return rc

    workload, csv = argv[1], argv[2]
    ctx = start(workload, csv)
    ctx["csv"] = csv
    print("ready", flush=True)
    if mode == "setup":
        return 0
    spec = json.loads(sys.stdin.read())
    seconds = float(argv[3])
    out: dict = {"loops": []}
    if mode == "run":
        out["loops"].append(run_cycles(ctx, spec["cycles"], seconds))
        if workload == "verify":
            out["probes"] = point_probes(ctx, spec)
    else:
        tracer = Tracer()
        if spec["cycles"]:
            out["loops"], out["untraced_s"], out["overhead_s"] = traced_pairs(
                ctx, spec["cycles"], seconds, tracer)
        tracer.install()
        out["layers"] = sweep(ctx, tracer, spec["sweep"])
        out["missing"] = tracer.missing()
        out["self_s"] = self_times(tracer.spans)
        out["n_spans"] = len(tracer.spans)
        write(spec["spans_path"], tracer.dump())
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["probe_s"] = ctx["core"].probe_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
