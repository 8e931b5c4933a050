"""End-to-end and per-layer benchmark of pntbounds.

    python3 perfbench/run.py --workload certify|verify|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program runs from ``src/`` in fresh
child processes; this process only makes the inputs from the seed, times
set-up and requests from outside, and checks every output (see
``check.py``).  The last line of stdout is the result object; the line
before it is the run record.  Full samples and spans go to ``.bench_out/``.
Why each workload exists, and which layer metric should move which
end-to-end metric, is in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import check
from cores import FastCore
from spans import LAYERS, alternate, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("certify", "verify", "cli")
ENV_TABLE = "PNT_DENSITY_TABLE"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "req_p50_ms": "ms",
                    "req_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"primes.sieve_mb": "MB-computed", "primes.points_checked": "count",
                   "engine.cert_attempts": "count", "engine.cert_yield": "ratio",
                   "trace.overhead_pct": "%", "trace.spans": "count"}


# -- inputs ------------------------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def certify_cycle(rng: random.Random) -> list[dict]:
    """The 15-row table, the VK row, theta constants for all 16 rows, both pi
    sets, regime_compare, then seeded optimize calls in each regime.

    The counts put the median inside the VK-optimize class and the 90th
    percentile inside the medium-optimize class (see NOTES.md).
    """
    fixed = ([{"op": "table"}, {"op": "vk_row"}] + [{"op": "theta", "row": i} for i in range(16)]
             + [{"op": "pi", "set": "classical"}, {"op": "pi", "set": "vk"},
                {"op": "regime_compare"}])
    opt = ([{"op": "optimize", "regime": "medium", "anchor": rng.uniform(2488.0, 1e4)}
            for _ in range(10)]
           + [{"op": "optimize", "regime": "large", "anchor": _log_uniform(rng, 1e5, 1e10)}
              for _ in range(11)]
           + [{"op": "optimize", "regime": "vk", "anchor": _log_uniform(rng, 2.8e10, 1e12)}
              for _ in range(8)])
    rng.shuffle(opt)
    return fixed + opt


def verify_cycle(rng: random.Random) -> list[dict]:
    """verify_pointwise on [2, hi] at two sizes 4.5x apart per quantity, the
    large psi range again on the 1e6 sieve, and piecewise_coverage.

    The psi ranges, whose cost grows with the sieve size, appear three times
    each.  That puts the median in the small-psi class and the 90th
    percentile in the large-psi class (see NOTES.md).
    """
    def v(q, size, hi, sieve="main"):
        return {"op": "verify", "quantity": q, "size": size, "hi": round(hi, 3), "sieve": sieve}

    psi_s = [rng.uniform(600.0, 700.0) for _ in range(3)]
    psi_l = [4.5 * rng.uniform(600.0, 700.0) for _ in range(3)]
    theta_s = rng.uniform(9000.0, 11000.0)
    pi_s = rng.uniform(180.0, 220.0)
    return [v("theta", "small", theta_s), v("theta", "large", 4.5 * theta_s), {"op": "coverage"},
            v("psi", "large", psi_l[0], sieve="small"), v("pi", "small", pi_s),
            *[v("psi", "small", hi) for hi in psi_s],
            v("pi", "large", 4.5 * rng.uniform(180.0, 220.0)),
            *[v("psi", "large", hi) for hi in psi_l]]


def cli_cycle(rng: random.Random, labels: list[str]) -> list[list[str]]:
    """Every subcommand and format; --optimize is left to the certify workload.

    The seeded commands appear twice, so a cycle holds 21 commands and
    takes 10-16 s: a 20 s run is two cycles, and `req_p90_ms` keeps the
    same quantile, unless the machine is at its fastest.
    """
    def seeded() -> list[list[str]]:
        return [
            ["table1", "--rows", ",".join(rng.sample(labels, rng.randint(1, 4)))],
            ["table1", "--log-x0", f"{rng.uniform(2488.0, 1e4):.3f}", "--regime", "medium",
             "--format", "json"],
            # the default large sigma certifies from log x0 ~ 2.4e5 up
            ["table1", "--log-x0", f"{_log_uniform(rng, 1e6, 1e10):.6g}", "--regime", "large",
             "--format", "json"],
            ["table1", "--log-x0", f"{_log_uniform(rng, 2.8e10, 1e12):.6g}", "--regime", "vk",
             "--format", "json"],
            *[["eval", "--log-x", f"{_log_uniform(rng, 8.0, 1e11):.6g}", "--quantity", q,
               "--format", "json"] for q in ("psi", "theta", "pi")],
        ]

    return [["table1"], ["table1", "--format", "json"], ["table1", "--format", "csv"],
            ["brackets", "--regime", "nu2"], ["brackets", "--regime", "nu3"], ["crossovers"],
            ["verify-small"], *seeded(), *seeded()]


def make_spec(workload: str, seed: int, seconds: float, ref: dict) -> dict:
    """All inputs of one run, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    n_cycles = int(4 * seconds) + 4  # reused in order if a fast program runs out
    if workload == "certify":
        cycles = [certify_cycle(rng) for _ in range(n_cycles)]
    elif workload == "verify":
        cycles = [verify_cycle(rng) for _ in range(n_cycles)]
    else:
        labels = [r["label"] for r in ref["rows"]]
        cycles = [cli_cycle(rng, labels) for _ in range(n_cycles)]
    spec = {"cycles": cycles}
    if workload == "verify":
        spec["points"] = [round(_log_uniform(rng, 2.0, 1e7), 3) for _ in range(24)]
        primes = check.Independent(100_000).primes
        spec["li_points"] = [float(p) for p in rng.sample(primes.tolist(), 16)]
    srng = random.Random(f"sweep:{seed}")
    first = verify_cycle(srng)
    spec["sweep"] = {
        "verify": list({(r["quantity"], r["size"]): r for r in reversed(first)
                        if r["op"] == "verify" and r["sieve"] == "main"}.values()),
        "psi_points": [round(srng.uniform(2.0, 1e4), 3) for _ in range(200)],
        "li_points": [round(srng.uniform(2.0, 1e4), 3) for _ in range(50)],
        "optimize": [{"op": "optimize", "regime": "medium", "anchor": srng.uniform(2488.0, 1e4)},
                     {"op": "optimize", "regime": "large", "anchor": _log_uniform(srng, 1e5, 1e10)},
                     {"op": "optimize", "regime": "vk", "anchor": _log_uniform(srng, 2.8e10, 1e12)}],
        "eval_log_x": f"{_log_uniform(srng, 8.0, 1e11):.6g}",
    }
    return spec


# -- child processes ------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != ENV_TABLE}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, workload: str, seconds: float | None = None) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds from spawn to its "ready" line."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(check.CSV)]
    if seconds is not None:
        argv.append(repr(seconds))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {mode} {workload} did not start")
    return proc, ready


def finish(proc: subprocess.Popen, payload: str | None = None) -> dict:
    try:
        out, _ = proc.communicate(payload, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if payload is not None else {}


def setup_times(workload: str, n: int, core: FastCore) -> list[float]:
    times = []
    for _ in range(n):
        core.pick()
        proc, ready = spawn("setup", workload)
        finish(proc)
        times.append(ready)
    return times


def run_cli_command(args: list[str], core: FastCore,
                    spans_path: Path | None = None) -> tuple[int, str, float]:
    """One CLI process, pinned (by inheritance) to the faster vCPU."""
    core.pick()
    if spans_path is None:
        argv = check.cli_argv(args)
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans_path),
                "--density-table", str(check.CSV), *args]
    t0 = time.perf_counter()
    res = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S)
    return res.returncode, res.stdout, time.perf_counter() - t0


def run_cli_cycles(cycles, seconds: float, ref: dict, core: FastCore,
                   n_cycles: int | None = None, spans_dir: Path | None = None) -> dict:
    """Closed loop of fresh CLI processes, one at a time, over whole cycles."""
    latencies, ok, spans, cycle_s = [], [], [], []
    done = 0
    t_start = time.perf_counter()
    while True:
        cycle = cycles[done % len(cycles)]
        for args in cycle:
            path = None if spans_dir is None else spans_dir / f"cli-{len(latencies)}.json"
            rc, out, dt = run_cli_command(args, core, path)
            latencies.append(dt)
            ok.append(check.check_cli(args, rc, out, ref))
            if path is not None:
                spans.append(json.loads(path.read_text(encoding="utf-8"))["spans"])
                path.unlink()
        done += 1
        cycle_s.append(sum(latencies[-len(cycle):]))
        if (n_cycles is None and time.perf_counter() - t_start >= seconds) or done == n_cycles:
            break
    return {"latencies": latencies, "ok": ok, "cycle_s": cycle_s, "elapsed": sum(cycle_s),
            "spans": spans}


def cli_layer_probes(spec: dict, ref: dict, core: FastCore) -> tuple[dict, list[bool]]:
    """cli.* per-layer metrics: each timed in a fresh process from outside."""
    m, ok = {}, []
    env = child_env()
    imports, scipy = [], []
    for _ in range(3):
        core.pick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pntbounds"], env=env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)
        imports.append(time.perf_counter() - t0)
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pntbounds"],
                             env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        scipy.append(scipy_import_s(res.stderr))
    m["cli.import_s"] = statistics.median(imports)
    m["cli.import_scipy_s"] = statistics.median(scipy)
    commands = {
        "cli.table1_s": ["table1"], "cli.table1_json_s": ["table1", "--format", "json"],
        "cli.table1_csv_s": ["table1", "--format", "csv"],
        "cli.table1_optimize_s": ["table1", "--optimize"],
        "cli.brackets_s": ["brackets", "--regime", "nu2"], "cli.crossovers_s": ["crossovers"],
        "cli.eval_s": ["eval", "--log-x", spec["sweep"]["eval_log_x"], "--quantity", "psi",
                       "--format", "json"],
        "cli.verify_small_s": ["verify-small"],
    }
    for name, args in commands.items():
        rc, out, m[name] = run_cli_command(args, core)
        ok.append(check.check_cli(args, rc, out, ref))
    return m, ok


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent importing scipy modules themselves (-X importtime self times)."""
    total_us = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("scipy"):
            total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


# -- correctness gate --------------------------------------------------------------


class Gate:
    def __init__(self, ref: dict, workload: str) -> None:
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.indep = None
        if workload == "verify":
            self.indep = check.Independent(10_000_000)
            self.bounds = check.verify_bounds(ref)
            self._reports: dict = {}

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def api(self, cycles, loop: dict) -> None:
        labels = [r["label"] for r in self.ref["rows"]] + ["vk"]
        for c, i, got, err in loop["results"]:
            try:
                ok = err is None and self._api_ok(cycles[c][i], got, labels)
            except (KeyError, IndexError, TypeError):  # a changed result shape is a wrong answer
                ok = False
            self.count(ok)

    def _api_ok(self, req: dict, got, labels: list[str]) -> bool:
        op, api = req["op"], self.ref["api"]
        if op == "table":
            return check.close(got, self.ref["rows"]) and all(map(check.row_invariants, got))
        if op == "vk_row":
            return check.close(got, api["vk_row"]) and check.row_invariants(got)
        if op == "theta":
            label = labels[req["row"]]
            return got["label"] == label and check.close(got["A1"], api["theta"][label])
        if op == "pi":
            return check.close(got, api[f"pi_{req['set']}"])
        if op == "regime_compare":
            return check.close(got, api["regime_compare"])
        if op == "optimize":
            return (check.row_invariants(got) and got["regime"] == req["regime"]
                    and got["X"] == req["anchor"])
        if op == "coverage":
            return check.close(got, api["coverage"])
        key = (req["quantity"], req["hi"])
        if key not in self._reports:
            self._reports[key] = self.indep.report(req["quantity"], 2.0, req["hi"],
                                                   self.bounds[req["quantity"]])
        return check.check_verify(got, self._reports[key])

    def probes(self, probes: dict) -> None:
        for x, psi, theta, pi in probes["points"]:
            arr = [x]
            want = (self.indep.psi(arr)[0], self.indep.theta(arr)[0], self.indep.pi(arr)[0])
            self.count(all(math.isclose(g, w, rel_tol=check.REL_TOL, abs_tol=1e-9)
                           for g, w in zip((psi, theta, pi), want)))
        for x, li in probes["li"]:
            self.count(math.isclose(li, self.indep.li(x), rel_tol=1e-10))


# -- metrics ------------------------------------------------------------------------


def tail_percentile(samples: list[float], q: float = 0.9, beyond: int = 10) -> tuple[float, float]:
    """Nearest-rank q-quantile, lowered until ``beyond`` samples lie above it.

    Returns (value, the quantile actually used).  With fewer than
    beyond + 1 samples no quantile qualifies and the median is reported.
    """
    xs = sorted(samples)
    n = len(xs)
    k = min(math.ceil(q * n) - 1, n - 1 - beyond)
    if k < 0:
        k = (n - 1) // 2
    return xs[k], (k + 1) / n


def end_to_end(setup: list[float], loop: dict, work: list[float], rss_kb: float) -> tuple[dict, dict]:
    """``work`` holds the work done in each cycle; throughput is the median
    over cycles, so a short stall of the shared machine moves it less."""
    lat = loop["latencies"]
    p90, q_used = tail_percentile(lat)
    rates = [w / t for w, t in zip(work, loop["cycle_s"])]
    values = {"setup_s": statistics.median(setup), "work_per_s": statistics.median(rates),
              "req_p50_ms": 1e3 * statistics.median(lat), "req_p90_ms": 1e3 * p90,
              "peak_rss_mb": rss_kb / 1024.0}
    extra = {"req_samples": len(lat), "req_p90_quantile_used": q_used,
             "setup_samples_s": setup, "cycle_s": loop["cycle_s"], "loop_s": loop["elapsed"]}
    return values, extra


def untraced_run(workload: str, seconds: float, spec: dict, ref: dict, gate: Gate,
                 core: FastCore, setup_samples: int) -> tuple[dict, dict]:
    """End-to-end metrics: set-up samples, then the closed loop in a fresh process."""
    setup = setup_times(workload, setup_samples, core)
    size = len(spec["cycles"][0])
    if workload == "cli":
        loop = run_cli_cycles(spec["cycles"], seconds, ref, core)
        for ok in loop["ok"]:
            gate.count(ok)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        work = [size] * len(loop["cycle_s"])
    else:
        core.release()
        proc, _ready = spawn("run", workload, seconds)
        out = finish(proc, json.dumps(spec))
        loop = out["loops"][0]
        gate.api(spec["cycles"], loop)
        if workload == "verify":
            gate.probes(out["probes"])
            points = [got["n_points"] if got and spec["cycles"][c][i]["op"] == "verify" else 0
                      for c, i, got, _err in loop["results"]]
            work = [sum(points[j:j + size]) for j in range(0, len(points), size)]
        else:
            work = [size] * len(loop["cycle_s"])
        rss_kb = out["maxrss_kb"]
        core.probe_s += out["probe_s"]
    return end_to_end(setup, loop, work, rss_kb)


def traced_run(workload: str, seed: int, seconds: float, spec: dict, ref: dict, gate: Gate,
               core: FastCore) -> dict:
    """Per-layer metrics: traced cycles against untraced ones, the sweep, the cli probes."""
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    api_cycles = [] if workload == "cli" else spec["cycles"]
    core.release()
    proc, _ready = spawn("trace", workload, seconds)
    out = finish(proc, json.dumps({**spec, "cycles": api_cycles, "spans_path": str(spans_path)}))
    if out["missing"]:
        raise RuntimeError(f"span wrappers never fired: {out['missing']}")
    for loop in out["loops"]:
        gate.api(api_cycles, loop)
    core.probe_s += out["probe_s"]
    selfs = dict(out["self_s"])
    metrics = dict(out["layers"])
    overhead, untraced = out.get("overhead_s"), out.get("untraced_s")
    n_spans = out["n_spans"]
    if workload == "cli":
        def run_once(k: int, traced: bool) -> float:
            nonlocal n_spans
            loop = run_cli_cycles([spec["cycles"][k % len(spec["cycles"])]], 0.0, ref, core,
                                  n_cycles=1, spans_dir=OUT_DIR if traced else None)
            for ok in loop["ok"]:
                gate.count(ok)
            for spans in loop["spans"]:
                n_spans += len(spans)
                for layer, t in self_times(spans).items():
                    selfs[layer] = selfs.get(layer, 0.0) + t
            return loop["elapsed"]

        untraced, traced = alternate(run_once, seconds)
        overhead = traced - untraced
    cli_m, cli_ok = cli_layer_probes(spec, ref, core)
    metrics.update(cli_m)
    for ok in cli_ok:
        gate.count(ok)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced
    metrics["trace.spans"] = n_spans
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, ref: dict | None = None,
            spec: dict | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One run: the result object and the run record (with the samples behind it)."""
    ref = ref or check.load_reference()
    spec = spec or make_spec(workload, seed, seconds, ref)
    spec_hash = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    record = run_record(workload, seed, trace, spec_hash)
    gate = Gate(ref, workload)
    OUT_DIR.mkdir(exist_ok=True)
    core = FastCore()
    try:
        if trace:
            metrics = traced_run(workload, seed, seconds, spec, ref, gate, core)
            units = {k: unit_of(k) for k in metrics}
        else:
            metrics, detail = untraced_run(workload, seconds, spec, ref, gate, core, setup_samples)
            units = END_TO_END_UNITS
            record.update(detail)
    finally:
        core.release()
    # how fast the machine ran: the same probe loop timed before each pick
    record["probe_ms_median"] = 1e3 * statistics.median(core.probe_s) if core.probe_s else None
    record["load_avg_end"] = os.getloadavg()
    record["error_rate"] = gate.failed / max(gate.attempted, 1)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "record": record}


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    stem = name.split(".")[1] if "." in name else name
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_calls", "count")):
        if stem.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def run_record(workload: str, seed: int, trace: bool, spec_hash: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "workload": workload, "seed": seed, "trace": trace, "requests_sha256": spec_hash,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "load_avg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pntbounds" / "__init__.py").is_file():
        print(f"error: no pntbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(run["record"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
