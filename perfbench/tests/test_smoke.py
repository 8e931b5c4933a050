"""Smoke self-test of the benchmark: each workload at a tiny size.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the program passes the correctness gate, and that the gate catches
a corrupted reference value.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402

MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def tiny_spec(workload: str, ref: dict) -> dict:
    """One short cycle per workload; the sweep keeps only its small ranges."""
    spec = run.make_spec(workload, SEED, 0, ref)
    first = spec["cycles"][0]
    if workload == "certify":
        vk_opt = next(r for r in first if r["op"] == "optimize" and r["regime"] == "vk")
        cycle = [r for r in first if r["op"] != "optimize"] + [vk_opt]
    elif workload == "verify":
        cycle = [r for r in first if r["op"] == "coverage" or r.get("size") == "small"]
    else:
        cycle = [a for a in first if a[0] in ("brackets", "eval")][:5]
    spec["cycles"] = [cycle]
    spec["sweep"]["verify"] = [dict(r, hi=min(r["hi"], 300.0)) for r in spec["sweep"]["verify"]]
    return spec


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in MANIFEST[section]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def ref():
    return check.load_reference()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_and_gate(workload, ref):
    out = run.measure(workload, SEED, 0, False, ref=ref, spec=tiny_spec(workload, ref),
                      setup_samples=1)
    res = out["result"]
    assert emitted(res) == units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert out["record"]["error_rate"] == 0.0
    assert out["record"]["seed"] == SEED and len(out["record"]["requests_sha256"]) == 64


@pytest.mark.parametrize("workload", ["verify", "cli"])
def test_traced_run_emits_every_per_layer_metric(workload, ref):
    out = run.measure(workload, SEED, 0, True, ref=ref, spec=tiny_spec(workload, ref))
    res = out["result"]
    assert emitted(res) == units("per_layer")
    assert res["correct"]
    assert res["metrics"]["trace.spans"]["value"] > 0


def test_corrupted_reference_raises_error_rate(ref):
    bad = copy.deepcopy(ref)
    bad["api"]["pi_classical"]["A2"] += 0.01
    out = run.measure("certify", SEED, 0, False, ref=bad, spec=tiny_spec("certify", ref),
                      setup_samples=1)
    assert out["result"]["failed"] >= 1 and not out["result"]["correct"]
    assert out["record"]["error_rate"] > 0.0
