"""Byte-for-byte CLI output against recorded goldens.

Each case runs ``cli.main`` in-process and compares stdout (and stderr)
with a file recorded from an earlier version of the program.  The seven
benchmark references in ``perfbench/reference/`` are read, never written,
and perfbench's own capture, rerun into a scratch directory, must rewrite
every file there (``api.json`` too) byte for byte; the remaining captures
live in ``tests/golden/``.  To record the goldens from the program as it
stands:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from importlib import resources
from pathlib import Path

import pytest

from pntbounds import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
BENCH_REF_DIR = ROOT / "perfbench" / "reference"
CSV = str(resources.files("pntbounds").joinpath("data/zero_density.csv"))

# benchmark reference file -> argv (run with the bundled CSV passed explicitly)
BENCH_CASES = {
    "table1.txt": ["table1"],
    "table1.json": ["table1", "--format", "json"],
    "table1.csv": ["table1", "--format", "csv"],
    "brackets_nu2.txt": ["brackets", "--regime", "nu2"],
    "brackets_nu3.txt": ["brackets", "--regime", "nu3"],
    "crossovers.txt": ["crossovers"],
    "verify_small.txt": ["verify-small"],
}

# golden name -> (argv, exit code)
CASES = {
    **{f"eval_{q}_{x}_{fmt}": (["eval", "--log-x", x, "--quantity", q, "--format", fmt], 0)
       for q, xs in (("psi", ("10", "6000", "1e6", "3e10")), ("theta", ("10", "3e10")),
                     ("pi", ("10", "1e4")))
       for x in xs for fmt in ("text", "json")},
    "brackets_nu3_json": (["brackets", "--regime", "nu3", "--format", "json"], 0),
    "crossovers_json": (["crossovers", "--format", "json"], 0),
    "table1_rows_csv": (["table1", "--rows", "6000,1e5", "--format", "csv"], 0),
    "table1_medium_json": (["table1", "--log-x0", "3000", "--regime", "medium",
                            "--format", "json"], 0),
    "table1_large_json": (["table1", "--log-x0", "1e6", "--regime", "large",
                           "--format", "json"], 0),
    "table1_vk_json": (["table1", "--log-x0", "2.8e10", "--regime", "vk", "--format", "json"], 0),
    "table1_optimize": (["table1", "--optimize"], 0),
    **{f"table1_optimize_{regime}_json": (["table1", "--log-x0", x, "--regime", regime,
                                           "--optimize", "--format", "json"], 0)
       for regime, x in (("medium", "6000"), ("large", "1e6"), ("vk", "3e10"))},
    "error_unknown_row": (["table1", "--rows", "nope"], 2),
    "error_sigma_out_of_range": (["table1", "--log-x0", "6000", "--sigma", "0.5"], 1),
    "error_eval_below_range": (["eval", "--log-x", "3", "--quantity", "pi"], 2),
}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_benchmark_reference_output(name):
    rc, out, err = run_main(["--density-table", CSV, *BENCH_CASES[name]])
    assert (rc, err) == (0, "")
    assert out == (BENCH_REF_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    argv, want_rc = CASES[name]
    rc, out, err = run_main(argv)
    assert rc == want_rc
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    err_file = GOLDEN_DIR / f"{name}.err"
    assert err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")


def test_benchmark_capture_rewrites_every_reference_file(tmp_path, monkeypatch):
    # the benchmark compares api.json (the VK row, theta and pi sets, regime crossings,
    # coverage) only to a relative 1e-9, so a drift in its last bits shows only here
    spec = importlib.util.spec_from_file_location("perfbench_check", BENCH_REF_DIR.parent / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    monkeypatch.setattr(sys, "path", list(sys.path))  # capture prepends src/
    check.capture(tmp_path)
    names = sorted(p.name for p in BENCH_REF_DIR.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (BENCH_REF_DIR / name).read_bytes(), name


def capture() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_rc) in CASES.items():
        rc, out, err = run_main(argv)
        if rc != want_rc:
            raise SystemExit(f"{name}: exit code {rc}, expected {want_rc}")
        (GOLDEN_DIR / f"{name}.out").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN_DIR / f"{name}.err").write_text(err, encoding="utf-8")


if __name__ == "__main__":
    capture()
    sys.exit(0)
