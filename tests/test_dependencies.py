"""numpy is loaded only by the sieve (`verify-small`), `table1 --optimize` and
the demos; neither the package, its demos nor its tests import scipy (the
benchmark records its version); the CLI's start-up path loads neither
`dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Refuses every scipy import, imports the package, runs each CLI subcommand
# once and then every demo script named on the command line.
CHILD = r"""
import importlib.abc
import runpy
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import pntbounds  # noqa: E402
from pntbounds import cli  # noqa: E402

for argv in (["table1", "--rows", "6000"], ["brackets"], ["crossovers"],
             ["verify-small"], ["eval", "--log-x", "100", "--quantity", "pi"]):
    if cli.main(argv) != 0:
        sys.exit(f"pntbounds {' '.join(argv)} failed")
for demo in sys.argv[1:]:
    runpy.run_path(demo, run_name="__main__")
"""

# Refuses every numpy import and runs each subcommand that serves a table row,
# bracket, crossover or envelope value, none of which may load numpy,
# `dataclasses` or `inspect`; then lifts the block and runs the two commands
# that need arrays, which must load numpy themselves.
NUMPY_CHILD = r"""
import contextlib
import importlib.abc
import io
import sys


class BlockNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked")
        return None


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"pntbounds {' '.join(argv)} failed")


def refuse_loaded(what):
    loaded = [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
    if loaded:
        sys.exit(f"{what} loaded {', '.join(loaded)}")


blocker = BlockNumpy()
sys.meta_path.insert(0, blocker)
import pntbounds.cli as cli  # noqa: E402

refuse_loaded("import pntbounds.cli")
for argv in (["table1"], ["table1", "--format", "json"], ["table1", "--format", "csv"],
             ["table1", "--rows", "6000,1e5"],
             ["table1", "--log-x0", "6000", "--regime", "medium"],
             ["table1", "--log-x0", "1e6", "--regime", "large", "--format", "json"],
             ["table1", "--log-x0", "2.8e10", "--regime", "vk", "--format", "csv"],
             ["brackets", "--regime", "nu2"], ["brackets", "--regime", "nu3"], ["crossovers"],
             *[["eval", "--log-x", "100", "--quantity", q] for q in ("psi", "theta", "pi")]):
    run(argv)
refuse_loaded("a subcommand")

sys.meta_path.remove(blocker)
for argv in (["verify-small"], ["table1", "--optimize", "--rows", "6000"]):
    run(argv)
if "numpy" not in sys.modules:
    sys.exit("verify-small and table1 --optimize ran without numpy")
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_package_cli_and_demos_run_without_scipy(tmp_path):
    demos = sorted(str(p) for p in (ROOT / "demos").glob("*.py"))
    res = subprocess.run([sys.executable, "-c", CHILD, *demos], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "scipy" not in res.stderr


def test_cli_serves_without_numpy_until_it_needs_arrays(tmp_path):
    res = subprocess.run([sys.executable, "-c", NUMPY_CHILD], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stderr == ""
