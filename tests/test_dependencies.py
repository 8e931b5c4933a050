"""The package runs on numpy alone: scipy is a test-only oracle."""

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
             ["verify-small", "--limit", "100000"], ["eval", "--log-x", "100", "--quantity", "pi"]):
    if cli.main(argv) != 0:
        sys.exit(f"pntbounds {' '.join(argv)} failed")
for demo in sys.argv[1:]:
    runpy.run_path(demo, run_name="__main__")
"""


def test_package_cli_and_demos_run_without_scipy(tmp_path):
    demos = sorted(str(p) for p in (ROOT / "demos").glob("*.py"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", CHILD, *demos], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "scipy" not in res.stderr
