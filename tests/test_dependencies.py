"""Each process loads only the modules it runs.

`import pntbounds` runs no submodule: every public name is imported from its
module on first use.  Each CLI subcommand loads the package modules it calls
and no others (`brackets` no `engine`; only `eval` and `verify-small` load
`derived`), `json` only for `--format json`, and a `--density-table` run
neither `pathlib` nor `importlib.resources`; these children run under
`python -S`, so that no `site` hook hides an import.  numpy is loaded only by
the sieve (`verify-small`), a medium or large `table1 --optimize` (not a VK
one) and the demos; neither the
package, its demos nor its tests import scipy (the benchmark records its
version); the CLI's start-up path loads neither `dataclasses` nor `inspect`."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pntbounds

ROOT = Path(__file__).resolve().parents[1]
CSV = str(ROOT / "src" / "pntbounds" / "data" / "zero_density.csv")

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
# bracket, crossover or envelope value, or a large or VK optimized row (VK by
# `--regime auto` too), none of which may load numpy,
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
             ["table1", "--log-x0", "1e6", "--regime", "large", "--optimize"],
             ["table1", "--log-x0", "5e10", "--regime", "vk", "--optimize"],
             ["table1", "--log-x0", "1e12", "--regime", "auto", "--optimize", "--format", "json"],
             ["brackets", "--regime", "nu2"], ["brackets", "--regime", "nu3"], ["crossovers"],
             *[["eval", "--log-x", "100", "--quantity", q] for q in ("psi", "theta", "pi")]):
    run(argv)
refuse_loaded("a subcommand")

sys.meta_path.remove(blocker)
for argv in (["verify-small"], ["table1", "--optimize", "--rows", "6000"]):
    run(argv)
if "numpy" not in sys.modules:
    sys.exit("verify-small and a medium table1 --optimize ran without numpy")
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


# Runs one CLI command, or only `import pntbounds` when given none, and prints
# its exit code and the package and watched standard-library modules it loaded.
LOADED_CHILD = r"""
import sys

if sys.argv[1:]:
    from pntbounds import cli
    rc = cli.main(sys.argv[1:])
else:
    import pntbounds
    rc = 0
watched = ("json", "pathlib", "importlib.resources", "numpy")
print(rc, *sorted(m for m in sys.modules if m.startswith("pntbounds.") or m in watched), file=sys.stderr)
"""


def loaded(*argv: str, site: bool = False) -> set[str]:
    """What one fresh process running ``pntbounds ARGV`` loads, package modules by their short name."""
    flags = [] if site else ["-S"]
    res = subprocess.run([sys.executable, *flags, "-c", LOADED_CHILD, *argv], cwd=ROOT, env=_child_env(),
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    rc, *names = res.stderr.splitlines()[-1].split()
    assert rc == "0", res.stderr[-2000:]
    return {name.removeprefix("pntbounds.") for name in names}


ENGINE = {"cli", "zfr", "regimes", "zdensity", "engine", "extnum"}
PACKAGED = {"pathlib", "importlib.resources"}  # what reading the packaged table loads


@pytest.mark.parametrize("argv, want", [
    ((), set()),
    (("brackets",), {"cli", "zfr", "regimes", "zdensity"}),
    (("brackets", "--regime", "nu3", "--format", "json"), {"cli", "zfr", "regimes", "zdensity", "json"}),
    (("table1",), ENGINE | PACKAGED),
    (("table1", "--format", "csv"), ENGINE | PACKAGED),
    (("table1", "--format", "json"), ENGINE | PACKAGED | {"json"}),
    (("table1", "--log-x0", "6000", "--regime", "medium"), ENGINE | PACKAGED),
    (("table1", "--log-x0", "2.8e10", "--regime", "vk", "--format", "json"), ENGINE | PACKAGED | {"json"}),
    (("table1", "--log-x0", "5e10", "--regime", "vk", "--optimize"), ENGINE | PACKAGED),
    (("crossovers",), ENGINE | PACKAGED),
    (("crossovers", "--format", "json"), ENGINE | PACKAGED | {"json"}),
    (("eval", "--log-x", "100", "--quantity", "pi"), ENGINE | PACKAGED | {"derived"}),
    (("eval", "--log-x", "100", "--quantity", "psi", "--format", "json"), ENGINE | PACKAGED | {"derived", "json"}),
    (("--density-table", CSV, "table1"), ENGINE),
    (("--density-table", CSV, "eval", "--log-x", "100", "--quantity", "theta"), ENGINE | {"derived"}),
])
def test_each_process_loads_only_the_modules_it_runs(argv, want):
    assert loaded(*argv) == want


def test_verify_small_loads_derived_and_the_sieve():
    # numpy needs site-packages, whose `site` hooks may load PACKAGED themselves
    got = loaded("--density-table", CSV, "verify-small", site=True)
    assert got - PACKAGED == ENGINE | {"derived", "primes", "numpy"}


def _defining_module(name: str):
    """The one submodule whose own ``__all__`` lists ``name``."""
    homes = [mod for mod in (importlib.import_module(f"pntbounds.{stem}") for stem in
                             ("extnum", "primes", "regimes", "zdensity", "zfr", "engine", "derived"))
             if name in getattr(mod, "__all__", ())]
    assert len(homes) == 1, (name, homes)
    return homes[0]


@pytest.mark.parametrize("name", [n for n in pntbounds.__all__ if n != "__version__"])
def test_every_public_name_is_its_defining_modules_object(name):
    assert getattr(pntbounds, name) is getattr(_defining_module(name), name)


def test_star_import_binds_every_public_name_and_unknown_names_raise():
    namespace: dict = {}
    exec("from pntbounds import *", namespace)
    assert set(pntbounds.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(pntbounds, name) for name in pntbounds.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        pntbounds.no_such_name  # noqa: B018
    assert not hasattr(pntbounds, "cli_main")


DIR_CHILD = r"""
import sys

import pntbounds

names = dir(pntbounds)
if names != sorted(names) or not set(pntbounds.__all__) <= set(names) or "__getattr__" not in names:
    sys.exit(f"dir(pntbounds) lists {names}")
if any(m.startswith("pntbounds.") for m in sys.modules):
    sys.exit("dir(pntbounds) loaded a submodule")
if pntbounds.zfr is not sys.modules["pntbounds.zfr"]:  # a submodule, as an attribute, on first use
    sys.exit("pntbounds.zfr is not the submodule")
"""


def test_dir_lists_every_public_name_before_any_is_loaded():
    res = subprocess.run([sys.executable, "-S", "-c", DIR_CHILD], cwd=ROOT, env=_child_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
