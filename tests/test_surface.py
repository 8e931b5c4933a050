"""The public surface resolves, and no module carries an import it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import pntbounds

PKG_DIR = Path(pntbounds.__file__).resolve().parent
MODULES = sorted(p.stem for p in PKG_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("modname", ["__init__", *MODULES])
def test_every_exported_name_resolves(modname):
    mod = pntbounds if modname == "__init__" else importlib.import_module(f"pntbounds.{modname}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used and name not in exported]


@pytest.mark.parametrize("modname", ["__init__", *MODULES])
def test_no_unused_imports(modname):
    assert _unused_imports(PKG_DIR / f"{modname}.py") == []
