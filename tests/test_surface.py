"""The public surface resolves, no module carries an import it never uses, and
every record the CLI loads is immutable."""

import ast
import importlib
import pickle
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


# one instance of each record type on the CLI's import path, built by the calls that serve it
RECORDS = {
    "ExtReal": lambda ctx: ctx["row"].eps0,
    "Crossover": lambda ctx: pntbounds.envelope_crossovers()[0],
    "DensityRow": lambda ctx: ctx["table"].rows[0],
    "DensityTable": lambda ctx: ctx["table"],
    "Bracket": lambda ctx: pntbounds.bracket_nu2(1e6),
    "UnimodalReport": lambda ctx: pntbounds.verify_unimodal(pntbounds.bracket_nu2(1e6), 1e6),
    "BoundConstants": lambda ctx: ctx["row"],
    "RowParams": lambda ctx: pntbounds.DEFAULT_ROW_PARAMS[0],
    "RegimeCrossings": lambda ctx: pntbounds.regime_compare(ctx["rows"], ctx["vk"]),
    "CoverageSegment": lambda ctx: ctx["coverage"].segments[0],
    "CoverageReport": lambda ctx: ctx["coverage"],
    "ThetaConstants": lambda ctx: pntbounds.theta_constants(ctx["row"]),
    "PiConstants": lambda ctx: pntbounds.pi_constants_classical(),
    "Premise": lambda ctx: pntbounds.certify_monotone(ctx["row"].raw_terms, 10.0)[0],
}


@pytest.fixture(scope="module")
def record_ctx(density_table, default_rows, vk_row, sieve_small):
    return {"table": density_table, "rows": default_rows, "row": default_rows[0], "vk": vk_row,
            "coverage": pntbounds.piecewise_coverage(default_rows[0], sieve_small)}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_round_trip(record_ctx, name):
    rec = RECORDS[name](record_ctx)
    assert type(rec).__name__ == name
    assert not hasattr(rec, "__dict__")  # no per-instance dict, and no dataclass
    field = getattr(rec, "_fields", ("log_value",))[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(pickle.loads(pickle.dumps(rec))) == repr(rec)  # repr: a NaN margin is never ==
