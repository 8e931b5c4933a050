"""The standing mutant list in ``tests/mutants.py`` stays applicable."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutants_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (mutants.ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    for node in mutant.killers:
        assert (mutants.ROOT / node.split("::")[0]).is_file(), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
