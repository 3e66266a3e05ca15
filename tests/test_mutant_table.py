"""The committed mutant table still fits the code and the tests it names.

`tests/mutants.py` applies each mutant by text and runs the tests listed for
it; a line renamed or deleted in `src/`, or a test renamed away, would show
only when that runner is run. These checks catch both in the suite.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def defined_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_to_its_file(mutant):
    text = (ROOT / "src" / "euphrates" / mutant.file).read_text()
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_listed_test_is_defined_in_its_file(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        file, name = test_id.split("::")
        assert name.split("[")[0] in defined_functions(ROOT / file), test_id
