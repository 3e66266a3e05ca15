"""Package layout: each module imports on its own, every public name of
`src/euphrates` has a caller in `src/`, no module assigns to a record built
per box or track, and the version is defined once."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from euphrates.extrapolate import SubTrack, TrackState
from euphrates.roi import Roi
from euphrates.scheduler import Detection

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "euphrates"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Public names with no caller in src/, each kept for the outside caller named.
EXEMPT = {
    "metrics.ops_count": "bench/tracer.py",
    "motion.MotionField.vector_at": "tests/test_acceptance.py",
    "motion.exhaustive_search": "bench/checks.py",
    "motion.uniform_field": "tests/test_acceptance.py",
    "roi.Roi.x2": "bench/tracer.py",
    "roi.Roi.y2": "bench/tracer.py",
    "socmodel.constant_schedule_kinds": "tests/test_acceptance.py",
}


def test_package_root_holds_only_its_docstring_and_version():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert [t.id for t in body[1].targets] == ["__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(module):
    # With no imports in the package root, an import cycle shows only when
    # the module that closes it is imported first.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", f"import euphrates.{module}"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def public_definitions():
    """(dotted name, kind) of every public top-level function and class and
    every public method or property of a top-level class; kind is "name" or
    "attribute", the way a caller refers to it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", "name"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", "attribute"


def references():
    """Names loaded and attributes read anywhere in src/; imports and
    definitions are not references."""
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return {"name": names, "attribute": attributes}


def test_every_public_name_has_a_caller_in_src():
    refs = references()
    uncalled = [dotted for dotted, kind in public_definitions() if dotted.rsplit(".", 1)[1] not in refs[kind]]
    assert sorted(uncalled) == sorted(EXEMPT)


@pytest.mark.parametrize("dotted, caller", sorted(EXEMPT.items()))
def test_each_exemption_is_used_by_its_outside_caller(dotted, caller):
    assert dotted.rsplit(".", 1)[1] in (ROOT / caller).read_text(encoding="utf-8")


# Records built per box, sub-ROI or track: plain dataclasses, so that they
# are cheap to build.
PLAIN_RECORDS = (Roi, SubTrack, TrackState, Detection)


def test_no_module_assigns_to_a_plain_record():
    """What keeps a plain record unchanged once built: no module stores to
    or deletes an attribute named like one of their fields, and none calls
    `setattr` or `__setattr__`."""
    names = {f.name for record in PLAIN_RECORDS for f in fields(record)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load) and node.attr in names:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "setattr")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert found == []


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in pyproject["project"] and "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "euphrates.__version__"}
