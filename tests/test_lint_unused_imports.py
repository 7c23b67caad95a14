"""Lint rule 9 (no unused imports) on small synthetic modules."""

import ast
import importlib.util
from pathlib import Path

import pytest

LINT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "lint_repro.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_repro", LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unused(lint, source, name="module.py"):
    path = lint.REPO_ROOT / "tests" / name
    problems = lint.unused_imports(path, ast.parse(source))
    return sorted(p.split("unused import ")[1].split(" ")[0].strip("'")
                  for p in problems)


def test_flags_unused_names(lint):
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nprint(c)\n")
    assert _unused(lint, source) == ["e", "np", "os", "x"]


def test_usage_forms_count(lint):
    source = ("from __future__ import annotations\n"
              "import a.b\nfrom m import T, U, V\n"
              "def f(x: 'T') -> 'list[U]':\n    return a.b.g(x)\n"
              "__all__ = ['V']\n")
    assert _unused(lint, source) == []


def test_package_init_reexports_exempt(lint):
    assert _unused(lint, "from .mod import thing\n", "__init__.py") == []
