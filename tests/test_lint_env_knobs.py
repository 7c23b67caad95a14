"""Lint rule 11 (REPRO_* environment names only from the allow-list)."""

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


def _lines(lint, source, path):
    problems = lint.env_knobs(path, ast.parse(source))
    return [int(p.split(":")[1]) for p in problems]


def test_flags_unlisted_knob(lint):
    source = ("import os\n"
              "a = os.environ.get('REPRO_FAST_EVAL')\n"
              "b = os.environ.get('REPRO_EVAL_GUARD')\n"
              "c = {'REPRO_NEW_KNOB': 1}\n")
    path = lint.LIBRARY / "eval" / "module.py"
    assert _lines(lint, source, path) == [3, 4]


def test_only_full_matches_count(lint):
    source = ('"""Set REPRO_EVAL_GUARD to tune."""\n'
              "x = 'repro_eval_guard'\n"
              "y = 'REPRO_'\n")
    assert _lines(lint, source, lint.LIBRARY / "eval" / "module.py") == []


def test_only_library_code_is_checked(lint):
    source = "x = 'REPRO_EVAL_GUARD'\n"
    assert _lines(lint, source, lint.REPO_ROOT / "tests" / "module.py") == []


def test_library_is_clean(lint):
    problems = []
    for path in sorted(lint.LIBRARY.rglob("*.py")):
        problems += lint.env_knobs(path, ast.parse(path.read_text()))
    assert problems == []
