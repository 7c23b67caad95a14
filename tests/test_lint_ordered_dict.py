"""Lint rule 10 (one LRU: no OrderedDict outside pipeline/cache.py)."""

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
    problems = lint.ordered_dicts(path, ast.parse(source))
    return [int(p.split(":")[1]) for p in problems]


def test_flags_import_and_attribute_forms(lint):
    source = ("import collections\n"
              "from collections import OrderedDict\n"
              "cache = collections.OrderedDict()\n"
              "other = OrderedDict()\n")
    path = lint.LIBRARY / "serve" / "module.py"
    assert _lines(lint, source, path) == [2, 3]


def test_lru_module_is_exempt(lint):
    source = "from collections import OrderedDict\n"
    assert _lines(lint, source, lint.LIBRARY / "pipeline" / "cache.py") == []


def test_only_library_code_is_checked(lint):
    source = "from collections import OrderedDict\n"
    assert _lines(lint, source, lint.REPO_ROOT / "tests" / "module.py") == []


def test_plain_dicts_pass(lint):
    source = "cache = {}\nfrom collections import deque, defaultdict\n"
    assert _lines(lint, source, lint.LIBRARY / "serve" / "module.py") == []
