"""The library imports only what pyproject.toml declares: the standard
library, numpy and hmg itself. scipy and other packages may be installed
where the tests run, so an undeclared import would otherwise pass here and
fail only on a clean install.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hmg"
DECLARED = {"numpy", "hmg"}


def top_level_imports(source: str) -> set[str]:
    """The top-level module of every absolute import in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def undeclared(source: str) -> set[str]:
    return {name for name in top_level_imports(source)
            if name not in sys.stdlib_module_names and name not in DECLARED}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_declared_dependencies(path):
    assert undeclared(path.read_text()) == set()


def test_guard_catches_an_undeclared_import():
    source = ("import math\nfrom . import lti\nimport numpy.linalg as la\n"
              "def f():\n    from scipy.linalg import expm\n    import hypothesis\n")
    assert undeclared(source) == {"scipy", "hypothesis"}
