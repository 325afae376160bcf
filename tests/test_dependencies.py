"""The package imports only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the one run-time dependency; scipy may
be installed beside it, but nothing under ``src/mfirange`` may use it.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mfirange"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mfirange"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    bad = [f"{path.name}:{line}: {root}" for line, root in imported_roots(path) if root not in ALLOWED]
    assert not bad


def test_the_guard_sees_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom scipy import special\nfrom . import core\n")
    assert [root for _, root in imported_roots(probe)] == ["os", "scipy"]
