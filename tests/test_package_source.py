"""Source-level rules for the `mgam` package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mgam"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_rebinds_a_global(path):
    """No `global` statement: no module-level switch changes what an op
    does, so a forward depends only on its arguments."""
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found, f"{path.name}: `global` at line(s) {found}"
