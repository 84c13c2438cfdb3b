"""The runtime needs nothing but the standard library: every module in the
package imports only stdlib modules and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clusterbench"


def imported_modules(path):
    """The top-level name of each absolute import in a module's source."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"clusterbench"}
    assert sorted(set(imported_modules(path)) - allowed) == []
