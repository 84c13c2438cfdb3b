"""The runtime needs nothing but the standard library: every module in the
package imports only stdlib modules and the package itself, and a command
loads only the stdlib modules it runs."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterbench"


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


def loaded_after(code: str, cwd: Path) -> list[set[str]]:
    """The modules a fresh interpreter running ``code`` holds at each ``MODULES`` in it."""
    modules = 'print("MODULES", *sys.modules)'
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code.replace("MODULES", modules)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()[1:]) for line in proc.stdout.splitlines() if line.startswith("MODULES ")]


def test_a_command_loads_only_the_stdlib_it_runs(tmp_path):
    # hashlib loads OpenSSL; statistics loads fractions and decimal. Counted
    # against a bare interpreter, so a site hook that loads one is forgiven.
    [bare] = loaded_after("MODULES", tmp_path)
    code = (
        "from clusterbench.cli import main\n"
        "assert main(['generate', '--out', 'g']) == main(['simulate', '--out', 's']) == 0\n"
        "MODULES\n"
        "assert main(['cluster', '--nodes', 'g/nodes.csv', '--out', 'c']) == 0\n"
        "MODULES\n"
    )
    ran, clustered = loaded_after(code, tmp_path)
    assert sorted({"_hashlib", "hashlib", "statistics", "datetime"} & (ran - bare)) == []
    assert "hashlib" in clustered  # a run that read a table hashes it
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "g" / "nodes.csv").read_bytes()).hexdigest()
    assert manifest["input_nodes_sha256"] == digest
