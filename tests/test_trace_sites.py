"""perfbench's tracer rebinds named functions at named call sites; a site the
program no longer has only prints a warning in a benchmark run, so the check
that every site exists lives here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_site_exists():
    # install() rebinds module globals, so it runs in its own interpreter.
    code = "import json, tracing; t = tracing.Tracer(); t.install(); print(json.dumps(t.missing))"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
