"""The mutant catalogue has not rotted: each entry's old text occurs once in
its file, the mutated file still compiles, and each test it names exists.
No mutant is run here; ``python tests/mutants.py`` runs them."""

import subprocess

import pytest

import mutants
from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.origin and mutant.tests
    compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or f"\ndef {name.split('[')[0]}(" in source, node


def test_a_failing_baseline_runs_no_mutant(monkeypatch, capsys):
    # Tests that fail on the unmutated copy would report every mutant they
    # name as killed, so the runner prints that run and applies no mutant.
    runs = []

    def failing(command, **kwargs):
        runs.append(command)
        return subprocess.CompletedProcess(command, 1, "F\n1 failed in 0.1s\n", "")

    monkeypatch.setattr(mutants.subprocess, "run", failing)
    monkeypatch.setattr(mutants, "run_mutant", lambda *args: pytest.fail("a mutant was run"))
    mutant = MUTANTS[0]
    assert mutants.main([mutant.name]) == 1
    assert len(runs) == 1 and runs[0][-len(mutant.tests):] == list(mutant.tests)
    assert "1 failed in 0.1s" in capsys.readouterr().out
