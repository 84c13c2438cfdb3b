"""The mutant catalogue has not rotted: each entry's old text occurs once in
its file, the mutated file still compiles, and each test it names exists.
No mutant is run here; ``python tests/mutants.py`` runs them."""

import pytest

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
