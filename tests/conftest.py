# Makes this directory importable (for the shared `strategies` module), and
# registers the Hypothesis profile that `tests/mutants.py` loads: a test that
# kills a mutant fails on the first example found, unshrunk. Tier-1 runs keep
# Hypothesis's default profile.
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
