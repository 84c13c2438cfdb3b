"""Record the reference digests and statistics that every later run is held to.

    python3 perfbench/record_reference.py

Runs each workload at full and at smoke size for every seed in
REFERENCE_SEEDS, each time through the oracle, and rewrites
perfbench/reference.json. Re-record only for a change that is meant to alter
the program's outputs, and say why in that change.
"""

import json
import sys

from run import REFERENCE, REFERENCE_SEEDS, WORKLOADS, run


def main() -> int:
    table: dict = {"full": {}, "smoke": {}}
    for smoke in (False, True):
        for name, workload in WORKLOADS.items():
            for seed in REFERENCE_SEEDS:
                runner, *_ = run(workload, seed, 0, False, smoke, None)
                if runner.failed or runner.first_digests is None:
                    print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                    return 1
                entry = {"digests": runner.first_digests, "stats": runner.stats}
                table["smoke" if smoke else "full"].setdefault(name, {})[str(seed)] = entry
                print(f"{'smoke ' if smoke else ''}{name} seed {seed}: {json.dumps(runner.stats)}")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
