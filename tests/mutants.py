"""A catalogue of hand-made mutants of ``src/``, each with the tests that
must fail on it, and a runner that checks that they do.

Each mutant replaces an exact ``old`` text, which occurs once in its file,
with ``new``; ``origin`` names the commit that first described the fault it
models. Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py [NAME ...]

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory: run in the checkout, pyproject's ``pythonpath = ["src"]`` would
put the unmutated ``src/`` first whatever ``PYTHONPATH`` says. It first runs
the chosen mutants' tests on the unmutated copy, in one pytest process, and
stops with exit status 1, printing that run, if any fails. It then applies one
mutant at a time and runs that mutant's tests in one pytest process, which
stops at the first failure, under the Hypothesis profile ``mutants`` of
``tests/conftest.py``: a failing example is not shrunk, since only the
failure counts here. Each mutant is reported as killed (a test
failed), survived (every test passed) or stale (its ``old`` text is not in
its file exactly once, or pytest could not run its tests). A mutant that
changes no behaviour a test can see gives the reason as ``equivalent`` and is
expected to survive. The exit status is 0 when every mutant does what the
catalogue expects. ``tests/test_mutants.py`` checks the catalogue without
running it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    origin: str  # the commit that first described the fault, and the fault
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    equivalent: str = ""  # why it survives, for a mutant no test can kill


MUTANTS = (
    Mutant(
        "a-recorded-flag-is-not-written",
        "clusterbench/tables.py",
        "        if name in flags and not (name in LEFT_OUT_AT_DEFAULT",
        '        if name in flags and name != "seeds" and not (name in LEFT_OUT_AT_DEFAULT',
        "8373ae3: sweep recorded neither its sizes nor its seeds",
        ("tests/test_cli.py::test_sweep_replay_is_byte_identical",),
    ),
    Mutant(
        "a-recorded-input-hash-is-ignored",
        "clusterbench/tables.py",
        "        if manifest.get(field) is not None and name in flags and not flags[name]:",
        "        if False:",
        "b504b3b: a replay of a --nodes run placed a seeded population",
        (
            "tests/test_exit_codes.py::test_cluster_replay_of_a_node_table_run_needs_nodes",
            "tests/test_exit_codes.py::test_bad_manifest_format_or_prefix_exits_as_its_flag_would",
        ),
    ),
    Mutant(
        "format-flag-defaults-to-csv",
        "clusterbench/cli.py",
        'common.add_argument("--format", choices=FORMATS, help=',
        'common.add_argument("--format", choices=FORMATS, default="csv", help=',
        "0b60dce: a replay dropped the manifest's --format",
        (
            "tests/test_cli.py::test_every_flag_is_replayed_folded_or_named_unrecorded",
            "tests/test_cli.py::test_replay_keeps_the_manifest_format_and_prefix",
        ),
    ),
    Mutant(
        "the-default-prefix-is-recorded",
        "clusterbench/tables.py",
        'LEFT_OUT_AT_DEFAULT = {"prefix"}',
        "LEFT_OUT_AT_DEFAULT = set()",
        "the declared run record: a manifest leaves out a default prefix",
        (
            "tests/test_tables.py::test_manifest_honors_source_date_epoch",
            "tests/test_golden.py::test_outputs_match_golden_digests",
        ),
    ),
    Mutant(
        "a-recorded-format-is-not-checked",
        "clusterbench/tables.py",
        '    if settings["format"] not in FORMATS:',
        "    if False:",
        "0b60dce: a recorded format other than csv or json exits 2",
        ("tests/test_exit_codes.py::test_bad_manifest_format_or_prefix_exits_as_its_flag_would",),
    ),
    Mutant(
        "a-flag-is-left-unclassified",
        "clusterbench/cli.py",
        "    p.set_defaults(func=cmd_sweep)",
        '    p.add_argument("--label", help="a name for the run")\n'
        "    p.set_defaults(func=cmd_sweep)",
        "the declared run record: each flag is recorded, in the config or named",
        (
            "tests/test_cli.py::test_every_flag_is_replayed_folded_or_named_unrecorded",
        ),
    ),
    Mutant(
        "rotate-heads-takes-a-dict-of-energies",
        "clusterbench/head_election.py",
        "    if not isinstance(energies, energy_types()):",
        "    if False:",
        "8373ae3: a dict of energies raised a bare KeyError",
        ("tests/test_head_election.py::test_energies_that_are_not_a_list_or_tuple_are_refused",),
    ),
    Mutant(
        "drain-takes-a-dict-of-energies",
        "clusterbench/sim.py",
        "    if not isinstance(energies, energy_types()):",
        "    if False:",
        "8373ae3: a dict of energies raised a bare KeyError",
        ("tests/test_sim.py::test_drain_refuses_energies_that_are_not_a_list_or_tuple",),
    ),
    Mutant(
        "drain-returns-a-list",
        "clusterbench/sim.py",
        '    drained = array("d", energies)',
        "    drained = list(energies)",
        "the packed energies: a list of float objects held 4.4 MB on the steady run",
        ("tests/test_sim.py::test_run_holds_under_3_5_mb_on_the_steady_workload",),
    ),
    Mutant(
        "a-node-takes-an-int-too-large-for-a-float",
        "clusterbench/model.py",
        "            float(self.energy)  # drain packs every reading into a C double",
        "            pass",
        "the packed energies: a 10**400 reading raised a bare OverflowError at tick 1",
        ("tests/test_model.py::test_node_rejects_an_int_energy_too_large_for_a_float",),
    ),
    Mutant(
        "drain-ignores-dead",
        "clusterbench/sim.py",
        "        if cluster.cluster_id in dead:\n            continue",
        "        if False:\n            continue",
        "0b60dce: drain reads the partition",
        ("tests/test_sim.py::test_drain_skips_dead_nodes_and_reports_each_death_once",),
    ),
    Mutant(
        "a-cluster-dies-with-its-head",
        "clusterbench/sim.py",
        "        if not live:",
        "        if drained[head] == 0.0:",
        "0b60dce: a cluster dies when no member reads above 0.0",
        ("tests/test_sim.py::test_drain_rates_and_clamp",),
    ),
    Mutant(
        "a-dead-cluster-is-never-recorded",
        "clusterbench/sim.py",
        "            dead.update(died)\n",
        "",
        "a440769: a dead cluster is passed by from the tick after it died",
        ("tests/test_sim.py",),
        equivalent="a dead cluster reads 0.0 everywhere, which drains to 0.0 again, and it is "
        "settled already, so draining it every tick changes only the work done",
    ),
    Mutant(
        "argmax-tie-takes-the-higher-id",
        "clusterbench/head_election.py",
        "            if energy > best:",
        "            if energy >= best:",
        "8326a26: head election in one pass per cluster",
        (
            "tests/test_head_election.py::test_max_energy_tie_takes_lower_id",
            "tests/test_head_election.py::test_rotate_matches_reference",
        ),
    ),
    Mutant(
        "the-head-stays-in-its-exempt-set",
        "clusterbench/head_election.py",
        "        failed.discard(head)\n",
        "",
        "8326a26: head election in one pass per cluster",
        ("tests/test_head_election.py::test_rotate_new_head_loses_exempt_flag",),
    ),
    Mutant(
        "settled-clusters-are-elected",
        "clusterbench/head_election.py",
        "        if cluster.cluster_id in settled:",
        "        if False:",
        "a440769: re-elect only the clusters that can change",
        ("tests/test_head_election.py::test_settled_clusters_are_returned_unelected",),
    ),
    Mutant(
        "drain-gets-the-tick-0-clusters",
        "clusterbench/sim.py",
        "drain(energies, clusters, dead, config)",
        "drain(energies, snapshots[0].clusters, dead, config)",
        "0b60dce: drain reads the partition, so its heads must be the current ones",
        (
            "tests/test_sim.py::test_run_matches_full_reelection_every_tick",
            "tests/test_sim.py::test_simulate_writes_what_the_whole_run_oracle_derives",
        ),
    ),
    Mutant(
        "a-head-change-swaps-its-heads",
        "clusterbench/tables.py",
        "e.cluster_id, e.old_head, e.new_head)",
        "e.cluster_id, e.new_head, e.old_head)",
        "the events table rendered from the snapshots, a template per event kind",
        (
            "tests/test_cli.py::test_simulate_events_fill_their_kind_columns",
            "tests/test_tables.py::test_events_match_reference_rendering",
        ),
    ),
    Mutant(
        "an-eventless-snapshot-yields-an-empty-chunk",
        "clusterbench/tables.py",
        "            if records:\n                yield layout.sep.join(records)",
        "            if True:\n                yield layout.sep.join(records)",
        "the events table rendered from the snapshots, a chunk per snapshot with events",
        ("tests/test_tables.py::test_events_match_reference_rendering",),
    ),
    Mutant(
        "a-recluster-index-skips-its-cell-rule",
        "clusterbench/tables.py",
        "index = layout.cell(5, e.trigger_index)",
        "index = e.trigger_index",
        "the events table rendered from the snapshots; JSON writes an infinite index as \"inf\"",
        ("tests/test_tables.py::test_a_recluster_index_is_written_by_its_column_rule",),
    ),
    Mutant(
        "the-sweep-has-no-rounding-margin",
        "clusterbench/validation.py",
        "        w = best * 0.5 + delta\n",
        "        w = best * 0.5\n",
        "7000936: the closest-pair sweep widens its window by the rounding margin",
        (
            "tests/test_validation.py::test_index_in_the_subnormal_range",
            "tests/test_validation.py::test_index_matches_reference_when_rounding_hides_the_closest_pair",
        ),
    ),
    Mutant(
        "a-count-tie-takes-the-higher-head",
        "clusterbench/clustering.py",
        "    heap = [(-c.mask.bit_count(), c.temp_head) for c in candidates]\n"
        "    heapq.heapify(heap)\n"
        "    clustered = [False] * len(candidates)\n"
        "\n"
        "    clusters: list[Cluster] = []\n"
        "    while heap:\n"
        "        neg_count, head = heapq.heappop(heap)\n"
        "        if clustered[head]:\n"
        "            continue\n"
        "        _head, offset, mask, _order = candidates[head]\n"
        "        taken = mask & (unclustered >> offset)\n"
        "        count = taken.bit_count()\n"
        "        if count != -neg_count:\n"
        "            heapq.heappush(heap, (-count, head))\n",
        "    heap = [(-c.mask.bit_count(), -c.temp_head) for c in candidates]\n"
        "    heapq.heapify(heap)\n"
        "    clustered = [False] * len(candidates)\n"
        "\n"
        "    clusters: list[Cluster] = []\n"
        "    while heap:\n"
        "        neg_count, head = heapq.heappop(heap)\n"
        "        head = -head\n"
        "        if clustered[head]:\n"
        "            continue\n"
        "        _head, offset, mask, _order = candidates[head]\n"
        "        taken = mask & (unclustered >> offset)\n"
        "        count = taken.bit_count()\n"
        "        if count != -neg_count:\n"
        "            heapq.heappush(heap, (-count, -head))\n",
        "the greedy's order: a heap key (-count, -head) breaks count ties toward the higher head",
        (
            "tests/test_clustering.py::test_expac_commits_clusters_by_size_then_head",
            "tests/test_clustering.py::test_far_apart_scenes_cluster_as_the_merge_of_their_partitions",
        ),
    ),
    Mutant(
        "the-margin-keeps-the-smallest-subnormal",
        "clusterbench/clustering.py",
        "2.0**-1072 if",
        "2.0**-1074 if",
        "7000936: halving rounds subnormals, so the margin's absolute term grew to 2**-1072",
        ("tests/test_validation.py::test_index_in_the_subnormal_range",),
    ),
    Mutant(
        "hashlib-is-imported-at-module-load",
        "clusterbench/tables.py",
        "import csv\nimport json\n",
        "import csv\nimport hashlib\nimport json\n",
        "the lazy imports: no command loads OpenSSL, so tables imports no hashlib at load",
        ("tests/test_stdlib_only.py::test_a_command_loads_only_the_stdlib_it_runs",),
    ),
    Mutant(
        "the-input-hash-loads-openssl",
        "clusterbench/tables.py",
        "    try:\n        from _sha256 import sha256\n    except ImportError:\n",
        "    try:\n        from hashlib import sha256\n    except ImportError:\n",
        "the built-in hash: hashlib loaded OpenSSL, 3.6 MB, in every run that read a table",
        ("tests/test_stdlib_only.py::test_a_command_loads_only_the_stdlib_it_runs",),
    ),
    Mutant(
        "array-is-imported-at-module-load",
        "clusterbench/sim.py",
        "from collections.abc import Mapping, Sequence\n",
        "from array import array\nfrom collections.abc import Mapping, Sequence\n",
        "194cc5d: generate, cluster and validate loaded array, which only simulate packs",
        ("tests/test_stdlib_only.py::test_a_command_loads_only_the_stdlib_it_runs",),
    ),
    Mutant(
        "the-timestamp-range-admits-year-10000",
        "clusterbench/tables.py",
        "<= 253402300799:",
        "<= 253402300800:",
        "the timestamp without datetime: a stamp is in years 1 to 9999",
        ("tests/test_cli.py::test_bad_source_date_epoch_is_config_error[253402300800]",),
    ),
    Mutant(
        "messages-are-cached-without-their-first-seq",
        "clusterbench/tables.py",
        "                part = rendered.get(key)\n"
        "                if part is None:\n"
        "                    part = rendered[key] = render(*key)",
        "                part = rendered.get(key[1:])\n"
        "                if part is None:\n"
        "                    part = rendered[key[1:]] = render(*key)",
        "bb0c694: a served cluster's records are cached under (first seq, head, members)",
        ("tests/test_tables.py::test_messages_follow_each_address_event",),
    ),
    Mutant(
        "messages-are-cached-without-their-members",
        "clusterbench/tables.py",
        "                part = rendered.get(key)\n"
        "                if part is None:\n"
        "                    part = rendered[key] = render(*key)",
        "                part = rendered.get(key[:2])\n"
        "                if part is None:\n"
        "                    part = rendered[key[:2]] = render(*key)",
        "bb0c694: a served cluster's records are cached under (first seq, head, members)",
        ("tests/test_tables.py::test_messages_follow_each_address_event",),
    ),
    Mutant(
        "a-node-text-is-cached-without-its-exempt-flag",
        "clusterbench/tables.py",
        "                    text = variants.get(variant)\n"
        "                    if text is None:\n"
        "                        text = variants[variant] = node_text.format(",
        "                    text = variants.get(variant[:3])\n"
        "                    if text is None:\n"
        "                        text = variants[variant[:3]] = node_text.format(",
        "6c8fbae: a timeline variant without the exempt flag",
        (
            "tests/test_tables.py::test_timeline_matches_reference_rendering",
            "tests/test_golden.py::test_outputs_match_golden_digests",
        ),
    ),
    Mutant(
        "a-rotation-compares-members-by-equality",
        "clusterbench/model.py",
        "map(is_, map(_MEMBERS, clusters), map(_MEMBERS, before.clusters))",
        "map(lambda a, b: a == b, map(_MEMBERS, clusters), map(_MEMBERS, before.clusters))",
        "bb0c694: comparing members by == in ClusterSet._rotation changes no output",
        ("tests/test_model.py::test_rotation_requires_each_predecessor_members_object",),
    ),
    Mutant(
        "host-bits-in-a-prefix-are-masked",
        "clusterbench/addressing.py",
        '        net = IPv6Network(f"{address}/{length if slash else 48}")',
        '        net = IPv6Network(f"{address}/{length if slash else 48}", strict=False)',
        "the strict prefix parse: fd00::1/48 ran as fd00::/48",
        (
            "tests/test_addressing.py::test_host_bits_or_empty_text_are_refused",
            "tests/test_exit_codes.py::test_host_bits_or_an_empty_prefix_exit_3_before_placement",
        ),
    ),
)


def _copy_tree(work: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _pytest(work: Path, tests) -> subprocess.CompletedProcess:
    """Run ``tests`` in the copy at ``work``, in one pytest process that stops
    at the first failure."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-profile=mutants", *tests,
    ]
    return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)


def run_mutant(mutant: Mutant, work: Path) -> str:
    """Apply ``mutant`` in the copy at ``work``, run its tests, restore the
    file and say whether it was killed, survived or is stale."""
    path = work / "src" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"stale: its old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = _pytest(work, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")
    stale = f"stale: pytest exited {proc.returncode}"
    return {0: "survived", 1: "killed"}.get(proc.returncode, stale)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    counts = dict.fromkeys(("killed", "survived", "stale"), 0)
    unexpected = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="clusterbench-mutants-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        # A test that fails unmutated would count every mutant it names as killed.
        baseline = _pytest(work, dict.fromkeys(t for m in chosen for t in m.tests))
        if baseline.returncode:
            print(baseline.stdout + baseline.stderr, end="")
            print(f"the unmutated copy fails its tests (pytest exited {baseline.returncode}); "
                  "no mutant was run")
            return 1
        print(f"baseline  {time.perf_counter() - start:5.1f} s  every named test passes unmutated")
        for mutant in chosen:
            began = time.perf_counter()
            verdict = run_mutant(mutant, work)
            counts[verdict.split(":")[0]] += 1
            unexpected += verdict != ("survived" if mutant.equivalent else "killed")
            note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            print(f"{verdict:9} {time.perf_counter() - began:5.1f} s  {mutant.name}{note}")
    summary = ", ".join(f"{n} {verdict}" for verdict, n in counts.items())
    print(f"{len(chosen)} mutants: {summary}; {unexpected} not as expected; "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
