"""Spans and work counters around each module's public functions, from outside.

``install`` rebinds every traced name at each call site: in the importing
modules and, for callers in the same module, in the defining module. No file
of the program changes. Per-pair helpers such as ``inter_cluster_distance``
are deliberately not traced: the sparse workload calls it ~850k times and
tracing it would distort the numbers it is meant to explain.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter_ns

# span name -> (defining module, function, modules whose global is rebound)
SITES = {
    "model.generate_scenario": ("model", "generate_scenario", ("cli", "sim")),
    "clustering.pac_candidates": ("clustering", "pac_candidates", ("clustering",)),
    "clustering.expac_cluster": ("clustering", "expac_cluster", ("cli", "sim")),
    "head_election.psopac_rebuild": ("head_election", "psopac_rebuild", ("cli", "sim", "head_election")),
    "head_election.rotate_heads": ("head_election", "rotate_heads", ("sim",)),
    "addressing.assign_addresses": ("addressing", "assign_addresses", ("sim",)),
    "validation.dunn_index": ("validation", "dunn_index", ("cli", "validation")),
    "sim.drain": ("sim", "drain", ("sim",)),
    "sim.run_simulation": ("sim", "run_simulation", ("cli",)),
    "tables.write_table": ("tables", "write_table", ("cli",)),
    "tables.read_nodes_csv": ("tables", "read_nodes_csv", ("cli",)),
    "tables.read_clusters_csv": ("tables", "read_clusters_csv", ("cli",)),
    "tables.write_manifest": ("tables", "write_manifest", ("cli",)),
    # build_parser reads these globals, so main() dispatches to the wrappers.
    "cli.generate": ("cli", "cmd_generate", ("cli",)),
    "cli.cluster": ("cli", "cmd_cluster", ("cli",)),
    "cli.validate": ("cli", "cmd_validate", ("cli",)),
    "cli.simulate": ("cli", "cmd_simulate", ("cli",)),
}

COUNTS = (
    "clustering.in_range_pairs",
    "clustering.clusters",
    "clustering.singletons",
    "validation.cluster_pairs",
    "head_election.head_changes",
    "sim.ticks",
    "sim.reclusters",
    "addressing.messages",
    "tables.rows_written",
    "tables.bytes_written",
)

# Span name of the counting work itself, so it is not charged to the caller.
COUNT_SPAN = "trace.count"


def _count_candidates(counts, result, args):
    counts["clustering.in_range_pairs"] += sum(len(c.covered) - 1 for c in result)


def _count_partition(counts, result, args):
    counts["clustering.clusters"] += len(result.clusters)
    counts["clustering.singletons"] += sum(len(c.members) == 1 for c in result.clusters)


def _count_cluster_pairs(counts, result, args):
    k = len(args[0].clusters)
    counts["validation.cluster_pairs"] += k * (k - 1) // 2


def _count_head_changes(counts, result, args):
    counts["head_election.head_changes"] += len(result[1])


def _count_messages(counts, result, args):
    counts["addressing.messages"] += len(result[1])


def _count_ticks(counts, result, args):
    counts["sim.ticks"] += len(result) - 1
    counts["sim.reclusters"] += sum(
        type(event).__name__ == "ReclusterEvent" for snap in result for event in snap.events
    )


def _count_rows(counts, result, args):
    counts["tables.rows_written"] += len(args[2])
    counts["tables.bytes_written"] += os.path.getsize(args[0])


COUNTERS = {
    "clustering.pac_candidates": _count_candidates,
    "clustering.expac_cluster": _count_partition,
    "validation.dunn_index": _count_cluster_pairs,
    "head_election.rotate_heads": _count_head_changes,
    "addressing.assign_addresses": _count_messages,
    "sim.run_simulation": _count_ticks,
    "tables.write_table": _count_rows,
}


class Tracer:
    """Collects spans (id, parent id, name, start ns, end ns) and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span_id, parent, name, 0, 0))
            self._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if counter is not None:
                count_start = perf_counter_ns()
                counter(self.counts, result, args)
                self.spans.append((len(self.spans), parent, COUNT_SPAN, count_start, perf_counter_ns()))
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function at its call sites.

        A site the program no longer has is recorded in ``missing`` rather
        than failing the run; its metrics then read 0.
        """
        for name, (home, func, sites) in SITES.items():
            module = importlib.import_module(f"clusterbench.{home}")
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            for site in sites:
                caller = importlib.import_module(f"clusterbench.{site}")
                if getattr(caller, func, None) is original:
                    setattr(caller, func, wrapped)
                else:
                    self.missing.append(f"{name} in {site}")


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time in seconds, number of calls).

    Self time is a span's duration minus the durations of its children; calls
    on one thread nest, so the children never overlap.
    """
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals: dict[str, list] = {}
    for sid, _parent, name, start, end in spans:
        entry = totals.setdefault(name, [0, 0])
        entry[0] += end - start - child_ns.get(sid, 0)
        entry[1] += 1
    return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}
