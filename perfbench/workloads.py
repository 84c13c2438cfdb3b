"""The benchmark's workloads: inputs, command sequences, and what each should show.

Every workload runs as a closed loop with one client: a fresh interpreter
calls ``clusterbench.cli.main(argv)`` for each command in turn, and the next
iteration starts only after the previous one has exited. All commands use the
default ``--threads 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Every field is written explicitly, so the output checks never have to know
# the program's defaults.
BASE_CONFIG = {
    "node_count": 25,
    "area": [100.0, 100.0],
    "tx_range": 20.0,
    "energy_threshold": 500.0,
    "execution_time": 5.0,
    "tick": 1.0,
    "initial_energy": [400.0, 1000.0],
    "drain_member": 10.0,
    "drain_head": 50.0,
    "dunn_recluster_threshold": 0.5,
    "validation_interval": 1,
    "comparator": "below",
}


def square_at_density(node_count: int, per_hectare: float = 25.0) -> list[float]:
    """Side lengths of the square that holds ``node_count`` nodes at a density."""
    side = 100.0 * math.sqrt(node_count / per_hectare)
    return [side, side]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cluster": generate, cluster, validate; "sim": simulate
    config: dict
    smoke_config: dict
    why: str

    def full_config(self, seed: int, smoke: bool) -> dict:
        return {**BASE_CONFIG, **(self.smoke_config if smoke else self.config), "seed": seed}

    def commands(self) -> list[list[str]]:
        """argv lists, relative to the iteration's working directory."""
        if self.kind == "cluster":
            return [
                ["generate", "--config", "config.json", "--out", "gen"],
                ["cluster", "--config", "config.json", "--nodes", "gen/nodes.csv", "--out", "clu"],
                ["validate", "--config", "config.json", "--clusters", "clu/clusters.csv", "--out", "val"],
            ]
        return [["simulate", "--config", "config.json", "--out", "sim"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cluster_dense",
            "cluster",
            {"node_count": 3000},
            {"node_count": 150},
            "3000 nodes in 100x100 m: ~28 clusters of ~107 nodes, so per-cluster work "
            "(candidate subtraction, O(m^2) diameters) dominates and spatial pruning saves little",
        ),
        Workload(
            "cluster_sparse",
            "cluster",
            {"node_count": 3000, "area": square_at_density(3000)},
            {"node_count": 150, "area": square_at_density(150)},
            "3000 nodes at 25 nodes/ha: ~1300 clusters, 99.9% of brute-force pair checks find "
            "nothing, and Dunn's loop over ~850k cluster pairs dominates time and memory",
        ),
        Workload(
            "sim_recluster",
            "sim",
            {"node_count": 300, "execution_time": 50.0},
            {"node_count": 40, "execution_time": 5.0},
            "300 nodes, 51 ticks: the index stays below 0.5, so every tick re-clusters, "
            "re-validates and re-addresses; this is the per-tick rebuild",
        ),
        Workload(
            "sim_steady",
            "sim",
            {
                "node_count": 500,
                "area": square_at_density(500),
                "execution_time": 200.0,
                "drain_member": 2.0,
                "drain_head": 10.0,
                "validation_interval": 1000,
            },
            {
                "node_count": 40,
                "area": square_at_density(40),
                "execution_time": 20.0,
                "drain_member": 2.0,
                "drain_head": 10.0,
                "validation_interval": 1000,
            },
            "500 nodes at 25 nodes/ha, 201 ticks, no validation after tick 0: head rotation and "
            "table writes dominate, so it is the control for formation and validation changes",
        ),
    )
}

# Which end-to-end figure each per-module metric should move, on which
# workload. cmd.*_s and nodes_per_s are printed in each run's report; the
# rest are the contract metrics in BENCHMARK.json.
INTERACTIONS = [
    ("clustering.pac_candidates.self_s, .calls", "cmd.cluster_s", "cluster_sparse strongly, cluster_dense weakly"),
    ("clustering.pac_candidates.self_s, .calls", "wall_s", "sim_recluster (51 calls); sim_steady unchanged"),
    ("clustering.expac_cluster.self_s", "cmd.cluster_s", "mostly cluster_sparse"),
    ("validation.dunn_index.self_s, .calls", "cmd.validate_s", "cluster_dense and cluster_sparse"),
    ("validation.dunn_index.self_s, .calls", "wall_s", "sim_recluster; one call on sim_steady"),
    ("validation.cluster_pairs", "peak_rss_mb", "cluster_sparse"),
    ("head_election.rotate_heads.self_s, .calls, head_election.psopac_rebuild.self_s, "
     "head_election.head_changes", "node_ticks_per_s", "sim_steady"),
    ("sim.drain.self_s, .calls, sim.run_simulation.self_s, sim.ticks, sim.reclusters",
     "node_ticks_per_s", "sim_recluster and sim_steady"),
    ("addressing.assign_addresses.self_s, .calls, addressing.messages", "wall_s",
     "sim_recluster; sim_steady unchanged"),
    ("tables.write_table.self_s, .calls, tables.rows_written, tables.bytes_written",
     "node_ticks_per_s", "sim_steady (the bulk) and sim_recluster (~21%)"),
    ("tables.read_nodes_csv.self_s, tables.read_clusters_csv.self_s, tables.write_manifest.self_s",
     "cmd.*_s", "slightly, on every workload that calls them"),
    ("cli.generate.self_s, cli.cluster.self_s, cli.validate.self_s, cli.simulate.self_s",
     "cmd.*_s and wall_s", "the workloads that run the command"),
    ("model.generate_scenario.self_s", "none", "negligible everywhere; kept as a check"),
]
