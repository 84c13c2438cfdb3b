"""Command-line front end.

Subcommands: generate | cluster | validate | simulate | sweep. Every output
directory gets a run manifest holding the fully-resolved config, the seed,
the RNG and placement names, and the comparator mode — feeding the manifest
back through --config replays the run byte-for-byte.

Exit codes: 0 success, 2 config error, 3 input-data error, 4 domain error.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .addressing import DEFAULT_PREFIX
from .clustering import expac_cluster
from .errors import (
    ClusterBenchError,
    ConfigError,
    InputError,
    UndefinedIndexError,
)
from .head_election import EnergySnapshot, HeadChange, psopac_rebuild
from .model import (
    PLACEMENT_MODEL,
    RNG_NAME,
    ScenarioConfig,
    config_from_dict,
    generate_scenario,
    normalize_comparator,
    read_config_file,
)
from .sim import AddressEvent, ReclusterEvent, run_simulation
from .tables import (
    CLUSTERS_COLUMNS,
    NODES_COLUMNS,
    clusters_rows,
    manifest_timestamp,
    nodes_rows,
    read_clusters_csv,
    read_nodes_csv,
    sha256_file,
    write_manifest,
    write_table,
)
from .validation import classify, dunn_index

SEED_ENV_VAR = "CLUSTERBENCH_SEED"

TIMELINE_COLUMNS = ["tick", "node_id", "cluster_id", "is_head", "exempt", "energy", "address"]
EVENTS_COLUMNS = [
    "at_tick",
    "kind",
    "cluster_id",
    "old_head",
    "new_head",
    "trigger_index",
    "old_cluster_count",
    "new_cluster_count",
    "assigned",
    "messages",
]
VALIDATION_COLUMNS = [
    "at_tick",
    "dunn_index",
    "separation_pct",
    "overlap_pct",
    "compactness",
    "classification",
    "recommend_recluster",
    "footnote",
]
ADDRESSES_COLUMNS = ["node_id", "cluster_id", "address"]
MESSAGES_COLUMNS = ["at_tick", "seq", "from", "to", "kind", "payload"]
SWEEP_COLUMNS = ["node_count", "seed", "dunn_index"]


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """Merge config file, flags, and environment into a validated config.

    Seed precedence: --seed, then the config file, then CLUSTERBENCH_SEED,
    then the default of 0.
    """
    raw = read_config_file(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    elif "seed" not in raw:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                raw["seed"] = int(env_seed)
            except ValueError:
                raise ConfigError(
                    f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                ) from None
    if getattr(args, "comparator", None):
        raw["comparator"] = normalize_comparator(args.comparator)
    return config_from_dict(raw)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest_data(command: str, config: ScenarioConfig, fmt: str) -> dict:
    return {
        "command": command,
        "tool": "clusterbench",
        "tool_version": __version__,
        "rng": RNG_NAME,
        "placement": PLACEMENT_MODEL,
        "comparator": config.comparator,
        "seed": config.seed,
        "config": config.to_dict(),
        "format": fmt,
    }


def _load_nodes(args: argparse.Namespace, config: ScenarioConfig):
    if getattr(args, "nodes", None):
        nodes = read_nodes_csv(args.nodes)
        if len(nodes) != config.node_count:
            config = replace(config, node_count=len(nodes)).validate()
        return nodes, config, sha256_file(args.nodes)
    return generate_scenario(config), config, None


def cmd_generate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes = generate_scenario(config)
    out = _out_dir(args)
    table = out / f"nodes.{args.format}"
    write_table(table, NODES_COLUMNS, nodes_rows(nodes), args.format)
    write_manifest(out / "manifest.json", _manifest_data("generate", config, args.format))
    print(f"wrote {len(nodes)} nodes to {table}")
    return 0


def _cluster_once(nodes, config: ScenarioConfig):
    clusters = expac_cluster(nodes, config.tx_range)
    energies = EnergySnapshot(0, {n.node_id: n.energy for n in nodes})
    return psopac_rebuild(clusters, energies, config.energy_threshold, config.comparator)


def cmd_cluster(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes, config, input_hash = _load_nodes(args, config)
    clusters = _cluster_once(nodes, config)
    out = _out_dir(args)
    table = out / f"clusters.{args.format}"
    write_table(table, CLUSTERS_COLUMNS, clusters_rows(clusters, nodes), args.format)

    by_id = {n.node_id: n for n in nodes}
    for cluster in clusters.clusters:
        data = out / f"cluster_{cluster.cluster_id:03d}_energy.dat"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            fh.write("# node_id energy is_head\n")
            for member in cluster.members:
                is_head = 1 if member == cluster.head else 0
                fh.write(f"{member} {by_id[member].energy} {is_head}\n")

    manifest = _manifest_data("cluster", config, args.format)
    if input_hash:
        manifest["input_nodes_sha256"] = input_hash
    write_manifest(out / "manifest.json", manifest)
    print(f"wrote {len(clusters.clusters)} clusters to {table}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    cluster_set, positions, _energies = read_clusters_csv(args.clusters)
    try:
        index = dunn_index(cluster_set, positions)
    except UndefinedIndexError as err:
        print("UNDEFINED_INDEX")
        if args.strict:
            print(f"error[{err.code}]: {err}", file=sys.stderr)
            return 4
        return 0
    report = classify(index, config.dunn_recluster_threshold)
    # Table row: population, index, separation, overlap, compactness.
    print(
        f"{cluster_set.node_universe}, {report.dunn_index}, "
        f"{report.separation_pct}%, {report.overlap_pct}%, {report.compactness.value}"
    )
    if report.footnote:
        print(f"note: {report.footnote}")
    if args.out:
        out = _out_dir(args)
        row = {
            "at_tick": 0,
            "dunn_index": report.dunn_index,
            "separation_pct": report.separation_pct,
            "overlap_pct": report.overlap_pct,
            "compactness": report.compactness,
            "classification": report.classification,
            "recommend_recluster": report.recommend_recluster,
            "footnote": report.footnote,
        }
        write_table(out / f"report.{args.format}", VALIDATION_COLUMNS, [row], args.format)
        manifest = _manifest_data("validate", config, args.format)
        manifest["input_clusters_sha256"] = sha256_file(args.clusters)
        write_manifest(out / "manifest.json", manifest)
    return 0


def _simulate_tables(snapshots) -> dict[str, list[dict]]:
    timeline, events, validation, messages = [], [], [], []
    for snap in snapshots:
        by_node = snap.clusters.by_node()
        for node_id in sorted(by_node):
            cluster = by_node[node_id]
            timeline.append(
                {
                    "tick": snap.at_tick,
                    "node_id": node_id,
                    "cluster_id": cluster.cluster_id,
                    "is_head": node_id == cluster.head,
                    "exempt": node_id in cluster.threshold_exempt,
                    "energy": snap.energies.energies[node_id],
                    "address": snap.addresses.get(node_id),
                }
            )
        for event in snap.events:
            if isinstance(event, HeadChange):
                events.append(
                    {
                        "at_tick": event.at_tick,
                        "kind": "head_change",
                        "cluster_id": event.cluster_id,
                        "old_head": event.old_head,
                        "new_head": event.new_head,
                    }
                )
            elif isinstance(event, ReclusterEvent):
                events.append(
                    {
                        "at_tick": event.at_tick,
                        "kind": "recluster",
                        "trigger_index": event.trigger_index,
                        "old_cluster_count": event.old_cluster_count,
                        "new_cluster_count": event.new_cluster_count,
                    }
                )
            elif isinstance(event, AddressEvent):
                events.append(
                    {
                        "at_tick": event.at_tick,
                        "kind": "address",
                        "assigned": len(event.assigned),
                        "messages": len(event.messages),
                    }
                )
                for msg in event.messages:
                    messages.append(
                        {
                            "at_tick": event.at_tick,
                            "seq": msg.seq,
                            "from": msg.sender,
                            "to": msg.receiver,
                            "kind": msg.kind,
                            "payload": msg.payload,
                        }
                    )
        if snap.report is not None:
            validation.append(
                {
                    "at_tick": snap.at_tick,
                    "dunn_index": snap.report.dunn_index,
                    "separation_pct": snap.report.separation_pct,
                    "overlap_pct": snap.report.overlap_pct,
                    "compactness": snap.report.compactness,
                    "classification": snap.report.classification,
                    "recommend_recluster": snap.report.recommend_recluster,
                    "footnote": snap.report.footnote,
                }
            )
    final = snapshots[-1]
    by_node = final.clusters.by_node()
    addresses = [
        {
            "node_id": node_id,
            "cluster_id": by_node[node_id].cluster_id,
            "address": final.addresses.get(node_id),
        }
        for node_id in sorted(by_node)
    ]
    return {
        "timeline": timeline,
        "events": events,
        "validation": validation,
        "addresses": addresses,
        "messages": messages,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes, config, input_hash = _load_nodes(args, config)
    snapshots = run_simulation(config, nodes, prefix=args.prefix)
    out = _out_dir(args)
    tables = _simulate_tables(snapshots)
    fmt = args.format
    write_table(out / f"timeline.{fmt}", TIMELINE_COLUMNS, tables["timeline"], fmt)
    write_table(out / f"events.{fmt}", EVENTS_COLUMNS, tables["events"], fmt)
    write_table(out / f"validation.{fmt}", VALIDATION_COLUMNS, tables["validation"], fmt)
    write_table(out / f"addresses.{fmt}", ADDRESSES_COLUMNS, tables["addresses"], fmt)
    write_table(out / f"messages.{fmt}", MESSAGES_COLUMNS, tables["messages"], fmt)
    manifest = _manifest_data("simulate", config, fmt)
    if input_hash:
        manifest["input_nodes_sha256"] = input_hash
    if args.prefix != DEFAULT_PREFIX:
        manifest["prefix"] = args.prefix
    write_manifest(out / "manifest.json", manifest)
    print(f"simulated {len(snapshots)} ticks into {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise ConfigError(f"--sizes must name populations >= 1, got {args.sizes!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")

    rows = []
    medians: list[tuple[int, float]] = []
    for size in sizes:
        indices = []
        for offset in range(args.seeds):
            run_config = replace(config, node_count=size, seed=config.seed + offset).validate()
            nodes = generate_scenario(run_config)
            clusters = _cluster_once(nodes, run_config)
            positions = {n.node_id: n.pos for n in nodes}
            try:
                index = dunn_index(clusters, positions)
            except UndefinedIndexError:
                rows.append({"node_count": size, "seed": run_config.seed, "dunn_index": None})
                continue
            rows.append({"node_count": size, "seed": run_config.seed, "dunn_index": index})
            indices.append(index)
        if indices:
            medians.append((size, statistics.median(indices)))
        else:
            print(f"warning: no defined index for node_count={size}", file=sys.stderr)

    out = _out_dir(args)
    write_table(out / f"sweep.{args.format}", SWEEP_COLUMNS, rows, args.format)
    with open(out / "median_index.dat", "w", encoding="utf-8", newline="") as fh:
        fh.write("# node_count median_dunn_index\n")
        for size, median in medians:
            fh.write(f"{size} {median}\n")
    write_manifest(out / "manifest.json", _manifest_data("sweep", config, args.format))
    for size, median in medians:
        print(f"node_count={size} median_index={median}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbench",
        description="Energy-aware ad hoc network clustering: generate, cluster, "
        "validate, simulate, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a manifest to replay)")
    common.add_argument("--seed", type=int, help="RNG seed; overrides config and environment")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument(
        "--comparator",
        choices=["below", "at-or-above", "at_or_above"],
        help="energy membership test (default: below)",
    )
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    common.add_argument(
        "--strict", action="store_true", help="treat an undefined index as an error"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a seeded node table")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "cluster", parents=[common], help="cluster nodes and elect heads"
    )
    p.add_argument("--nodes", help="node table CSV (generated from config when omitted)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("validate", parents=[common], help="score a cluster table")
    p.add_argument("--clusters", required=True, help="cluster table CSV")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run the tick simulation")
    p.add_argument("--nodes", help="node table CSV (generated from config when omitted)")
    p.add_argument(
        "--prefix", default=DEFAULT_PREFIX, help=f"48-bit address prefix (default {DEFAULT_PREFIX})"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[common], help="median index across populations and seeds"
    )
    p.add_argument("--sizes", default="25,50,300", help="comma-separated node counts")
    p.add_argument("--seeds", type=int, default=20, help="seeds per population (default: 20)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        manifest_timestamp()  # a bad SOURCE_DATE_EPOCH fails before any output
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except ClusterBenchError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
