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
from .head_election import EnergySnapshot, psopac_rebuild
from .model import (
    MAX_NODES,
    ScenarioConfig,
    config_from_dict,
    generate_scenario,
    read_config_file,
)
from .sim import run_simulation
from .tables import (
    CLUSTERS_COLUMNS,
    ENERGY_DAT_COLUMNS,
    MEDIAN_DAT_COLUMNS,
    NODES_COLUMNS,
    SWEEP_COLUMNS,
    VALIDATION_COLUMNS,
    clusters_rows,
    energy_dat_rows,
    manifest_data,
    manifest_timestamp,
    nodes_rows,
    read_clusters_csv,
    read_nodes_csv,
    report_row,
    sha256_file,
    simulation_tables,
    write_dat,
    write_manifest,
    write_table,
)
from .validation import dunn_index, validate_clusters

SEED_ENV_VAR = "CLUSTERBENCH_SEED"


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
        raw["comparator"] = args.comparator
    return config_from_dict(raw)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path("out" if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    write_manifest(out / "manifest.json", manifest_data("generate", config, args.format))
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
    for cluster_id, rows in energy_dat_rows(clusters, nodes):
        write_dat(out / f"cluster_{cluster_id:03d}_energy.dat", ENERGY_DAT_COLUMNS, rows)

    manifest = manifest_data("cluster", config, args.format)
    if input_hash:
        manifest["input_nodes_sha256"] = input_hash
    write_manifest(out / "manifest.json", manifest)
    print(f"wrote {len(clusters.clusters)} clusters to {table}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    cluster_set, positions = read_clusters_csv(args.clusters)
    try:
        report = validate_clusters(cluster_set, positions, config.dunn_recluster_threshold)
    except UndefinedIndexError as err:
        print("UNDEFINED_INDEX")
        if args.strict:
            print(f"error[{err.code}]: {err}", file=sys.stderr)
            return 4
        return 0
    # Table row: population, index, separation, overlap, compactness.
    print(
        f"{cluster_set.node_universe}, {report.dunn_index}, "
        f"{report.separation_pct}%, {report.overlap_pct}%, {report.compactness.value}"
    )
    if report.footnote:
        print(f"note: {report.footnote}")
    if args.out:
        out = _out_dir(args)
        rows = [report_row(0, report)]
        write_table(out / f"report.{args.format}", VALIDATION_COLUMNS, rows, args.format)
        manifest = manifest_data("validate", config, args.format)
        manifest["input_clusters_sha256"] = sha256_file(args.clusters)
        write_manifest(out / "manifest.json", manifest)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes, config, input_hash = _load_nodes(args, config)
    snapshots = run_simulation(config, nodes, prefix=args.prefix)
    out = _out_dir(args)
    fmt = args.format
    for stem, (columns, rows) in simulation_tables(snapshots).items():
        write_table(out / f"{stem}.{fmt}", columns, rows, fmt)
    manifest = manifest_data("simulate", config, fmt)
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
    if not sizes or any(not 1 <= n <= MAX_NODES for n in sizes):
        raise ConfigError(f"--sizes must name populations in 1..{MAX_NODES}, got {args.sizes!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")

    results = []
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
                indices.append(index)
            except UndefinedIndexError:
                index = None
            results.append((size, run_config.seed, index))
        if indices:
            medians.append((size, statistics.median(indices)))
        else:
            print(f"warning: no defined index for node_count={size}", file=sys.stderr)

    out = _out_dir(args)
    write_table(out / f"sweep.{args.format}", SWEEP_COLUMNS, results, args.format)
    write_dat(out / "median_index.dat", MEDIAN_DAT_COLUMNS, medians)
    write_manifest(out / "manifest.json", manifest_data("sweep", config, args.format))
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
    common.add_argument(
        "--out", help="output directory (default: out; validate writes files only when given)"
    )
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument(
        "--comparator",
        choices=["below", "at-or-above", "at_or_above"],
        help="energy membership test (default: below)",
    )
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
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
    p.add_argument("--strict", action="store_true", help="treat an undefined index as an error")
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
