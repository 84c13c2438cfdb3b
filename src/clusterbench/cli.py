"""Command-line front end.

Subcommands: generate | cluster | validate | simulate | sweep. Every output
directory gets a run manifest (``tables.write_manifest``); feeding it back
through --config replays the run byte-for-byte, given the same input table
if the run read one. The flags it records and restores are declared once, in
``tables``; each command hands its parsed flags over and names none of them.

Exit codes: 0 success, 2 config error, 3 input-data error, 4 domain error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .clustering import expac_cluster
from .errors import (
    ClusterBenchError,
    ConfigError,
    InputError,
    UndefinedIndexError,
)
from .head_election import psopac_rebuild
from .model import (
    MAX_NODES,
    ScenarioConfig,
    config_from_dict,
    generate_scenario,
    read_config_file,
)
from .sim import run_simulation
from .tables import (
    CLUSTERS_TABLE,
    ENERGY_DAT_COLUMNS,
    FORMATS,
    MEDIAN_DAT_COLUMNS,
    NODES_TABLE,
    RECORDED_FLAGS,
    SWEEP_TABLE,
    VALIDATION_TABLE,
    clusters_rows,
    energy_dats,
    manifest_timestamp,
    nodes_rows,
    parse_int,
    read_clusters_csv,
    read_nodes_csv,
    replay_settings,
    report_row,
    simulation_tables,
    write_dat,
    write_manifest,
    write_table,
)
from .validation import dunn_index, validate_clusters

SEED_ENV_VAR = "CLUSTERBENCH_SEED"
#: Most seeds ``sweep`` runs per population.
MAX_SWEEP_SEEDS = 10_000


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """Merge config file, flags, and environment into a validated config.

    Seed precedence: --seed, then the config file, then CLUSTERBENCH_SEED,
    then the default of 0. Each recorded flag the command has is set as
    ``replay_settings`` settles it from the flag and the replayed manifest,
    so a replay writes what the run wrote.
    """
    raw, manifest = read_config_file(args.config) if args.config else ({}, {})
    vars(args).update(replay_settings(manifest, vars(args)))
    if args.seed is not None:
        raw["seed"] = args.seed
    elif "seed" not in raw:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                raw["seed"] = parse_int(env_seed)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    if args.comparator:
        raw["comparator"] = args.comparator
    return config_from_dict(raw)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path("out" if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_nodes(args: argparse.Namespace, config: ScenarioConfig):
    """The --nodes table and the config sized to it; or, without --nodes,
    None and the config, for a seeded population."""
    if not args.nodes:
        return None, config
    nodes = read_nodes_csv(args.nodes)
    if len(nodes) != config.node_count:
        config = replace(config, node_count=len(nodes))
    return nodes, config


def cmd_generate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes = generate_scenario(config)
    out = _out_dir(args)
    table = out / f"nodes.{args.format}"
    write_table(table, NODES_TABLE, nodes_rows(nodes), args.format)
    write_manifest(out, "generate", config, vars(args))
    print(f"wrote {len(nodes)} nodes to {table}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes, config = _load_nodes(args, config)
    if nodes is None:
        nodes = generate_scenario(config)
    clusters = expac_cluster(nodes, config.tx_range)
    energies = [n.energy for n in nodes]  # both sources give nodes in id order
    clusters = psopac_rebuild(clusters, energies, config.energy_threshold, config.comparator)
    out = _out_dir(args)
    table = out / f"clusters.{args.format}"
    rows = clusters_rows(clusters, nodes)
    write_table(table, CLUSTERS_TABLE, rows, args.format)
    for cluster_id, dat_rows in energy_dats(rows):
        write_dat(out / f"cluster_{cluster_id:03d}_energy.dat", ENERGY_DAT_COLUMNS, dat_rows)
    write_manifest(out, "cluster", config, vars(args))
    print(f"wrote {len(clusters.clusters)} clusters to {table}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    cluster_set, positions = read_clusters_csv(args.clusters)
    try:
        report = validate_clusters(cluster_set, positions, config.dunn_recluster_threshold)
    except UndefinedIndexError:
        print("UNDEFINED_INDEX")
        if args.strict:
            raise
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
        write_table(out / f"report.{args.format}", VALIDATION_TABLE, rows, args.format)
        write_manifest(out, "validate", config, vars(args))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    nodes, config = _load_nodes(args, config)
    # A seeded population is placed by run_simulation, after it checks the run's size.
    snapshots = run_simulation(config, nodes, prefix=args.prefix)
    out = _out_dir(args)
    for stem, (table, rows) in simulation_tables(snapshots).items():
        write_table(out / f"{stem}.{args.format}", table, rows, args.format)
    write_manifest(out, "simulate", config, vars(args))
    print(f"simulated {len(snapshots)} ticks into {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import statistics  # with fractions and decimal, only sweep needs it

    config = resolve_config(args)
    sizes, seeds = args.sizes, args.seeds  # a replayed manifest's may hold anything
    if not (isinstance(sizes, list) and sizes and all(_count(n, MAX_NODES) for n in sizes)):
        raise ConfigError(f"--sizes must name populations in 1..{MAX_NODES}, got {sizes!r}")
    if not _count(seeds, MAX_SWEEP_SEEDS):
        raise ConfigError(f"--seeds must be in 1..{MAX_SWEEP_SEEDS}, got {seeds!r}")
    if config.seed + seeds > 2**64:  # seeds are below 2^64
        raise ConfigError(
            f"--seeds {seeds} from seed {config.seed} runs past the largest seed 2^64 - 1"
        )

    results = []
    medians: list[tuple[int, float]] = []
    for size in sizes:
        indices = []
        for offset in range(seeds):
            run_config = replace(config, node_count=size, seed=config.seed + offset)
            nodes = generate_scenario(run_config)
            # The index reads only membership and positions, so no heads are elected.
            clusters = expac_cluster(nodes, run_config.tx_range)
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
    write_table(out / f"sweep.{args.format}", SWEEP_TABLE, results, args.format)
    write_dat(out / "median_index.dat", MEDIAN_DAT_COLUMNS, medians)
    write_manifest(out, "sweep", config, vars(args))
    for size, median in medians:
        print(f"node_count={size} median_index={median}")
    return 0


def _count(value, top: int) -> bool:
    """Whether ``value`` is an int (not a bool) in 1..top."""
    return type(value) is int and 1 <= value <= top


def _integer(text: str) -> int:
    """An integer flag's value, read as a table's int cell is."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _integers(text: str) -> list[int]:
    """A comma-separated integer flag's values, each read as a table's int cell is."""
    try:
        return [parse_int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        message = f"must be comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _replayed(what: str, name: str) -> str:
    """The help of recorded flag ``name``: ``what`` it gives, and its default."""
    default = RECORDED_FLAGS[name]
    default = ",".join(map(str, default)) if isinstance(default, list) else default
    return f"{what} (default: a replayed manifest's, else {default})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbench",
        description="Energy-aware ad hoc network clustering: generate, cluster, "
        "validate, simulate, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a manifest to replay)")
    common.add_argument("--seed", type=_integer, help="RNG seed; overrides config and environment")
    common.add_argument(
        "--out", help="output directory (default: out; validate writes files only when given)"
    )
    common.add_argument("--format", choices=FORMATS, help=_replayed("table format", "format"))
    common.add_argument(
        "--comparator",
        choices=["below", "at-or-above", "at_or_above"],
        help="energy membership test (default: below)",
    )
    common.add_argument(
        "--threads", type=_integer, default=1, help="accepted for compatibility; has no effect"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a seeded node table")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", parents=[common], help="cluster nodes and elect heads")
    p.add_argument("--nodes", help="node table CSV (generated from config when omitted)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("validate", parents=[common], help="score a cluster table")
    p.add_argument("--clusters", required=True, help="cluster table CSV")
    p.add_argument("--strict", action="store_true", help="treat an undefined index as an error")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run the tick simulation")
    p.add_argument("--nodes", help="node table CSV (generated from config when omitted)")
    p.add_argument("--prefix", help=_replayed("48-bit address prefix", "prefix"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="median index across populations and seeds")
    sizes = "comma-separated node counts"
    p.add_argument("--sizes", type=_integers, help=_replayed(sizes, "sizes"))
    seeds = f"seeds per population, at most {MAX_SWEEP_SEEDS}"
    p.add_argument("--seeds", type=_integer, help=_replayed(seeds, "seeds"))
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
