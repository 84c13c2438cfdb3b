"""The output format and tabular I/O.

Every output file's columns, rows and cells are decided here: the CSV/JSON
tables, the ``.dat`` plot files and the run manifest, plus the readers that
load node and cluster tables back.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ClusterBenchError, ConfigError, InputError, InvariantViolation
from .head_election import HeadChange
from .model import (
    PLACEMENT_MODEL,
    RNG_NAME,
    Cluster,
    ClusterSet,
    Node,
    NodeId,
    Position,
    ScenarioConfig,
)
from .sim import AddressEvent, ReclusterEvent, SimSnapshot
from .validation import ValidationReport

NODES_COLUMNS = ["node_id", "x", "y", "energy"]
CLUSTERS_COLUMNS = ["cluster_id", "node_id", "is_head", "energy", "x", "y", "exempt"]
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
ENERGY_DAT_COLUMNS = ["node_id", "energy", "is_head"]
MEDIAN_DAT_COLUMNS = ["node_count", "median_dunn_index"]

FORMATS = ("csv", "json")


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return value


# One row object of ``json.dump(rows, fh, indent=2)``, minus its braces: the
# C encoder runs only without ``indent``, so the indent goes in the separator.
_json_row = json.JSONEncoder(separators=(",\n    ", ": ")).encode


def write_table(path: str | Path, columns: list[str], rows: list[tuple], fmt: str = "csv") -> None:
    """Write rows (tuples in column order) as CSV or JSON with a trailing newline.

    Output is byte-deterministic: fixed column order and LF line endings. CSV
    cells go to ``csv.writer`` as they are, except that booleans (picked by
    type, since ``True == 1``) become ``true``/``false``; str enums render
    as their values. JSON is the layout of ``json.dump(indent=2)``, written
    one row at a time, with infinite floats as the strings ``inf``/``-inf``.
    """
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(
                [("true" if v else "false") if type(v) is bool else v for v in row] for row in rows
            )
        elif not rows:
            fh.write("[]\n")
        else:
            sep = "[\n"
            for row in rows:
                fh.write(sep + "  {\n    " + _json_row(dict(zip(columns, map(_json_cell, row))))[1:-1])
                sep = "\n  },\n"
            fh.write("\n  }\n]\n")


def write_dat(path: str | Path, columns: list[str], rows: Iterable[tuple]) -> None:
    """Write a plot data file: ``#`` and the column names, then one line of
    space-separated values per row (a tuple in column order)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(" ".join(map(str, row)) + "\n")


def nodes_rows(nodes: list[Node]) -> list[tuple]:
    return [(n.node_id, n.pos.x, n.pos.y, n.energy) for n in nodes]


def clusters_rows(clusters: ClusterSet, nodes: list[Node]) -> list[tuple]:
    by_id = {n.node_id: n for n in nodes}
    rows = []
    for cluster in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        for member in cluster.members:
            node = by_id[member]
            rows.append(
                (
                    cluster.cluster_id,
                    member,
                    member == cluster.head,
                    node.energy,
                    node.pos.x,
                    node.pos.y,
                    member in cluster.threshold_exempt,
                )
            )
    return rows


def energy_dat_rows(clusters: ClusterSet, nodes: list[Node]) -> Iterator[tuple[int, list[tuple]]]:
    """Per cluster, its id and the rows of its ``cluster_NNN_energy.dat`` file."""
    by_id = {n.node_id: n for n in nodes}
    for c in clusters.clusters:
        yield c.cluster_id, [(m, by_id[m].energy, int(m == c.head)) for m in c.members]


def report_row(at_tick: int, report: ValidationReport) -> tuple:
    """One validation-report row."""
    return (
        at_tick,
        report.dunn_index,
        report.separation_pct,
        report.overlap_pct,
        report.compactness,
        report.classification,
        report.recommend_recluster,
        report.footnote,
    )


def event_row(event) -> tuple:
    """One events-table row; each event kind leaves the other kinds' columns
    empty. An AddressEvent gives the counts of its addresses and messages."""
    if isinstance(event, HeadChange):
        heads = (event.cluster_id, event.old_head, event.new_head)
        return (event.at_tick, "head_change", *heads, None, None, None, None, None)
    if isinstance(event, ReclusterEvent):
        counts = (event.trigger_index, event.old_cluster_count, event.new_cluster_count)
        return (event.at_tick, "recluster", None, None, None, *counts, None, None)
    sizes = (len(event.assigned), len(event.messages))  # an AddressEvent
    return (event.at_tick, "address", None, None, None, None, None, None, *sizes)


def simulation_tables(snapshots: list[SimSnapshot]) -> dict[str, tuple[list[str], list[tuple]]]:
    """The simulate command's tables, by file stem: (columns, rows). Each
    distinct address is rendered as text once, however many cells show it."""
    timeline, events, validation, messages = [], [], [], []
    texts = {}  # each distinct address as text, by its value

    def text(address):
        key = int(address)
        if key not in texts:
            texts[key] = str(address)
        return texts[key]

    address_map = shown = None  # the address map last rendered, and its texts
    # Every row shares these ids: enumerate would make a new int per row above 256.
    node_ids = list(range(snapshots[0].clusters.node_universe))
    for snap in snapshots:
        if snap.addresses is not address_map:
            address_map = snap.addresses
            shown = {node_id: text(a) for node_id, a in address_map.items()}
        energies = snap.energies
        for node_id, cluster in zip(node_ids, snap.clusters.by_node()):
            timeline.append(
                (
                    snap.at_tick,
                    node_id,
                    cluster.cluster_id,
                    node_id == cluster.head,
                    node_id in cluster.threshold_exempt,
                    energies[node_id],
                    shown[node_id],
                )
            )
        for event in snap.events:
            events.append(event_row(event))
            if isinstance(event, AddressEvent):
                for msg in event.messages:
                    payload = None if msg.payload is None else text(msg.payload)
                    messages.append(
                        (event.at_tick, msg.seq, msg.sender, msg.receiver, msg.kind, payload)
                    )
        if snap.report is not None:
            validation.append(report_row(snap.at_tick, snap.report))
    final = snapshots[-1]
    addresses = [
        (node_id, cluster.cluster_id, shown[node_id])
        for node_id, cluster in zip(node_ids, final.clusters.by_node())
    ]
    return {
        "timeline": (TIMELINE_COLUMNS, timeline),
        "events": (EVENTS_COLUMNS, events),
        "validation": (VALIDATION_COLUMNS, validation),
        "addresses": (ADDRESSES_COLUMNS, addresses),
        "messages": (MESSAGES_COLUMNS, messages),
    }


def _parse_bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0", ""):
        return False
    raise InputError(f"{where}: expected true/false, got {text!r}")


def _finite(row: dict, column: str) -> float:
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {row[column]!r}")
    return value


def _read_csv(path: str | Path, required: list[str]) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [col for col in required if col not in header]
            if missing:
                raise InputError(f"{path}: missing columns: {', '.join(missing)}")
            return list(reader)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def read_nodes_csv(path: str | Path) -> list[Node]:
    """Load a node table (node_id, x, y, energy)."""
    rows = _read_csv(path, NODES_COLUMNS)
    if not rows:
        raise InputError(f"{path}: no node rows")
    nodes = []
    for i, row in enumerate(rows):
        where = f"{path} row {i + 1}"
        try:
            nodes.append(
                Node(
                    int(row["node_id"]),
                    Position(_finite(row, "x"), _finite(row, "y")),
                    _finite(row, "energy"),
                )
            )
        except (TypeError, ValueError, InvariantViolation) as err:
            raise InputError(f"{where}: {err}") from err
    ids = sorted(n.node_id for n in nodes)
    if ids != list(range(len(nodes))):
        raise InputError(f"{path}: node ids must be the dense range 0..N-1")
    return sorted(nodes, key=lambda n: n.node_id)


def read_clusters_csv(path: str | Path) -> tuple[ClusterSet, dict[NodeId, Position]]:
    """Load a cluster table back into a partition plus positions.

    Requires the positional columns (x, y) so the partition can be
    re-validated; the exempt column is optional and defaults to false. The
    energy column is required and checked, but not returned.
    """
    rows = _read_csv(path, ["cluster_id", "node_id", "is_head", "energy", "x", "y"])
    if not rows:
        raise InputError(f"{path}: no cluster rows")
    grouped: dict[int, dict] = {}
    positions: dict[NodeId, Position] = {}
    for i, row in enumerate(rows):
        where = f"{path} row {i + 1}"
        try:
            cid = int(row["cluster_id"])
            nid = int(row["node_id"])
            is_head = _parse_bool(row["is_head"], where)
            energy = _finite(row, "energy")
            if energy < 0:
                raise ValueError(f"energy must be >= 0, got {row['energy']!r}")
            pos = Position(_finite(row, "x"), _finite(row, "y"))
            exempt = _parse_bool(row.get("exempt") or "", where)
        except (TypeError, ValueError) as err:
            raise InputError(f"{where}: {err}") from err
        group = grouped.setdefault(cid, {"members": [], "heads": [], "exempt": set()})
        group["members"].append(nid)
        if is_head:
            group["heads"].append(nid)
        if exempt:
            group["exempt"].add(nid)
        positions[nid] = pos
    clusters = []
    for cid in sorted(grouped):
        group = grouped[cid]
        if len(group["heads"]) != 1:
            raise InputError(
                f"{path}: cluster {cid} must have exactly one head row, got {len(group['heads'])}"
            )
        try:
            clusters.append(
                Cluster(cid, group["heads"][0], tuple(group["members"]), frozenset(group["exempt"]))
            )
        except ClusterBenchError as err:
            raise InputError(f"{path}: cluster {cid}: {err}") from err
    try:
        cluster_set = ClusterSet(tuple(clusters), len(positions))
    except ClusterBenchError as err:
        raise InputError(f"{path}: {err}") from err
    return cluster_set, positions


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_timestamp() -> str:
    """UTC ISO-8601 stamp; honors SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        moment = int(epoch) if epoch else int(time.time())
        return datetime.fromtimestamp(moment, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    except (ValueError, OverflowError, OSError):
        raise ConfigError(
            f"SOURCE_DATE_EPOCH must be an integer count of seconds in the "
            f"datetime range, got {epoch!r}"
        ) from None


def manifest_data(command: str, config: ScenarioConfig, fmt: str) -> dict:
    """The manifest fields every command records; feeding the manifest back
    through --config replays the run."""
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


def write_manifest(path: str | Path, data: dict) -> None:
    """Write a run manifest as stable, sorted JSON (timestamp added here)."""
    payload = dict(data)
    payload.setdefault("timestamp", manifest_timestamp())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
