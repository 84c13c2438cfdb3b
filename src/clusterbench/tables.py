"""The output format and tabular I/O.

Every output file's columns, rows and cells are decided here: the CSV/JSON
tables, the ``.dat`` plot files and the run manifest, plus the readers that
load node and cluster tables back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from ipaddress import IPv6Address
from pathlib import Path

from . import __version__
from .addressing import MessageKind, node_address
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
# Between two row objects: the first one's closing brace and the comma.
_JSON_ROW_SEP = "\n  },\n"


def write_table(
    path: str | Path,
    columns: list[str],
    rows: list[tuple] | TimelineRows | MessageRows,
    fmt: str = "csv",
) -> None:
    """Write rows (tuples in column order) as CSV or JSON with a trailing newline.

    Output is byte-deterministic: fixed column order and LF line endings. CSV
    cells go to ``csv.writer`` as they are, except that booleans (picked by
    type, since ``True == 1``) become ``true``/``false``; str enums render
    as their values. JSON is the layout of ``json.dump(indent=2)``, written
    one row at a time, with infinite floats as the strings ``inf``/``-inf``.
    A rows object with ``chunks(fmt)``, such as a ``TimelineRows`` or a
    ``MessageRows``, renders its own records in these layouts and is written
    one chunk at a time.
    """
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {fmt!r}")
    chunks = rows.chunks(fmt) if hasattr(rows, "chunks") else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            if chunks is not None:
                fh.writelines(chunks)
            else:
                writer.writerows(
                    [("true" if v else "false") if type(v) is bool else v for v in row]
                    for row in rows
                )
        elif not rows:
            fh.write("[]\n")
        else:
            if chunks is None:
                chunks = (
                    "  {\n    " + _json_row(dict(zip(columns, map(_json_cell, row))))[1:-1]
                    for row in rows
                )
            sep = "[\n"
            for chunk in chunks:
                fh.write(sep)
                fh.write(chunk)
                sep = _JSON_ROW_SEP
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


def _csv_text(value) -> str:
    """One CSV cell as ``write_table`` renders it, quoting included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [("true" if value else "false") if type(value) is bool else value]
    )
    return buf.getvalue()[:-1]


def _json_text(value) -> str:
    """One JSON cell as ``write_table`` renders it."""
    return _json_row(_json_cell(value))


class AddressTexts(dict):
    """Each address's text, by address, made the first time it is asked for
    (``str`` of an ``IPv6Address`` costs about 10 µs)."""

    def __missing__(self, address: IPv6Address) -> str:
        text = self[address] = str(address)
        return text


# Per format: the renderer of a non-float energy cell, then the text of a
# timeline record in four pieces and the text between records. The pieces are
# the tick cell; the node_id, cluster_id, is_head and exempt cells (ids are
# ints and flags are passed as "true"/"false", so none needs quoting or
# escaping) up to the energy's value; and the address cell. An address text
# holds no comma, quote, backslash or line break, so it is its own CSV cell
# and, between quotes, its own JSON string. A JSON record is one object of
# write_table's layout, whose closing brace belongs to the separator.
_TIMELINE_FORMATS = {
    "csv": (_csv_text, "{},", "{},{},{},{},", ",{}\n", ""),
    "json": (
        _json_text,
        '  {{\n    "tick": {},\n    ',
        '"node_id": {},\n    "cluster_id": {},\n    "is_head": {},\n    "exempt": {},\n'
        '    "energy": ',
        ',\n    "address": "{}"',
        _JSON_ROW_SEP,
    ),
}
_FLAG_TEXT = ("false", "true")


class TimelineRows:
    """The simulate timeline, rendered tick by tick as ``write_table`` writes it.

    ``len`` is its record count, ticks × nodes. It holds the snapshots and
    no records: ``chunks(fmt)`` yields each tick's records as one text. A
    node's node_id, cluster_id, is_head and exempt text is looked up again
    only when its ``Cluster`` object changes (clusters are frozen, and each
    distinct cluster state is one object per run), and rendered once per
    write for each of the node's (cluster_id, is_head, exempt) variants; its
    address text is rendered once per address map. Per record only the
    tick's shared prefix and the energy are new text. ``texts`` gives each
    address's text.
    """

    def __init__(self, snapshots: list[SimSnapshot], texts: AddressTexts) -> None:
        self.snapshots = snapshots
        self.texts = texts

    def __len__(self) -> int:
        return len(self.snapshots) * self.snapshots[0].clusters.node_universe

    def chunks(self, fmt: str) -> Iterator[str]:
        cell, tick_text, node_text, address_text, record_sep = _TIMELINE_FORMATS[fmt]
        node_ids = range(self.snapshots[0].clusters.node_universe)
        shown = [None] * len(node_ids)  # the Cluster each node's text was taken from
        nodes = [None] * len(node_ids)
        # Each node's texts, by (node_id, cluster_id, is_head, exempt): a node
        # takes few of them, while its cluster takes many states.
        variants = {}
        address_map = None
        for snap in self.snapshots:
            if snap.addresses is not address_map:
                address_map = snap.addresses
                addresses = [address_text.format(self.texts[address_map[i]]) for i in node_ids]
            for cluster in snap.clusters.clusters:
                # After each tick every node shows the cluster that held it.
                # A cluster's members are fixed, so one that held its first
                # member at the previous tick held, and shows, them all.
                if shown[cluster.members[0]] is cluster:
                    continue
                cluster_id, head, exempt = cluster.cluster_id, cluster.head, cluster.threshold_exempt
                for node_id in cluster.members:
                    shown[node_id] = cluster
                    variant = (node_id, cluster_id, node_id == head, node_id in exempt)
                    text = variants.get(variant)
                    if text is None:
                        text = variants[variant] = node_text.format(
                            node_id, cluster_id, _FLAG_TEXT[variant[2]], _FLAG_TEXT[variant[3]]
                        )
                    nodes[node_id] = text
            energies = list(map(snap.energies.__getitem__, node_ids))
            # A float renders as its repr, except that JSON writes inf as a
            # string (energies are >= 0, so inf is the one non-finite value);
            # a library-built node may also hold an int or a bool.
            if set(map(type, energies)) == {float} and (fmt == "csv" or math.inf not in energies):
                energies = map(float.__repr__, energies)
            else:
                energies = map(cell, energies)
            prefix = tick_text.format(snap.at_tick)
            yield record_sep.join(
                [f"{prefix}{n}{e}{a}" for n, e, a in zip(nodes, energies, addresses)]
            )


# Per format: the renderer of a kind name or address text, the tick cell that
# starts each record, the rest of a message record (seq, from and to are
# ints; the kind and payload cells are passed rendered), the empty payload's
# cell, and the text between records, as in _TIMELINE_FORMATS. No kind name
# or address text holds a comma, quote or line break, so in CSV each is its
# own cell; this also spares csv.writer's 128 KiB record buffer per cell.
_MESSAGE_FORMATS = {
    "csv": (str, "{},", "{},{},{},{},{}\n", "", ""),
    "json": (
        _json_text,
        '  {{\n    "at_tick": {},\n    ',
        '"seq": {},\n    "from": {},\n    "to": {},\n    "kind": {},\n    "payload": {}',
        "null",
        _JSON_ROW_SEP,
    ),
}


class MessageRows:
    """The simulate messages table, rendered event by event as ``write_table``
    writes it.

    ``len`` is its record count. It holds the address events, whose traces
    are ``Handshake`` blocks, and no records: ``chunks(fmt)`` yields each
    event's records as one text. A block's records, all but their tick cell,
    are rendered once per write for each distinct (prefix, block), and each
    distinct address's cell once; per event only the tick's shared prefix is
    new. ``texts`` gives each address's text.
    """

    def __init__(self, events: list[AddressEvent], texts: AddressTexts) -> None:
        self.events = events
        self.texts = texts

    def __len__(self) -> int:
        return sum(len(event.messages) for event in self.events)

    def chunks(self, fmt: str) -> Iterator[str]:
        cell, tick_text, record_text, no_payload, record_sep = _MESSAGE_FORMATS[fmt]
        hello, reply, assign = (cell(kind.value) for kind in MessageKind)
        payloads = {}  # each distinct address's cell, by (prefix48, cluster id, node id)
        rendered = {}  # each distinct block's records, by (prefix48, block)

        # A block's records are kept joined by NUL, which no record holds; per
        # event, each NUL becomes the separator and the tick's prefix.
        def render(prefix48, block):
            seq, cluster_id, head, members = block
            records = []
            for member in members:
                key = (prefix48, cluster_id, member)
                if key not in payloads:
                    payloads[key] = cell(self.texts[node_address(*key)])
                records += (
                    record_text.format(seq, head, member, hello, no_payload),
                    record_text.format(seq + 1, member, head, reply, no_payload),
                    record_text.format(seq + 2, head, member, assign, payloads[key]),
                )
                seq += 3
            return "\0".join(records)

        for event in self.events:
            handshake = event.messages
            if not handshake.blocks:
                continue
            blocks = []
            for block in handshake.blocks:
                key = (handshake.prefix48, block)
                if key not in rendered:
                    rendered[key] = render(*key)
                blocks.append(rendered[key])
            prefix = tick_text.format(event.at_tick)
            yield prefix + "\0".join(blocks).replace("\0", record_sep + prefix)


def simulation_tables(
    snapshots: list[SimSnapshot],
) -> dict[str, tuple[list[str], list[tuple] | TimelineRows | MessageRows]]:
    """The simulate command's tables, by file stem: (columns, rows). The
    timeline's rows are a ``TimelineRows`` and the messages' a
    ``MessageRows``, each rendered as it is written; every other table's
    are tuples. The three tables that hold addresses share their texts, so
    each distinct address is made text once."""
    texts = AddressTexts()
    events, validation, address_events = [], [], []
    for snap in snapshots:
        for event in snap.events:
            events.append(event_row(event))
            if isinstance(event, AddressEvent):
                address_events.append(event)
        if snap.report is not None:
            validation.append(report_row(snap.at_tick, snap.report))
    final = snapshots[-1]
    addresses = [
        (node_id, cluster.cluster_id, texts[final.addresses[node_id]])
        for node_id, cluster in enumerate(final.clusters.by_node())
    ]
    return {
        "timeline": (TIMELINE_COLUMNS, TimelineRows(snapshots, texts)),
        "events": (EVENTS_COLUMNS, events),
        "validation": (VALIDATION_COLUMNS, validation),
        "addresses": (ADDRESSES_COLUMNS, addresses),
        "messages": (MESSAGES_COLUMNS, MessageRows(address_events, texts)),
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
