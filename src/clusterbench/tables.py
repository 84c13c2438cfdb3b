"""The output format and tabular I/O.

Every output file's columns, rows and cells are decided here: the CSV/JSON
tables, the ``.dat`` plot files and the run manifest, plus the readers that
load node and cluster tables back and a replayed manifest's settings. Each
CSV/JSON table is declared once, as a ``Table`` of column names and cell
``Kind``s, and every byte of its records comes from the ``Layout`` derived
from that declaration. The node and cluster tables are read back through the
same declarations, each column by its kind's ``parse``; a header that names a
column twice is refused.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from ipaddress import IPv6Address
from itertools import compress, groupby
from operator import itemgetter
from pathlib import Path

from . import __version__
from .addressing import DEFAULT_PREFIX, MessageKind
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
from .validation import STRICT_PCT_FOOTNOTE, Classification, Compactness, ValidationReport


@dataclass(frozen=True)
class Kind:
    """What one column's cells hold: ``base`` is "int"; "number", a float or
    an int from a library-built node; "flag", a bool; "address", an address
    text; or "text", one of ``vocabulary``. ``optional`` cells may be None."""

    base: str
    optional: bool = False
    vocabulary: tuple = ()

    def parse(self, cells) -> list:
        """An int, number or flag column's cell texts as values, parsed in C;
        a ValueError or KeyError if a cell is not as ``_SPELLINGS`` says.
        ``int`` and ``float`` also read ``1_0`` as 10 and non-ASCII digits,
        which no writer makes, so a number cell must be ASCII without ``_``."""
        if self.base != "flag":
            joined = "".join(cells)
            if not joined.isascii() or "_" in joined:
                raise ValueError("a number holds a non-ASCII character or '_'")
        if self.base == "int":
            return list(map(int, cells))
        if self.base == "flag":
            return list(map(_FLAG_TEXTS.__getitem__, map(str.lower, map(str.strip, cells))))
        values = list(map(float, cells))
        if not all(map(math.isfinite, values)):
            raise ValueError("a number is not finite")
        return values


# What a read takes as a cell of each kind: a flag in any case, with spaces
# around it, and empty for false.
_SPELLINGS = {"int": "an integer", "number": "a finite number", "flag": "true or false"}
_FLAG_TEXTS = {"true": True, "1": True, "false": False, "0": False, "": False}
INT, NUMBER, FLAG, ADDRESS = Kind("int"), Kind("number"), Kind("flag"), Kind("address")
OPTIONAL_INT, OPTIONAL_NUMBER = Kind("int", optional=True), Kind("number", optional=True)
FORMATS = ("csv", "json")
#: Records a chunk of a tuple table: a chunk's text stays small beside the rows.
CHUNK_ROWS = 128


def parse_int(text: str) -> int:
    """One integer as an int cell is read: ASCII without ``_``, else a ValueError."""
    [value] = INT.parse((text,))
    return value


def _csv_quoted(text: str) -> str:
    """A text as one CSV cell: quoted, quotes doubled, if it could split the cell."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _cell_texts(kind: Kind, fmt: str):
    """None if ``"{}"`` writes a kind's cells as they are (an int or a float
    as its repr, as csv.writer and the JSON encoder do), else a map from a
    column, a sequence, to what it writes. Flags and texts map strictly, so a value
    outside a vocabulary is a KeyError (since True == 1, only flags have
    bool keys); the rest map None and JSON's infinities, and keep any other
    value, a JSON address between quotes (its text needs no escape)."""
    json_fmt = fmt == "json"
    if kind.base == "flag":
        cells = {False: "false", True: "true"}
    elif kind.base == "text":
        texts = [t.value if isinstance(t, Enum) else t for t in kind.vocabulary]
        cells = {t: json.dumps(t) if json_fmt else _csv_quoted(t) for t in texts}
    elif kind.base == "number" and json_fmt:  # the encoder would write Infinity
        cells = {math.inf: '"inf"', -math.inf: '"-inf"'}
    else:
        cells = {}
    if kind.optional:
        cells[None] = "null" if json_fmt else ""
    if kind.base in ("flag", "text"):
        return partial(map, cells.__getitem__)
    if json_fmt and kind.base == "address":
        return lambda column: map(cells.get, column, map('"{}"'.format, column))
    return (lambda column: map(cells.get, column, column)) if cells else None


class Layout:
    """What a write of one table in one format needs, derived from the
    table's declaration. A file is ``head``, the records joined by ``sep``
    and ``tail``, or ``empty`` if it has no record. A record is
    ``before[0]``, cell 0, ``before[1]``, cell 1 and so on, then ``end``; in
    JSON, one object of ``json.dump(indent=2)``'s layout. ``before`` and
    ``end`` are ``str.format`` texts, with each brace doubled, and
    ``cell_texts`` holds each column's ``_cell_texts``. A None in a column
    that is not optional is a ValueError that names the column."""

    def __init__(self, table: Table, fmt: str) -> None:
        self.columns, self.required = table.columns, [not kind.optional for kind in table.kinds]
        if fmt == "csv":
            self.before = ["", *[","] * (len(table.columns) - 1)]
            self.end, self.sep, self.tail = "\n", "", ""
            self.head = self.empty = ",".join(table.columns) + "\n"
        else:
            keys = [json.dumps(name) + ": " for name in table.columns]
            self.before = ["  {{\n    " + keys[0], *(",\n    " + key for key in keys[1:])]
            self.end, self.sep, self.tail = "\n  }}", ",\n", "\n]\n"
            self.head, self.empty = "[\n", "[]\n"
        self.cell_texts = [_cell_texts(kind, fmt) for kind in table.kinds]
        self.template = self.slots(0, len(self.before))

    def cell(self, i: int, value) -> str:
        """The text of ``value`` in column ``i`` (a KeyError outside a vocabulary)."""
        if value is None and self.required[i]:
            raise ValueError(f"column {self.columns[i]} is not optional, got None")
        texts = self.cell_texts[i]
        return str(value if texts is None else next(texts((value,))))

    def slots(self, start: int, stop: int) -> str:
        """The format of columns start..stop-1, each ``"{}"`` slot after the
        text before it, and the record end if ``stop`` is past the last column."""
        text = "".join(self.before[i] + "{}" for i in range(start, stop))
        return text + (self.end if stop == len(self.before) else "")

    def records(self, rows: list[tuple]) -> Iterator[str]:
        """Tuples in column order as records, ``CHUNK_ROWS`` a chunk: a
        chunk's columns go through their texts and, together, the template."""
        for start in range(0, len(rows), CHUNK_ROWS):
            columns = list(zip(*rows[start : start + CHUNK_ROWS], strict=True))
            if len(columns) != len(self.cell_texts):
                raise ValueError(f"rows of {len(columns)} cells for {len(self.cell_texts)} columns")
            for name, required, column in zip(self.columns, self.required, columns):
                if required and None in column:  # one scan in C per chunk column
                    raise ValueError(f"column {name} is not optional, got None")
            cells = [c if texts is None else texts(c) for texts, c in zip(self.cell_texts, columns)]
            yield self.sep.join(map(self.template.format, *cells))


class Table:
    """A CSV/JSON table: column names in order, each cell's ``Kind``, a ``Layout`` per format."""

    def __init__(self, kinds: dict[str, Kind]) -> None:
        self.columns, self.kinds = list(kinds), list(kinds.values())
        self.layouts = {fmt: Layout(self, fmt) for fmt in FORMATS}


NODES_TABLE = Table({"node_id": INT, "x": NUMBER, "y": NUMBER, "energy": NUMBER})
CLUSTERS_TABLE = Table({
    "cluster_id": INT, "node_id": INT, "is_head": FLAG, "energy": NUMBER, "x": NUMBER,
    "y": NUMBER, "exempt": FLAG,
})
# TimelineRows, EventRows and MessageRows render their records by column position.
TIMELINE_TABLE = Table({
    "tick": INT, "node_id": INT, "cluster_id": INT, "is_head": FLAG, "exempt": FLAG,
    "energy": NUMBER, "address": ADDRESS,
})
EVENTS_TABLE = Table({
    "at_tick": INT, "kind": Kind("text", vocabulary=("head_change", "recluster", "address")),
    "cluster_id": OPTIONAL_INT, "old_head": OPTIONAL_INT, "new_head": OPTIONAL_INT,
    "trigger_index": OPTIONAL_NUMBER, "old_cluster_count": OPTIONAL_INT,
    "new_cluster_count": OPTIONAL_INT, "assigned": OPTIONAL_INT, "messages": OPTIONAL_INT,
})
VALIDATION_TABLE = Table({
    "at_tick": INT, "dunn_index": NUMBER, "separation_pct": INT, "overlap_pct": INT,
    "compactness": Kind("text", vocabulary=tuple(Compactness)),
    "classification": Kind("text", vocabulary=tuple(Classification)), "recommend_recluster": FLAG,
    "footnote": Kind("text", optional=True, vocabulary=(STRICT_PCT_FOOTNOTE,)),
})
ADDRESSES_TABLE = Table({"node_id": INT, "cluster_id": INT, "address": ADDRESS})
MESSAGES_TABLE = Table({
    "at_tick": INT, "seq": INT, "from": INT, "to": INT,
    "kind": Kind("text", vocabulary=tuple(MessageKind)), "payload": Kind("address", optional=True),
})
SWEEP_TABLE = Table({"node_count": INT, "seed": INT, "dunn_index": OPTIONAL_NUMBER})
ENERGY_DAT_COLUMNS = ["node_id", "energy", "is_head"]
MEDIAN_DAT_COLUMNS = ["node_count", "median_dunn_index"]


def write_table(path: str | Path, table: Table, rows, fmt: str = "csv") -> None:
    """Write a table's records as CSV or JSON, one chunk at a time, with LF
    line endings. ``rows`` is a list of tuples in column order, or an object
    whose ``chunks(fmt)`` yields its own records in the table's layout, some
    records a chunk, such as a ``TimelineRows``; either way ``len(rows)`` is
    the record count."""
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {fmt!r}")
    layout = table.layouts[fmt]
    chunks = rows.chunks(fmt) if hasattr(rows, "chunks") else layout.records(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        written = False
        for chunk in chunks:
            fh.write(layout.sep if written else layout.head)
            fh.write(chunk)
            written = True
        fh.write(layout.tail if written else layout.empty)


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
    """The cluster table's rows, by cluster id; ``nodes`` is in dense id order."""
    return [
        (c.cluster_id, m, m == c.head, node.energy, node.pos.x, node.pos.y, m in c.threshold_exempt)
        for c in sorted(clusters.clusters, key=lambda c: c.cluster_id)
        for m, node in zip(c.members, map(nodes.__getitem__, c.members))
    ]


def energy_dats(rows: list[tuple]) -> Iterator[tuple[int, list[tuple]]]:
    """Per cluster, its id and its ``.dat`` rows, taken from its ``clusters_rows``."""
    for cluster_id, group in groupby(rows, itemgetter(0)):
        yield cluster_id, [(m, energy, int(head)) for _, m, head, energy, *_ in group]


def report_row(at_tick: int, report: ValidationReport) -> tuple:
    """One validation-report row: the tick, then the report's fields, which
    VALIDATION_TABLE declares in their order. Each field is a number, a str
    enum member, a bool, a str or ``None``, so the row needs no copy of them."""
    return (
        at_tick, report.dunn_index, report.separation_pct, report.overlap_pct,
        report.compactness, report.classification, report.recommend_recluster,
        report.footnote,
    )


@dataclass
class TimelineRows:
    """The simulate timeline for ``write_table``: ticks × nodes records, a
    chunk per tick. A node's node_id, cluster_id, is_head and exempt text is
    looked up again only when its ``Cluster`` object changes (each distinct
    cluster state is one frozen object per run), and rendered once per write
    for each of the node's variants; its address text once per address map,
    through ``texts``. Per record only the tick's shared prefix and the
    energy are new text."""

    snapshots: list[SimSnapshot]
    texts: Callable[[IPv6Address], str]

    def __len__(self) -> int:
        return len(self.snapshots) * self.snapshots[0].clusters.node_universe

    def chunks(self, fmt: str) -> Iterator[str]:
        layout = TIMELINE_TABLE.layouts[fmt]
        # A record in four pieces: the tick; the node_id, cluster_id, is_head
        # and exempt cells up to the energy's value; the energy; the address.
        tick_text, address_text = layout.slots(0, 1), layout.slots(6, 7)
        node_text = layout.slots(1, 5) + layout.before[5]
        flag, address_cell = partial(layout.cell, 3), partial(layout.cell, 6)
        energy_texts = layout.cell_texts[5]  # JSON's map of the infinities; none in CSV
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
                addresses = [
                    address_text.format(address_cell(self.texts(address_map[i]))) for i in node_ids
                ]
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
                            node_id, cluster_id, flag(variant[2]), flag(variant[3])
                        )
                    nodes[node_id] = text
            energies = snap.energies  # by node id, as nodes and addresses are
            # str gives the text of the column's "{}" format, in C.
            energies = map(str, energies if energy_texts is None else energy_texts(energies))
            prefix = tick_text.format(snap.at_tick)
            yield layout.sep.join(
                [f"{prefix}{n}{e}{a}" for n, e, a in zip(nodes, energies, addresses)]
            )


@dataclass
class MessageRows:
    """The simulate messages table for ``write_table``, a chunk per address
    event. Each Assign payload is its member's address in the event's
    ``assigned`` map. Per map, a served cluster's records, all but their
    tick cell, are rendered once per write for each distinct (first seq,
    head, members), which is all they hold besides the map's addresses, and
    each member's payload cell once, through ``texts``; per event only the
    tick's shared prefix is new."""

    events: list[AddressEvent]
    texts: Callable[[IPv6Address], str]

    def __len__(self) -> int:
        return sum(len(event.messages) for event in self.events)

    def chunks(self, fmt: str) -> Iterator[str]:
        layout = MESSAGES_TABLE.layouts[fmt]
        tick_text, record_text = layout.slots(0, 1), layout.slots(1, 6)
        hello, reply, assign = (layout.cell(4, kind) for kind in MessageKind)
        no_payload = layout.cell(5, None)
        assigned = None

        # A cluster's records are kept joined by NUL, which no record holds;
        # per event, each NUL becomes the separator and the tick's prefix.
        def render(seq, head, members):
            records = []
            for member in members:
                if member == head:
                    continue
                if member not in payloads:
                    payloads[member] = layout.cell(5, self.texts(assigned[member]))
                records += (
                    record_text.format(seq, head, member, hello, no_payload),
                    record_text.format(seq + 1, member, head, reply, no_payload),
                    record_text.format(seq + 2, head, member, assign, payloads[member]),
                )
                seq += 3
            return "\0".join(records)

        for event in self.events:
            if not event.messages.clusters:
                continue
            if event.assigned is not assigned:  # payload cells by member, records by key
                assigned, payloads, rendered = event.assigned, {}, {}
            seq, parts = 0, []
            for cluster in event.messages.clusters:
                key = (seq, cluster.head, cluster.members)
                part = rendered.get(key)
                if part is None:
                    part = rendered[key] = render(*key)
                parts.append(part)
                seq += 3 * len(cluster.members) - 3
            records = "\0".join(parts)
            prefix = tick_text.format(event.at_tick)
            yield prefix + records.replace("\0", layout.sep + prefix)


@dataclass
class EventRows:
    """The simulate events table for ``write_table``, a chunk per snapshot
    that has events. Each event kind's record is one template per write,
    with its kind and empty cells filled in."""

    snapshots: list[SimSnapshot]

    def __len__(self) -> int:
        return sum(len(snap.events) for snap in self.snapshots)

    def chunks(self, fmt: str) -> Iterator[str]:
        layout = EVENTS_TABLE.layouts[fmt]

        def template(kind: str, *slots: int) -> str:
            # "{}" in each of slots: the layout's braces are doubled, no filled cell holds one.
            row = [kind if i == 1 else None for i in range(len(layout.before))]
            cells = ["{}" if i in slots else layout.cell(i, v) for i, v in enumerate(row)]
            return "".join(map(str.__add__, layout.before, cells)) + layout.end

        heads = template("head_change", 0, 2, 3, 4)
        recluster, address = template("recluster", 0, 5, 6, 7), template("address", 0, 8, 9)
        for snap in self.snapshots:
            records = []
            for e in snap.events:
                if type(e) is HeadChange:
                    records.append(heads.format(e.at_tick, e.cluster_id, e.old_head, e.new_head))
                elif type(e) is ReclusterEvent:
                    index = layout.cell(5, e.trigger_index)
                    counts = (e.old_cluster_count, e.new_cluster_count)
                    records.append(recluster.format(e.at_tick, index, *counts))
                else:  # an AddressEvent, by the counts of its addresses and messages
                    records.append(address.format(e.at_tick, len(e.assigned), len(e.messages)))
            if records:
                yield layout.sep.join(records)


def simulation_tables(snapshots: list[SimSnapshot]) -> dict[str, tuple[Table, object]]:
    """The simulate command's tables, by file stem: (table, rows). The
    timeline's, events' and messages' rows render their own records; the
    others' are tuples. The three tables that hold addresses share one cache
    of their texts, so each address is made text once (``str`` of an
    ``IPv6Address`` costs about 10 µs)."""
    texts = cache(str)
    validation = [report_row(s.at_tick, s.report) for s in snapshots if s.report is not None]
    address_events = [e for s in snapshots for e in s.events if isinstance(e, AddressEvent)]
    final = snapshots[-1]
    addresses = [
        (node_id, cluster.cluster_id, texts(final.addresses[node_id]))
        for node_id, cluster in enumerate(final.clusters.by_node())
    ]
    return {
        "timeline": (TIMELINE_TABLE, TimelineRows(snapshots, texts)),
        "events": (EVENTS_TABLE, EventRows(snapshots)),
        "validation": (VALIDATION_TABLE, validation),
        "addresses": (ADDRESSES_TABLE, addresses),
        "messages": (MESSAGES_TABLE, MessageRows(address_events, texts)),
    }


def _read_table(path: str | Path, table: Table, what: str, defaults: dict) -> list[list]:
    """A CSV table of ``what``'s declared columns, in order, each parsed by its
    kind. Blank lines are skipped and undeclared columns ignored; a missing
    column with a text in ``defaults`` holds that text on every row."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise InputError(f"{path}: column {name} is named more than once")
            missing = [name for name in table.columns if name not in header + list(defaults)]
            if missing:
                raise InputError(f"{path}: missing columns: {', '.join(missing)}")
            rows = list(filter(None, reader))
    # csv.Error: a cell over the csv module's field limit.
    except (OSError, csv.Error, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
    if not rows:
        raise InputError(f"{path}: no {what} rows")
    if set(map(len, rows)) != {len(header)}:
        i = next(i for i, cells in enumerate(rows) if len(cells) != len(header))
        raise InputError(f"{path} row {i + 1}: expected {len(header)} cells, got {len(rows[i])}")
    texts = {name: [text] * len(rows) for name, text in defaults.items()}
    texts.update(zip(header, zip(*rows)))
    columns = []
    for name, kind in zip(table.columns, table.kinds):
        try:
            columns.append(kind.parse(texts[name]))
        except (ValueError, KeyError):
            # Only a column that fails is parsed a cell at a time, for its row.
            for i, text in enumerate(texts[name]):
                try:
                    kind.parse((text,))
                except (ValueError, KeyError):
                    where = f"{path} row {i + 1}: {name} must be {_SPELLINGS[kind.base]}"
                    raise InputError(f"{where}, got {text!r}") from None
    return columns


def read_nodes_csv(path: str | Path) -> list[Node]:
    """Load a node table (node_id, x, y, energy)."""
    node_ids, xs, ys, energies = _read_table(path, NODES_TABLE, "node", {})
    nodes = []
    try:  # extend keeps the nodes built before a refused one, so counts its row
        nodes.extend(map(Node, node_ids, map(Position, xs, ys), energies))
    except InvariantViolation as err:
        raise InputError(f"{path} row {len(nodes) + 1}: {err}") from err
    if sorted(node_ids) != list(range(len(nodes))):
        raise InputError(f"{path}: node ids must be the dense range 0..N-1")
    return sorted(nodes, key=lambda n: n.node_id)


def read_clusters_csv(path: str | Path) -> tuple[ClusterSet, dict[NodeId, Position]]:
    """Load a cluster table back into a partition plus positions. Requires
    the positional columns (x, y) so the partition can be re-validated; the
    exempt column is optional and defaults to false. The energy column is
    required and checked, but not returned."""
    cluster_ids, node_ids, is_head, energies, xs, ys, exempt = _read_table(
        path, CLUSTERS_TABLE, "cluster", {"exempt": "false"}
    )
    if min(energies) < 0:
        i = next(i for i, energy in enumerate(energies) if energy < 0)
        raise InputError(f"{path} row {i + 1}: energy must be >= 0, got {energies[i]!r}")
    members, heads, exempts = defaultdict(list), defaultdict(list), defaultdict(set)
    rows = list(zip(cluster_ids, node_ids))
    for cid, nid in rows:
        members[cid].append(nid)
    for cid, nid in compress(rows, is_head):
        heads[cid].append(nid)
    for cid, nid in compress(rows, exempt):
        exempts[cid].add(nid)
    for cid in sorted(members):
        if len(heads[cid]) != 1:
            raise InputError(
                f"{path}: cluster {cid} must have exactly one head row, got {len(heads[cid])}"
            )
    positions = dict(zip(node_ids, map(Position, xs, ys)))
    try:  # a failed Cluster check names its cluster
        clusters = tuple(
            Cluster(cid, heads[cid][0], tuple(members[cid]), frozenset(exempts[cid]))
            for cid in sorted(members)
        )
        return ClusterSet(clusters, len(positions)), positions
    except ClusterBenchError as err:
        raise InputError(f"{path}: {err}") from err


def sha256_file(path: str | Path) -> str:
    """A file's sha256, in hex. hashlib loads OpenSSL, which only a run that
    read a table needs, so it is imported here."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_timestamp() -> str:
    """UTC ISO-8601 stamp; honors SOURCE_DATE_EPOCH for reproducible output.
    A stamp is in years 1 to 9999, the range that ``datetime`` formats."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        moment = parse_int(epoch) if epoch else int(time.time())
        if not -62135596800 <= moment <= 253402300799:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"SOURCE_DATE_EPOCH must be an integer count of seconds in "
            f"years 1 to 9999, got {epoch!r}"
        ) from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(moment))


#: The flags a run manifest records by value, each with the value a run takes
#: when neither its flag nor a replayed manifest gives one, and those of them
#: that a manifest leaves out at that value.
RECORDED_FLAGS = {"format": "csv", "prefix": DEFAULT_PREFIX, "sizes": [25, 50, 300], "seeds": 20}
LEFT_OUT_AT_DEFAULT = {"prefix"}
#: The input-table flags a run manifest records by sha256, in the named field.
HASHED_FLAGS = {"nodes": "input_nodes_sha256", "clusters": "input_clusters_sha256"}


def write_manifest(out: str | Path, command: str, config: ScenarioConfig, flags: dict) -> None:
    """Write the run record, ``out/manifest.json``, as stable, sorted JSON:
    the config and, of ``flags`` (the command's, as ``replay_settings``
    settled them), each RECORDED_FLAGS value and given HASHED_FLAGS table's
    sha256. Fed back through --config, it replays the run."""
    data = {
        "command": command, "tool": "clusterbench", "tool_version": __version__, "rng": RNG_NAME,
        "placement": PLACEMENT_MODEL, "comparator": config.comparator, "seed": config.seed,
        "config": config.to_dict(), "timestamp": manifest_timestamp(),
    }
    for name, default in RECORDED_FLAGS.items():
        if name in flags and not (name in LEFT_OUT_AT_DEFAULT and flags[name] == default):
            data[name] = flags[name]
    for name, field in HASHED_FLAGS.items():
        if flags.get(name):
            data[field] = sha256_file(flags[name])
    with open(Path(out) / "manifest.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def replay_settings(manifest: dict, flags: dict) -> dict:
    """Each RECORDED_FLAGS value of ``flags``, a command's parsed flags: the
    flag's own, else the replayed ``manifest``'s ({} for no replay), else the
    default. A recorded value is checked only where its flag's would be, and
    a run that read a HASHED_FLAGS table replays only with it given again."""
    for name, field in HASHED_FLAGS.items():
        if manifest.get(field) is not None and name in flags and not flags[name]:
            table = f"{name.removesuffix('s')} table of sha256 {manifest[field]}"
            raise ConfigError(f"the run read a {table}; give it --{name}")
    settings = {
        name: manifest.get(name, default) if flags[name] is None else flags[name]
        for name, default in RECORDED_FLAGS.items()
        if name in flags
    }
    if settings["format"] not in FORMATS:  # argparse checks a --format flag
        raise ConfigError(f"manifest format must be one of {FORMATS}, got {settings['format']!r}")
    return settings
