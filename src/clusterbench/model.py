"""Domain types, scenario configuration, and deterministic node generation."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from operator import attrgetter, is_

from .errors import ConfigError, InvariantViolation

NodeId = int
EnergyLevel = float

# Recorded in every run manifest so results stay reproducible across builds.
RNG_NAME = "python-random-mt19937"
PLACEMENT_MODEL = "uniform-iid"

COMPARATOR_BELOW = "below"
COMPARATOR_AT_OR_ABOVE = "at_or_above"
COMPARATORS = (COMPARATOR_BELOW, COMPARATOR_AT_OR_ABOVE)

#: The most ticks a run may have after tick 0. A run keeps every tick's
#: snapshot in memory, though not its timeline rows, which are rendered as
#: they are written: at the limit, the default 25 nodes make 2.5 million
#: node-ticks.
MAX_TICKS = 100_000

#: The most node-ticks a simulation may have: nodes × ticks, tick 0 included.
#: Every snapshot is kept until the run is written, about 80 B a node-tick
#: (each distinct cluster state is one object per run; tracemalloc holds
#: 8.0 MB for the 100 500 node-ticks of the 500-node, 201-tick benchmark
#: run), so the bound caps them near 400 MB. It is 50 times that
#: benchmark run and admits 25 nodes at MAX_TICKS; without it, MAX_NODES at
#: MAX_TICKS would be 10**11 node-ticks.
MAX_NODE_TICKS = 5_000_000

#: The most nodes a scenario may have: 100 times the largest population the
#: benchmarks run (10 000). Placement builds every node up front, so without
#: a bound a config such as 10**30 nodes would start a loop that never ends.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class Position:
    """Planar coordinates in meters."""

    x: float
    y: float


@dataclass(frozen=True)
class Node:
    """A radio particle: id, position, remaining energy."""

    node_id: NodeId
    pos: Position
    energy: EnergyLevel

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise InvariantViolation(f"node id must be non-negative, got {self.node_id}")
        if isinstance(self.energy, bool):  # True >= 0, but it is no reading
            raise InvariantViolation(
                f"node {self.node_id}: energy must be a number, got {self.energy!r}"
            )
        if not self.energy >= 0:  # NaN fails this too
            raise InvariantViolation(
                f"node {self.node_id}: energy must be >= 0, got {self.energy}"
            )


@dataclass(frozen=True)
class Cluster:
    """One head plus its members (head included). Members are kept in ascending
    id order; ``threshold_exempt`` marks members that failed the energy
    membership test but are retained to keep the partition total."""

    cluster_id: int
    head: NodeId
    members: tuple[NodeId, ...]
    threshold_exempt: frozenset[NodeId] = frozenset()

    def __post_init__(self) -> None:
        members = self.members
        # A sorted tuple is kept as the same object, so a rotation's clusters
        # share their predecessor's members (see ClusterSet._rotation).
        if type(members) is not tuple or list(members) != sorted(members):
            members = tuple(sorted(members))
        if self.cluster_id < 0:
            raise InvariantViolation(f"cluster id must be non-negative, got {self.cluster_id}")
        if not members:
            raise InvariantViolation("cluster must have at least one member")
        if len(set(members)) != len(members):
            raise InvariantViolation(f"cluster {self.cluster_id}: duplicate members")
        if self.head not in members:
            raise InvariantViolation(
                f"cluster {self.cluster_id}: head {self.head} is not a member"
            )
        exempt = frozenset(self.threshold_exempt)
        if not exempt <= set(members) - {self.head}:
            raise InvariantViolation(
                f"cluster {self.cluster_id}: exempt ids must be non-head members"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "threshold_exempt", exempt)


_MEMBERS = attrgetter("members")


@dataclass(frozen=True)
class ClusterSet:
    """A partition of the node ids 0..node_universe-1 into clusters."""

    clusters: tuple[Cluster, ...]
    node_universe: int

    def __post_init__(self) -> None:
        clusters = tuple(self.clusters)
        object.__setattr__(self, "clusters", clusters)
        seen: set[NodeId] = set()
        total = 0
        for c in clusters:
            seen.update(c.members)
            total += len(c.members)
        if total != len(seen):
            raise InvariantViolation("clusters overlap: a node appears in more than one cluster")
        if seen != set(range(self.node_universe)):
            raise InvariantViolation(
                f"clusters must cover exactly the ids 0..{self.node_universe - 1}"
            )

    @classmethod
    def _rotation(cls, before: ClusterSet, clusters) -> ClusterSet:
        """``before`` with its clusters replaced one for one by ``clusters``,
        each holding its predecessor's ``members`` object: only heads and
        exempt sets moved, so the partition is ``before``'s and is not checked
        again. A cluster with any other members object is an
        ``InvariantViolation``."""
        clusters = tuple(clusters)
        if len(clusters) != len(before.clusters) or not all(
            map(is_, map(_MEMBERS, clusters), map(_MEMBERS, before.clusters))
        ):
            raise InvariantViolation("a rotation must keep every cluster's members")
        rotated = object.__new__(cls)
        object.__setattr__(rotated, "clusters", clusters)
        object.__setattr__(rotated, "node_universe", before.node_universe)
        return rotated

    def by_node(self) -> list[Cluster]:
        """The cluster containing each node, indexed by node id."""
        out: list[Cluster] = [None] * self.node_universe  # every slot is filled
        for c in self.clusters:
            for m in c.members:
                out[m] = c
        return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters. Defaults follow the standard 25-node benchmark:
    100x100 m area, 20 m transmission range, energy threshold 500 units,
    5 s horizon at 1 s ticks. Every field is checked when a config is built,
    ``dataclasses.replace`` included, so an invalid config raises
    ``ConfigError`` and never exists."""

    node_count: int = 25
    area: tuple[float, float] = (100.0, 100.0)
    tx_range: float = 20.0
    energy_threshold: float = 500.0
    execution_time: float = 5.0
    tick: float = 1.0
    seed: int = 0
    initial_energy: tuple[float, float] = (400.0, 1000.0)
    drain_member: float = 10.0
    drain_head: float = 50.0
    dunn_recluster_threshold: float = 0.5
    validation_interval: int = 1
    comparator: str = COMPARATOR_BELOW

    def __post_init__(self) -> None:
        if not _is_int(self.node_count) or not 1 <= self.node_count <= MAX_NODES:
            raise ConfigError(
                f"node_count must be an integer in 1..{MAX_NODES}, got {self.node_count!r}"
            )
        if len(self.area) != 2 or not all(_is_num(v) and v > 0 for v in self.area):
            raise ConfigError(f"area must be two positive numbers, got {self.area!r}")
        if not _is_num(self.tx_range) or self.tx_range <= 0:
            raise ConfigError(f"tx_range must be > 0, got {self.tx_range!r}")
        if not _is_num(self.energy_threshold) or self.energy_threshold < 0:
            raise ConfigError(f"energy_threshold must be >= 0, got {self.energy_threshold!r}")
        if not _is_num(self.execution_time) or self.execution_time < 0:
            raise ConfigError(f"execution_time must be >= 0, got {self.execution_time!r}")
        if not _is_num(self.tick) or self.tick <= 0:
            raise ConfigError(f"tick must be > 0, got {self.tick!r}")
        if not math.isfinite(self.execution_time / self.tick) or self.steps > MAX_TICKS:
            raise ConfigError(
                f"execution_time / tick must be at most {MAX_TICKS} ticks, "
                f"got {self.execution_time!r} / {self.tick!r}"
            )
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        lo_hi = self.initial_energy
        if len(lo_hi) != 2 or not all(_is_num(v) for v in lo_hi) or not 0 <= lo_hi[0] <= lo_hi[1]:
            raise ConfigError(
                f"initial_energy must be (min, max) with 0 <= min <= max, got {lo_hi!r}"
            )
        if not _is_num(self.drain_member) or self.drain_member < 0:
            raise ConfigError(f"drain_member must be >= 0, got {self.drain_member!r}")
        if not _is_num(self.drain_head) or self.drain_head < self.drain_member:
            raise ConfigError(
                f"drain_head must be >= drain_member, got {self.drain_head!r}"
            )
        if not _is_num(self.dunn_recluster_threshold) or self.dunn_recluster_threshold < 0:
            raise ConfigError(
                f"dunn_recluster_threshold must be >= 0, got {self.dunn_recluster_threshold!r}"
            )
        if not _is_int(self.validation_interval) or self.validation_interval < 1:
            raise ConfigError(
                f"validation_interval must be an integer >= 1, got {self.validation_interval!r}"
            )
        if self.comparator not in COMPARATORS:
            raise ConfigError(
                f"comparator must be one of {COMPARATORS}, got {self.comparator!r}"
            )

    @property
    def steps(self) -> int:
        """The number of ticks after tick 0: execution_time / tick, where a
        ratio within a relative 1e-9 of an integer is that integer (in floats
        0.3 / 0.1 is 2.9999999999999996 and 0.3 // 0.1 is 2.0)."""
        ratio = self.execution_time / self.tick
        nearest = round(ratio)
        return nearest if math.isclose(ratio, nearest, rel_tol=1e-9) else math.floor(ratio)

    def to_dict(self) -> dict:
        """Every field by name; the tuple fields become lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _is_num(v) -> bool:
    """A finite int or float; JSON's NaN and Infinity and ints too large for a
    float are not numbers here."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}


def normalize_comparator(value: str) -> str:
    """Accept both CLI spelling (at-or-above) and config spelling (at_or_above)."""
    return value.replace("-", "_") if isinstance(value, str) else value


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a plain mapping; every field optional, unknown keys rejected."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    kwargs = dict(data)
    for key in ("area", "initial_energy"):
        if key in kwargs:
            value = kwargs[key]
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ConfigError(f"{key} must be a pair of numbers, got {value!r}")
            kwargs[key] = tuple(value)
    if "comparator" in kwargs:
        kwargs["comparator"] = normalize_comparator(kwargs["comparator"])
    return ScenarioConfig(**kwargs)


def read_config_file(path: str) -> tuple[dict, dict]:
    """The raw config mapping in a JSON config file, and the run manifest
    that holds it: a manifest yields its embedded ``config`` and itself, so
    a manifest replays the run; a plain config file yields itself and {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and an
        # integer over int's 4 300-digit text limit; RecursionError, nesting
        # deeper than the interpreter's stack.
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if isinstance(data.get("config"), dict):
        return data["config"], data
    return data, {}


def load_config(path: str) -> ScenarioConfig:
    """Read a JSON config file or run manifest (all keys optional, unknown
    keys rejected)."""
    return config_from_dict(read_config_file(path)[0])


def generate_scenario(config: ScenarioConfig) -> list[Node]:
    """Generate the node population for a scenario.

    Positions are drawn uniformly over the area and initial energies uniformly
    over ``initial_energy``, both from a single MT19937 stream seeded with
    ``config.seed`` — the same config always yields the identical node list.
    Ids are the dense range 0..node_count-1.
    """
    rng = random.Random(config.seed)
    width, height = config.area
    e_lo, e_hi = config.initial_energy
    nodes = []
    for i in range(config.node_count):
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        energy = rng.uniform(e_lo, e_hi)
        nodes.append(Node(i, Position(x, y), energy))
    return nodes
