"""Output checks: digests of every file a workload writes, and an oracle.

The oracle re-derives what the program must have written from the workload's
config alone, without importing the program: the seeded placement, the
partition invariants (every node once, one head per cluster at maximum
energy, exempt flags, a temporary head that covers each cluster), the exact
Dunn index, the per-tick energy drain, and the address layout. Each check
returns the run's simulated statistics, which must repeat exactly.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from ipaddress import IPv6Address
from pathlib import Path

ADDRESS_PREFIX = 0xFD00 << 112  # fd00::/48, the program's default


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digests(work: Path) -> dict[str, str]:
    """Per output directory: sha256 over its sorted (path, file sha256) lines."""
    out = {}
    for top in sorted(p for p in work.iterdir() if p.is_dir()):
        combined = hashlib.sha256()
        for path in sorted(top.rglob("*")):
            if path.is_file():
                line = f"{path.relative_to(work).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                combined.update(line.encode())
        out[top.name] = combined.hexdigest()
    return out


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _bool(text: str) -> bool:
    require(text in ("true", "false"), f"bad boolean {text!r}")
    return text == "true"


def placement(config: dict) -> list[tuple[float, float, float]]:
    """(x, y, energy) per node id: uniform iid from one seeded MT19937 stream."""
    rng = random.Random(config["seed"])
    width, height = config["area"]
    lo, hi = config["initial_energy"]
    return [
        (rng.uniform(0.0, width), rng.uniform(0.0, height), rng.uniform(lo, hi))
        for _ in range(config["node_count"])
    ]


def _l1(a, b) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _closest_cross_pair(pos, label) -> float:
    """Smallest L1 distance between two nodes with different labels.

    A pair closer than the cell size sits in neighbouring cells, so a hit
    below the cell size is the exact minimum; otherwise the cells double.
    """
    xs = [p[0] for p in pos]
    ys = [p[1] for p in pos]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    cell = extent / math.sqrt(len(pos))
    while True:
        grid: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(pos):
            grid.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(i)
        best = math.inf
        for (cx, cy), ids in grid.items():
            near = [j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in grid.get((cx + dx, cy + dy), ())]
            for i in ids:
                for j in near:
                    if label[i] != label[j]:
                        d = _l1(pos[i], pos[j])
                        if d < best:
                            best = d
        if best < cell or cell > 2 * extent:
            return best
        cell *= 2


def _cluster_geometry(members, pos, tx_range) -> float:
    """Check that some member covers the cluster; return its L1 diameter."""
    reach = [max(_l1(pos[m], pos[o]) for o in members) for m in members]
    require(min(reach) < tx_range, f"no member of cluster {members[:5]}... has every other member in range")
    return max(reach)


def dunn_index(clusters: dict[int, list[int]], pos, tx_range) -> float | None:
    """The exact index (same float operations as the definition), None if undefined."""
    if len(clusters) < 2:
        return None
    label = [0] * len(pos)
    for cid, members in clusters.items():
        for m in members:
            label[m] = cid
    max_dia = max(_cluster_geometry(members, pos, tx_range) for members in clusters.values())
    min_dist = _closest_cross_pair(pos, label)
    if max_dia == 0.0:
        require(min_dist > 0.0, "degenerate geometry")
        return math.inf
    return min_dist / max_dia


def _check_partition(rows, energy, config, where: str) -> dict[int, list[int]]:
    """rows: dicts with node_id, cluster_id, is_head, exempt. Returns cid -> members."""
    n = config["node_count"]
    clusters: dict[int, list[int]] = {}
    heads: dict[int, list[int]] = {}
    exempt: set[int] = set()
    for row in rows:
        cid, nid = int(row["cluster_id"]), int(row["node_id"])
        clusters.setdefault(cid, []).append(nid)
        if _bool(row["is_head"]):
            heads.setdefault(cid, []).append(nid)
        if _bool(row["exempt"]):
            exempt.add(nid)
    require(sorted(clusters) == list(range(len(clusters))), f"{where}: cluster ids are not 0..k-1")
    require(sorted(m for ms in clusters.values() for m in ms) == list(range(n)),
            f"{where}: clusters do not partition the {n} nodes")
    threshold, below = config["energy_threshold"], config["comparator"] == "below"
    for cid, members in clusters.items():
        members.sort()
        require(len(heads.get(cid, ())) == 1, f"{where}: cluster {cid} needs exactly one head")
        best = max(members, key=lambda m: (energy[m], -m))
        require(heads[cid][0] == best, f"{where}: cluster {cid} head is not its max-energy member")
        for m in members:
            passes = energy[m] < threshold if below else energy[m] >= threshold
            require((m in exempt) == (m != best and not passes),
                    f"{where}: node {m} has the wrong exempt flag")
    return clusters


def check_cluster_outputs(work: Path, config: dict, stdouts: list[str]) -> dict:
    expected = placement(config)
    nodes = _rows(work / "gen" / "nodes.csv")
    require([(int(r["node_id"]), float(r["x"]), float(r["y"]), float(r["energy"])) for r in nodes]
            == [(i, *p) for i, p in enumerate(expected)], "nodes.csv differs from the seeded placement")
    pos = [(x, y) for x, y, _e in expected]
    energy = [e for _x, _y, e in expected]

    rows = _rows(work / "clu" / "clusters.csv")
    for r in rows:
        nid = int(r["node_id"])
        require((float(r["x"]), float(r["y"]), float(r["energy"])) == expected[nid],
                f"clusters.csv row for node {nid} does not match nodes.csv")
    clusters = _check_partition(rows, energy, config, "clusters.csv")
    require(stdouts[1].startswith(f"wrote {len(clusters)} clusters"), "cluster count not reported")
    for cid, members in clusters.items():
        head = max(members, key=lambda m: (energy[m], -m))
        lines = [f"{m} {energy[m]} {int(m == head)}" for m in members]
        dat = (work / "clu" / f"cluster_{cid:03d}_energy.dat").read_text(encoding="utf-8")
        require(dat == "# node_id energy is_head\n" + "".join(line + "\n" for line in lines),
                f"cluster_{cid:03d}_energy.dat is wrong")
    require(len(list((work / "clu").glob("cluster_*_energy.dat"))) == len(clusters), "extra .dat files")

    index = dunn_index(clusters, pos, config["tx_range"])
    first = stdouts[2].splitlines()[0]
    if index is None:
        require(first == "UNDEFINED_INDEX", f"expected UNDEFINED_INDEX, got {first!r}")
    else:
        fields = first.split(", ")
        require(fields[0] == str(config["node_count"]) and float(fields[1]) == index,
                f"validate printed {first!r}, oracle index is {index!r}")
        report = _rows(work / "val" / "report.csv")
        require(len(report) == 1 and float(report[0]["dunn_index"]) == index, "report.csv index is wrong")
    return {
        "clusters": len(clusters),
        "singletons": sum(len(m) == 1 for m in clusters.values()),
        "dunn_index": [repr(index)],
    }


def check_sim_outputs(work: Path, config: dict) -> dict:
    expected = placement(config)
    pos = [(x, y) for x, y, _e in expected]
    n = config["node_count"]
    steps = int(config["execution_time"] // config["tick"])
    timeline = _rows(work / "sim" / "timeline.csv")
    require(len(timeline) == n * (steps + 1), f"timeline has {len(timeline)} rows, expected {n * (steps + 1)}")

    oracle: dict[tuple, float | None] = {}
    partitions, addresses = [], {}
    prev_energy = prev_heads = None
    for t in range(steps + 1):
        rows = timeline[t * n:(t + 1) * n]
        require([(int(r["tick"]), int(r["node_id"])) for r in rows] == [(t, i) for i in range(n)],
                f"timeline tick {t} rows are out of order")
        energy = [float(r["energy"]) for r in rows]
        if t == 0:
            require(energy == [e for _x, _y, e in expected], "tick 0 energies differ from the placement")
        else:
            drained = [max(0.0, e - (config["drain_head"] if h else config["drain_member"]))
                       for e, h in zip(prev_energy, prev_heads)]
            require(energy == drained, f"tick {t} energies are not one drain step from tick {t - 1}")
        clusters = _check_partition(rows, energy, config, f"timeline tick {t}")
        key = tuple(tuple(clusters[c]) for c in sorted(clusters))
        if key not in oracle:
            oracle[key] = dunn_index(clusters, pos, config["tx_range"])
        partitions.append(key)
        for r in rows:
            cid, nid = int(r["cluster_id"]), int(r["node_id"])
            if (cid, nid) not in addresses:
                addresses[cid, nid] = str(IPv6Address(ADDRESS_PREFIX | cid << 64 | nid + 1))
            require(r["address"] == addresses[cid, nid], f"tick {t} node {nid} has the wrong address")
        prev_energy, prev_heads = energy, [_bool(r["is_head"]) for r in rows]

    validation = _rows(work / "sim" / "validation.csv")
    interval = config["validation_interval"]
    require([int(v["at_tick"]) for v in validation] == [t for t in range(steps + 1) if t % interval == 0],
            "validation rows are not on the schedule")
    recluster_ticks = []
    for v in validation:
        t = int(v["at_tick"])
        index = oracle[partitions[max(t - 1, 0)]]
        require(index is not None and float(v["dunn_index"]) == index,
                f"tick {t}: validation index {v['dunn_index']} differs from the oracle {index!r}")
        if t > 0 and index < config["dunn_recluster_threshold"]:
            recluster_ticks.append(t)

    events = _rows(work / "sim" / "events.csv")
    kinds = {kind: [e for e in events if e["kind"] == kind] for kind in ("head_change", "recluster", "address")}
    require(len(events) == sum(len(v) for v in kinds.values()), "unknown event kind")
    require([int(e["at_tick"]) for e in kinds["recluster"]] == recluster_ticks,
            "re-clusters do not match the validation schedule")
    require([int(e["at_tick"]) for e in kinds["address"]] == [0, *recluster_ticks],
            "address events do not follow the re-clusters")
    for e in kinds["address"]:
        k = len(partitions[int(e["at_tick"])])
        require(int(e["assigned"]) == n and int(e["messages"]) == 3 * (n - k),
                f"tick {e['at_tick']}: address event counts are wrong")
    messages = _rows(work / "sim" / "messages.csv")
    require(len(messages) == sum(int(e["messages"]) for e in kinds["address"]), "messages.csv row count")

    final = _rows(work / "sim" / "addresses.csv")
    require([(int(r["node_id"]), r["address"]) for r in final]
            == [(int(r["node_id"]), r["address"]) for r in timeline[steps * n:]],
            "addresses.csv differs from the last tick")
    require(len({r["address"] for r in final}) == n, "addresses are not unique")
    return {
        "ticks": steps,
        "clusters": len(partitions[0]),
        "singletons": sum(len(m) == 1 for m in partitions[0]),
        "head_changes": len(kinds["head_change"]),
        "reclusters": len(recluster_ticks),
        "messages": len(messages),
        "timeline_rows": len(timeline),
        "dunn_index": sorted({v["dunn_index"] for v in validation}),
    }
