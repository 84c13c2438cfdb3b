"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (written past pytest's capture so
the line always lands in the console/log), then asserts.
"""

import math
import random
import statistics
import time

import pytest

from clusterbench import (
    Cluster,
    ClusterSet,
    MessageKind,
    Node,
    Position,
    ScenarioConfig,
    assign_addresses,
    classify,
    dunn_index,
    expac_cluster,
    generate_scenario,
    psopac_rebuild,
    run_simulation,
    validate_clusters,
)
from clusterbench import cli, sim
from clusterbench.head_election import HeadChange
from clusterbench.sim import ReclusterEvent
from clusterbench.validation import Compactness
from reference import handshake_messages
from strategies import random_partition
from test_sim import steady_config


_CONSOLE = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {num}] {label}: {status}{suffix}"
    if _CONSOLE is not None:
        with _CONSOLE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_c1_classification_mapping():
    def check() -> bool:
        a = classify(0.52)
        b = classify(0.48)
        c = classify(0.01)
        return (
            (a.separation_pct, a.overlap_pct, a.compactness) == (52, 48, Compactness.HIGH)
            and a.footnote is None
            and (b.separation_pct, b.overlap_pct, b.compactness) == (48, 52, Compactness.LOW)
            and (c.separation_pct, c.overlap_pct, c.compactness) == (1, 99, Compactness.VERY_LOW)
            and c.footnote is not None
        )

    best = math.inf
    ok = True
    for _ in range(100):
        start = time.perf_counter()
        ok = check() and ok
        best = min(best, time.perf_counter() - start)
    ok = ok and best < 0.001
    _report(1, "classification mapping, exact and under 1 ms", ok, f"best {best * 1e6:.0f} µs")


def test_c2_index_oracle_equivalence():
    def oracle(clusters, positions):
        cs = clusters.clusters
        best = None
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                for m in cs[i].members:
                    for n in cs[j].members:
                        d = abs(positions[m].x - positions[n].x) + abs(
                            positions[m].y - positions[n].y
                        )
                        if best is None or d < best:
                            best = d
        worst = 0.0
        for c in cs:
            ms = c.members
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    d = abs(positions[ms[i]].x - positions[ms[j]].x) + abs(
                        positions[ms[i]].y - positions[ms[j]].y
                    )
                    worst = max(worst, d)
        return math.inf if worst == 0.0 else best / worst

    rnd = random.Random(0xD0)
    start = time.perf_counter()
    worst_rel = 0.0
    ok = True
    for _ in range(1000):
        clusters, positions = random_partition(
            rnd, min_nodes=2, max_nodes=30, max_clusters=6, min_clusters=2
        )
        got = dunn_index(clusters, positions)
        want = oracle(clusters, positions)
        if math.isinf(want) or math.isinf(got):
            ok = ok and got == want
            continue
        rel = abs(got - want) / want if want else abs(got - want)
        worst_rel = max(worst_rel, rel)
        ok = ok and rel <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        2,
        "index equals brute-force oracle on 1000 partitions",
        ok,
        f"worst rel err {worst_rel:.2e}, {elapsed:.2f}s",
    )


def test_c3_population_density_trend():
    start = time.perf_counter()
    medians = {}
    for n in (25, 50, 300):
        indices = []
        for seed in range(20):
            cfg = ScenarioConfig(node_count=n, seed=seed)
            nodes = generate_scenario(cfg)
            clusters = expac_cluster(nodes, cfg.tx_range)
            positions = {node.node_id: node.pos for node in nodes}
            indices.append(dunn_index(clusters, positions))
        medians[n] = statistics.median(indices)
    elapsed = time.perf_counter() - start
    ok = medians[25] > medians[50] > medians[300] and elapsed < 30.0
    _report(
        3,
        "median index falls as population grows (20 seeds)",
        ok,
        f"{medians[25]:.3f} > {medians[50]:.3f} > {medians[300]:.3f}, {elapsed:.1f}s",
    )


def test_c4_partition_property():
    rnd = random.Random(13)
    ok = True
    for _ in range(1000):
        n = rnd.randint(1, 100)
        cfg = ScenarioConfig(
            node_count=n,
            area=(rnd.choice([50.0, 100.0, 150.0]), rnd.choice([50.0, 100.0, 150.0])),
            tx_range=rnd.uniform(5.0, 40.0),
            seed=rnd.getrandbits(32),
        )
        nodes = generate_scenario(cfg)
        clusters = expac_cluster(nodes, cfg.tx_range)
        pos = {node.node_id: node.pos for node in nodes}
        seen: set[int] = set()
        for cluster in clusters.clusters:
            members = set(cluster.members)
            ok = ok and not (seen & members)
            seen |= members
            if len(members) > 1:
                hp = pos[cluster.head]
                for m in members:
                    d = abs(pos[m].x - hp.x) + abs(pos[m].y - hp.y)
                    ok = ok and d < cfg.tx_range
        ok = ok and seen == set(range(n))
        if not ok:
            break
    _report(4, "partition + strict coverage on 1000 scenarios", ok)


def test_c5_head_invariant_and_crossover():
    ok = True
    # argmax invariant across full runs, both comparator modes
    for seed in range(6):
        for comparator in ("below", "at_or_above"):
            cfg = ScenarioConfig(seed=seed, comparator=comparator)
            for snap in run_simulation(cfg):
                energies = snap.energies
                for cluster in snap.clusters.clusters:
                    head_e = energies[cluster.head]
                    for m in cluster.members:
                        ok = ok and energies[m] <= head_e
                        if energies[m] == head_e:
                            ok = ok and cluster.head <= m

    # two-node scenario with a 90-unit head lead: 40 per tick closes it at tick 3
    nodes = [Node(0, Position(0, 0), 500.0), Node(1, Position(1, 0), 410.0)]
    cfg = ScenarioConfig(node_count=2, tx_range=5.0, energy_threshold=10_000.0)
    snaps = run_simulation(cfg, nodes=nodes)
    changes = [e for s in snaps for e in s.events if isinstance(e, HeadChange)]
    ok = ok and changes and changes[0].at_tick == 3
    ok = ok and (changes[0].old_head, changes[0].new_head) == (0, 1)
    ok = ok and all(c.at_tick >= 3 for c in changes)
    _report(5, "head always argmax; crossover change lands at tick 3", bool(ok))


def test_c6_addressing_properties():
    rnd = random.Random(99)
    ok = True
    for _ in range(500):
        clusters, _pos = random_partition(rnd, min_nodes=1, max_nodes=60)
        addresses, handshake = assign_addresses(clusters)
        trace = handshake_messages(handshake, addresses)
        n = clusters.node_universe
        ok = ok and set(addresses) == set(range(n))
        ok = ok and len(set(addresses.values())) == n
        ok = ok and [m.seq for m in trace] == list(range(len(trace)))
        heads = {c.head for c in clusters.clusters}
        ok = ok and len(handshake) == len(trace) == 3 * (n - len(heads & set(range(n))))
        per_member: dict[int, list] = {}
        for msg in trace:
            member = msg.sender if msg.kind == MessageKind.REPLY else msg.receiver
            per_member.setdefault(member, []).append(msg.kind)
        for member, kinds in per_member.items():
            ok = ok and member not in heads
            ok = ok and kinds == [MessageKind.HELLO, MessageKind.REPLY, MessageKind.ASSIGN]
        if not ok:
            break
    _report(6, "addresses injective+total; per-member Hello/Reply/Assign", ok)


def test_c7_byte_identical_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("CLUSTERBENCH_SEED", raising=False)
    first = tmp_path / "first"
    assert cli.main(["simulate", "--seed", "11", "--out", str(first)]) == 0
    manifest = first / "manifest.json"

    replays = []
    for name, threads in (("again", "1"), ("threaded", "4")):
        out = tmp_path / name
        code = cli.main(
            ["simulate", "--config", str(manifest), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        replays.append(out)

    def snapshot(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    base = snapshot(first)
    ok = all(snapshot(d) == base for d in replays)
    _report(7, "simulate output byte-identical across runs and threads", ok)


def test_c8_recluster_trigger_tick():
    # 0-19-38 chained cluster plus a node 18 beyond its edge: index 18/38 < 0.5.
    # Validation every 3 ticks → the one and only re-cluster fires at tick 3.
    nodes = [
        Node(0, Position(0, 0), 800.0),
        Node(1, Position(19, 0), 900.0),
        Node(2, Position(38, 0), 700.0),
        Node(3, Position(56, 0), 600.0),
    ]
    cfg = ScenarioConfig(node_count=4, execution_time=5.0, validation_interval=3)
    snaps = run_simulation(cfg, nodes=nodes)
    events = [e for s in snaps for e in s.events if isinstance(e, ReclusterEvent)]
    ok = len(events) == 1
    ok = ok and events[0].at_tick == 3
    ok = ok and events[0].trigger_index == 18 / 38
    ok = ok and snaps[0].report is not None and snaps[0].report.recommend_recluster
    detail = f"trigger {18 / 38:.4f} at tick {events[0].at_tick if events else '—'}"
    _report(8, "re-cluster fires at the scheduled tick and no earlier", ok, detail)


def test_c9_large_population_pipeline_time():
    cfg = ScenarioConfig(node_count=300)
    nodes = generate_scenario(cfg)
    positions = {n.node_id: n.pos for n in nodes}
    energies = [n.energy for n in nodes]
    start = time.perf_counter()
    clusters = expac_cluster(nodes, cfg.tx_range)
    clusters = psopac_rebuild(clusters, energies, cfg.energy_threshold, cfg.comparator)
    addresses, _trace = assign_addresses(clusters)
    report = validate_clusters(clusters, positions, cfg.dunn_recluster_threshold)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and len(addresses) == 300 and report is not None
    _report(9, "300-node cluster+elect+address+validate under 1 s", ok, f"{elapsed * 1000:.0f} ms")


def test_c10_ten_thousand_node_pipeline_time():
    # 10 000 nodes at 25 nodes/ha: a 2000 x 2000 m square.
    cfg = ScenarioConfig(node_count=10_000, area=(2000.0, 2000.0))
    nodes = generate_scenario(cfg)
    positions = {n.node_id: n.pos for n in nodes}
    energies = [n.energy for n in nodes]
    start = time.perf_counter()
    clusters = expac_cluster(nodes, cfg.tx_range)
    clusters = psopac_rebuild(clusters, energies, cfg.energy_threshold, cfg.comparator)
    addresses, _trace = assign_addresses(clusters)
    report = validate_clusters(clusters, positions, cfg.dunn_recluster_threshold)
    elapsed = time.perf_counter() - start
    ok = elapsed < 2.0 and len(addresses) == 10_000 and report is not None
    _report(
        10,
        "10 000-node cluster+elect+address+validate at 25 nodes/ha under 2 s",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_c11_ten_thousand_nodes_at_fixed_area_pipeline_time():
    # 10 000 nodes in the default 100 x 100 m: about 3.5 million in-range pairs.
    cfg = ScenarioConfig(node_count=10_000)
    nodes = generate_scenario(cfg)
    positions = {n.node_id: n.pos for n in nodes}
    energies = [n.energy for n in nodes]
    start = time.perf_counter()
    clusters = expac_cluster(nodes, cfg.tx_range)
    clusters = psopac_rebuild(clusters, energies, cfg.energy_threshold, cfg.comparator)
    addresses, _trace = assign_addresses(clusters)
    report = validate_clusters(clusters, positions, cfg.dunn_recluster_threshold)
    elapsed = time.perf_counter() - start
    ok = elapsed < 2.0 and len(addresses) == 10_000 and report is not None
    _report(
        11,
        "10 000-node cluster+elect+address+validate in 100 x 100 m under 2 s",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def _two_clusters(first, second, node_count):
    return ClusterSet(
        (Cluster(0, first[0], tuple(first)), Cluster(1, second[0], tuple(second))), node_count
    )


def test_c12_closest_cross_cluster_pair_worst_cases_time():
    # Two 30 x 50 lattices at 1 m, 150 m apart on the diagonal: until the
    # sweep reaches the second it has no cross-cluster pair, so its window
    # holds every member behind it. The closest pair, (29, 49)-(150, 150), is
    # 222 m apart, and each lattice is 29 + 49 = 78 m wide.
    far = {}
    for k in range(1500):
        i, j = divmod(k, 50)
        far[k] = Position(float(i), float(j))
        far[1500 + k] = Position(150.0 + i, 150.0 + j)
    far_clusters = _two_clusters(range(1500), range(1500, 3000), 3000)
    # 3 000 nodes on the line x + y = 3000, labels alternating: every member
    # has the same u, so nothing leaves the active list. Neighbours are 2 m
    # apart, and each cluster spans (0, 3000)-(2998, 2), 5996 m.
    line = {i: Position(float(i), 3000.0 - i) for i in range(3000)}
    line_clusters = _two_clusters(range(0, 3000, 2), range(1, 3000, 2), 3000)
    ok = True
    details = []
    for clusters, positions, expected in (
        (far_clusters, far, 222 / 78),
        (line_clusters, line, 2 / 5996),
    ):
        start = time.perf_counter()
        report = validate_clusters(clusters, positions)
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 1.0 and report.dunn_index == expected
        details.append(f"{elapsed * 1000:.0f} ms")
    _report(
        12,
        "3 000-node validate, two far clusters and one line of alternating labels, "
        "under 1 s each",
        ok,
        ", ".join(details),
    )


def test_c13_steady_run_elects_only_clusters_that_can_change(monkeypatch):
    # The 500-node steady run has 229 clusters over 200 ticks after tick 0,
    # 45 800 elections in all if every cluster were elected every tick.
    # Singletons and clusters drained to 0.0 are carried over unelected.
    # A count, unlike a time, does not depend on the machine.
    elected = 0
    rotate = sim.rotate_heads

    def counted(clusters, energies, threshold, comparator, at_tick, states, settled):
        nonlocal elected
        elected += sum(c.cluster_id not in settled for c in clusters.clusters)
        return rotate(clusters, energies, threshold, comparator, at_tick, states, settled)

    monkeypatch.setattr(sim, "rotate_heads", counted)
    snaps = run_simulation(steady_config())
    changes = sum(isinstance(e, HeadChange) for s in snaps for e in s.events)
    ok = elected == 17_857 and changes == 15_467 and len(snaps[0].clusters.clusters) == 229
    _report(
        13,
        "500-node steady run elects 17 857 clusters after tick 0, not 45 800",
        ok,
        f"{elected} elections, {changes} head changes",
    )
