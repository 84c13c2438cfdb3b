"""Golden output digests: every CLI command's output files, stdout, stderr
and exit code, compared with ``golden.json``.

The commands run in-process, in order, from one working directory, with
relative paths and ``SOURCE_DATE_EPOCH`` pinned. Each command's files are
the files under its ``--out`` directory; their names and sha256 digests are
folded into one digest per command. A changed byte in any output file, or in
any command's stdout, stderr or exit code, fails the test and names the
command.

Regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py

Regenerating them declares a change of output, which CHANGES.md must name.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
SOURCE_DATE_EPOCH = "1700000000"
SEEDS = (0, 3)
FORMATS = ("csv", "json")

CONFIGS = {
    "default": {},
    "at_or_above": {"node_count": 120, "comparator": "at_or_above", "validation_interval": 3},
    # 25 nodes per hectare
    "sparse": {
        "node_count": 200,
        "area": [100.0 * math.sqrt(200 / 25)] * 2,
        "dunn_recluster_threshold": 2.0,
    },
    "short_tick": {"execution_time": 0.3, "tick": 0.1},
    "one_cluster": {"node_count": 3, "area": [1.0, 1.0]},
    # perfbench's cluster_dense workload at seed 0: 3000 nodes in 100 x 100 m
    "cluster_dense": {
        "node_count": 3000,
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
        "seed": 0,
    },
}


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, output directory or None), in the order they must run."""
    out: list[tuple[str, list[str], str | None]] = []

    def add(label, argv, out_dir=None):
        if out_dir is not None:
            argv = [*argv, "--out", out_dir]
        out.append((label, argv, out_dir))

    for name in ("default", "at_or_above", "sparse", "short_tick"):
        for seed in SEEDS:
            nodes_csv = f"{name}-s{seed}-csv/gen/nodes.csv"
            clusters_csv = f"{name}-s{seed}-csv/clu/clusters.csv"
            for fmt in FORMATS:
                d = f"{name}-s{seed}-{fmt}"
                common = ["--config", f"{name}.json", "--seed", str(seed), "--format", fmt]
                cluster = ["cluster", *common]
                validate = ["validate", *common, "--clusters", clusters_csv]
                simulate = ["simulate", *common]
                add(f"{d}/generate", ["generate", *common], f"{d}/gen")
                add(f"{d}/cluster", cluster, f"{d}/clu")
                add(f"{d}/cluster --nodes", [*cluster, "--nodes", nodes_csv], f"{d}/clu_nodes")
                add(f"{d}/validate", validate)
                add(f"{d}/validate --out", validate, f"{d}/val")
                add(f"{d}/simulate", simulate, f"{d}/sim")
                add(f"{d}/simulate --nodes", [*simulate, "--nodes", nodes_csv], f"{d}/sim_nodes")
                prefix = [*simulate, "--prefix", "fd00:1:2::"]
                add(f"{d}/simulate --prefix", prefix, f"{d}/sim_prefix")
                add(
                    f"{d}/simulate replay",
                    ["simulate", "--config", f"{d}/sim/manifest.json", "--format", fmt],
                    f"{d}/replay",
                )
    one = ["--config", "one_cluster.json"]
    add("one_cluster/cluster", ["cluster", *one], "one/clu")
    add(
        "one_cluster/validate --strict",
        ["validate", *one, "--clusters", "one/clu/clusters.csv", "--strict"],
    )
    for fmt in FORMATS:
        add(
            f"sweep {fmt}",
            ["sweep", "--sizes", "6,9,25", "--seeds", "3", "--seed", "5", "--format", fmt],
            f"sweep-{fmt}",
        )
    dense = ["--config", "cluster_dense.json"]
    add("cluster_dense/generate", ["generate", *dense], "dense/gen")
    dense_nodes = [*dense, "--nodes", "dense/gen/nodes.csv"]
    add("cluster_dense/cluster", ["cluster", *dense_nodes], "dense/clu")
    add(
        "cluster_dense/validate",
        ["validate", *dense, "--clusters", "dense/clu/clusters.csv"],
        "dense/val",
    )
    return out


def tree_digest(directory: Path) -> dict:
    """The number of files under ``directory`` and one sha256 over their
    relative paths and contents."""
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    fold = hashlib.sha256()
    for path in files:
        rel = path.relative_to(directory).as_posix()
        fold.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return {"files": len(files), "sha256": fold.hexdigest()}


def run_all(workdir: Path) -> dict[str, dict]:
    """Run every command from ``workdir`` and record what it produced."""
    from clusterbench import cli

    for name, config in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(config))
    results: dict[str, dict] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv, out_dir in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            entry = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            if out_dir is not None:
                entry.update(tree_digest(Path(out_dir)))
            results[label] = entry
    finally:
        os.chdir(cwd)
    return results


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CLUSTERBENCH_SEED", raising=False)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    golden = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert list(got) == list(golden)
    changed = [label for label in golden if got[label] != golden[label]]
    assert not changed, f"outputs differ from golden.json for {changed}: " + "; ".join(
        f"{label}: {got[label]} != {golden[label]}" for label in changed[:3]
    )


if __name__ == "__main__":
    os.environ.pop("CLUSTERBENCH_SEED", None)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} commands to {GOLDEN}", file=sys.stderr)
