"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import pytest

from checks import CheckFailed, check_cluster_outputs, check_sim_outputs
from run import END_TO_END, PER_LAYER, ROOT, SRC
from tracing import self_times
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))
from clusterbench import cli  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert "fail_rate" not in bounds  # never 0 is required; failures go to "failed" instead


def test_self_time_subtracts_children():
    spans = [(0, -1, "cli.cluster", 0, 100), (1, 0, "clustering.expac_cluster", 10, 70),
             (2, 1, "clustering.pac_candidates", 20, 50), (3, 0, "tables.write_table", 80, 90)]
    assert self_times(spans) == {
        "cli.cluster": (30e-9, 1),
        "clustering.expac_cluster": (30e-9, 1),
        "clustering.pac_candidates": (30e-9, 1),
        "tables.write_table": (10e-9, 1),
    }


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}" for w in WORKLOADS for m in PER_LAYER}
    assert set(result["metrics"]) == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim_steady", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _produce(tmp_path, monkeypatch, capsys, name):
    """Run a smoke-size workload in-process, the way a worker does."""
    workload = WORKLOADS[name]
    config = workload.full_config(3, smoke=True)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    stdouts = []
    for argv in workload.commands():
        assert cli.main(argv) == 0
        stdouts.append(capsys.readouterr().out)
    return config, stdouts


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_oracle_accepts_the_program_and_rejects_edits(tmp_path, monkeypatch, capsys):
    config, stdouts = _produce(tmp_path, monkeypatch, capsys, "cluster_dense")
    stats = check_cluster_outputs(tmp_path, config, stdouts)
    assert stats["clusters"] > 1
    index = stdouts[2].split(", ")[1]
    with pytest.raises(CheckFailed):
        check_cluster_outputs(tmp_path, config, [stdouts[0], stdouts[1], stdouts[2].replace(index, "0.5", 1)])
    _edit(tmp_path / "clu" / "clusters.csv", ",true,", ",false,")
    with pytest.raises(CheckFailed):
        check_cluster_outputs(tmp_path, config, stdouts)


def test_oracle_checks_the_energy_drain(tmp_path, monkeypatch, capsys):
    config, _ = _produce(tmp_path, monkeypatch, capsys, "sim_steady")
    assert check_sim_outputs(tmp_path, config)["ticks"] == 20
    rows = (tmp_path / "sim" / "timeline.csv").read_text().splitlines()
    last = rows[-1].split(",")
    last[5] = str(float(last[5]) + 1.0)
    rows[-1] = ",".join(last)
    (tmp_path / "sim" / "timeline.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckFailed):
        check_sim_outputs(tmp_path, config)
