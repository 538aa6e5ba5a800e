"""Self-test of the benchmark on the tiny smoke world.

    python -m pytest benchmarks -q

Runs every workload untraced and traced, checks the result line against
BENCHMARK.json, and checks that a wrong output and a checkout without
sources both end the run with a non-zero exit code.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_smoke(workload: str, trace: int, cwd: str = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "0.5", "--trace", str(trace),
                             "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_reports_every_metric(workload, trace):
    proc = run_smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_layers_see_their_workload():
    """A traced run attributes time to the layers the workload drives."""
    import workloads

    proc = run_smoke("serve", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    # evaluate and congest impute the batch, every bid imputes once
    assert value["imputation.impute_packed_calls"] == 2 + workloads.BIDS_PER_OP
    assert value["imputation.impute_calls"] == workloads.BIDS_PER_OP
    assert value["imputation.impute_packed_s"] > 0
    assert value["mpnn.message_pass_s"] > 0
    assert value["diffcore.backward_s"] == 0  # no training in the timed region
    assert value["mpnn.checkpoint_load_s"] > 0  # set-up layer
    assert 0 < value["imputation.useful_row_share"] <= 1
    assert value["trace.overhead_ratio"] > 0


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    import run
    from gridmpnn import gridsim

    read = gridsim.TimeSeriesDataset.read_csv

    def one_value_off(*paths):
        ds = read(*paths)
        ds.series[sorted(ds.series)[0]][0] += 1.0
        return ds

    monkeypatch.setattr(gridsim.TimeSeriesDataset, "read_csv",
                        staticmethod(one_value_off))
    code = run.main(["--workload", "train", "--seed", "3", "--seconds",
                     "0.1", "--smoke"])
    assert code == 1
    assert '"correct"' not in capsys.readouterr().out


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_smoke("train", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
