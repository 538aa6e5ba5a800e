"""End-to-end command-line pipeline on a small synthetic world."""

import json
import os

import numpy as np
import pytest

from gridmpnn import gridsim
from gridmpnn.cli import main
from gridmpnn.gridgraph import SchemaConfig, load_topology

from conftest import BAD_PARAMETERS, write_bad_checkpoint


def small_spec(pv_kw=0.0):
    topo = load_topology({
        "nodes": [{"id": "g", "kind": "global"},
                  {"id": "s1", "kind": "substation"},
                  {"id": "f1", "kind": "feeder"},
                  {"id": "f2", "kind": "feeder"},
                  {"id": "p1", "kind": "prosumer"},
                  {"id": "p2", "kind": "prosumer"},
                  {"id": "p3", "kind": "prosumer"}],
        "edges": [["g", "s1"], ["s1", "f1"], ["s1", "f2"],
                  ["f1", "p1"], ["f1", "p2"], ["f2", "p3"]]})
    lines = {}
    for parent, child in topo.edges:
        kind = topo.node(child).kind
        r = {"substation": 0.006, "feeder": 0.2, "prosumer": 0.03}[kind]
        lines[(parent, child)] = {"r": r, "x": 0.4 * r}
    prosumers = {pid: {"base_kw": 0.3, "morning_kw": 0.4, "evening_kw": 1.2,
                       "pv_kw": pv_kw, "weekend_factor": 1.1}
                 for pid in topo.ids("prosumer")}
    feeders = {fid: {"unmetered_base_kw": 2.0, "unmetered_evening_kw": 1.5}
               for fid in topo.ids("feeder")}
    weather = {"s1": {}}
    return gridsim.SyntheticGridSpec(topology=topo, v0=238.0, lines=lines,
                                     prosumers=prosumers, feeders=feeders,
                                     weather=weather)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Simulated small world + a trained checkpoint, via the CLI."""
    root = tmp_path_factory.mktemp("cli_world")
    spec = small_spec(pv_kw=0.0)
    spec_path = str(root / "spec.json")
    with open(spec_path, "w") as fh:
        fh.write(spec.to_json())
    data_dir = str(root / "data")
    rc = main(["simulate", "--spec", spec_path, "--start",
               "2019-06-01T00:00:00Z", "--days", "6", "--seed", "3",
               "--out", data_dir])
    assert rc == 0
    out_dir = str(root / "run")
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "paths": {"topology": os.path.join(data_dir, "topology.json"),
                  "dataset": os.path.join(data_dir, "dataset.csv"),
                  "weather": os.path.join(data_dir, "weather.csv"),
                  "checkpoint": os.path.join(out_dir, "checkpoint.json"),
                  "out_dir": out_dir},
        "data": {"test_start": "2019-06-05T00:00:00Z"},
        "model": {"layers": 2, "message_passing_steps": 2},
        "training": {"max_epochs": 3, "batch_size": 128,
                     "early_stopping_patience": 5},
        "services": {"threshold_v": 240, "z": 1.0},  # an int passes for a float
        "benchmark": {"models": ["gnn", "mlp"], "layers": 2,
                      "mlp_hidden": 16, "missing_rates": [0.0, 0.05]},
    }
    cfg_path = str(root / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    rc = main(["train", "--config", cfg_path])
    assert rc == 0
    return {"root": root, "spec_path": spec_path, "data_dir": data_dir,
            "cfg": cfg, "cfg_path": cfg_path, "out_dir": out_dir}


def test_simulate_outputs_and_determinism(world, tmp_path):
    data_dir = world["data_dir"]
    ds = gridsim.TimeSeriesDataset.read_csv(
        os.path.join(data_dir, "dataset.csv"),
        os.path.join(data_dir, "weather.csv"))
    assert ds.n_steps == 6 * 96
    # 3 prosumers x2 + 2 feeders x2 + substation x3 + global x2
    assert len(ds.ids(weather=False)) == 15
    # rerun with the same seed: byte-identical artifacts
    out2 = str(tmp_path / "again")
    rc = main(["simulate", "--spec", world["spec_path"], "--start",
               "2019-06-01T00:00:00Z", "--days", "6", "--seed", "3",
               "--out", out2])
    assert rc == 0
    for name in ("dataset.csv", "weather.csv", "topology.json"):
        assert (open(os.path.join(data_dir, name)).read()
                == open(os.path.join(out2, name)).read()), name


def test_simulate_rejects_zero_days(world, tmp_path):
    rc = main(["simulate", "--spec", world["spec_path"], "--days", "0",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_missing_spec_is_missing_artifact(tmp_path):
    rc = main(["simulate", "--spec", str(tmp_path / "nope.json"),
               "--days", "3", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_train_writes_checkpoint_and_history(world):
    out = world["out_dir"]
    assert os.path.exists(os.path.join(out, "checkpoint.json"))
    lines = open(os.path.join(out, "history.csv")).read().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "epoch,train_nll,val_nll,wall_seconds"
    assert len(lines) == 2 + 3  # three epochs ran


def test_train_is_reproducible_modulo_wall_time(world, tmp_path):
    cfg = json.loads(json.dumps(world["cfg"]))
    out2 = str(tmp_path / "run2")
    cfg["paths"]["out_dir"] = out2
    cfg["paths"]["checkpoint"] = os.path.join(out2, "checkpoint.json")
    cfg_path = str(tmp_path / "config2.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    rc = main(["train", "--config", cfg_path])
    assert rc == 0
    a = open(os.path.join(world["out_dir"], "checkpoint.json")).read()
    b = open(os.path.join(out2, "checkpoint.json")).read()
    assert a == b

    def strip_wall(path):
        rows = open(path).read().splitlines()[2:]
        return [",".join(r.split(",")[:3]) for r in rows]

    assert (strip_wall(os.path.join(world["out_dir"], "history.csv"))
            == strip_wall(os.path.join(out2, "history.csv")))


def test_evaluate_reports_metrics(world):
    rc = main(["evaluate", "--config", world["cfg_path"]])
    assert rc == 0
    report = json.load(open(os.path.join(world["out_dir"], "evaluation.json")))
    assert report["missing_rate"] == 0.0
    assert report["n_samples"] == 192  # two test days after the lag skip
    assert np.isfinite(report["mape_pct"]) and np.isfinite(report["rmse"])
    assert "config_sha256" in report


def test_evaluate_with_missing_rate_flag(world):
    rc = main(["evaluate", "--config", world["cfg_path"],
               "--missing-rate", "0.10"])
    assert rc == 0
    report = json.load(open(os.path.join(world["out_dir"], "evaluation.json")))
    assert report["missing_rate"] == 0.10


def test_missing_checkpoint_exits_3(world, tmp_path):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["checkpoint"] = str(tmp_path / "no_such.json")
    cfg_path = str(tmp_path / "config3.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["evaluate", "--config", cfg_path]) == 3


def _evaluate_with_checkpoint(world, tmp_path, checkpoint: str) -> int:
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["checkpoint"] = checkpoint
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "bad_ckpt.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return main(["evaluate", "--config", cfg_path])


@pytest.mark.parametrize("fault", list(BAD_PARAMETERS))
def test_bad_checkpoint_parameter_exits_2(world, tmp_path, capsys, fault):
    bad = str(tmp_path / "bad_checkpoint.json")
    pid = write_bad_checkpoint(world["cfg"]["paths"]["checkpoint"], bad, fault)
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    assert repr(pid) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("key", ["topology_hash", "schemas", "model",
                                 "standardization", "parameters", "shape",
                                 "values"])
def test_checkpoint_without_a_key_exits_2(world, tmp_path, capsys, key):
    with open(world["cfg"]["paths"]["checkpoint"]) as fh:
        doc = json.load(fh)
    record = doc if key in doc else doc["parameters"]["node/p1/enc/L0/W"]
    del record[key]
    bad = str(tmp_path / "bad_checkpoint.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    assert repr(key) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("command", ["train", "bench"])
def test_zero_epoch_budget_exits_2(world, tmp_path, capsys, command):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["training"]["max_epochs"] = 0
    out = tmp_path / "out"
    cfg["paths"]["out_dir"] = str(out)
    cfg["paths"]["checkpoint"] = str(out / "checkpoint.json")
    cfg_path = str(tmp_path / "zero_epochs.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", cfg_path]) == 2
    assert "training.max_epochs" in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint.json")
    assert not os.path.exists(out / "history.csv")
    assert not os.path.exists(out / "comparison.csv")


def test_bad_schema_version_exits_2(world, tmp_path):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["schema_version"] = 99
    cfg_path = str(tmp_path / "config4.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["evaluate", "--config", cfg_path]) == 2


@pytest.mark.parametrize("section,doc", [
    ("training", {"batch_size": 0}),
    ("training", {"batch_size": -4}),
    ("model", {"layers": 0})])
def test_out_of_range_config_size_exits_2(world, tmp_path, section, doc):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg[section] = {**cfg[section], **doc}
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg["paths"]["checkpoint"] = str(tmp_path / "out" / "checkpoint.json")
    cfg_path = str(tmp_path / "sizes.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["train", "--config", cfg_path]) == 2
    assert not os.path.exists(tmp_path / "out" / "history.csv")
    assert not os.path.exists(tmp_path / "out" / "checkpoint.json")


def _train_exit(world, tmp_path, cfg) -> int:
    """Exit code of ``train`` on ``cfg``, writing under ``tmp_path``."""
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg["paths"]["checkpoint"] = str(tmp_path / "out" / "checkpoint.json")
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return main(["train", "--config", cfg_path])


# (section or None for the top level, a key it does not read, a value)
UNREAD_KEYS = [
    ("training", "max_epoch", 3),
    ("model", "message_passing_step", 3),
    (None, "trainning", {"max_epochs": 3}),
    ("paths", "weather_csv", "weather.csv"),
    ("data", "test_end", "2019-06-06T00:00:00Z"),
    ("schema", "latent_medium", 12),
    ("services", "treshold_v", 241.0),
    ("benchmark", "model", "gnn"),
    ("training", "seed", 5),  # the top-level seed seeds training
    # training keys that are gone, at the values they used to take
    ("training", "max_batch_size", 5000),
    ("training", "augmentation_enabled", True),
    ("training", "bid_augmentation_enabled", False),
]


@pytest.mark.parametrize("section,key,value", UNREAD_KEYS, ids=[
    f"{s or 'config'}-{k}" for s, k, _ in UNREAD_KEYS])
def test_unknown_config_key_exits_2(world, tmp_path, capsys, section, key,
                                    value):
    cfg = json.loads(json.dumps(world["cfg"]))
    if section is None:
        cfg[key] = value
    else:
        if section == "schema":
            cfg["schema"] = SchemaConfig().to_document()
        cfg.setdefault(section, {})[key] = value
    assert _train_exit(world, tmp_path, cfg) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "history.csv")


@pytest.mark.parametrize("section,doc,named", [
    ("training", {"max_epochs": "2"}, "training.max_epochs"),
    ("training", {"batch_size": 100.5}, "training.batch_size"),
    ("services", {"z": True}, "services.z"),
    ("paths", {"dataset": 2.5}, "paths.dataset"),
    ("schema", {k: v for k, v in SchemaConfig().to_document().items()
                if k != "latent_small"}, "latent_small")])
def test_a_mistyped_or_missing_value_exits_2(world, tmp_path, capsys,
                                             section, doc, named):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg[section] = {**cfg.get(section, {}), **doc}
    assert _train_exit(world, tmp_path, cfg) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "history.csv")


_FAULT_MESSAGES = {"duplicate": "duplicate",
                   "off_grid": "off the 15-minute grid",
                   "short_row": "expected 4 fields",
                   "bad_value": "bad value",
                   "bad_quality": "is not 'ok' or 'missing'",
                   "no_header": "line 2: expected the header"}


@pytest.mark.parametrize("fault", list(_FAULT_MESSAGES))
def test_malformed_dataset_csv_exits_2(world, tmp_path, capsys, fault):
    src = os.path.join(world["data_dir"], "dataset.csv")
    lines = open(src).read().splitlines()
    row = lines[-1].split(",")
    if fault == "off_grid":  # hh:07, between two 15-minute steps
        row[0] = row[0][:len("2019-06-01T00:")] + "07:00Z"
    elif fault == "short_row":
        row.pop()
    elif fault == "bad_value":
        row[2] = "n/a"
    elif fault == "bad_quality":
        row[3] = "estimated"
    if fault == "no_header":  # drop the header under simulate's comment
        del lines[1]
    else:
        lines.append(",".join(row))
    bad = str(tmp_path / "dataset.csv")
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["dataset"] = bad
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "bad_data.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["evaluate", "--config", cfg_path]) == 2
    assert _FAULT_MESSAGES[fault] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


def test_impute_writes_report(world, capsys):
    rc = main(["impute", "--config", world["cfg_path"],
               "--timestamp", "2019-06-05T12:00:00Z"])
    assert rc == 0
    doc = json.load(open(os.path.join(world["out_dir"], "imputation.json")))
    assert doc["timestamp"] == "2019-06-05T12:00:00Z"
    assert "p1:voltage" in doc["channels"]
    assert doc["channels"]["p1:voltage"]["was_observed"] is True
    # one forward: no iteration count or convergence flag to report
    assert "iterations" not in doc and "converged" not in doc
    n_filled = sum(not rec["was_observed"] for rec in doc["channels"].values())
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"imputed {n_filled} channels in one forward")


def test_congest_on_quiet_world_finds_no_events(world):
    # no PV, positive loads: voltages sit below the 240 V threshold
    rc = main(["congest", "--config", world["cfg_path"]])
    assert rc == 0
    lines = open(os.path.join(world["out_dir"], "events.jsonl")).read().splitlines()
    events = [json.loads(l) for l in lines if "meta" not in json.loads(l)]
    assert events == []
    plot = open(os.path.join(world["out_dir"], "congestion_plot.csv")).read()
    assert plot.splitlines()[1].startswith("timestamp,")


def test_bid_runs_and_writes_jsonl(world):
    rc = main(["bid", "--config", world["cfg_path"]])
    assert rc == 0
    assert os.path.exists(os.path.join(world["out_dir"], "bids.jsonl"))


@pytest.mark.parametrize("command, artifact", [("congest", "events.jsonl"),
                                               ("bid", "bids.jsonl")])
def test_unknown_direction_exits_2(world, tmp_path, capsys, command, artifact):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["services"]["direction"] = "sideways"
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "sideways.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", cfg_path]) == 2
    assert "unknown direction 'sideways'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / artifact)


@pytest.mark.parametrize("command, key, value, artifact", [
    ("bid", "target_voltage", "240", "bids.jsonl"),
    ("congest", "plot_node", 5, "congestion_plot.csv"),
    ("congest", "plot_node", "p9", "congestion_plot.csv"),
    # a feeder: no current-time voltage channel, so nothing to plot
    ("congest", "plot_node", "f1", "congestion_plot.csv")])
def test_a_bad_service_value_exits_2(world, tmp_path, capsys, command, key,
                                     value, artifact):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["services"][key] = value
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "bad_service.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", cfg_path]) == 2
    assert f"services.{key}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / artifact)


@pytest.mark.parametrize("key, value", [
    ("models", ["gnn", "rnn"]),
    ("models", []),
    ("models", ["mlp", "mlp"]),
    ("missing_rates", [0.0, 1.5]),
    ("missing_rates", [0.0, True]),
    ("layers", 4)])
def test_a_bad_benchmark_value_exits_2_before_training(world, tmp_path, capsys,
                                                       key, value):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["benchmark"][key] = value
    out = tmp_path / "out"
    cfg["paths"]["out_dir"] = str(out)
    cfg["paths"].pop("checkpoint")
    cfg_path = str(tmp_path / "bad_bench.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["bench", "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert f"benchmark.{key}" in captured.err
    assert captured.out == ""  # no model trained
    assert not out.exists() or not os.listdir(out)


def test_bench_writes_comparison_and_sweep(world, tmp_path):
    cfg = json.loads(json.dumps(world["cfg"]))
    out = str(tmp_path / "bench")
    cfg["paths"]["out_dir"] = out
    cfg["paths"].pop("checkpoint")
    cfg["training"]["max_epochs"] = 2
    cfg_path = str(tmp_path / "bench.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["bench", "--config", cfg_path])
    assert rc == 0
    lines = open(os.path.join(out, "comparison.csv")).read().splitlines()
    assert lines[1] == "model,layers,mp_steps,params,mape_pct,rmse"
    assert len(lines) == 4  # GNN and MLP rows
    gnn_params = int(lines[2].split(",")[3])
    mlp_params = int(lines[3].split(",")[3])
    assert gnn_params > 0 and mlp_params > 0  # ratio claims live at pilot scale
    sweep = open(os.path.join(out, "missing_sweep.csv")).read().splitlines()
    assert len(sweep) == 4  # comment, header, two rates
    assert os.path.exists(os.path.join(out, "checkpoint.json"))


def test_bench_sweep_and_evaluate_score_the_same_samples(world, tmp_path):
    # every reading of the last test step is flagged missing, so a quarter
    # of that step's sample (lags 0, 96, 144, 192) is unobserved
    paths = {name: os.path.join(world["data_dir"], f"{name}.csv")
             for name in ("dataset", "weather")}
    ds = gridsim.TimeSeriesDataset.read_csv(*paths.values())
    for flags in ds.missing.values():
        flags[-1] = True
    cfg = json.loads(json.dumps(world["cfg"]))
    for name, weather in (("dataset", False), ("weather", True)):
        cfg["paths"][name] = str(tmp_path / f"{name}.csv")
        ds.write_csv(cfg["paths"][name], weather=weather)
    out = tmp_path / "run"
    cfg["paths"]["out_dir"] = str(out)
    cfg["training"]["max_epochs"] = 1
    cfg["benchmark"].update(models=["gnn"], missing_rates=[0.0])
    cfg_path = str(tmp_path / "gapped.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["evaluate", "--config", cfg_path]) == 0
    report = json.load(open(out / "evaluation.json"))
    assert report["n_samples"] == 191  # the gapped step's sample is dropped
    assert main(["bench", "--config", cfg_path]) == 0
    sweep = open(out / "missing_sweep.csv").read().splitlines()
    assert sweep[2].split(",")[:2] == ["0.0", "191"]


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2
