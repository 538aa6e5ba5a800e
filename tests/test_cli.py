"""End-to-end command-line pipeline on a small synthetic world."""

import json
import os

import numpy as np
import pytest

from gridmpnn import gridsim, services
from gridmpnn.cli import main
from gridmpnn.gridgraph import SchemaConfig, derive_schemas, load_topology

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


@pytest.mark.parametrize("days", ["inf", "nan", "-1"])
def test_simulate_rejects_days_that_are_not_finite_and_positive(
        world, tmp_path, capsys, days):
    rc = main(["simulate", "--spec", world["spec_path"], "--days", days,
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--days must be positive and finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_simulate_missing_spec_is_missing_artifact(tmp_path):
    rc = main(["simulate", "--spec", str(tmp_path / "nope.json"),
               "--days", "3", "--out", str(tmp_path / "x")])
    assert rc == 3


def _drop_first_edge(doc):
    del doc["lines"][0]["edge"]


# a spec fault, applied to a copy of the world's spec, and what it names
BAD_SPECS = {
    "empty": (lambda doc: {}, "'topology'"),
    "list": (lambda doc: [], "'topology'"),
    "line_without_edge": (_drop_first_edge, "line record 0"),
    "noise_string": (lambda doc: doc.update(noise={"voltage": "x"}),
                     "noise std 'voltage'"),
    "unknown_edge": (lambda doc: doc["lines"].append(
        {"edge": ["g", "zz"], "r": 0.1, "x": 0.04}), "['g', 'zz']"),
}


@pytest.mark.parametrize("fault", list(BAD_SPECS))
def test_a_malformed_spec_exits_2(world, tmp_path, capsys, fault):
    with open(world["spec_path"]) as fh:
        doc = json.load(fh)
    apply, named = BAD_SPECS[fault]
    changed = apply(doc)  # a new document, or None where changed in place
    doc = doc if changed is None else changed
    bad = str(tmp_path / "spec.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    rc = main(["simulate", "--spec", bad, "--days", "3",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


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


@pytest.mark.parametrize("rate", ["-0.5", "1", "1.5", "nan"])
def test_evaluate_missing_rate_outside_zero_one_exits_2(world, tmp_path,
                                                       capsys, rate):
    # checked before the config or checkpoint is read: a missing
    # checkpoint would exit 3
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["checkpoint"] = str(tmp_path / "none.json")
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "rate.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["evaluate", "--config", cfg_path, "--missing-rate", rate])
    assert rc == 2
    assert "--missing-rate must lie in [0, 1)" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


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


@pytest.mark.parametrize("key, value", [
    ("message_passing_steps", 2.5), ("message_passing_steps", True),
    ("layers", 2.0), ("layers", True), ("share_by_type", False)])
def test_bad_checkpoint_model_value_exits_2(world, tmp_path, capsys, key,
                                            value):
    # a count is read as written; share_by_type false marks per-node
    # parameters
    with open(world["cfg"]["paths"]["checkpoint"]) as fh:
        doc = json.load(fh)
    doc["model"][key] = value
    bad = str(tmp_path / "bad_checkpoint.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("command", ["evaluate", "impute", "congest", "bid"])
def test_per_node_checkpoint_exits_2(world, tmp_path, capsys, command):
    # written for this world's topology with one MLP per node and per
    # directed edge, which no model has any more
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["checkpoint"] = os.path.join(
        os.path.dirname(__file__), "data", "two_kinds_default.checkpoint.json")
    cfg["paths"]["out_dir"] = out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "per_node.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    extra = ["--timestamp", "2019-06-05T12:00:00Z"] if command == "impute" else []
    assert main([command, "--config", cfg_path, *extra]) == 2
    assert "per-node parameters" in capsys.readouterr().err
    assert not os.path.exists(out) or not os.listdir(out)


def _serve(world, tmp_path, command, **paths_or_schema) -> int:
    """Run a serving command on the world's checkpoint, its config
    changed as given (``schema``: schema keys over the defaults; any
    other keyword: a path), writing into ``tmp_path / "out"``."""
    cfg = json.loads(json.dumps(world["cfg"]))
    schema = paths_or_schema.pop("schema", None)
    if schema is not None:
        cfg["schema"] = {**SchemaConfig().to_document(), **schema}
    cfg["paths"].update(paths_or_schema, out_dir=str(tmp_path / "out"))
    cfg_path = str(tmp_path / "served.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    extra = ["--timestamp", "2019-06-05T12:00:00Z"] if command == "impute" else []
    return main([command, "--config", cfg_path, *extra])


@pytest.mark.parametrize("command", ["evaluate", "impute", "congest", "bid"])
@pytest.mark.parametrize("key, value, node", [
    ("ar_lags", [96, 144, 200], "g"),
    ("weather_covariates", ["irradiance", "temperature", "cloud_cover"], "s1"),
], ids=["lags", "weather_order"])
def test_a_checkpoint_served_under_another_schema_exits_2(
        world, tmp_path, capsys, command, key, value, node):
    # every node keeps its q, so the model would read other channels in
    # the slots it was trained on; the first node that differs is named
    assert _serve(world, tmp_path, command, schema={key: value}) == 2
    err = capsys.readouterr().err
    assert f"node {node!r}" in err and key in err
    out = tmp_path / "out"
    assert not os.path.exists(out) or not os.listdir(out)


def test_impute_on_a_dataset_lacking_a_series_exits_2(world, tmp_path, capsys):
    # an empty paths.weather gives no weather file, so the dataset lacks
    # the substation's weather series
    assert _serve(world, tmp_path, "impute", weather="") == 2
    assert "dataset lacks series 'wx:s1:temperature'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "imputation.json")


def test_a_missing_weather_file_exits_3(world, tmp_path, capsys):
    missing = str(tmp_path / "no_weather.csv")
    assert _serve(world, tmp_path, "evaluate", weather=missing) == 3
    assert f"paths.weather does not exist: {missing}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("fault, name", [("weight", "type/prosumer:8:6/enc/L0/W"),
                                         ("std", "p2")])
def test_non_finite_checkpoint_exits_2(world, tmp_path, capsys, fault, name):
    with open(world["cfg"]["paths"]["checkpoint"]) as fh:
        doc = json.load(fh)
    if fault == "weight":
        doc["parameters"][name]["values"][0] = float("nan")
    else:
        doc["standardization"][name]["std"][0] = float("inf")
    bad = str(tmp_path / "bad_checkpoint.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)  # NaN and Infinity, which json.load reads back
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    err = capsys.readouterr().err
    assert repr(name) in err and "finite" in err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("key", ["topology_hash", "schemas", "model",
                                 "standardization", "parameters", "shape",
                                 "values"])
def test_checkpoint_without_a_key_exits_2(world, tmp_path, capsys, key):
    with open(world["cfg"]["paths"]["checkpoint"]) as fh:
        doc = json.load(fh)
    record = (doc if key in doc
              else doc["parameters"]["type/prosumer:8:6/enc/L0/W"])
    del record[key]
    bad = str(tmp_path / "bad_checkpoint.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    assert repr(key) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


def _parameter_as_list(doc):
    pid = next(iter(doc["parameters"]))
    doc["parameters"][pid] = list(doc["parameters"][pid].values())


# a checkpoint fault, applied in place, and the section it names
WRONG_SHAPES = {
    "root_list": (lambda doc: [doc], "not a JSON object"),
    "model_null": (lambda doc: doc.update(model=None), "'model'"),
    "schemas_list": (lambda doc: doc.update(schemas=[]), "'schemas'"),
    "parameters_null": (lambda doc: doc.update(parameters=None),
                        "'parameters'"),
    "parameter_list": (_parameter_as_list, "'parameters' record"),
    "schema_string": (lambda doc: doc["schemas"].update(p1="q"),
                      "'schemas' record 'p1'"),
    "standardization_list": (
        lambda doc: doc["standardization"].update(p1=[0.0]),
        "'standardization' record 'p1'"),
    "shape_int": (lambda doc: next(iter(doc["parameters"].values())).update(
        shape=5), "'parameters' record 'type/"),
    "schema_config_list": (lambda doc: doc.update(schema_config=[1]),
                           "'schema_config' is not a JSON object"),
    "schema_config_lags": (lambda doc: doc["schema_config"].update(ar_lags=5),
                           "'schema_config' field 'ar_lags'"),
    "ar_lags_int": (lambda doc: doc["schemas"]["p1"].update(ar_lags=5),
                    "'schemas' record 'p1' field 'ar_lags' must be a list"),
    "observed_variables_int": (
        lambda doc: doc["schemas"]["p1"].update(observed_variables=5),
        "'schemas' record 'p1' field 'observed_variables'"),
    "p_float": (lambda doc: doc["schemas"]["p1"].update(p=2.5),
                "'schemas' record 'p1' field 'p' must be an integer"),
    "p_string": (lambda doc: doc["schemas"]["p1"].update(p="6"),
                 "'schemas' record 'p1' field 'p' must be an integer"),
    "std_null": (lambda doc: doc["standardization"]["p2"].update(std=None),
                 "'standardization' record 'p2' field 'std'"),
}


@pytest.mark.parametrize("fault", list(WRONG_SHAPES))
def test_a_checkpoint_of_the_wrong_shape_exits_2(world, tmp_path, capsys,
                                                 fault):
    with open(world["cfg"]["paths"]["checkpoint"]) as fh:
        doc = json.load(fh)
    apply, named = WRONG_SHAPES[fault]
    doc = apply(doc) or doc
    bad = str(tmp_path / "bad_checkpoint.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert _evaluate_with_checkpoint(world, tmp_path, bad) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "evaluation.json")


@pytest.mark.parametrize("command", ["train", "evaluate", "congest", "bid",
                                     "bench"])
@pytest.mark.parametrize("test_start", ["2019-06-03T00:07:00Z",
                                        "2020-06-03T00:00:00Z"],
                         ids=["off_grid", "outside"])
def test_a_test_start_off_the_dataset_exits_2(world, tmp_path, capsys,
                                              command, test_start):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["data"]["test_start"] = test_start
    out = tmp_path / "out"
    cfg["paths"]["out_dir"] = str(out)
    if command in ("train", "bench"):
        cfg["paths"]["checkpoint"] = str(out / "checkpoint.json")
    cfg_path = str(tmp_path / "test_start.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", cfg_path]) == 2
    assert f"data.test_start {test_start}" in capsys.readouterr().err
    assert not os.path.exists(out) or not os.listdir(out)


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
    ("model", "share_by_type", True),
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


# schema lists a node's channels are built from, each bad for its node:
# the first node in topology order has lags, the first substation
# weather covariates
BAD_SCHEMA_LISTS = {
    "lag_string": ("ar_lags", ["a", 96, 144], "node 'g': ar_lags"),
    "lag_float": ("ar_lags", [96, 144.5, 192], "node 'g': ar_lags"),
    "lag_bool": ("ar_lags", [True, 96, 144], "node 'g': ar_lags"),
    "lag_twice": ("ar_lags", [96, 96, 144], "node 'g': ar_lags"),
    "covariate_twice": ("weather_covariates", ["temperature", "temperature"],
                        "node 's1': weather_covariates"),
    "covariate_number": ("weather_covariates", ["temperature", 5],
                         "node 's1': weather_covariates"),
}


@pytest.mark.parametrize("fault", list(BAD_SCHEMA_LISTS))
def test_a_bad_schema_list_exits_2(world, tmp_path, capsys, fault):
    key, value, named = BAD_SCHEMA_LISTS[fault]
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["schema"] = {**SchemaConfig().to_document(), key: value}
    assert _train_exit(world, tmp_path, cfg) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "checkpoint.json")


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


def test_impute_mask_imputes_the_named_channels(world, tmp_path, capsys):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "mask.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    args = ["impute", "--config", cfg_path, "--timestamp",
            "2019-06-05T12:00:00Z"]
    assert main(args) == 0
    plain = json.load(open(tmp_path / "out" / "imputation.json"))["channels"]
    assert plain["p1:voltage"]["was_observed"]
    assert plain["p3:energy@-96"]["was_observed"]
    capsys.readouterr()
    assert main(args + ["--mask", "p1:voltage",
                        "--mask", "p3:energy@-96"]) == 0
    doc = json.load(open(tmp_path / "out" / "imputation.json"))["channels"]
    for name in ("p1:voltage", "p3:energy@-96"):
        assert not doc[name]["was_observed"], name
        assert doc[name]["value"] != plain[name]["value"], name
    n_filled = sum(not rec["was_observed"] for rec in doc.values())
    assert n_filled == 2 + sum(not rec["was_observed"]
                               for rec in plain.values())
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"imputed {n_filled} channels in one forward")


def test_impute_reads_each_observed_channel_at_its_lag(world, tmp_path):
    # on a copy of the world's data with 5% gaps, every channel of the
    # report is observed exactly where its series has a point at t - lag,
    # and then holds that point's value
    data = world["data_dir"]
    gapped = gridsim.inject_missing(gridsim.TimeSeriesDataset.read_csv(
        os.path.join(data, "dataset.csv"), os.path.join(data, "weather.csv")),
        0.05, seed=1)
    paths = {name: str(tmp_path / f"{name}.csv")
             for name in ("dataset", "weather")}
    for name, path in paths.items():
        gapped.write_csv(path, weather=name == "weather")
    gapped = gridsim.TimeSeriesDataset.read_csv(*paths.values())
    assert _serve(world, tmp_path, "impute", **paths) == 0
    doc = json.load(open(tmp_path / "out" / "imputation.json"))["channels"]
    t = gapped.index_of("2019-06-05T12:00:00Z")
    with open(os.path.join(data, "topology.json")) as fh:
        schemas = derive_schemas(load_topology(fh.read()))
    assert len(doc) == sum(s.q for s in schemas.values())
    n_gaps = 0
    for nid, schema in schemas.items():
        for ch in schema.channels():
            sid = (f"wx:{nid}:{ch.var}" if ch.var in schema.weather_covariates
                   else f"{nid}:{ch.var}")
            rec = doc[f"{nid}:{ch.name}"]
            assert rec["was_observed"] == (not gapped.missing[sid][t - ch.lag])
            if rec["was_observed"]:
                assert rec["value"] == gapped.series[sid][t - ch.lag]
            n_gaps += not rec["was_observed"]
    assert n_gaps > 0


@pytest.mark.parametrize("mask, named", [
    ("p9:voltage", "unknown node 'p9'"), ("p1:volts", "no channel 'volts'"),
    ("voltage", "unknown node ''")])
def test_impute_mask_of_an_unknown_channel_exits_2(world, tmp_path, capsys,
                                                   mask, named):
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "mask.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["impute", "--config", cfg_path, "--timestamp",
               "2019-06-05T12:00:00Z", "--mask", mask])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "imputation.json")


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


def test_bid_gets_each_timestamps_physical_snapshot(world, tmp_path,
                                                    monkeypatch):
    # every (feeder, timestamp) is asked at a threshold below every
    # voltage; each request gets the features and observed flags that
    # the sample at its timestamp restores to node by node
    scanned, asked = [], []
    scan, estimate = services.scan_congestions, services.estimate_bids

    def scanning(model, samples, *args, **kwargs):
        scanned.append(samples)
        return scan(model, samples, *args, **kwargs)

    def estimating(model, feats, obs, events, **kwargs):
        asked.append((model, feats, obs, events))
        return estimate(model, feats, obs, events, **kwargs)

    monkeypatch.setattr(services, "scan_congestions", scanning)
    monkeypatch.setattr(services, "estimate_bids", estimating)
    cfg = json.loads(json.dumps(world["cfg"]))
    cfg["services"] = {"threshold_v": 200.0, "z": 0.0}
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    cfg_path = str(tmp_path / "bid.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["bid", "--config", cfg_path]) == 0
    samples, = scanned
    column = {int(t): i for i, t in enumerate(samples.timestamps)}
    assert len(asked) == len(samples)
    for model, feats, obs, events in asked:
        sample = samples.sample(column[events[0].timestamp])
        assert set(feats) == set(obs) == set(model.topology.ids())
        for nid in model.topology.ids():
            want = (sample.features[nid] * model.std_std[nid]
                    + model.std_mean[nid])
            assert np.array_equal(feats[nid], want), nid
            assert np.array_equal(obs[nid], sample.input_mask[nid] > 0), nid


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


@pytest.mark.parametrize("command, where, value, artifact", [
    ("congest", "services.threshold_v", float("nan"), "events.jsonl"),
    ("bid", "services.target_voltage", float("inf"), "bids.jsonl"),
    ("train", "training.learning_rate", float("nan"), "history.csv"),
    ("train", "training.batch_size", 0, "history.csv"),
    ("train", "model.message_dim", 2.5, "history.csv"),
    ("train", "model.message_dim", 0, "history.csv"),
    ("train", "model.message_dim", "foo", "history.csv")])
def test_a_bad_value_exits_2_before_the_dataset_is_read(
        world, tmp_path, capsys, command, where, value, artifact):
    cfg = json.loads(json.dumps(world["cfg"]))
    section, key = where.split(".")
    cfg[section][key] = value  # json writes NaN and Infinity as such
    out = tmp_path / "out"
    cfg["paths"]["out_dir"] = str(out)
    cfg["paths"]["checkpoint"] = (world["cfg"]["paths"]["checkpoint"]
                                  if command != "train"
                                  else str(out / "checkpoint.json"))
    # read first, a dataset that is not there would exit 3
    cfg["paths"]["dataset"] = str(tmp_path / "absent.csv")
    cfg_path = str(tmp_path / "bad_value.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", cfg_path]) == 2
    assert f"config {where}" in capsys.readouterr().err
    assert not (out / artifact).exists()


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
