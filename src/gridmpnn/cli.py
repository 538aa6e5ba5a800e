"""Command-line pipeline: simulate, train, evaluate, impute, congest,
bid, bench.

All commands are batch runs driven by a JSON config (``--config``) with
a versioned schema; every output artifact embeds the config hash and
seed so reruns are reproducible byte-for-byte (wall-clock timing
columns excluded). Exit codes: 0 success, 2 config/validation error,
3 missing artifact, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields
from typing import Optional

import numpy as np

from . import baselines, gridsim, services
from .gridgraph import (VOLTAGE, NodeSchema, SchemaConfig, TopologyError,
                        derive_schemas, lag_horizon, load_topology)
from .imputation import ImputationProblem, impute
from .mpnn import GnnConfig, GnnModel
from .training import (DatasetError, TrainingConfig, TrainingError,
                       build_samples, chronological_split, concat_sample_sets,
                       gather_channels, masked_clones, train,
                       voltage_lag0_selector, write_history_csv)

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


class MissingArtifact(FileNotFoundError):
    pass


# ---------------------------------------------------------------------------
# Config handling


DEFAULT_SERVICES = {"threshold_v": 240.0, "z": 1.0, "target_voltage": None,
                    "direction": "over", "plot_node": None}
DEFAULT_BENCHMARK = {"models": ["gnn", "mlp"], "layers": 2,
                     "mlp_hidden": baselines.BENCH_MLP_HIDDEN,
                     "ae_hidden": 64,
                     "missing_rates": [0.0, 0.001, 0.01, 0.05, 0.10]}
# Each object of the run config, the top level first, with the default
# of every key the CLI reads from it (None: any value). The top-level
# seed seeds training, so the training section takes none of its own.
CONFIG_KEYS = {
    "config": {"schema_version": CONFIG_SCHEMA_VERSION, "seed": 0,
               "paths": {}, "data": {}, "schema": {}, "model": {},
               "training": {}, "services": {}, "benchmark": {}},
    "paths": dict.fromkeys(("topology", "dataset", "weather", "checkpoint",
                            "out_dir"), ""),
    "data": {"test_start": ""},
    "schema": SchemaConfig().to_document(),
    # message_dim is a size or the name of a rule
    "model": {**GnnConfig().to_document(), "message_dim": None},
    "training": {k: v for k, v in asdict(TrainingConfig()).items()
                 if k != "seed"},
    "services": DEFAULT_SERVICES,
    "benchmark": DEFAULT_BENCHMARK,
}


def _check_section(name: str, doc, defaults: dict) -> None:
    """Reject a section that is not an object, names a key it does not
    read or gives a value of another JSON type than the key's default
    (an integer passes for a float, and any value for a None default),
    or a number that is not finite: JSON reads NaN and Infinity."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {name} must be a JSON object")
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    for key, value in doc.items():
        want = type(defaults[key])
        ok = (defaults[key] is None
              or (isinstance(value, want)
                  and (want is bool or not isinstance(value, bool)))
              or (want is float and type(value) is int))
        where = key if name == "config" else f"{name}.{key}"
        if not ok:
            raise ConfigError(f"config {where} must be {want.__name__}, "
                              f"not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config {where} must be finite, not {value!r}")


def _gnn_config(cfg: dict, **override) -> GnnConfig:
    """The model section over the defaults; a bad value names its key."""
    try:
        return GnnConfig.from_document({**GnnConfig().to_document(),
                                        **cfg.get("model", {}), **override})
    except ValueError as e:
        raise ConfigError(f"config model.{e}") from e


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise MissingArtifact(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema_version {cfg.get('schema_version')!r}")
    for name, defaults in CONFIG_KEYS.items():
        _check_section(name, cfg if name == "config" else cfg.get(name, {}),
                       defaults)
    if cfg.get("schema"):
        missing = sorted(set(CONFIG_KEYS["schema"]) - set(cfg["schema"]))
        if missing:
            raise ConfigError(
                f"config schema lacks keys: {', '.join(missing)}")
    if "paths" not in cfg:
        raise ConfigError("config lacks required section 'paths'")
    cfg.setdefault("seed", 0)
    cfg.setdefault("model", {})
    cfg.setdefault("training", {})
    cfg.setdefault("data", {})
    cfg["services"] = {**DEFAULT_SERVICES, **cfg.get("services", {})}
    target = cfg["services"]["target_voltage"]
    if target is not None and type(target) not in (int, float):
        raise ConfigError("config services.target_voltage must be a number "
                          f"or null, not {target!r}")
    # a bad model or training value exits before any data loads
    _gnn_config(cfg)
    try:
        TrainingConfig(**cfg["training"], seed=cfg["seed"])
    except ValueError as e:
        raise ConfigError(f"config training.{e}") from e
    cfg["benchmark"] = bench = {**DEFAULT_BENCHMARK, **cfg.get("benchmark", {})}
    models = bench["models"]
    for kind in models:
        if kind not in ("gnn", "mlp", "ae"):
            raise ConfigError(f"config benchmark.models: unknown model {kind!r}")
    if not models or len(set(models)) < len(models):
        raise ConfigError("config benchmark.models must name each model "
                          f"once, not {models!r}")
    for rate in bench["missing_rates"]:
        if type(rate) not in (int, float) or not 0.0 <= rate < 1.0:
            raise ConfigError("config benchmark.missing_rates: "
                              f"{rate!r} is not a rate in [0, 1)")
    if {"mlp", "ae"} & set(models) and bench["layers"] not in (1, 2, 3):
        raise ConfigError("config benchmark.layers must be 1, 2 or 3 for the "
                          f"MLP and AE, not {bench['layers']!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(cfg: dict) -> dict:
    return {"config_sha256": config_hash(cfg), "seed": cfg.get("seed", 0)}


def _meta_comment(cfg: dict) -> str:
    m = _meta(cfg)
    return f"config_sha256={m['config_sha256']} seed={m['seed']}"


def _require_path(cfg: dict, key: str) -> str:
    paths = cfg.get("paths", {})
    if key not in paths or not paths[key]:
        raise ConfigError(f"config paths.{key} is required for this command")
    p = paths[key]
    if not os.path.exists(p):
        raise MissingArtifact(f"paths.{key} does not exist: {p}")
    return p


def _out_dir(cfg: dict) -> str:
    out = cfg.get("paths", {}).get("out_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _read_topology(cfg: dict):
    with open(_require_path(cfg, "topology")) as fh:
        return load_topology(fh.read())


def _load_bundle(cfg: dict, topo):
    """Topology + schemas + dataset shared by most commands."""
    schema_cfg = (SchemaConfig.from_document(cfg["schema"])
                  if cfg.get("schema") else SchemaConfig())
    schemas = derive_schemas(topo, schema_cfg)
    paths = [_require_path(cfg, "dataset")]
    if cfg.get("paths", {}).get("weather"):  # "" means none is given
        paths.append(_require_path(cfg, "weather"))
    dataset = gridsim.TimeSeriesDataset.read_csv(*paths)
    return topo, schema_cfg, schemas, dataset


def _split_dataset(cfg: dict, dataset, schemas):
    """(train slice, test slice with lag history). Test starts at
    data.test_start; without it the final 1/4 of the span is the test."""
    lag = lag_horizon(schemas)
    test_start = cfg.get("data", {}).get("test_start")
    if test_start:
        try:
            i_test = dataset.index_of(test_start)
        except KeyError:
            raise ConfigError(f"data.test_start {test_start} is off the "
                              "15-minute grid or outside the dataset span"
                              ) from None
    else:
        i_test = max(lag + 1, (dataset.n_steps * 3) // 4)
    if not lag < i_test <= dataset.n_steps:
        raise ConfigError("data.test_start outside the dataset span")
    train_ds = dataset.slice_steps(0, i_test)
    test_ds = (dataset.slice_steps(i_test - lag, dataset.n_steps)
               if i_test < dataset.n_steps else None)
    return train_ds, test_ds


def _train_model(model, cfg, topo, schemas, train_ds, verbose: bool = False):
    tcfg = TrainingConfig(**cfg["training"], seed=cfg["seed"])
    if tcfg.max_epochs == 0:
        raise ConfigError("training.max_epochs is 0: the model would be "
                          "written untrained")
    samples = build_samples(train_ds, topo, schemas, tcfg)
    train_set, val_set = chronological_split(samples)
    train_set = concat_sample_sets([train_set, masked_clones(
        train_set, voltage_lag0_selector(schemas, train_set.groups))])
    model.set_standardization(samples.stats.mean, samples.stats.std)
    result = train(model, train_set, val_set, tcfg)
    if verbose:
        for row in result.history:
            print(f"  epoch {row['epoch']:3d}  train {row['train_nll']:+.4f} "
                  f"val {row['val_nll']:+.4f}")
    return result, tcfg


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    if not (math.isfinite(args.days) and args.days > 0):
        print("error: --days must be positive and finite", file=sys.stderr)
        return EXIT_CONFIG
    if args.spec:
        if not os.path.exists(args.spec):
            raise MissingArtifact(f"spec file not found: {args.spec}")
        with open(args.spec) as fh:
            spec = gridsim.SyntheticGridSpec.from_json(fh.read())
    else:
        spec = gridsim.pilot_spec(seed=args.pilot_seed)
    dataset = gridsim.simulate(spec, args.start, args.days, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    meta = {"spec_sha256": hashlib.sha256(
        spec.to_json().encode()).hexdigest()[:16], "seed": args.seed}
    comment = f"spec_sha256={meta['spec_sha256']} seed={args.seed}"
    dataset.write_csv(os.path.join(args.out, "dataset.csv"), weather=False,
                      header_comment=comment)
    dataset.write_csv(os.path.join(args.out, "weather.csv"), weather=True,
                      header_comment=comment)
    with open(os.path.join(args.out, "topology.json"), "w") as fh:
        json.dump(spec.topology.to_document(), fh, sort_keys=True, indent=2)
    with open(os.path.join(args.out, "spec.json"), "w") as fh:
        fh.write(spec.to_json())
    n_sensor = len(dataset.ids(weather=False))
    n_wx = len(dataset.ids(weather=True))
    print(f"simulated {dataset.n_steps} timestamps for {n_sensor} sensors "
          f"(+{n_wx} weather series) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    topo, schema_cfg, schemas, dataset = _load_bundle(cfg, _read_topology(cfg))
    train_ds, _ = _split_dataset(cfg, dataset, schemas)
    model = GnnModel(topo, schemas, _gnn_config(cfg), schema_config=schema_cfg)
    model.init_parameters(seed=cfg.get("seed", 0))
    result, tcfg = _train_model(model, cfg, topo, schemas, train_ds,
                                verbose=args.verbose)
    out = _out_dir(cfg)
    ckpt = cfg.get("paths", {}).get("checkpoint") or os.path.join(
        out, "checkpoint.json")
    model.save_checkpoint(ckpt)
    write_history_csv(os.path.join(out, "history.csv"), result.history,
                      header_comment=_meta_comment(cfg))
    print(f"trained {model.count_parameters()} parameters; "
          f"best epoch {result.best_epoch} "
          f"(val NLL {result.best_val_nll:+.4f}); checkpoint -> {ckpt}")
    return EXIT_OK


def _load_served(cfg: dict):
    """The checkpoint's model, then the topology, schemas and dataset it
    serves. The schemas come from the config, and must be the ones the
    model was trained with: the first node whose schema differs is
    named."""
    topo = _read_topology(cfg)
    ckpt = cfg.get("paths", {}).get("checkpoint")
    if not ckpt:
        raise ConfigError("config paths.checkpoint is required")
    if not os.path.exists(ckpt):
        raise MissingArtifact(f"checkpoint not found: {ckpt}")
    model = GnnModel.load_checkpoint(ckpt, topo)
    _, _, schemas, dataset = _load_bundle(cfg, topo)
    for nid in topo.ids():
        for f in fields(NodeSchema):
            ours = getattr(schemas[nid], f.name)
            trained = getattr(model.schemas[nid], f.name)
            if ours != trained:
                raise ConfigError(
                    f"node {nid!r}: the config's schema has {f.name} "
                    f"{ours!r}, the checkpoint was trained with {trained!r}")
    return model, topo, schemas, dataset


def _test_samples(cfg, model, dataset, schemas, missing_rate: float = 0.0):
    _, test_ds = _split_dataset(cfg, dataset, schemas)
    if test_ds is None:
        raise ConfigError("dataset has no test range after data.test_start")
    tcfg = TrainingConfig(**cfg["training"], seed=cfg["seed"])
    return baselines.evaluation_samples(model, test_ds, schemas, tcfg,
                                        missing_rate), test_ds


def cmd_evaluate(args) -> int:
    if not 0.0 <= args.missing_rate < 1.0:  # NaN fails too
        raise ConfigError(f"--missing-rate must lie in [0, 1), "
                          f"not {args.missing_rate}")
    cfg = load_config(args.config)
    model, _, schemas, dataset = _load_served(cfg)
    samples, _ = _test_samples(cfg, model, dataset, schemas,
                               missing_rate=args.missing_rate)
    res = baselines.evaluate_voltage_prediction(model, samples, schemas)
    report = {**_meta(cfg), "missing_rate": args.missing_rate,
              "n_samples": len(samples), "n_predictions": res["n"],
              "mape_pct": res["mape"], "rmse": res["rmse"]}
    out = _out_dir(cfg)
    with open(os.path.join(out, "evaluation.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    print(f"voltage prediction on {len(samples)} test samples: "
          f"MAPE {res['mape']:.4f}%  RMSE {res['rmse']:.4f} V "
          f"(missing rate {args.missing_rate:g})")
    return EXIT_OK


def cmd_impute(args) -> int:
    cfg = load_config(args.config)
    model, _, schemas, dataset = _load_served(cfg)
    try:
        t_index = dataset.index_of(args.timestamp)
    except KeyError as e:
        raise ConfigError(str(e)) from e
    if t_index < lag_horizon(schemas):
        raise ConfigError("timestamp too early: lag features unavailable")
    raw, obs = gather_channels(dataset, model.groups, schemas,
                               np.array([t_index]))
    features = model.unpack({k: v[:, 0] for k, v in raw.items()})
    observed = model.unpack({k: v[:, 0] for k, v in obs.items()})
    for mask in args.mask:
        nid, _, name = mask.rpartition(":")
        if nid not in schemas:
            raise ConfigError(f"--mask {mask!r}: unknown node {nid!r}")
        index = schemas[nid].channel_index()
        if name not in index:
            raise ConfigError(f"--mask {mask!r}: node {nid!r} has no "
                              f"channel {name!r}")
        observed[nid][index[name]] = False
    result = impute(model, ImputationProblem(features=features,
                                             observed=observed))
    doc = result.report_document(schemas)
    doc.update(_meta(cfg))
    doc["timestamp"] = args.timestamp
    out = _out_dir(cfg)
    with open(os.path.join(out, "imputation.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
    n_filled = sum(1 for rec in doc["channels"].values()
                   if not rec["was_observed"])
    print(f"imputed {n_filled} channels in one forward")
    return EXIT_OK


def cmd_congest(args) -> int:
    cfg = load_config(args.config)
    model, topo, schemas, dataset = _load_served(cfg)
    svc = cfg["services"]
    node = svc["plot_node"]
    if node is not None and node not in topo.ids():
        raise ConfigError(f"config services.plot_node: no node {node!r}")
    if node is not None and not schemas[node].lag0_indices(VOLTAGE):
        raise ConfigError(f"config services.plot_node: node {node!r} has no "
                          "current-time voltage channel")
    samples, _ = _test_samples(cfg, model, dataset, schemas)
    events, plot_rows = services.scan_congestions(
        model, samples, schemas, threshold_v=svc["threshold_v"], z=svc["z"],
        direction=svc["direction"])
    out = _out_dir(cfg)
    services.write_jsonl(os.path.join(out, "events.jsonl"), events,
                         meta=_meta(cfg))
    rows = [r for r in plot_rows if node is None or r["node_id"] == node]
    services.write_plot_csv(os.path.join(out, "congestion_plot.csv"), rows,
                            header_comment=_meta_comment(cfg))
    print(f"{len(events)} congestion events over {len(samples)} samples "
          f"(threshold {svc['threshold_v']} V, z={svc['z']})")
    return EXIT_OK


def cmd_bid(args) -> int:
    cfg = load_config(args.config)
    model, _, schemas, dataset = _load_served(cfg)
    samples, test_ds = _test_samples(cfg, model, dataset, schemas)
    svc = cfg["services"]
    events, _ = services.scan_congestions(
        model, samples, schemas, threshold_v=svc["threshold_v"], z=svc["z"],
        direction=svc["direction"])
    by_ts: dict[int, list] = {}
    for ev in events:
        by_ts.setdefault(ev.timestamp, []).append(ev)
    ts_index = {int(t): i for i, t in enumerate(samples.timestamps)}
    bids = []
    for ts, evs in sorted(by_ts.items()):
        s = samples.sample(ts_index[ts])
        feats, obs = _physical_snapshot(model, s)
        bids.extend(services.estimate_bids(
            model, feats, obs, evs, target_voltage=svc["target_voltage"]))
    out = _out_dir(cfg)
    services.write_jsonl(os.path.join(out, "bids.jsonl"), bids, meta=_meta(cfg))
    print(f"{len(bids)} flexibility bids from {len(events)} events")
    return EXIT_OK


def _physical_snapshot(model, sample):
    """Sample (standardized) -> physical features + observed mask dicts."""
    feats, obs = {}, {}
    for nid in model.topology.ids():
        z = sample.features[nid]
        feats[nid] = z * model.std_std[nid] + model.std_mean[nid]
        obs[nid] = sample.input_mask[nid] > 0
    return feats, obs


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    topo, schema_cfg, schemas, dataset = _load_bundle(cfg, _read_topology(cfg))
    train_ds, _ = _split_dataset(cfg, dataset, schemas)
    bench = cfg["benchmark"]
    entries = []
    gnn_model: Optional[GnnModel] = None
    for kind in bench["models"]:
        if kind == "gnn":
            model = GnnModel(topo, schemas,
                             _gnn_config(cfg, layers=bench["layers"]),
                             schema_config=schema_cfg)
            model.init_parameters(seed=cfg.get("seed", 0))
            mp_steps = model.config.message_passing_steps
            gnn_model = model
        else:
            hidden = bench["mlp_hidden"] if kind == "mlp" else bench["ae_hidden"]
            model = baselines.build_baseline(
                kind, topo, schemas, layers=bench["layers"], hidden=hidden,
                seed=cfg.get("seed", 0))
            mp_steps = None
        result, tcfg = _train_model(model, cfg, topo, schemas, train_ds,
                                    verbose=args.verbose)
        entries.append((kind.upper(), model, bench["layers"], mp_steps))
        print(f"{kind}: {model.count_parameters()} parameters, "
              f"best val NLL {result.best_val_nll:+.4f}")

    samples, test_ds = _test_samples(cfg, entries[0][1], dataset, schemas)
    out = _out_dir(cfg)
    rows = baselines.compare(entries, samples, schemas,
                             csv_path=os.path.join(out, "comparison.csv"),
                             header_comment=_meta_comment(cfg))
    for r in rows:
        print(f"  {r.model:4s} layers={r.layers} params={r.params:>9d} "
              f"MAPE={r.mape:.4f}% RMSE={r.rmse:.4f}")
    if gnn_model is not None and bench.get("missing_rates"):
        baselines.missing_rate_sweep(
            gnn_model, test_ds, schemas, tcfg, bench["missing_rates"],
            csv_path=os.path.join(out, "missing_sweep.csv"),
            header_comment=_meta_comment(cfg))
    if gnn_model is not None:
        gnn_model.save_checkpoint(os.path.join(out, "checkpoint.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridmpnn",
        description="Probabilistic graph model pipeline for distribution grids")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--spec", help="synthetic grid spec JSON")
    sim.add_argument("--pilot-seed", type=int, default=7,
                     help="seed for the default pilot-shaped spec")
    sim.add_argument("--start", default="2019-06-01T00:00:00Z")
    sim.add_argument("--days", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    for name, fn in (("train", cmd_train), ("evaluate", cmd_evaluate),
                     ("impute", cmd_impute), ("congest", cmd_congest),
                     ("bid", cmd_bid), ("bench", cmd_bench)):
        c = sub.add_parser(name)
        c.add_argument("--config", required=True)
        c.add_argument("--verbose", action="store_true")
        if name == "evaluate":
            c.add_argument("--missing-rate", type=float, default=0.0)
        if name == "impute":
            c.add_argument("--timestamp", required=True)
            c.add_argument("--mask", action="append", default=[],
                           metavar="NODE:CHANNEL",
                           help="impute this channel as if unobserved "
                                "(repeatable)")
        c.set_defaults(func=fn)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as e:  # includes MissingArtifact
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (ConfigError, TopologyError, DatasetError, gridsim.SimulationError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
