"""Shared fixtures: a 3-node linear-Gaussian chain world (cheap) used by
training/imputation mechanics tests, and checkpoint fault injection."""

import json
from datetime import datetime, timezone

import numpy as np
import pytest

from gridmpnn import gridsim
from gridmpnn.gridgraph import NodeSchema, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel
from gridmpnn.training import (ChannelStats, TrainingConfig, build_samples,
                               chronological_split, concat_sample_sets,
                               masked_clones, train, voltage_lag0_selector)

# A checkpoint parameter record to drop, add or replace: (id, record), a
# None record drops the id. An id whose type has no q:p is completed
# with the q:p the checkpoint's node of that kind has. Every test
# topology has a global node with more than one channel, so its bias
# has more than one entry.
BAD_PARAMETERS = {
    "missing": ("type/prosumer/agg/L1/W", None),
    "unknown": ("type/storage:2:2/enc/L1/b",
                {"shape": [2], "values": [0.0, 0.0]}),
    # a bias of a shape numpy would broadcast in the forward
    "wrong_shape": ("type/global/dec_mu/L1/b", {"shape": [1], "values": [0.0]}),
}


def write_bad_checkpoint(src: str, dst: str, fault: str) -> str:
    """Copy checkpoint ``src`` to ``dst`` with the ``BAD_PARAMETERS``
    fault applied; returns the affected parameter id."""
    with open(src) as fh:
        doc = json.load(fh)
    pid, rec = BAD_PARAMETERS[fault]
    kind, rest = pid.split("/")[1], pid.split("/", 2)[2]
    if ":" not in kind:
        pid = next(p for p in doc["parameters"]
                   if p.startswith(f"type/{kind}:") and p.endswith(rest))
    if rec is None:
        del doc["parameters"][pid]
    else:
        assert rec["shape"] != doc["parameters"].get(pid, {}).get("shape")
        doc["parameters"][pid] = rec
    with open(dst, "w") as fh:
        json.dump(doc, fh)
    return pid


class CountingPool:
    """Stands in for ``diffcore``'s pool and counts the blocks sent to it."""

    def __init__(self, pool):
        self.pool, self.jobs = pool, 0

    def submit(self, fn, *args):
        self.jobs += 1
        return self.pool.submit(fn, *args)


CHAIN_COEFFS = [0.8, 0.8]
CHAIN_NOISE_VARS = [1.0, 0.36, 0.36]


def chain_topology():
    return load_topology({
        "nodes": [{"id": "g", "kind": "global"},
                  {"id": "s", "kind": "substation"},
                  {"id": "f", "kind": "feeder"}],
        "edges": [["g", "s"], ["s", "f"]]})


def chain_schemas():
    # the chain tail is voltage-like so augmentation teaches imputing it
    return {"g": NodeSchema("g", [("x", "energy")], [], [], p=1),
            "s": NodeSchema("s", [("x", "energy")], [], [], p=1),
            "f": NodeSchema("f", [("x", "voltage")], [], [], p=1)}


def chain_joint():
    return gridsim.linear_chain_model(CHAIN_COEFFS, CHAIN_NOISE_VARS,
                                      names=["g:x", "s:x", "f:x"])


def chain_dataset(n: int, seed: int = 0) -> gridsim.TimeSeriesDataset:
    joint = chain_joint()
    draws = joint.sample(n, seed=seed)
    ds = gridsim.TimeSeriesDataset(
        datetime(2019, 1, 1, tzinfo=timezone.utc), n)
    for j, name in enumerate(joint.names):
        ds.add_series(name, draws[:, j])
    return ds


def chain_samples(model, n: int, seed: int = 0):
    """Chain-world samples standardized with the model's statistics."""
    return build_samples(chain_dataset(n, seed=seed), chain_topology(),
                         chain_schemas(), TrainingConfig(),
                         stats=ChannelStats(model.std_mean, model.std_std))


def train_chain_model(n_samples: int, max_epochs: int, seed: int = 0,
                      lr: float = 0.02):
    """Linear (1-layer) graph model fitted to the chain distribution."""
    topo = chain_topology()
    schemas = chain_schemas()
    ds = chain_dataset(n_samples, seed=seed)
    cfg = TrainingConfig(learning_rate=lr, max_epochs=max_epochs,
                         batch_size=1000,
                         early_stopping_patience=15, seed=seed)
    samples = build_samples(ds, topo, schemas, cfg)
    train_set, val_set = chronological_split(samples)
    train_set = concat_sample_sets([train_set, masked_clones(
        train_set, voltage_lag0_selector(schemas, train_set.groups))])
    model = GnnModel(topo, schemas,
                     GnnConfig(layers=1, message_passing_steps=2))
    model.init_parameters(seed)
    model.set_standardization(samples.stats.mean, samples.stats.std)
    result = train(model, train_set, val_set, cfg)
    return model, result, samples


@pytest.fixture(scope="session")
def quick_chain_model():
    """Small, fast chain fit for mechanics tests (not accuracy claims)."""
    model, result, samples = train_chain_model(1500, max_epochs=40, seed=1)
    return model


@pytest.fixture(scope="session")
def pilot_world():
    """Pilot-shaped spec plus a short simulated span for structural tests."""
    spec = gridsim.pilot_spec(seed=7)
    dataset = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=4, seed=11)
    return spec, dataset


def two_kinds_world():
    """Small two-feeder world in which two kinds share each layer shape:
    global and substation q = p = 1, feeders and prosumers q = p = 2."""
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
    schemas = {
        "g": NodeSchema("g", [("load_p", "energy")], [], [], p=1),
        "s1": NodeSchema("s1", [("load_a", "energy")], [], [], p=1),
        "f1": NodeSchema("f1", [("load_p", "energy"), ("load_q", "energy")],
                         [], [], p=2),
        "f2": NodeSchema("f2", [("load_p", "energy"), ("load_q", "energy")],
                         [], [], p=2),
        "p1": NodeSchema("p1", [("voltage", "voltage"), ("energy", "energy")],
                         [], [], p=2),
        "p2": NodeSchema("p2", [("voltage", "voltage"), ("energy", "energy")],
                         [], [], p=2),
        "p3": NodeSchema("p3", [("voltage", "voltage"), ("energy", "energy")],
                         [], [], p=2),
    }
    return topo, schemas


@pytest.fixture(scope="session")
def quick_pilot_bid_world():
    """Small two-feeder world with congestion events for bid mechanics."""
    from gridmpnn.services import CongestionEvent, phi

    topo, schemas = two_kinds_world()
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=2))
    model.init_parameters(21)
    rng = np.random.default_rng(2)
    feats = {nid: rng.uniform(-1, 1, schemas[nid].q) for nid in topo.ids()}
    obs = {nid: np.ones(schemas[nid].q, dtype=bool) for nid in topo.ids()}
    events = [
        CongestionEvent("p1", "voltage", 900, 240.0, 242.0, 1.0, 2.0, phi(2.0)),
        CongestionEvent("p2", "voltage", 900, 240.0, 241.5, 1.0, 1.5, phi(1.5)),
        CongestionEvent("p3", "voltage", 900, 240.0, 243.0, 1.5, 2.0, phi(2.0)),
    ]
    return model, feats, obs, events
