"""The benchmark workloads over the pilot world.

Every workload simulates ``gridsim.pilot_spec(seed=7)`` from 2019-06-01,
keeps the last quarter of the span as the test window (with its lag
history, as ``gridmpnn evaluate`` does) and drives the library API, never
the ``gridmpnn`` command. ``train`` simulates its world from the
workload seed; ``serve`` serves one fixed world.

A workload has a ``setup()`` that builds its inputs and an ``op(i)``
that runs operation ``i`` of a fixed, seed-determined sequence and
returns an :class:`OpResult`. ``op`` times only the region under test;
its correctness checks run outside that region and raise
:class:`CheckFailed`.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from gridmpnn import baselines, gridsim, mpnn, services, training
from gridmpnn.gridgraph import SchemaConfig, derive_schemas

START = "2019-06-01T00:00:00Z"
PILOT_SPEC_SEED = 7
# Serve answers for one recorded history, the README walkthrough's
# simulation and model seeds, whatever the workload seed: imputation runs
# until the slowest sample of a batch converges, so the cost of serving a
# world swings by 12-28% from one simulated world to the next, more than
# any bound could absorb. Its workload seed orders the requests.
SERVED_WORLD_SEED = 11
FIXTURE_MODEL_SEED = 0
BATCH_SIZE = 512
BID_STRIDE = 5
BIDS_PER_OP = 16
# A two-epoch model scores about 1.3% on the 20-day world and a fully
# trained one 0.85%; a score above this means broken, not slow.
MAPE_SANITY_PCT = 5.0


class CheckFailed(AssertionError):
    """A workload produced a wrong output."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Scale:
    days: float  # simulated span
    epochs: int  # epochs of the train workload and of the fixture model
    threshold_v: float  # congestion threshold
    scan_z: float  # z of the congestion scan
    bid_z: float  # z that picks the bid requests


# Full size: 1,920 steps, 433 k CSV rows, 480 test samples. The scan runs
# the service's default test (240 V, z = 1). Bids are asked wherever the
# predicted mean exceeds 240 V (z = 0): at z = 1 the two-epoch fixture
# flags no congestion in the served world. The smoke scale is the
# smallest world with lag history and a test window; its lower threshold
# gives a weak model congestion to bid on.
FULL = Scale(days=20, epochs=2, threshold_v=240.0, scan_z=1.0, bid_z=0.0)
SMOKE = Scale(days=4, epochs=2, threshold_v=238.5, scan_z=0.0, bid_z=0.0)


@dataclass
class OpResult:
    wall: float  # seconds inside the timed region
    items: float  # work done: samples, bids or CSV rows
    latencies_ms: list[float]
    attempted: int
    failed: int = 0


@dataclass
class World:
    spec: gridsim.SyntheticGridSpec
    dataset: gridsim.TimeSeriesDataset
    schemas: dict
    train_ds: gridsim.TimeSeriesDataset
    test_ds: gridsim.TimeSeriesDataset

    @property
    def topology(self):
        return self.spec.topology


def make_world(scale: Scale, seed: int) -> World:
    spec = gridsim.pilot_spec(seed=PILOT_SPEC_SEED)
    dataset = gridsim.simulate(spec, START, scale.days, seed=seed)
    schemas = derive_schemas(spec.topology, SchemaConfig())
    return World(spec, dataset, schemas, *split_test_window(dataset, schemas))


def split_test_window(dataset, schemas):
    """(train slice, test slice with its lag history): the last quarter
    is the test window."""
    lag = max(lag for s in schemas.values() for lag in s.ar_lags)
    i_test = max(lag + 1, (dataset.n_steps * 3) // 4)
    return (dataset.slice_steps(0, i_test),
            dataset.slice_steps(i_test - lag, dataset.n_steps))


def load_through_csv(world: World, workdir: str) -> World:
    """Write the world's CSVs and parse them back, as ``gridmpnn
    simulate`` and every later command do."""
    paths = [os.path.join(workdir, "dataset.csv"),
             os.path.join(workdir, "weather.csv")]
    world.dataset.write_csv(paths[0], weather=False)
    world.dataset.write_csv(paths[1], weather=True)
    parsed = gridsim.TimeSeriesDataset.read_csv(*paths)
    return World(world.spec, parsed, world.schemas,
                 *split_test_window(parsed, world.schemas))


def check_parsed(parsed: gridsim.TimeSeriesDataset,
                 simulated: gridsim.TimeSeriesDataset) -> None:
    """The parsed dataset equals the simulated one at the CSV's 10
    significant digits, with the same missing flags."""
    check(parsed.start == simulated.start
          and parsed.n_steps == simulated.n_steps
          and set(parsed.series) == set(simulated.series),
          "parsed dataset has another grid or sensor set")
    for sid, vals in simulated.series.items():
        want = np.array([float(format(v, ".10g")) for v in vals])
        check(np.array_equal(parsed.series[sid], want),
              f"parsed values of {sid} differ from the simulation")
        check(np.array_equal(parsed.missing[sid], simulated.missing[sid]),
              f"parsed missing flags of {sid} differ")


def train_config(scale: Scale, seed: int) -> training.TrainingConfig:
    """Batch 512 and a fixed epoch count, with patience above it so
    early stopping never fires."""
    return training.TrainingConfig(batch_size=BATCH_SIZE,
                                   max_epochs=scale.epochs,
                                   early_stopping_patience=scale.epochs + 1,
                                   seed=seed)


def assemble_training_sets(world: World, cfg: training.TrainingConfig):
    """build_samples -> chronological_split -> voltage-mask augmentation."""
    samples = training.build_samples(world.train_ds, world.topology,
                                     world.schemas, cfg)
    train_set, val_set = training.chronological_split(samples)
    clones = training.masked_clones(
        train_set, training.voltage_lag0_selector(world.schemas,
                                                  train_set.groups))
    return samples, training.concat_sample_sets([train_set, clones]), val_set


def new_model(world: World, samples, seed: int) -> mpnn.GnnModel:
    model = mpnn.GnnModel(world.topology, world.schemas, mpnn.GnnConfig(),
                          schema_config=SchemaConfig())
    model.init_parameters(seed)
    model.set_standardization(samples.stats.mean, samples.stats.std)
    return model


def fixture_model(world: World, scale: Scale, workdir: str) -> mpnn.GnnModel:
    """The train recipe at a fixed depth, then the checkpoint round trip
    every ``gridmpnn`` serving command starts from."""
    cfg = train_config(scale, FIXTURE_MODEL_SEED)
    samples, train_set, val_set = assemble_training_sets(world, cfg)
    model = new_model(world, samples, FIXTURE_MODEL_SEED)
    training.train(model, train_set, val_set, cfg)
    path = os.path.join(workdir, "checkpoint.json")
    model.save_checkpoint(path)
    return mpnn.GnnModel.load_checkpoint(path, world.topology)


def served(scale: Scale, workdir: str):
    """The served world, its fixture model and its test samples."""
    world = make_world(scale, SERVED_WORLD_SEED)
    model = fixture_model(world, scale, workdir)
    return world, model, build_test_samples(world, model)


def build_test_samples(world: World, model: mpnn.GnnModel):
    """The test window standardized with the model's statistics."""
    stats = training.ChannelStats(model.std_mean, model.std_std)
    return training.build_samples(world.test_ds, world.topology,
                                  world.schemas,
                                  training.TrainingConfig(), stats=stats)


@contextmanager
def step_clock(marks: list[float]):
    """Record the start and end of every Adam step of ``training.train``:
    a step starts when the loop creates its tape and ends when
    ``adam_step`` returns, so it covers forward, loss, backward and
    update."""
    tape_cls, adam = training.Tape, training.adam_step

    class ClockedTape(tape_cls):
        def __init__(self, *args, **kwargs):
            marks.append(time.perf_counter())
            super().__init__(*args, **kwargs)

    def clocked_adam(*args, **kwargs):
        adam(*args, **kwargs)
        marks.append(time.perf_counter())

    training.Tape, training.adam_step = ClockedTape, clocked_adam
    try:
        yield
    finally:
        training.Tape, training.adam_step = tape_cls, adam


class Workload:
    name = ""
    # workload-specific names of the end-to-end metrics
    aliases: dict[str, str] = {}

    def __init__(self, scale: Scale, seed: int, workdir: str):
        self.scale, self.seed, self.workdir = scale, seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, check_outputs: bool) -> OpResult:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks on what set-up built; they run outside the timing."""

    def extras(self) -> dict[str, tuple[float, str]]:
        """Figures reported beside the metrics, never gated."""
        return {}


class Train(Workload):
    """One op is the whole recipe: assemble and augment the samples, then
    train a fresh model for the fixed number of epochs."""

    name = "train"
    aliases = {"items_per_s": "train_samples_per_s",
               "op_ms_p50": "train_step_ms_p50"}

    def setup(self) -> None:
        self.simulated = make_world(self.scale, self.seed)
        self.world = load_through_csv(self.simulated, self.workdir)

    def check_setup(self) -> None:
        check_parsed(self.world.dataset, self.simulated.dataset)

    def op(self, i: int, check_outputs: bool) -> OpResult:
        cfg = train_config(self.scale, self.seed)
        t0 = time.perf_counter()
        samples, train_set, val_set = assemble_training_sets(self.world, cfg)
        model = new_model(self.world, samples, self.seed)
        wall = time.perf_counter() - t0
        initial_nll = (training.evaluate_nll(model, val_set)
                       if check_outputs else None)
        marks: list[float] = []
        t1 = time.perf_counter()
        with step_clock(marks) if check_outputs else nullcontext():
            result = training.train(model, train_set, val_set, cfg)
        wall += time.perf_counter() - t1
        steps = self.scale.epochs * math.ceil(len(train_set) / BATCH_SIZE)
        step_ms = [1e3 * (b - a) for a, b in zip(marks[0::2], marks[1::2])]
        if check_outputs:
            check(len(step_ms) == steps,
                  f"train ran {len(step_ms)} Adam steps, expected {steps}")
            check(len(result.history) == self.scale.epochs,
                  "early stopping fired")
            check(all(math.isfinite(h["train_nll"]) for h in result.history),
                  "non-finite training loss")
            check(result.history[-1]["val_nll"] < initial_nll,
                  f"validation NLL {result.history[-1]['val_nll']:.4f} not "
                  f"below its initial {initial_nll:.4f}")
        return OpResult(wall, len(train_set) * self.scale.epochs, step_ms,
                        attempted=steps)


class Serve(Workload):
    """One op serves the test window as ``gridmpnn evaluate``, ``congest``
    and ``bid`` do: evaluate + congest over the whole window as one batch,
    its samples in the order the seed shuffles, then a closed loop of
    ``BIDS_PER_OP`` single bid requests, each for one congested feeder at
    one timestamp. ``estimate_bids`` bids per (feeder, timestamp) from
    that feeder's events alone, so asking per feeder gives the bids
    ``gridmpnn bid`` gets per timestamp. The request pool is every fifth
    request in time order, spread over every hour of the window; the seed
    shuffles it."""

    name = "serve"
    aliases = {"items_per_s": "served_samples_per_s",
               "op_ms_p50": "serve_pass_ms_p50"}

    def setup(self) -> None:
        self.world, self.model, samples = served(self.scale, self.workdir)
        events, _ = services.scan_congestions(
            self.model, samples, self.world.schemas,
            threshold_v=self.scale.threshold_v, z=self.scale.bid_z)
        groups: dict[tuple[int, str], list] = {}
        for e in events:
            key = (e.timestamp, self.world.topology.parent[e.node_id])
            groups.setdefault(key, []).append(e)
        check(bool(groups), "the scan flagged no congestion to bid on")
        column = {int(t): i for i, t in enumerate(samples.timestamps)}
        snapshots = {ts: physical_snapshot(self.model,
                                           samples.sample(column[ts]))
                     for ts in sorted({ts for ts, _ in groups})}
        pool = [(ts, evs) + snapshots[ts]
                for (ts, _), evs in sorted(groups.items())][::BID_STRIDE]
        rng = np.random.default_rng(self.seed)
        self.requests = [pool[k] for k in rng.permutation(len(pool))]
        self.samples = samples.select(rng.permutation(len(samples)))
        self.mape = math.nan
        self.scan_ms: list[float] = []
        self.bid_ms: list[float] = []
        self.answered: dict[tuple[int, str], tuple] = {}

    def op(self, i: int, check_outputs: bool) -> OpResult:
        schemas, samples = self.world.schemas, self.samples
        t0 = time.perf_counter()
        ev = baselines.evaluate_voltage_prediction(self.model, samples,
                                                   schemas)
        events, rows = services.scan_congestions(
            self.model, samples, schemas,
            threshold_v=self.scale.threshold_v, z=self.scale.scan_z)
        scan_s = time.perf_counter() - t0
        bid_s, answered = [], []
        for j in range(BIDS_PER_OP):
            ts, evs, feats, obs = self.requests[
                (i * BIDS_PER_OP + j) % len(self.requests)]
            t1 = time.perf_counter()
            bids = services.estimate_bids(self.model, feats, obs, evs)
            bid_s.append(time.perf_counter() - t1)
            answered.append((ts, evs, bids))
        wall = time.perf_counter() - t0
        if check_outputs:
            self.mape = ev["mape"]
            self.scan_ms.append(1e3 * scan_s)
            self.bid_ms += [1e3 * x for x in bid_s]
            self._check_scan(ev, events, rows)
            for ts, evs, bids in answered:
                self._check_bid(ts, evs, bids)
                self.answered[(ts, bids[0].feeder_id)] = (bids[0], evs)
        n = len(samples)
        # every sample has its voltages masked, so first_hit 0 means the
        # sample did not converge
        unconverged = int((ev["iterations"] == 0).sum())
        low = sum(b.low_confidence for _, _, bids in answered for b in bids)
        return OpResult(wall, n, [1e3 * wall], attempted=n + BIDS_PER_OP,
                        failed=unconverged + low)

    def _check_scan(self, ev, events, rows) -> None:
        check(all(e.z_score >= self.scale.scan_z for e in events),
              "an event's z-score is below z")
        check(math.isfinite(ev["mape"]) and ev["mape"] < MAPE_SANITY_PCT,
              f"voltage MAPE {ev['mape']}% is not below {MAPE_SANITY_PCT}%")
        scores = scores_from_plot_rows(self.model, self.samples,
                                       self.world.schemas, rows)
        check(scores == (ev["mape"], ev["rmse"], ev["n"]),
              "scan's predicted mu does not reproduce evaluate's "
              f"MAPE/RMSE/count: {scores} against "
              f"{(ev['mape'], ev['rmse'], ev['n'])}")

    def _check_bid(self, ts, evs, bids) -> None:
        feeder = self.world.topology.parent[evs[0].node_id]
        check(len(bids) == 1 and bids[0].feeder_id == feeder
              and bids[0].timestamp == ts,
              f"not one bid for feeder {feeder} at {ts}")
        check(math.isfinite(bids[0].delta),
              f"bid {feeder}@{ts} is not finite")
        check(set(bids[0].event_ids) == {e.event_id for e in evs},
              f"bid {feeder}@{ts} is not linked to its events")

    def extras(self) -> dict[str, tuple[float, str]]:
        return {"voltage_mape_pct": (self.mape, "%"),
                "bid_right_sign_share": (self.right_sign_share(), "ratio"),
                "scan_ms_p50": (float(np.median(self.scan_ms)), "ms"),
                "bid_latency_ms_p50": (float(np.median(self.bid_ms)), "ms"),
                "bid_latency_ms_p90": (float(np.percentile(self.bid_ms, 90)),
                                       "ms")}

    def right_sign_share(self) -> float:
        """Share of (bid, event) pairs where replaying the bid's delta
        through the simulator's physics lowers the flagged node's voltage.
        Reported, never gated: bids fail this today."""
        spec, ds = self.world.spec, self.world.dataset
        t0 = int(ds.start.timestamp())
        right = pairs = 0
        base: dict[int, dict] = {}
        for (ts, feeder), (bid, evs) in self.answered.items():
            t = (ts - t0) // 900
            if t not in base:
                base[t] = gridsim.replay_feeder_delta(spec, ds, t, {})
            moved = gridsim.replay_feeder_delta(spec, ds, t,
                                                {feeder: bid.delta})
            for e in evs:
                pairs += 1
                right += moved[e.node_id] < base[t][e.node_id]
        return right / max(pairs, 1)

def scores_from_plot_rows(model, samples, schemas, rows):
    """MAPE, RMSE and count of scan's mu, laid out in the element order
    ``evaluate_voltage_prediction`` scores in. Equal mu on every masked
    voltage gives bit-identical scores."""
    sel = training.voltage_lag0_selector(schemas, samples.groups)
    where = {}
    for g in samples.groups:
        for j, nid in enumerate(g.node_ids):
            for c, ch in enumerate(schemas[nid].channels()):
                if sel[g.key][j, c]:
                    where[(nid, ch.name)] = (g.key, j, c)
    column = {int(t): i for i, t in enumerate(samples.timestamps)}
    pred = {g.key: np.full(samples.targets[g.key].shape, np.nan)
            for g in samples.groups}
    for r in rows:
        key, j, c = where[(r["node_id"], r["phase"])]
        pred[key][j, column[r["timestamp"]], c] = r["mu"]
    actual_all, pred_all = [], []
    for g in samples.groups:
        flags = sel[g.key]
        if not flags.any():
            continue
        known = samples.loss_mask[g.key] > 0
        use = np.broadcast_to(flags[:, None, :], known.shape) & known
        std = np.stack([model.std_std[nid] for nid in g.node_ids])[:, None, :]
        mean = np.stack([model.std_mean[nid] for nid in g.node_ids])[:, None, :]
        actual_all.append((samples.targets[g.key] * std + mean)[use])
        pred_all.append(pred[g.key][use])
    actual, pred_v = np.concatenate(actual_all), np.concatenate(pred_all)
    m, n, _ = baselines.mape_with_counts(actual, pred_v)
    return m, baselines.rmse(actual, pred_v), n


def physical_snapshot(model, sample):
    """Standardized sample -> physical features and observed flags, as
    ``gridmpnn bid`` feeds ``estimate_bids``."""
    feats, obs = {}, {}
    for nid in model.topology.ids():
        feats[nid] = sample.features[nid] * model.std_std[nid] + model.std_mean[nid]
        obs[nid] = sample.input_mask[nid] > 0
    return feats, obs


WORKLOADS = {cls.name: cls for cls in (Train, Serve)}
