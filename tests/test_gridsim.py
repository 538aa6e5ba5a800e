"""Simulator tests: voltage-drop arithmetic, linearity/superposition,
seeded determinism, missingness injection, and the exact Gaussian
conditioning oracle (checked against grid quadrature)."""

import csv
import re
from datetime import datetime, timezone

import numpy as np
import pytest

from gridmpnn import gridsim
from gridmpnn.gridgraph import load_topology


def one_prosumer_spec(r_lateral=0.5, x_lateral=0.0, v0=240.0):
    topo = load_topology({
        "nodes": [{"id": "g", "kind": "global"},
                  {"id": "s", "kind": "substation"},
                  {"id": "f", "kind": "feeder"},
                  {"id": "p", "kind": "prosumer"}],
        "edges": [["g", "s"], ["s", "f"], ["f", "p"]]})
    lines = {("g", "s"): {"r": 0.0, "x": 0.0},
             ("s", "f"): {"r": 0.0, "x": 0.0},
             ("f", "p"): {"r": r_lateral, "x": x_lateral}}
    noise = {k: 0.0 for k in gridsim.DEFAULT_NOISE}
    return gridsim.SyntheticGridSpec(topology=topo, v0=v0, q_ratio=0.0,
                                     lines=lines, noise=noise)


def test_single_line_voltage_drop_value():
    spec = one_prosumer_spec()
    v = gridsim.voltage_profile(spec, {"p": 0.48})  # 480 W through 0.5 ohm
    assert v["p"] == pytest.approx(239.0, abs=1e-12)


def test_pv_export_raises_voltage():
    spec = one_prosumer_spec()
    v = gridsim.voltage_profile(spec, {"p": -0.48})
    assert v["p"] == pytest.approx(241.0, abs=1e-12)


def test_zero_load_zero_noise_gives_source_voltage_everywhere():
    spec = gridsim.pilot_spec(seed=1)
    spec.noise = {k: 0.0 for k in spec.noise}
    for pid in spec.prosumers:
        spec.prosumers[pid] = {"base_kw": 0.0, "morning_kw": 0.0,
                               "evening_kw": 0.0, "pv_kw": 0.0,
                               "weekend_factor": 1.0}
    for fid in spec.feeders:
        spec.feeders[fid] = {"unmetered_base_kw": 0.0,
                             "unmetered_evening_kw": 0.0}
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    for pid in spec.topology.ids("prosumer"):
        node = spec.topology.node(pid)
        names = (["voltage"] if node.phases == 1
                 else ["voltage_a", "voltage_b", "voltage_c"])
        for name in names:
            v = ds.series[f"{pid}:{name}"]
            if node.phases == 1:
                assert np.allclose(v, spec.v0, atol=1e-9)
            else:  # three-phase channels carry correlated offsets only
                assert np.allclose(v, spec.v0, atol=2.0)


def test_voltage_drop_is_linear_in_load():
    spec = gridsim.pilot_spec(seed=3)
    rng = np.random.default_rng(0)
    loads = {pid: float(rng.uniform(-3, 3))
             for pid in spec.topology.ids("prosumer")}
    v1 = gridsim.voltage_profile(spec, loads)
    v2 = gridsim.voltage_profile(spec, {k: 2 * v for k, v in loads.items()})
    for pid in loads:
        assert (spec.v0 - v2[pid]) == pytest.approx(2 * (spec.v0 - v1[pid]),
                                                    rel=1e-9, abs=1e-12)


def test_voltage_superposition():
    spec = gridsim.pilot_spec(seed=3)
    rng = np.random.default_rng(1)
    ids = spec.topology.ids("prosumer")
    la = {pid: float(rng.uniform(0, 2)) for pid in ids}
    lb = {pid: float(rng.uniform(-2, 0)) for pid in ids}
    va = gridsim.voltage_profile(spec, la)
    vb = gridsim.voltage_profile(spec, lb)
    vab = gridsim.voltage_profile(spec, {k: la[k] + lb[k] for k in ids})
    for pid in ids:
        drop = (spec.v0 - va[pid]) + (spec.v0 - vb[pid])
        assert (spec.v0 - vab[pid]) == pytest.approx(drop, rel=1e-9, abs=1e-12)


def test_increasing_load_never_raises_any_voltage():
    spec = gridsim.pilot_spec(seed=5)
    rng = np.random.default_rng(2)
    ids = spec.topology.ids("prosumer")
    base = {pid: float(rng.uniform(-2, 2)) for pid in ids}
    v0 = gridsim.voltage_profile(spec, base)
    for bump_node in ids[:6]:
        bumped = dict(base)
        bumped[bump_node] += 1.5
        v1 = gridsim.voltage_profile(spec, bumped)
        assert all(v1[pid] <= v0[pid] + 1e-12 for pid in ids)


def test_simulation_is_deterministic_per_seed():
    spec = gridsim.pilot_spec(seed=7)
    a = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=4)
    b = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=4)
    c = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=5)
    assert a.equals(b)
    assert not a.equals(c)


def test_simulated_series_naming_and_counts():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    assert len(ds.ids(weather=False)) == 181  # 42+42+50+45+2 sensor series
    assert len(ds.ids(weather=True)) == 45    # 15 substations x 3
    assert "p1:voltage" in ds.series
    assert "p4:voltage_b" in ds.series
    assert "f1:load_p" in ds.series
    assert "s1:load_c" in ds.series
    assert "wx:s1:irradiance" in ds.series
    assert "grid:load_p" in ds.series
    assert np.all(ds.series["wx:s1:irradiance"] >= 0.0)


def test_simulate_rejects_too_short_duration():
    spec = gridsim.pilot_spec(seed=7)
    with pytest.raises(gridsim.SimulationError, match="lag horizon"):
        gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=1, seed=0)


def test_replay_feeder_delta_moves_voltage_down():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    t = 150
    v_base = gridsim.replay_feeder_delta(spec, ds, t, {})
    v_more = gridsim.replay_feeder_delta(spec, ds, t, {"f1": 2.0})  # +8 kW
    children = set(spec.topology.children["f1"])
    for pid in spec.topology.ids("prosumer"):
        if pid in children:
            assert v_more[pid] < v_base[pid]


def test_noise_free_replay_reproduces_the_simulated_voltages():
    # the replay re-solves a step from the recorded loads, so without
    # measurement noise it must land on the voltages the simulator wrote
    spec = gridsim.pilot_spec(seed=7)
    spec.noise = dict.fromkeys(spec.noise, 0.0)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    single = [pid for pid in spec.topology.ids("prosumer")
              if spec.topology.node(pid).phases == 1]
    assert single
    for t in (0, 150, ds.n_steps - 1):
        v = gridsim.replay_feeder_delta(spec, ds, t, {})
        for pid in single:
            assert abs(v[pid] - ds.series[f"{pid}:voltage"][t]) <= 1e-9, (t, pid)


# ---------------------------------------------------------------------------
# Missingness injection


def _flag_count(ds):
    return sum(int(m.sum()) for m in ds.missing.values())


def test_inject_missing_rate_zero_unchanged():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    out = gridsim.inject_missing(ds, 0.0, seed=1)
    assert out.equals(ds)


def test_inject_missing_exact_count():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    total = ds.n_points()
    assert total == len(ds.series) * 240
    for rate in (0.10, 0.37):
        out = gridsim.inject_missing(ds, rate, seed=3)
        assert _flag_count(out) == int(rate * total)
    assert _flag_count(ds) == 0  # original untouched


def test_inject_missing_deterministic_per_seed():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    a = gridsim.inject_missing(ds, 0.05, seed=9)
    b = gridsim.inject_missing(ds, 0.05, seed=9)
    c = gridsim.inject_missing(ds, 0.05, seed=10)
    assert a.equals(b)
    assert not a.equals(c)


def test_inject_missing_rejects_rate_one():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    with pytest.raises(ValueError):
        gridsim.inject_missing(ds, 1.0)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("rate", [0.01, 0.1, 0.37])
def test_inject_missing_random_flags_the_points_of_the_pointwise_loop(
        seed, rate):
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    ds = gridsim.inject_missing(ds, 0.05, seed=1)
    out = gridsim.inject_missing(ds, rate, seed=seed)
    # Reference: the one-point-at-a-time loop over rng.choice.
    ref = ds.copy()
    sids = sorted(ref.series)
    n_per = ref.n_steps
    total = len(sids) * n_per
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD15C0]))
    for ix in rng.choice(total, size=int(rate * total), replace=False):
        ref.missing[sids[ix // n_per]][ix % n_per] = True
    assert out.equals(ref)


def test_dataset_csv_roundtrip():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    ds = gridsim.inject_missing(ds, 0.02, seed=1)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "dataset.csv")
        p2 = os.path.join(d, "weather.csv")
        ds.write_csv(p1, weather=False, header_comment="test")
        ds.write_csv(p2, weather=True)
        back = gridsim.TimeSeriesDataset.read_csv(p1, p2)
    assert back.n_steps == ds.n_steps
    assert set(back.series) == set(ds.series)
    for sid in ds.series:
        want = np.array([float(format(v, ".10g")) for v in ds.series[sid]])
        assert np.array_equal(back.series[sid], want)
        assert np.array_equal(back.missing[sid], ds.missing[sid])


def _write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("timestamp,sensor_id,value,quality\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def test_csv_duplicate_row_rejected(tmp_path):
    path = str(tmp_path / "dataset.csv")
    _write_rows(path, [("2019-06-01T00:00:00Z", "p1:voltage", "239.1", "ok"),
                       ("2019-06-01T00:15:00Z", "p1:voltage", "239.4", "ok"),
                       ("2019-06-01T00:00:00Z", "p2:voltage", "238.0", "ok"),
                       ("2019-06-01T00:15:00Z", "p1:voltage", "240.2", "ok")])
    with pytest.raises(gridsim.SimulationError,
                       match=r"'p1:voltage'.*duplicate.*2019-06-01T00:15:00Z"):
        gridsim.TimeSeriesDataset.read_csv(path)


def test_csv_duplicate_across_files_rejected(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    _write_rows(a, [("2019-06-01T00:00:00Z", "wx:s1:temperature", "18", "ok")])
    _write_rows(b, [("2019-06-01T00:00:00Z", "wx:s1:temperature", "19", "ok")])
    with pytest.raises(gridsim.SimulationError, match="duplicate"):
        gridsim.TimeSeriesDataset.read_csv(a, b)


def test_csv_off_grid_timestamp_rejected(tmp_path):
    path = str(tmp_path / "dataset.csv")
    _write_rows(path, [("2019-06-01T00:00:00Z", "p1:voltage", "239.1", "ok"),
                       ("2019-06-01T00:15:00Z", "p1:voltage", "239.4", "ok"),
                       ("2019-06-01T00:37:00Z", "p2:voltage", "238.0", "ok")])
    with pytest.raises(gridsim.SimulationError,
                       match=r"'p2:voltage'.*2019-06-01T00:37:00Z.*off"):
        gridsim.TimeSeriesDataset.read_csv(path)


def test_csv_gap_reads_as_missing(tmp_path):
    path = str(tmp_path / "dataset.csv")
    _write_rows(path, [("2019-06-01T00:30:00Z", "p1:voltage", "239.4", "ok"),
                       ("2019-06-01T00:00:00Z", "p1:voltage", "239.1", "ok"),
                       ("2019-06-01T00:15:00Z", "p2:voltage", "238.0",
                        "missing")])
    ds = gridsim.TimeSeriesDataset.read_csv(path)
    assert ds.n_steps == 3
    assert np.array_equal(ds.series["p1:voltage"], [239.1, 0.0, 239.4])
    assert np.array_equal(ds.missing["p1:voltage"], [False, True, False])
    assert np.array_equal(ds.missing["p2:voltage"], [True, True, True])


def _reference_write(ds, path, weather=None, header_comment=None):
    """Row-by-row csv.writer output, the reference for write_csv."""
    stamps = ds.timestamps()
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh)
        w.writerow(["timestamp", "sensor_id", "value", "quality"])
        for sid in sorted(ds.ids(weather)):
            for i in range(ds.n_steps):
                w.writerow([stamps[i], sid, format(ds.series[sid][i], ".10g"),
                            "missing" if ds.missing[sid][i] else "ok"])


def _reference_read(*paths):
    """Row-by-row csv.reader parse, the reference for read_csv."""
    rows = {}
    for path in paths:
        with open(path, newline="") as fh:
            r = csv.reader(ln for ln in fh if not ln.startswith("#"))
            next(r)  # header
            for ts, sid, val, quality in r:
                sec = int(gridsim.parse_timestamp(ts).timestamp())
                rows.setdefault(sid, []).append(
                    (sec, float(val), quality == "missing"))
    secs = [sec for recs in rows.values() for sec, _, _ in recs]
    t0 = min(secs)
    n = (max(secs) - t0) // 900 + 1
    ds = gridsim.TimeSeriesDataset(
        datetime.fromtimestamp(t0, tz=timezone.utc), n)
    for sid, recs in rows.items():
        v, m = np.zeros(n), np.ones(n, dtype=bool)
        for sec, val, miss in recs:
            v[(sec - t0) // 900], m[(sec - t0) // 900] = val, miss
        ds.add_series(sid, v, m)
    return ds


def _assert_same_dataset(got, want):
    assert list(got.series) == list(want.series)  # first-appearance order
    assert got.equals(want)


def _odd_dataset():
    """A small dataset whose ids need quoting or hold % signs, and whose
    values span the formats .10g produces."""
    start = datetime(2019, 6, 1, tzinfo=timezone.utc)
    ds = gridsim.TimeSeriesDataset(start, 4)
    ds.add_series("p1:voltage", [239.123456789012, 240.0, 1e-300, 2.5e21])
    ds.add_series('odd,id "x"', [-0.0, -1.25, 3.0, np.nan],
                  missing=[False, True, False, True])
    ds.add_series("wx:s1:temperature", [18.0, -3.5, 0.1, 1 / 3])
    ds.add_series("f1:load %s 100%", [1.0, 2.0, 3.0, 4.0],
                  missing=[True, True, False, False])
    return ds


def _simulated_dataset():
    spec = gridsim.pilot_spec(seed=7)
    ds = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=2.5, seed=0)
    return gridsim.inject_missing(ds, 0.02, seed=1)


@pytest.mark.parametrize("make", [_odd_dataset, _simulated_dataset],
                         ids=["odd", "simulated"])
@pytest.mark.parametrize("weather", [None, False, True])
def test_write_csv_bytes_equal_csv_writer(tmp_path, make, weather):
    ds = make()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    ds.write_csv(str(got), weather=weather, header_comment="seed=1")
    _reference_write(ds, str(want), weather=weather, header_comment="seed=1")
    assert got.read_bytes() == want.read_bytes()
    ds.write_csv(str(got), weather=weather)
    _reference_write(ds, str(want), weather=weather)
    assert got.read_bytes() == want.read_bytes()


_UNORDERED_ROWS = (
    "# made by hand\n"
    "timestamp,sensor_id,value,quality\n"
    "2019-06-01T00:30:00Z,p1:voltage,239.4,ok\n"
    '2019-06-01T00:00:00Z,"odd,id ""x""",1.5,missing\n'
    "# a comment between rows\n"
    "2019-06-01T01:00:00Z,f1:load_p,-0.25,ok\n"
    "2019-06-01T00:00:00Z,p1:voltage,239.1,ok\n"
    "2019-06-01T00:45:00Z,\"odd,id \"\"x\"\"\",2e-3,ok\n"
    "2019-06-01T00:15:00Z,f1:load_p,0.5,missing\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_csv_equals_csv_reader(tmp_path, newline):
    path = tmp_path / "dataset.csv"
    path.write_bytes(_UNORDERED_ROWS.replace("\n", newline).encode())
    got = gridsim.TimeSeriesDataset.read_csv(str(path))
    _assert_same_dataset(got, _reference_read(str(path)))
    assert list(got.series) == ["p1:voltage", 'odd,id "x"', "f1:load_p"]
    assert got.n_steps == 5  # 00:00 .. 01:00, gaps read as missing
    assert np.array_equal(got.missing["p1:voltage"],
                          [False, True, False, True, True])


def test_read_csv_of_written_files_equals_csv_reader(tmp_path):
    ds = _simulated_dataset()
    ds.add_series('odd,id "x"', np.linspace(-1.0, 1.0, ds.n_steps))
    paths = [str(tmp_path / "dataset.csv"), str(tmp_path / "weather.csv")]
    ds.write_csv(paths[0], weather=False, header_comment="test")
    ds.write_csv(paths[1], weather=True)
    _assert_same_dataset(gridsim.TimeSeriesDataset.read_csv(*paths),
                         _reference_read(*paths))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_csv_block_edges_change_nothing(tmp_path, monkeypatch, newline):
    ds = _simulated_dataset().slice_steps(10, 16)  # after the hand-made rows
    ds.add_series('odd,id "x"', np.arange(6.0))
    written = tmp_path / "written.csv"
    ds.write_csv(str(written), header_comment="x" * 150)  # spans blocks
    text = (_UNORDERED_ROWS  # read_text turns CRLF into LF
            + written.read_text().replace("timestamp,", "# timestamp,", 1)
            + "# last line, no newline after it\n"
            + "2019-06-01T01:15:00Z,f1:load_p,7,ok")
    path = tmp_path / "dataset.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    default = gridsim.TimeSeriesDataset.read_csv(str(path))
    _assert_same_dataset(default, _reference_read(str(path)))
    for block in (64, 7, 1):
        monkeypatch.setattr(gridsim, "CSV_BLOCK_CHARS", block)
        _assert_same_dataset(gridsim.TimeSeriesDataset.read_csv(str(path)),
                             default)


@pytest.mark.parametrize("block", [1 << 20, 64, 16])
@pytest.mark.parametrize("rows, message", [
    ("2019-06-01T00:15:00Z,p1:voltage,239.4", "expected 4 fields.*found 3"),
    ("2019-06-01T00:15:00Z,p1:voltage,239.4,ok,9", "expected 4.*found 5"),
    ("", "expected 4.*found 0"),
    # A short row then a long one: field counts that only add up to 4s.
    ("2019-06-01T00:15:00Z,p1:voltage,239.4\n"
     "ok,2019-06-01T00:45:00Z,p1:voltage,239.0,ok", "expected 4.*found 3"),
    ('2019-06-01T00:15:00Z,"p1:voltage",239.4', "expected 4.*found 3"),
    # Sensor ids cannot hold line breaks.
    ('2019-06-01T00:15:00Z,"p1:\nvoltage",239.4,ok', "expected 4.*found 2"),
    ("2019-06-01T00:15:00Z,p1:voltage,high,ok", "bad value 'high'"),
    ("2019-06-31T00:15:00Z,p1:voltage,239.4,ok",
     "bad timestamp '2019-06-31T00:15:00Z'"),
    ("2019-06-01T00:15:00Z,p1:voltage,239.4,OK",
     "quality 'OK' is not 'ok' or 'missing'"),
    # Without its header a file would silently lose its first row.
    (None, "expected the header timestamp,sensor_id,value,quality, "
           "found '2019-06-01T00:00:00Z,p1:voltage,239.1,ok'"),
], ids=["short", "long", "blank", "short_then_long", "quoted_short",
        "quoted_line_break", "value", "timestamp", "quality", "no_header"])
def test_csv_malformed_row_names_file_and_line(tmp_path, monkeypatch, block,
                                               rows, message):
    monkeypatch.setattr(gridsim, "CSV_BLOCK_CHARS", block)
    header, line = "timestamp,sensor_id,value,quality\n", 5
    if rows is None:  # no header: the first row stands where it belongs
        header, rows, line = "", "2019-06-01T00:15:00Z,p1:voltage,239.4,ok", 2
    path = tmp_path / "dataset.csv"
    path.write_text("# comment\n"
                    f"{header}"
                    "2019-06-01T00:00:00Z,p1:voltage,239.1,ok\n"
                    "# another comment\n"
                    f"{rows}\n"
                    "2019-06-01T00:30:00Z,p1:voltage,239.0,ok\n")
    with pytest.raises(gridsim.SimulationError,
                       match=re.escape(f"{path}, line {line}: ") + message):
        gridsim.TimeSeriesDataset.read_csv(str(path))


# ---------------------------------------------------------------------------
# Exact Gaussian conditioning


def test_bivariate_conditioning_textbook_values():
    model = gridsim.JointGaussian(np.zeros(2),
                                  np.array([[1.0, 0.5], [0.5, 1.0]]),
                                  ["x1", "x2"])
    mean, cov, free = gridsim.exact_conditional(model, {"x2": 2.0})
    assert free == ["x1"]
    assert mean[0] == pytest.approx(1.0)
    assert cov[0, 0] == pytest.approx(0.75)


def test_conditioning_on_nothing_returns_prior():
    model = gridsim.linear_chain_model([0.8, 0.5], [1.0, 0.36, 0.75])
    mean, cov, free = gridsim.exact_conditional(model, {})
    assert np.array_equal(mean, model.mean)
    assert np.array_equal(cov, model.cov)
    assert free == model.names


def test_conditioning_matches_grid_quadrature_on_chain():
    # brute-force oracle: integrate the joint density on a dense grid
    c1, c2 = 0.8, 0.6
    v0, v1, v2 = 1.0, 0.36, 0.4
    model = gridsim.linear_chain_model([c1, c2], [v0, v1, v2])
    y = 1.3  # observe the chain's tail
    xs = np.linspace(-6, 6, 601)
    x0, x1 = np.meshgrid(xs, xs, indexing="ij")
    logp = (-0.5 * x0 ** 2 / v0
            - 0.5 * (x1 - c1 * x0) ** 2 / v1
            - 0.5 * (y - c2 * x1) ** 2 / v2)
    p = np.exp(logp - logp.max())
    z = p.sum()
    mean_bf = np.array([(x0 * p).sum() / z, (x1 * p).sum() / z])
    var_bf = np.array([(x0 ** 2 * p).sum() / z - mean_bf[0] ** 2,
                       (x1 ** 2 * p).sum() / z - mean_bf[1] ** 2])
    mean, cov, free = gridsim.exact_conditional(model, {"x2": y})
    assert free == ["x0", "x1"]
    assert np.allclose(mean, mean_bf, atol=1e-3)
    assert np.allclose(np.diag(cov), var_bf, atol=1e-3)


def test_singular_observation_covariance_raises():
    cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    model = gridsim.JointGaussian(np.zeros(3), cov, ["a", "b", "c"])
    with pytest.raises(np.linalg.LinAlgError):
        gridsim.exact_conditional(model, {"a": 1.0, "b": 2.0})


def test_chain_model_samples_match_covariance():
    model = gridsim.linear_chain_model([0.8], [1.0, 0.36])
    draws = model.sample(40000, seed=6)
    emp = np.cov(draws.T)
    assert np.allclose(emp, model.cov, atol=0.05)


def test_spec_json_roundtrip():
    spec = gridsim.pilot_spec(seed=7)
    back = gridsim.SyntheticGridSpec.from_json(spec.to_json())
    assert back.topology.content_hash() == spec.topology.content_hash()
    assert back.v0 == spec.v0
    assert back.lines == spec.lines
    assert back.to_json() == spec.to_json()
