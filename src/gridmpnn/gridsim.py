"""Synthetic grid data engine and exact Gaussian test oracle.

Generates 15-minute voltage / load / weather series on a radial
topology: seasonal demand profiles, irradiance-driven PV generation,
smooth stochastic weather, measurement noise and uniformly random
missingness. Voltages follow the linearized radial drop model,
accumulated along the path from the source:

    V_node = V0 - sum_path (R * P + X * Q) / V0

with P the active power flowing through each line (everything
downstream) and Q = q_ratio * P. The model is linear in the loads, so
the generated joint distribution stays Gaussian-friendly and the exact
conditioning oracle below applies. ``voltage_profile`` is its one
solver: ``simulate`` runs it on the true flows and
``replay_feeder_delta`` on the recorded ones.

Loads are stored as energy per 15-minute slot (kWh); voltages in V;
weather as temperature (degC), irradiance (W/m2), cloud cover (0..1).
Feeder load includes an unmetered base component on top of the metered
prosumers, so feeder-level energy keeps conditional freedom given the
prosumer channels.

Datasets travel as ``timestamp,sensor_id,value,quality`` CSV files:
``TimeSeriesDataset.write_csv`` formats a whole series per write, and
``read_csv`` parses fixed-size text blocks column by column, rejecting
malformed rows with the file and line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .gridgraph import (FEEDER, PROSUMER, SUBSTATION, GridTopology,
                        load_topology, sensor_id)

STEP_MINUTES = 15
SLOT_HOURS = STEP_MINUTES / 60.0
_PHASES = ("a", "b", "c")
# Characters ``read_csv`` reads per block: memory stays bounded by the
# block, not by the file.
CSV_BLOCK_CHARS = 1 << 20
_CSV_HEADER = "timestamp,sensor_id,value,quality"
_QUALITY = ("ok", "missing")  # indexed by the missing flag
_IS_MISSING = {"ok": False, "missing": True}


class SimulationError(ValueError):
    """Simulation preconditions violated (non-radial spec, bad duration...)."""


# ---------------------------------------------------------------------------
# Spec


DEFAULT_NOISE = {
    "voltage": 0.15,          # V
    "prosumer_energy": 0.008,  # kWh / slot
    "feeder_energy": 0.02,
    "substation_energy": 0.04,
    "global_energy": 0.08,
    "temperature": 0.2,       # degC
    "irradiance": 8.0,        # W/m2
    "cloud_cover": 0.01,
}


@dataclass
class SyntheticGridSpec:
    """Everything the simulator needs: topology, line impedances, demand
    and PV parameters, weather model and per-channel noise."""

    topology: GridTopology
    v0: float = 240.0
    q_ratio: float = 0.3
    max_lag: int = 192
    lines: dict[tuple[str, str], dict] = field(default_factory=dict)
    prosumers: dict[str, dict] = field(default_factory=dict)
    feeders: dict[str, dict] = field(default_factory=dict)
    weather: dict[str, dict] = field(default_factory=dict)
    noise: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_NOISE))

    def __post_init__(self) -> None:
        if self.v0 <= 0:
            raise SimulationError("source voltage must be positive")
        for edge, rx in self.lines.items():
            if rx.get("r", 0.0) < 0 or rx.get("x", 0.0) < 0:
                raise SimulationError(f"line {edge}: R and X must be >= 0")
        for k, v in self.noise.items():
            if v < 0:
                raise SimulationError(f"noise std {k!r} must be >= 0")

    def line(self, parent: str, child: str) -> tuple[float, float]:
        rx = self.lines.get((parent, child), {})
        return float(rx.get("r", 0.0)), float(rx.get("x", 0.0))

    def to_document(self) -> dict:
        return {
            "topology": self.topology.to_document(),
            "v0": self.v0,
            "q_ratio": self.q_ratio,
            "max_lag": self.max_lag,
            "lines": [{"edge": [p, c], **rx} for (p, c), rx in self.lines.items()],
            "prosumers": self.prosumers,
            "feeders": self.feeders,
            "weather": self.weather,
            "noise": self.noise,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True)

    @classmethod
    def from_document(cls, doc: dict) -> "SyntheticGridSpec":
        topo = load_topology(doc["topology"])
        lines = {tuple(rec["edge"]): {k: v for k, v in rec.items() if k != "edge"}
                 for rec in doc.get("lines", [])}
        return cls(topology=topo,
                   v0=float(doc.get("v0", 240.0)),
                   q_ratio=float(doc.get("q_ratio", 0.3)),
                   max_lag=int(doc.get("max_lag", 192)),
                   lines=lines,
                   prosumers=doc.get("prosumers", {}),
                   feeders=doc.get("feeders", {}),
                   weather=doc.get("weather", {}),
                   noise={**DEFAULT_NOISE, **doc.get("noise", {})})

    @classmethod
    def from_json(cls, text: str) -> "SyntheticGridSpec":
        return cls.from_document(json.loads(text))


def pilot_topology() -> GridTopology:
    """Pilot-shaped tree: 1 global, 15 substations, 25 feeders, 28
    prosumers of which 7 are three-phase (69 nodes, 68 edges)."""
    nodes = [{"id": "grid", "kind": "global"}]
    edges = []
    for i in range(1, 16):
        nodes.append({"id": f"s{i}", "kind": "substation"})
        edges.append(["grid", f"s{i}"])
    for j in range(1, 26):
        sub = f"s{(j - 1) % 15 + 1}"
        nodes.append({"id": f"f{j}", "kind": "feeder"})
        edges.append([sub, f"f{j}"])
    phases = {}
    for k in range(1, 29):
        feeder = f"f{(k - 1) % 25 + 1}"
        nodes.append({"id": f"p{k}", "kind": "prosumer"})
        edges.append([feeder, f"p{k}"])
        if k % 4 == 0:  # p4, p8, ..., p28: exactly 7 three-phase
            phases[f"p{k}"] = 3
    return load_topology({"nodes": nodes, "edges": edges, "phases": phases})


def pilot_spec(seed: int = 7) -> SyntheticGridSpec:
    """Default pilot-shaped spec with seeded per-node parameters sized so
    that PV exports push midday voltages above 240 V on sunny days."""
    topo = pilot_topology()
    rng = np.random.default_rng(seed)
    lines: dict[tuple[str, str], dict] = {}
    prosumers: dict[str, dict] = {}
    feeders: dict[str, dict] = {}
    weather: dict[str, dict] = {}
    for parent, child in topo.edges:
        kind = topo.node(child).kind
        if kind == SUBSTATION:
            r = rng.uniform(0.004, 0.010)
        elif kind == FEEDER:
            r = rng.uniform(0.20, 0.34)
        else:
            r = rng.uniform(0.015, 0.045)
        lines[(parent, child)] = {"r": round(float(r), 6),
                                  "x": round(float(0.4 * r), 6)}
    for nid in topo.ids(PROSUMER):
        has_pv = rng.random() < 0.75
        prosumers[nid] = {
            "base_kw": round(float(rng.uniform(0.15, 0.45)), 4),
            "morning_kw": round(float(rng.uniform(0.2, 0.7)), 4),
            "evening_kw": round(float(rng.uniform(0.6, 1.6)), 4),
            "weekend_factor": round(float(rng.uniform(0.85, 1.25)), 4),
            "pv_kw": round(float(rng.uniform(4.0, 9.0)), 4) if has_pv else 0.0,
        }
    for nid in topo.ids(FEEDER):
        feeders[nid] = {
            "unmetered_base_kw": round(float(rng.uniform(2.5, 5.0)), 4),
            "unmetered_evening_kw": round(float(rng.uniform(1.0, 3.0)), 4),
            "unmetered_ar_sigma": 0.22,
        }
    for nid in topo.ids(SUBSTATION):
        weather[nid] = {
            "temp_mean": round(float(rng.uniform(16.0, 20.0)), 4),
            "temp_seasonal_amp": round(float(rng.uniform(6.0, 9.0)), 4),
            "temp_daily_amp": round(float(rng.uniform(3.5, 5.5)), 4),
            "cloud_phi": 0.985,
            "cloud_sigma": 0.09,
        }
    return SyntheticGridSpec(topology=topo, v0=238.0, lines=lines,
                             prosumers=prosumers, feeders=feeders,
                             weather=weather)


# ---------------------------------------------------------------------------
# Dataset container


def parse_timestamp(text: str) -> datetime:
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _iso(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


class TimeSeriesDataset:
    """Aligned 15-minute multi-sensor series with per-point missing flags.

    Missing points keep their (synthetic ground-truth) value; the flag is
    authoritative and consumers must not read flagged values as inputs.
    """

    def __init__(self, start: datetime, n_steps: int):
        self.start = start.astimezone(timezone.utc)
        self.n_steps = int(n_steps)
        self.series: dict[str, np.ndarray] = {}
        self.missing: dict[str, np.ndarray] = {}

    def add_series(self, sid: str, values: np.ndarray,
                   missing: Optional[np.ndarray] = None) -> None:
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (self.n_steps,):
            raise SimulationError(f"series {sid!r}: expected {self.n_steps} points")
        self.series[sid] = v
        self.missing[sid] = (np.zeros(self.n_steps, dtype=bool)
                             if missing is None else np.asarray(missing, bool).copy())

    def ids(self, weather: Optional[bool] = None) -> list[str]:
        out = []
        for sid in self.series:
            is_wx = sid.startswith("wx:")
            if weather is None or weather == is_wx:
                out.append(sid)
        return out

    def epoch_seconds(self) -> np.ndarray:
        t0 = int(self.start.timestamp())
        return t0 + 900 * np.arange(self.n_steps, dtype=np.int64)

    def timestamps(self) -> list[str]:
        secs = self.epoch_seconds().astype("datetime64[s]")
        return [s + "Z" for s in np.datetime_as_string(secs)]

    def index_of(self, timestamp: str | datetime) -> int:
        ts = timestamp if isinstance(timestamp, datetime) else parse_timestamp(timestamp)
        delta = ts.timestamp() - self.start.timestamp()
        idx = delta / (60 * STEP_MINUTES)
        if idx != int(idx) or not (0 <= idx < self.n_steps):
            raise KeyError(f"timestamp {timestamp} not on the dataset grid")
        return int(idx)

    def copy(self) -> "TimeSeriesDataset":
        out = TimeSeriesDataset(self.start, self.n_steps)
        for sid in self.series:
            out.add_series(sid, self.series[sid].copy(), self.missing[sid].copy())
        return out

    def slice_steps(self, i0: int, i1: int) -> "TimeSeriesDataset":
        sub = TimeSeriesDataset(
            datetime.fromtimestamp(self.start.timestamp() + 900 * i0, tz=timezone.utc),
            i1 - i0)
        for sid in self.series:
            sub.add_series(sid, self.series[sid][i0:i1], self.missing[sid][i0:i1])
        return sub

    def equals(self, other: "TimeSeriesDataset") -> bool:
        if (self.start != other.start or self.n_steps != other.n_steps
                or set(self.series) != set(other.series)):
            return False
        return all(np.array_equal(self.series[s], other.series[s])
                   and np.array_equal(self.missing[s], other.missing[s])
                   for s in self.series)

    def n_points(self) -> int:
        return len(self.series) * self.n_steps

    # -- CSV: timestamp, sensor_id, value, quality ---------------------------

    def write_csv(self, path: str, weather: Optional[bool] = None,
                  header_comment: Optional[str] = None) -> None:
        """Write the series (all, or only weather or only grid ones) sorted
        by id, one row per point, in the bytes ``csv.writer`` would write:
        CRLF row ends and the sensor id quoted where it needs quotes.
        Values keep 10 significant digits."""
        # The rows of one series: the sensor id goes in at "\0", and one
        # %-formatting call fills every value and quality slot.
        rows = "".join([f"{t},\0,%.10g,%s\r\n" for t in self.timestamps()])
        slots: list = [None] * (2 * self.n_steps)
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write(_CSV_HEADER + "\r\n")
            for sid in sorted(self.ids(weather)):
                slots[0::2] = self.series[sid].tolist()
                slots[1::2] = map(_QUALITY.__getitem__,
                                  self.missing[sid].tolist())
                quoted = _csv_field(sid).replace("%", "%%")
                fh.write(rows.replace("\0", quoted) % tuple(slots))

    @classmethod
    def read_csv(cls, *paths: str) -> "TimeSeriesDataset":
        """Parse ``write_csv`` files into one dataset on the grid that
        starts at the earliest timestamp; points without a row are
        missing.

        Rows may end in LF or CRLF and come in any order; lines starting
        with ``#`` are skipped anywhere, and the first other line of each
        file must be the header ``timestamp,sensor_id,value,quality``. A
        file is parsed a block of ``CSV_BLOCK_CHARS`` characters at a
        time, column by column. ``SimulationError`` is raised for any
        other header, a row without exactly four fields, an unparsable
        timestamp or value, a value that is not finite on an ``ok`` row
        (``nan``, ``inf``, ``1e999``), or a quality other than
        ``ok``/``missing`` (naming the file and line); for a row off the
        15-minute grid; and for a second row of a (series, timestamp). A
        ``missing`` row's value is never read, so any number passes."""
        seconds: dict[str, int] = {}  # each distinct timestamp parsed once
        codes: dict[str, int] = {}  # sensor id -> code, first appearance
        blocks = []
        for path in paths:
            with open(path) as fh:
                line_no = 1
                while (line := fh.readline()).startswith("#"):
                    line_no += 1
                header = line.rstrip("\n")
                if line and header != _CSV_HEADER:
                    raise SimulationError(
                        f"{path}, line {line_no}: expected the header "
                        f"{_CSV_HEADER}, found {header!r}")
                for line0, text in _csv_blocks(fh, line_no + 1):
                    try:
                        ts, sid, val, quality = _csv_columns(text)
                        vals = np.fromiter(map(float, val), np.float64,
                                           len(val))
                        miss = np.fromiter(map(_IS_MISSING.__getitem__,
                                               quality), bool, len(quality))
                        if not (np.isfinite(vals) | miss).all():
                            raise ValueError("non-finite value")
                        blocks.append((
                            _coded(ts, seconds, _epoch_seconds),
                            _coded(sid, codes, lambda s: len(codes)),
                            vals, miss))
                    except (ValueError, KeyError):
                        raise _malformed(path, line0, text) from None
        if not seconds:
            raise SimulationError("no data rows found")
        t0, t1 = min(seconds.values()), max(seconds.values())
        n = (t1 - t0) // 900 + 1
        ds = cls(datetime.fromtimestamp(t0, tz=timezone.utc), n)
        secs, code, vals, miss = (np.concatenate(c) for c in zip(*blocks))
        order = np.argsort(code, kind="stable")  # file order within a series
        secs, vals, miss = secs[order], vals[order], miss[order]
        counts = np.bincount(code)
        ends = np.cumsum(counts)
        for sid, lo, hi in zip(codes, ends - counts, ends):
            i, off = np.divmod(secs[lo:hi] - t0, 900)
            if off.any():
                bad = int(secs[lo + np.flatnonzero(off)[0]])
                raise SimulationError(
                    f"series {sid!r}: timestamp {_iso(bad)} is off the "
                    f"{STEP_MINUTES}-minute grid starting {_iso(t0)}")
            repeats = np.bincount(i, minlength=n) > 1
            if repeats.any():
                dup = t0 + 900 * int(np.argmax(repeats))
                raise SimulationError(
                    f"series {sid!r}: duplicate rows at {_iso(dup)}")
            v = np.zeros(n)
            v[i] = vals[lo:hi]
            m = np.ones(n, dtype=bool)
            m[i] = miss[lo:hi]
            ds.add_series(sid, v, m)
        return ds


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field with ``QUOTE_MINIMAL``."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_blocks(fh, line_no: int):
    """Yield (number of its first line, text) for runs of whole lines of
    about ``CSV_BLOCK_CHARS`` characters read from ``fh``; each text ends
    in a newline. Files are opened with universal newlines, so CRLF
    arrives as LF."""
    carry = ""
    while chunk := fh.read(CSV_BLOCK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield line_no, text[:cut]
            line_no += text.count("\n", 0, cut)
        carry = text[cut:]
    if carry:
        yield line_no, carry + "\n"


def _csv_columns(text: str) -> tuple[list[str], ...]:
    """The (timestamp, sensor_id, value, quality) columns of the rows in
    a block, ``#`` lines dropped. ValueError if a row has other than four
    fields or a quoted field holds a line break."""
    if "#" in text:
        text = "\n".join(ln for ln in text.split("\n")
                         if not ln.startswith("#"))
    if not text:
        return [], [], [], []
    if '"' in text:  # quoted fields: only the csv module splits them right
        rows = list(csv.reader(io.StringIO(text)))
        # A row per line: a line break inside a quoted field is an error.
        if (len(rows) != text.count("\n")
                or any(len(r) != 4 for r in rows)):
            raise ValueError("field count")
        return tuple(list(col) for col in zip(*rows))
    # Four fields a row: in order, the separators are ",,,\n" per row.
    raw = np.frombuffer(text.encode(), np.uint8)
    seps = raw[(raw == ord(",")) | (raw == ord("\n"))].tobytes()
    if seps != b",,,\n" * (len(seps) // 4):
        raise ValueError("field count")
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the last newline
    return fields[0::4], fields[1::4], fields[2::4], fields[3::4]


def _epoch_seconds(timestamp: str) -> int:
    return int(parse_timestamp(timestamp).timestamp())


def _coded(column: list[str], table: dict[str, int], new) -> np.ndarray:
    """``column`` mapped through ``table``; a string not in it yet is
    added, in order of first appearance, as ``new(string)``."""
    try:
        return np.fromiter(map(table.__getitem__, column), np.int64,
                           len(column))
    except KeyError:
        for key in dict.fromkeys(column):
            if key not in table:
                table[key] = new(key)
        return np.fromiter(map(table.__getitem__, column), np.int64,
                           len(column))


def _malformed(path: str, line0: int, text: str) -> SimulationError:
    """The error for the first bad row of a block starting at ``line0``."""
    for no, line in enumerate(text.split("\n")[:-1], line0):
        if line.startswith("#"):
            continue
        row = next(csv.reader([line]))
        where = f"{path}, line {no}"
        if len(row) != 4:
            return SimulationError(
                f"{where}: expected 4 fields (timestamp,sensor_id,value,"
                f"quality), found {len(row)}")
        ts, _, val, quality = row
        try:
            parse_timestamp(ts)
        except ValueError:
            return SimulationError(f"{where}: bad timestamp {ts!r}")
        try:
            value = float(val)
        except ValueError:
            return SimulationError(f"{where}: bad value {val!r}")
        if quality not in _IS_MISSING:
            return SimulationError(
                f"{where}: quality {quality!r} is not 'ok' or 'missing'")
        if quality == "ok" and not math.isfinite(value):
            return SimulationError(
                f"{where}: value {val!r} of an ok row is not finite")
    return SimulationError(f"{path}: malformed rows from line {line0}")


# ---------------------------------------------------------------------------
# Simulation


def _rng_for(seed: int, key: str) -> np.random.Generator:
    digest = hashlib.sha256(key.encode()).digest()[:8]
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    e = rng.standard_normal(n) * sigma
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(max(1.0 - phi * phi, 1e-12))
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


def _time_axes(start: datetime, n: int):
    secs = int(start.timestamp()) + 900 * np.arange(n, dtype=np.int64)
    tod = (secs % 86400) / 86400.0
    days = secs // 86400
    weekday = (days + 3) % 7  # 1970-01-01 was a Thursday
    d64 = secs.astype("datetime64[s]").astype("datetime64[D]")
    y64 = d64.astype("datetime64[Y]")
    doy = (d64 - y64.astype("datetime64[D]")).astype(int)
    return tod, weekday, doy


def _bump(tod: np.ndarray, center: float, width: float) -> np.ndarray:
    d = np.minimum(np.abs(tod - center), 1.0 - np.abs(tod - center))
    return np.exp(-0.5 * (d / width) ** 2)


def _clear_sky(tod: np.ndarray, doy: np.ndarray) -> np.ndarray:
    daylen = 12.0 + 2.5 * np.sin(2 * np.pi * (doy - 80) / 365.0)
    sunrise = (12.0 - daylen / 2.0) / 24.0
    frac = (tod - sunrise) / (daylen / 24.0)
    elev = np.sin(np.pi * np.clip(frac, 0.0, 1.0))
    peak = 750.0 + 300.0 * np.sin(2 * np.pi * (doy - 80) / 365.0)
    return peak * np.where((frac > 0) & (frac < 1), elev, 0.0)


def simulate(spec: SyntheticGridSpec, start: str | datetime,
             days: float, seed: int = 0) -> TimeSeriesDataset:
    """Generate a dataset: weather per substation, net loads, feeder and
    substation aggregates, and linear-drop voltages. Deterministic per
    (spec, start, days, seed)."""
    start_dt = start if isinstance(start, datetime) else parse_timestamp(start)
    n = int(round(days * 96))
    if n <= spec.max_lag:
        raise SimulationError(
            f"duration must exceed the lag horizon ({spec.max_lag} steps)")
    topo = spec.topology
    tod, weekday, doy = _time_axes(start_dt, n)
    ds = TimeSeriesDataset(start_dt, n)

    # weather per substation
    irr: dict[str, np.ndarray] = {}
    for sid in topo.ids(SUBSTATION):
        wp = spec.weather.get(sid, {})
        rng = _rng_for(seed, f"wx:{sid}")
        z = _ar1(rng, n, float(wp.get("cloud_phi", 0.985)),
                 float(wp.get("cloud_sigma", 0.09)))
        cloud = 1.0 / (1.0 + np.exp(-(z - 0.8)))
        clear = _clear_sky(tod, doy)
        irradiance = clear * (1.0 - 0.75 * cloud)
        temp = (float(wp.get("temp_mean", 18.0))
                + float(wp.get("temp_seasonal_amp", 7.0))
                * np.sin(2 * np.pi * (doy - 105) / 365.0)
                + float(wp.get("temp_daily_amp", 4.5))
                * np.sin(2 * np.pi * (tod - 0.42))
                - 2.0 * cloud + _ar1(rng, n, 0.95, 0.25))
        irr[sid] = irradiance
        ds.add_series(sensor_id(sid, "temperature", weather=True),
                      temp + _noise(seed, f"m:wx:{sid}:t", n, spec.noise["temperature"]))
        ds.add_series(sensor_id(sid, "irradiance", weather=True),
                      np.maximum(irradiance + _noise(seed, f"m:wx:{sid}:i", n,
                                                     spec.noise["irradiance"]), 0.0))
        ds.add_series(sensor_id(sid, "cloud_cover", weather=True),
                      np.clip(cloud + _noise(seed, f"m:wx:{sid}:c", n,
                                             spec.noise["cloud_cover"]), 0.0, 1.0))

    # prosumer net loads (kW, true)
    sub_of_feeder = {f: topo.parent[f] for f in topo.ids(FEEDER)}
    net_kw: dict[str, np.ndarray] = {}
    for pid in topo.ids(PROSUMER):
        pp = spec.prosumers.get(pid, {})
        rng = _rng_for(seed, f"load:{pid}")
        wk = np.where(weekday >= 5, float(pp.get("weekend_factor", 1.0)), 1.0)
        load = (float(pp.get("base_kw", 0.3))
                + float(pp.get("morning_kw", 0.4)) * _bump(tod, 0.33, 0.045)
                + float(pp.get("evening_kw", 1.0)) * _bump(tod, 0.80, 0.05))
        load = load * wk * (1.0 + _ar1(rng, n, 0.9, 0.05))
        feeder = topo.parent[pid]
        pv = float(pp.get("pv_kw", 0.0)) * 0.9 * irr[sub_of_feeder[feeder]] / 1000.0
        net_kw[pid] = load - pv

    # feeder / substation / global aggregates (kW, true)
    feeder_kw: dict[str, np.ndarray] = {}
    for fid in topo.ids(FEEDER):
        fp = spec.feeders.get(fid, {})
        rng = _rng_for(seed, f"feeder:{fid}")
        unmetered = (float(fp.get("unmetered_base_kw", 2.0))
                     + float(fp.get("unmetered_evening_kw", 1.5))
                     * _bump(tod, 0.80, 0.07)) * (
            1.0 + _ar1(rng, n, 0.92, float(fp.get("unmetered_ar_sigma", 0.06))))
        total = unmetered.copy()
        for pid in topo.children[fid]:
            total += net_kw[pid]
        feeder_kw[fid] = total
    sub_kw = {sid: sum((feeder_kw[f] for f in topo.children[sid]),
                       np.zeros(n)) for sid in topo.ids(SUBSTATION)}
    grid_kw = sum((sub_kw[s] for s in topo.ids(SUBSTATION)), np.zeros(n))

    # voltages via accumulated linear drop (kW flows through each line)
    voltage = voltage_profile(spec, {**net_kw, **feeder_kw, **sub_kw})

    # emit sensor series with measurement noise
    for pid in topo.ids(PROSUMER):
        node = topo.node(pid)
        v_true = voltage[pid]
        e_true = net_kw[pid] * SLOT_HOURS
        if node.phases == 1:
            ds.add_series(sensor_id(pid, "voltage"),
                          v_true + _noise(seed, f"m:{pid}:v", n, spec.noise["voltage"]))
            ds.add_series(sensor_id(pid, "energy"),
                          e_true + _noise(seed, f"m:{pid}:e", n,
                                          spec.noise["prosumer_energy"]))
        else:
            rng = _rng_for(seed, f"phase:{pid}")
            w = np.array([1 / 3] * 3) + rng.uniform(-0.04, 0.04, size=3)
            w = w / w.sum()
            for k, ph in enumerate(_PHASES):
                dv = rng.normal(0.0, 0.15) + _ar1(rng, n, 0.9, 0.05)
                ds.add_series(sensor_id(pid, f"voltage_{ph}"),
                              v_true + dv + _noise(seed, f"m:{pid}:v{ph}", n,
                                                   spec.noise["voltage"]))
                ds.add_series(sensor_id(pid, f"energy_{ph}"),
                              e_true * w[k] + _noise(seed, f"m:{pid}:e{ph}", n,
                                                     spec.noise["prosumer_energy"]))
    for fid in topo.ids(FEEDER):
        e_true = feeder_kw[fid] * SLOT_HOURS
        ds.add_series(sensor_id(fid, "load_p"),
                      e_true + _noise(seed, f"m:{fid}:p", n, spec.noise["feeder_energy"]))
        ds.add_series(sensor_id(fid, "load_q"),
                      spec.q_ratio * e_true + _noise(seed, f"m:{fid}:q", n,
                                                     spec.noise["feeder_energy"]))
    for sid in topo.ids(SUBSTATION):
        e_true = sub_kw[sid] * SLOT_HOURS
        rng = _rng_for(seed, f"phase:{sid}")
        w = np.array([1 / 3] * 3) + rng.uniform(-0.02, 0.02, size=3)
        w = w / w.sum()
        for k, ph in enumerate(_PHASES):
            ds.add_series(sensor_id(sid, f"load_{ph}"),
                          e_true * w[k] + _noise(seed, f"m:{sid}:{ph}", n,
                                                 spec.noise["substation_energy"]))
    e_true = grid_kw * SLOT_HOURS
    ds.add_series(sensor_id(topo.root, "load_p"),
                  e_true + _noise(seed, "m:grid:p", n, spec.noise["global_energy"]))
    ds.add_series(sensor_id(topo.root, "load_q"),
                  spec.q_ratio * e_true + _noise(seed, "m:grid:q", n,
                                                 spec.noise["global_energy"]))
    return ds


def _noise(seed: int, key: str, n: int, std: float) -> np.ndarray:
    if std == 0.0:
        return np.zeros(n)
    return _rng_for(seed, key).normal(0.0, std, size=n)


# ---------------------------------------------------------------------------
# Linear-drop voltage solver (shared by simulate and replay)


def voltage_profile(spec: SyntheticGridSpec, flow_kw: dict) -> dict:
    """Noise-free prosumer voltages from the active power flowing into
    each non-root node through its line (kW, positive = towards the
    node), as floats or as aligned time series.

    The drop (r * P + x * q_ratio * P) / v0 of each line is accumulated
    from the root down; a prosumer's voltage is v0 minus the drop on its
    path.
    """
    topo = spec.topology
    order = [topo.root]
    for nid in order:  # parents before children
        order.extend(topo.children[nid])
    drop_to = {topo.root: 0.0}
    for nid in order[1:]:
        parent = topo.parent[nid]
        r, x = spec.line(parent, nid)
        p_w = flow_kw[nid] * 1000.0
        drop = (r * p_w + x * spec.q_ratio * p_w) / spec.v0
        drop_to[nid] = drop_to[parent] + drop
    return {pid: spec.v0 - drop_to[pid] for pid in topo.ids(PROSUMER)}


def replay_feeder_delta(spec: SyntheticGridSpec, dataset: TimeSeriesDataset,
                        t_index: int, feeder_deltas_kwh: dict[str, float],
                        ) -> dict[str, float]:
    """Re-solve one timestep's voltages with extra energy injected at
    feeder buses (positive = additional load), from the recorded loads:
    each prosumer's energy, each feeder's ``load_p`` plus its delta, and
    each substation the sum of its feeders. ``SimulationError`` for a
    delta at a node that is not a feeder or a step off the dataset."""
    topo = spec.topology
    if not 0 <= t_index < dataset.n_steps:
        raise SimulationError(
            f"step {t_index} is outside the dataset's {dataset.n_steps} steps")
    feeders = topo.ids(FEEDER)
    for fid in feeder_deltas_kwh:
        if fid not in feeders:
            raise SimulationError(f"feeder delta at {fid!r}, not a feeder")
    flow_kw: dict[str, float] = {}
    for pid in topo.ids(PROSUMER):
        if topo.node(pid).phases == 1:
            e = dataset.series[sensor_id(pid, "energy")][t_index]
        else:
            e = sum(dataset.series[sensor_id(pid, f"energy_{ph}")][t_index]
                    for ph in _PHASES)
        flow_kw[pid] = e / SLOT_HOURS
    for fid in feeders:
        flow_kw[fid] = (dataset.series[sensor_id(fid, "load_p")][t_index]
                        + feeder_deltas_kwh.get(fid, 0.0)) / SLOT_HOURS
    for sid in topo.ids(SUBSTATION):
        flow_kw[sid] = sum(flow_kw[f] for f in topo.children[sid])
    return voltage_profile(spec, flow_kw)


# ---------------------------------------------------------------------------
# Missingness injection


def inject_missing(dataset: TimeSeriesDataset, rate: float,
                   seed: int = 0) -> TimeSeriesDataset:
    """Flag floor(rate * N) points missing, drawn uniformly at random
    without replacement; N counts every point of every series. A point
    that is missing already stays so."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("missing rate must be in [0, 1)")
    out = dataset.copy()
    sids = sorted(out.series)
    total = len(sids) * out.n_steps
    target = int(rate * total)
    if target == 0:
        return out
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD15C0]))
    hit = np.zeros((len(sids), out.n_steps), dtype=bool)
    hit.flat[rng.choice(total, size=target, replace=False)] = True
    for sid, row in zip(sids, hit):
        out.missing[sid] |= row
    return out


# ---------------------------------------------------------------------------
# Exact Gaussian conditioning oracle


@dataclass
class JointGaussian:
    """A joint Gaussian over named scalar variables."""

    mean: np.ndarray
    cov: np.ndarray
    names: list[str]

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, float)
        self.cov = np.asarray(self.cov, float)
        d = self.mean.shape[0]
        if self.cov.shape != (d, d) or len(self.names) != d:
            raise ValueError("mean/cov/names dimensions disagree")

    def index(self, name: str) -> int:
        return self.names.index(name)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(self.cov)
        return self.mean + rng.standard_normal((n, len(self.names))) @ chol.T


def exact_conditional(model: JointGaussian,
                      observed: dict[str, float],
                      ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Gaussian conditioning: mean and covariance of the unobserved
    variables given the observed assignment.

    Returns (cond_mean, cond_cov, free_names). With nothing observed the
    prior is returned.
    """
    obs_idx = [model.index(k) for k in observed]
    free_idx = [i for i in range(len(model.names)) if i not in obs_idx]
    free_names = [model.names[i] for i in free_idx]
    if not obs_idx:
        return model.mean.copy(), model.cov.copy(), free_names
    y2 = np.array([observed[model.names[i]] for i in obs_idx], float)
    mu1 = model.mean[free_idx]
    mu2 = model.mean[obs_idx]
    s11 = model.cov[np.ix_(free_idx, free_idx)]
    s12 = model.cov[np.ix_(free_idx, obs_idx)]
    s22 = model.cov[np.ix_(obs_idx, obs_idx)]
    gain = np.linalg.solve(s22, s12.T)
    cond_mean = mu1 + s12 @ np.linalg.solve(s22, y2 - mu2)
    cond_cov = s11 - s12 @ gain
    return cond_mean, cond_cov, free_names


def linear_chain_model(coeffs: Sequence[float], noise_vars: Sequence[float],
                       names: Optional[Sequence[str]] = None) -> JointGaussian:
    """Zero-mean Gaussian chain: x0 ~ N(0, v0); x_i = c_i * x_{i-1} + N(0, v_i)."""
    k = len(noise_vars)
    if len(coeffs) != k - 1:
        raise ValueError("need one coefficient per non-root variable")
    cov = np.zeros((k, k))
    cov[0, 0] = noise_vars[0]
    for i in range(1, k):
        c = coeffs[i - 1]
        for j in range(i):
            cov[i, j] = cov[j, i] = c * cov[i - 1, j]
        cov[i, i] = c * c * cov[i - 1, i - 1] + noise_vars[i]
    names = list(names) if names else [f"x{i}" for i in range(k)]
    return JointGaussian(np.zeros(k), cov, names)
