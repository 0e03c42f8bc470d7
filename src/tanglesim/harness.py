"""Scenario files, seeded ensembles, statistics, and the model comparator.

A scenario is a strict JSON document: a top-level "kind" discriminator picks
the schema, unknown keys are rejected, and every run is reproducible from
the file plus its seed.  Ensembles run through ``seeding.seeded_runs`` and
are aggregated in run-index order so the output never depends on the
worker count.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import compliance, fluid, junction, stability
from .agent import AgentTangleSim
from .arrivals import ArrivalProcess
from .reduced import Injection, ReducedTangleSim
from .seeding import seeded_runs, spans, worker_pool
from .trajectory import make_grid

KINDS = ("tangle-reduced", "tangle-agent", "fluid", "compliance-net", "junction")


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


_REQUIRED = object()


class _Block:
    """Dict wrapper that tracks consumed keys and rejects leftovers.

    The typed getters check one field each and name it ``<path>.<key>`` in
    their errors, so a parser names each field once.  A default of None
    makes a field optional: absent or null, it reads as None.
    """

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{path}: expected an object")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def take(self, key: str, default: Any = _REQUIRED):
        self.seen.add(key)
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ScenarioError(f"{self.path}: missing required field '{key}'")
        return default

    def error(self, key: str, message: str) -> ScenarioError:
        return ScenarioError(f"{self.path}.{key}: {message}")

    def block(self, key: str, required: bool = False) -> "_Block | None":
        raw = self.take(key, _REQUIRED if required else None)
        if raw is None:
            return None
        return _Block(raw, f"{self.path}.{key}")

    def blocks(self, key: str) -> list["_Block"]:
        """An optional list of objects; absent or null reads as empty."""
        raw = self.take(key, None)
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise self.error(key, "expected a list")
        return [_Block(item, f"{self.path}.{key}[{k}]") for k, item in enumerate(raw)]

    def number(self, key: str, default: Any = _REQUIRED, positive: bool = False) -> float | None:
        raw = self.take(key, default)
        if raw is None and default is None:
            return None
        return _number(raw, f"{self.path}.{key}", positive)

    def integer(self, key: str, default: Any = _REQUIRED, minimum: int | None = None) -> int:
        return _integer(self.take(key, default), f"{self.path}.{key}", minimum)

    def numbers(self, key: str, default: Any = _REQUIRED) -> float | list[float]:
        """A number, or a list of numbers whose errors name ``key[i]``."""
        raw = self.take(key, default)
        if isinstance(raw, list):
            return [_number(v, f"{self.path}.{key}[{i}]") for i, v in enumerate(raw)]
        return _number(raw, f"{self.path}.{key}")

    def matrix(self, key: str, n: int) -> list[list[float]]:
        rows = self.take(key)
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise self.error(key, f"expected an {n}x{n} matrix")
        return [[_number(v, f"{self.path}.{key}[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(rows)]

    def text(self, key: str, default: Any = _REQUIRED) -> str | None:
        raw = self.take(key, default)
        if raw is None and default is None:
            return None
        if not (isinstance(raw, str) and raw):
            raise self.error(key, f"expected a non-empty string, got {raw!r}")
        return raw

    def done(self) -> None:
        extra = set(self.data) - self.seen
        if extra:
            raise ScenarioError(
                f"{self.path}: unknown field(s) {sorted(extra)} (strict parsing)"
            )


def _number(value, path: str, positive: bool = False) -> float:
    # Python's JSON reader also takes NaN and Infinity; no field means them
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ScenarioError(f"{path}: expected a finite number, got {v}")
    if positive and not v > 0:
        raise ScenarioError(f"{path}: must be positive, got {v}")
    return v


def _integer(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _built(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError of the model's
    constructor reported against the file: the constructors own their value
    rules."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from None


def _load(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None


@dataclass
class Scenario:
    kind: str
    name: str
    seed: int
    runs: int
    horizon: float
    params: dict  # normalized kind-specific block
    out_stem: str | None = None
    per_run: bool = False
    # built from params at parse time: the tangle sim, the ComplianceNetwork,
    # a junction's (JunctionConfig, compliance path), or None for fluid
    model: Any = field(default=None, compare=False, repr=False)


def config_hash(scenario: Scenario) -> str:
    """Hash of everything that affects the numbers (not output naming)."""
    semantic = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "runs": scenario.runs,
        "horizon": scenario.horizon,
        "params": scenario.params,
    }
    payload = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


_MAX_GRID_ROWS = 10**7  # rows of a grid or an integrator's steps; a tangle run's creations


def _cap_rows(
    top: _Block, horizon: float, step: float, field: str = "horizon", by: str = "step",
    rows: float | None = None,
) -> None:
    """Refuse, naming `field`, a horizon over `step` of more rows than the
    cap; `rows` is the exact count a run makes, horizon / step by default."""
    if rows is None:
        rows = horizon / step
    if not rows <= _MAX_GRID_ROWS:
        shown = f"{rows:.3g}" if isinstance(rows, float) else rows
        raise top.error(
            field, f"horizon over {by} {step:.6g} gives {shown} rows, "
            f"more than {_MAX_GRID_ROWS:.0e}"
        )


def _parse_tangle(
    top: _Block, kind: str, horizon: float
) -> tuple[dict, ReducedTangleSim | AgentTangleSim]:
    params = {
        "rate": top.number("rate"),
        "delay": top.number("delay"),
        "types": top.integer("types", 1),
        "arrival_kind": top.take("arrival_kind", "poisson"),
        "stop_arrivals_at": top.number("stop_arrivals_at", None),
        "grid_dt": top.number("grid_dt", 0.5, positive=True),
        "injections": [],
    }
    _cap_rows(top, horizon, params["grid_dt"], "grid_dt", "grid_dt")
    # from one ulp of the horizon on, t + delay > t for every t <= horizon,
    # so no creation counts as attached before it is made
    if 0 < params["delay"] < math.ulp(horizon):
        raise top.error(
            "delay", f"must be at least {math.ulp(horizon):.3g}, one ulp of the horizon "
            f"{horizon:g}, got {params['delay']:g}"
        )
    for b in top.blocks("injections"):
        params["injections"].append(
            {"time": b.number("time"), "type": b.integer("type"), "count": b.integer("count")}
        )
        b.done()
    cls = ReducedTangleSim if kind == "tangle-reduced" else AgentTangleSim
    sim = _built(top.path, lambda: cls(
        ArrivalProcess(params["rate"], params["arrival_kind"], params["stop_arrivals_at"]),
        params["delay"],
        params["types"],
        tuple(Injection(i["time"], i["type"], i["count"]) for i in params["injections"]),
    ))
    stop = params["stop_arrivals_at"]
    honest = params["rate"] * (horizon if stop is None else min(stop, horizon))
    made = honest + sum(i["count"] for i in params["injections"] if i["time"] <= horizon)
    if not made <= _MAX_GRID_ROWS:
        field = "rate" if honest > _MAX_GRID_ROWS else "injections"
        raise top.error(field, f"expects {made:.3g} creations per run, more than {_MAX_GRID_ROWS:.0e}")
    return params, sim


def _parse_compliance(top: _Block, horizon: float) -> tuple[dict, compliance.ComplianceNetwork]:
    ring = top.block("ring")
    # a ring takes one value for all its activities
    values = top.number if ring is not None else top.numbers
    params: dict[str, Any] = {
        "window": top.number("window"),
        "targets": values("targets"),
        "baselines": values("baselines"),
        "cost_sens": values("cost_sens", 1.0),
        "ctrl_gain": values("ctrl_gain", 1.0),
        "step": top.number("step", None),
        "initial_q_offset": top.number("initial_q_offset", 0.0),
        # kept as written (it is hashed); its numbers are checked below
        "initial_costs": top.take("initial_costs", "static"),
    }
    if ring is not None:
        params["ring"] = {
            "n": ring.integer("n"),
            "coupling": ring.number("coupling"),
            "lag": ring.number("lag"),
        }
        ring.done()
        if "coupling" in top.data or "lags" in top.data or "n" in top.data:
            raise ScenarioError(f"{top.path}: give either 'ring' or explicit matrices")
        net = _built(
            top.path, compliance.ComplianceNetwork.ring, **params["ring"],
            window=params["window"], target=params["targets"], baseline=params["baselines"],
            cost_sens=params["cost_sens"], ctrl_gain=params["ctrl_gain"],
        )
    else:
        n = top.integer("n", minimum=1)
        params["n"] = n
        params["coupling"] = top.matrix("coupling", n)
        params["lags"] = top.matrix("lags", n)
        net = _built(
            top.path, compliance.ComplianceNetwork.build,
            params["targets"], params["baselines"], params["cost_sens"], params["ctrl_gain"],
            params["coupling"], params["lags"], params["window"],
        )
    # the steps `simulate` makes, refused before any output
    dt, steps = _built(top.path, compliance.step_grid, net, horizon, params["step"])
    _cap_rows(top, horizon, dt, rows=steps)
    if params["initial_costs"] != "static":
        costs = top.numbers("initial_costs")
        if not isinstance(costs, list):
            costs = [costs]
        elif len(costs) != net.n:
            raise top.error("initial_costs", f"expected {net.n} entries, got {len(costs)}")
        if any(c < 0 for c in costs):
            raise top.error("initial_costs", "must be non-negative")
    return params, net


def _parse_fluid(top: _Block, horizon: float) -> dict:
    params = {
        "delay": top.number("delay", positive=True),
        "step": top.number("step", None),
        "x0": top.numbers("x0"),
        "l0": top.numbers("l0"),
    }
    delay, step, x0, l0 = params["delay"], params["step"], params["x0"], params["l0"]
    if not (isinstance(x0, list) and isinstance(l0, list) and len(x0) == len(l0)):
        raise ScenarioError(f"{top.path}: x0 and l0 must be lists of equal length")
    # what `fluid.integrate` would refuse at run time (same tolerances),
    # refused before any output
    if not any(v * v > 0.0 for v in l0):
        raise top.error("l0", "needs a nonzero tip density (shares divide by sum l_i^2)")
    for i, (x, l) in enumerate(zip(x0, l0)):
        if x < -1e-12:
            raise top.error(f"x0[{i}]", f"must be >= 0, got {x}")
        if l < x - 1e-12:
            raise top.error(f"x0[{i}]", f"exceeds l0[{i}] = {l}, got {x}")
    # the steps `integrate` makes: it rounds the step down to delay / n_sub,
    # which can make up to 1% more than horizon / step
    _, dt, steps = _built(top.path, fluid.step_grid, delay, horizon, step)
    _cap_rows(top, horizon, dt, rows=steps)
    return params


def _fields(top: _Block, key: str, cls, positive: tuple[str, ...] = ()):
    """``cls`` built from the fields the optional block ``key`` gives, each
    read by the type of its dataclass default (an int default takes only an
    integer), and from ``cls``'s own defaults for the fields it leaves out."""
    block = top.block(key)
    given = {}
    if block is not None:
        for f in fields(cls):
            if f.name in block.data:
                given[f.name] = (block.integer(f.name) if isinstance(f.default, int)
                                 else block.number(f.name, positive=f.name in positive))
        block.done()
    return _built(top.path, cls, **given)


def _parse_junction(
    top: _Block, horizon: float
) -> tuple[dict, tuple[junction.JunctionConfig, np.ndarray]]:
    # stricter than the config, which allows a junction without traffic
    config = _fields(top, "config", junction.JunctionConfig, positive=("arrival_rate",))
    mode = top.take("mode")
    params: dict[str, Any] = {"config": asdict(config), "mode": mode}
    Q = controller = None
    if mode == "fixed":
        Q = params["Q"] = top.number("Q")
        if not 0.0 <= Q <= 1.0:
            raise top.error("Q", "must lie in [0, 1]")
    elif mode == "closed-loop":
        controller = _fields(top, "controller", junction.ControllerParams)
        params["controller"] = asdict(controller)
    else:
        raise top.error("mode", "expected 'fixed' or 'closed-loop'")
    if not horizon.is_integer():
        raise top.error("horizon", f"a junction runs whole steps, got {horizon}")
    _cap_rows(top, horizon, 1.0)
    _built(top.path, junction.check_horizon, config, int(horizon))
    return params, (config, junction.compliance_path(int(horizon), Q, controller))


def parse_scenario(source: str | Path | dict, name: str | None = None) -> Scenario:
    """Parse and strictly validate a scenario file (or pre-loaded dict).

    Every model is built here once and kept as ``Scenario.model``, so a
    value its constructor refuses fails at parse time, before any run or
    output, and every run uses the model built here.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        data, name = _load(path, "scenario file"), name or path.stem
    else:
        data, name = source, name or "scenario"
    top = _Block(data, name)
    kind = top.take("kind")
    if kind not in KINDS:
        raise top.error("kind", f"unknown kind {kind!r}, expected one of {KINDS}")
    seed = top.integer("seed", 0, minimum=0)
    runs = top.integer("runs", 100, minimum=1)
    horizon = top.number("horizon", positive=True)
    out_stem = top.text("out", None)
    per_run = top.take("per_run", False)
    if not isinstance(per_run, bool):
        raise top.error("per_run", f"expected true or false, got {per_run!r}")
    if per_run and kind not in ("tangle-reduced", "tangle-agent"):
        raise top.error("per_run", f"applies to tangle kinds only, not {kind!r}")
    if kind in ("tangle-reduced", "tangle-agent"):
        params, model = _parse_tangle(top, kind, horizon)
    elif kind == "fluid":
        params, model = _parse_fluid(top, horizon), None
    elif kind == "compliance-net":
        params, model = _parse_compliance(top, horizon)
    else:
        params, model = _parse_junction(top, horizon)
    top.done()
    return Scenario(kind, name, seed, runs, horizon, params, out_stem, per_run, model)


def _parse_region(block: _Block | None, default) -> stability.SpectralRegion:
    if block is None:
        return default

    def pair(key: str) -> list[float]:
        raw = block.numbers(key)
        if not (isinstance(raw, list) and len(raw) == 2):
            raise block.error(key, f"expected a [min, max] pair, got {raw!r}")
        return raw

    re_pair, im_pair = pair("re"), pair("im")
    samples = block.integer("samples", 64, minimum=2)
    if not 4 * samples + 1 <= _MAX_GRID_ROWS:
        raise block.error(
            "samples", f"gives {4 * samples + 1} boundary points, more than {_MAX_GRID_ROWS:.0e}"
        )
    block.done()
    return _built(block.path, stability.SpectralRegion, *re_pair, *im_pair, samples)


def parse_roots_spec(source: str | Path) -> tuple[str, Callable, stability.SpectralRegion]:
    """Parse a ``roots`` equation spec into its kind, the function whose
    zeros are counted and the rectangle they are counted in."""
    path = Path(source)
    top = _Block(_load(path, "equation spec"), path.stem)
    kind = top.take("kind")
    if kind == "tip-characteristic":
        h = top.number("delay", positive=True)
        f = stability.balanced_characteristic(h)
        # right-half-plane roots would satisfy |1 + hz| <= 1/2, i.e.
        # |z| <= 3/(2h); the default rectangle is 4x that bound
        bound = 4.0 * 1.5 / h
        default = stability.SpectralRegion(0.0, bound, -bound, bound)
    elif kind == "polynomial":
        coeffs = top.numbers("coefficients")
        if not (isinstance(coeffs, list) and coeffs):
            raise top.error("coefficients", f"expected a non-empty list, got {coeffs!r}")
        # np.polyval takes the highest power first
        f = functools.partial(np.polyval, np.array(coeffs[::-1], dtype=complex))
        default = None  # the region is required
    elif kind == "compliance-window":
        scenario = parse_scenario(path.parent / top.text("network"))
        if scenario.kind != "compliance-net":
            raise top.error("network", "must be a compliance-net scenario file")
        net = scenario.model
        f = stability.window_characteristic(net)
        delta = float((net.cost_sens * net.ctrl_gain).max())
        default = stability.SpectralRegion(
            1e-6, 10.0 * delta, -100.0 / net.window, 100.0 / net.window
        )
    else:
        raise top.error("kind", f"unknown equation kind {kind!r}")
    region = _parse_region(top.block("region", required=default is None), default)
    top.done()
    return kind, f, region


# -- ensemble statistics ------------------------------------------------------

@dataclass
class VarStats:
    mean: np.ndarray
    std: np.ndarray
    p5: np.ndarray
    p95: np.ndarray


def nearest_rank_index(p: float, n: int) -> int:
    """Index of the nearest-rank p-th percentile among n sorted samples."""
    return max(int(np.ceil(p / 100.0 * n)) - 1, 0)


def ensemble_stats(stack: np.ndarray) -> VarStats:
    """Stats over the runs of a (runs, ...) stack, one value per trailing index.

    The sorted copy is made after ``std`` has freed its temporary, so at
    most one stack-sized temporary is alive at a time.
    """
    n = stack.shape[0]
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    srt = np.sort(stack, axis=0)
    return VarStats(
        mean=mean,
        std=std,
        p5=srt[nearest_rank_index(5, n)],
        p95=srt[nearest_rank_index(95, n)],
    )


# -- scenario execution -------------------------------------------------------

TANGLE_VARS = ("L", "X", "W", "N")  # tips, free tips, pending, created


def run_tangle_ensemble(
    sim: ReducedTangleSim | AgentTangleSim,
    grid_dt: float,
    horizon: float,
    seed: int,
    runs: int,
    workers: int = 1,
    check: bool = False,
    pool=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble of counter trajectories: the grid times (G,) and the
    ``seeded_runs`` stack (runs, 4, G, d) of every run's counters, the
    variables in TANGLE_VARS order, filled block by block from the model's
    ``run_block``.  ``check`` runs every member with its model's invariant
    checks; ``pool`` is a ``seeding.worker_pool`` to run the blocks on.
    """
    _integer(runs, "runs", minimum=1)
    _integer(workers, "workers", minimum=1)
    member = functools.partial(sim.run_block, horizon, grid_dt=grid_dt, check=check)
    stack = seeded_runs(member, seed, runs, workers, pool)
    return make_grid(horizon, grid_dt), stack


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write one CSV from equal-length 1-D columns, one per header name.

    Its directory is made here, after the model has run.  Rows are written
    in 512-row blocks, one ``write`` each, so the Python objects of a whole
    table never exist at once.  Cells are the ``repr`` of the column's
    Python numbers (float columns print ``0.0``, integer columns ``1``).
    Within a block, each distinct float64 bit pattern is formatted once and
    its text shared by every cell that holds it; keying by bits, not by
    value, keeps ``-0.0`` apart from ``0.0`` and gives each NaN payload its
    own key.  The bytes are those of ``csv.writer`` with its default
    dialect: comma-separated, ``\\r\\n`` line ends, and no quoting, which
    neither a number nor a header name needs.
    """
    n = len(columns[0])
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError("write_csv needs one equal-length column per header name")
    floats = [j for j, c in enumerate(columns) if c.dtype == np.float64]
    others = [j for j, c in enumerate(columns) if c.dtype != np.float64]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, n, 512):
            cells = [None] * len(columns)
            if floats:
                bits = np.stack([columns[j][a:a + 512] for j in floats]).view(np.uint64)
                keys, inverse = np.unique(bits.ravel(), return_inverse=True)
                text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
                for j, col in zip(floats, text.take(inverse).reshape(len(floats), -1).tolist()):
                    cells[j] = col
            for j in others:
                cells[j] = list(map(repr, columns[j][a:a + 512].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def member_columns(times: np.ndarray, counters: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns of one member's CSV from its (4, G, d) counters:
    a row per grid time and type, in that order, with 1-based type labels."""
    g, d = counters.shape[1:]
    return (
        ["time", "type", "tips", "free", "pending", "created"],
        [np.repeat(times, d), np.tile(np.arange(1, d + 1), g)] + [a.ravel() for a in counters],
    )


@dataclass
class RunSummary:
    kind: str
    config_hash: str
    seed: int
    runs: int
    wall_time_s: float
    outputs: list[str] = field(default_factory=list)
    checks: str = "off"  # "passed" after a run with invariant checks


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path = ".",
    runs: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    check: bool = False,
) -> RunSummary:
    """Execute a scenario and write its CSV outputs plus a summary JSON.

    ``runs`` and ``seed`` override the scenario's values in a copy; the
    caller's scenario is left as it was.  ``check`` turns on a tangle
    model's invariant checks; a violation raises ``InvariantError``.
    """
    overrides = {}
    if runs is not None:
        overrides["runs"] = _integer(runs, "runs", minimum=1)
    if seed is not None:
        overrides["seed"] = _integer(seed, "seed", minimum=0)
    _integer(workers, "workers", minimum=1)
    if check and scenario.kind not in ("tangle-reduced", "tangle-agent"):
        raise ScenarioError(f"invariant checks need a tangle scenario, not {scenario.kind!r}")
    scenario = replace(scenario, **overrides)
    out = Path(out_dir)
    stem = scenario.out_stem or scenario.name
    started = time.perf_counter()
    summary = RunSummary(
        kind=scenario.kind,
        config_hash=config_hash(scenario),
        seed=scenario.seed,
        runs=scenario.runs,
        wall_time_s=0.0,
        # a violated invariant raises before the summary is written
        checks="passed" if check else "off",
    )
    p = scenario.params

    def emit(suffix: str, header: list[str], columns: list[np.ndarray]) -> None:
        path = out / f"{stem}_{suffix}.csv"
        write_csv(path, header, columns)
        summary.outputs.append(str(path))

    if scenario.kind in ("tangle-reduced", "tangle-agent"):
        times, stack = run_tangle_ensemble(
            scenario.model, p["grid_dt"], scenario.horizon, scenario.seed, scenario.runs,
            workers, check,
        )
        stats = ensemble_stats(stack)
        header, columns = ["time"], [times]
        for i in range(p["types"]):
            for v, var in enumerate(TANGLE_VARS):
                for stat in ("mean", "std", "p5", "p95"):
                    header.append(f"{var}{i + 1}_{stat}")
                    columns.append(getattr(stats, stat)[v, :, i])
        emit("ensemble", header, columns)
        if scenario.per_run:
            for r, counters in enumerate(stack):
                emit(f"run{r:04d}", *member_columns(times, counters))
    elif scenario.kind == "fluid":
        hx, hl = fluid.constant_history(p["x0"], p["l0"])
        traj = fluid.integrate(
            hx, hl, p["delay"], scenario.horizon, step=p["step"]
        )
        header, columns = ["time"], [traj.times]
        for i, (x, l, w) in enumerate(zip(traj.x.T, traj.l.T, traj.w.T)):
            header += [f"x{i + 1}", f"l{i + 1}", f"w{i + 1}"]
            columns += [x, l, w]
        emit("fluid", header, columns)
    elif scenario.kind == "compliance-net":
        net = scenario.model
        sol = compliance.static_solution(net)
        if p["initial_costs"] == "static":
            if not sol.feasible:
                raise ScenarioError(
                    "initial_costs='static' but targets are infeasible: "
                    + "; ".join(sol.violations)
                )
            c0 = sol.costs
        else:
            c0 = p["initial_costs"]
        q0 = np.clip(net.targets + p["initial_q_offset"], 0.0, 1.0)
        traj = compliance.simulate(
            net, scenario.horizon, initial_Q=q0, initial_C=c0, step=p["step"]
        )
        series = (("Q", traj.Q), ("C", traj.C), ("Qbar", traj.Qbar))
        emit(
            "compliance",
            ["time"] + [f"{v}{i + 1}" for v, _ in series for i in range(net.n)],
            [traj.times] + [col for _, a in series for col in a.T],
        )
    else:  # junction
        ens = junction.run_ensemble(*scenario.model, scenario.runs, scenario.seed, workers)
        emit(
            "junction",
            ["time", "vbar_mean", "vbar_std", "q_mean", "c_mean"],
            [ens.times.astype(float), ens.vbar_mean, ens.vbar_std, ens.q_mean, ens.c_mean],
        )
    summary.wall_time_s = time.perf_counter() - started
    summary_path = out / f"{stem}_summary.json"
    summary_path.write_text(json.dumps(asdict(summary), indent=2) + "\n")
    summary.outputs.append(str(summary_path))
    return summary


# -- agent-vs-reduced validation ----------------------------------------------

VALIDATION_THRESHOLD = 0.05  # a PASS needs every relative gap below this


@dataclass
class ValidationReport:
    passed: bool
    max_rel_L: float
    max_rel_X: float
    per_type_L: list[float]
    per_type_X: list[float]
    compared_from: float
    compared_points: int
    threshold: float = VALIDATION_THRESHOLD


def validate(
    agent_scenario: Scenario,
    reduced_scenario: Scenario,
    workers: int = 1,
) -> ValidationReport:
    """Compare agent and reduced ensemble means of tips and free tips.

    Refuses structurally incomparable scenarios (type count, horizon, or
    output grid mismatch), and a horizon with no grid time after the
    transient, before either ensemble runs.  Physical parameters (rate,
    delay) may differ; that simply yields an honest FAIL, which is what
    negative controls use.
    PASS iff the pointwise relative difference after the transient
    (t > 5 * max delay) stays below ``VALIDATION_THRESHOLD``.
    """
    if agent_scenario.kind != "tangle-agent":
        raise ScenarioError("first scenario must have kind 'tangle-agent'")
    if reduced_scenario.kind != "tangle-reduced":
        raise ScenarioError("second scenario must have kind 'tangle-reduced'")
    pa, pr = agent_scenario.params, reduced_scenario.params
    if pa["types"] != pr["types"]:
        raise ScenarioError("type counts differ; trajectories are not comparable")
    if agent_scenario.horizon != reduced_scenario.horizon:
        raise ScenarioError("horizons differ; trajectories are not comparable")
    if pa["grid_dt"] != pr["grid_dt"]:
        raise ScenarioError("output grids differ; trajectories are not comparable")
    t_min = 5.0 * max(pa["delay"], pr["delay"])
    mask = make_grid(agent_scenario.horizon, pa["grid_dt"]) > t_min
    if not mask.any():
        raise ScenarioError(
            f"horizon {agent_scenario.horizon} leaves no grid time after the transient"
            f" (t > 5 * max delay = {t_min}); nothing to compare"
        )
    _integer(workers, "workers", minimum=1)
    # mean L and X of each model, (2, G, d); the agent ensemble's stack is freed
    # before the reduced one runs; both share a pool sized by the larger's blocks
    pair = (agent_scenario, reduced_scenario)
    with worker_pool(max(len(spans(sc.runs, workers)) for sc in pair)) as pool:
        ma, mr = (
            run_tangle_ensemble(sc.model, sc.params["grid_dt"], sc.horizon, sc.seed, sc.runs,
                                workers, pool=pool)[1][:, :2].mean(axis=0)
            for sc in pair
        )
    ma, mr = ma[:, mask], mr[:, mask]
    rel = (np.abs(ma - mr) / np.maximum(np.abs(mr), 1.0)).max(axis=1)
    per_L, per_X = rel.tolist()
    max_L, max_X = max(per_L), max(per_X)
    return ValidationReport(
        passed=max(max_L, max_X) < VALIDATION_THRESHOLD,
        max_rel_L=max_L,
        max_rel_X=max_X,
        per_type_L=per_L,
        per_type_X=per_X,
        compared_from=t_min,
        compared_points=int(mask.sum()),
    )
