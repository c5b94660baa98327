"""Layer tracing installed from outside the package, and the per-layer metrics.

The tracer replaces public functions and methods of ``coopsim`` with timing
wrappers for the length of one traced pass and then puts the originals back;
the package itself carries no tracing code. Two kinds of wrapper exist:

* span wrappers at layer boundaries (``cli.main``, config loading, episodes,
  sweeps, CSV writers, oracle, Monte-Carlo and analysis calls) record one
  span each: name, start, end, parent span and the workload id;
* per-call wrappers on the per-slot and per-frame hot path (policy methods,
  and the ``model`` helpers as the engine's module namespace sees them)
  only add to a call count and a total time. Each span stores how much those
  totals grew while it was open, so per-call work is attributed to its
  parent span without one span per slot.

A name that no longer exists is recorded as absent, so a later refactor that
deletes it shows up as a missing metric or a zero count instead of an error.

Episodes that a sweep runs in forked pool workers are traced there too: the
worker-side wrapper attaches its span to the returned ``RunMetrics`` and the
parent adopts it as a child of the sweep span.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from time import perf_counter

PAYLOAD = "_perfbench_span"


def _episode_attrs(args, result):
    return {"kind": args[0].policy.kind, "slots": result.slots, "frames": result.frames}


def _rows_attrs(args, result):
    return {"rows": args[1].frames}


def _slots_attrs(args, result):
    return {"slots": result.slots}


def _frames_attrs(args, result):
    return {"frames": len(result)}


# (span name, module, attribute path, other modules that import the same
# object by name, attribute extractor, adopt pool-worker spans)
SPAN_TARGETS = (
    ("cli.main", "coopsim.cli", "main", (), None, False),
    ("config.from_path", "coopsim.config", "RunConfig.from_path", (), None, False),
    ("config.build_scenario", "coopsim.config", "RunConfig.build_scenario", (), None, False),
    ("config.build_params", "coopsim.config", "RunConfig.build_params", (), None, False),
    ("engine.run_episode", "coopsim.engine", "run_episode", ("coopsim.cli",),
     _episode_attrs, False),
    ("engine.run_adaptive", "coopsim.engine", "run_adaptive", ("coopsim.cli",), None, False),
    ("engine.sweep_v", "coopsim.engine", "sweep_v", ("coopsim.cli",), None, True),
    ("cli.write_frames_csv", "coopsim.cli", "write_frames_csv", (), _rows_attrs, False),
    ("cli.write_summary_csv", "coopsim.cli", "write_summary_csv", (), None, False),
    ("cli.write_sweep_csv", "coopsim.cli", "write_sweep_csv", (), None, False),
    ("oracle.optimal_two_point", "coopsim.oracle", "optimal_two_point", ("coopsim.cli",),
     None, False),
    ("oracle.grid_search", "coopsim.oracle", "grid_search", ("coopsim.cli",), None, False),
    ("oracle.simulate_stationary", "coopsim.oracle", "simulate_stationary", ("coopsim.cli",),
     _slots_attrs, False),
    ("analysis.drift_constants", "coopsim.analysis", "drift_constants", ("coopsim.cli",),
     None, False),
    ("montecarlo.sample_frames", "coopsim.montecarlo", "sample_frames", (), _frames_attrs,
     False),
)

_POLICY_METHODS = ("begin_frame", "choose_power", "admit", "end_slot")
BASELINE_CLASSES = ("NoCoopPolicy", "AlwaysCoopPolicy", "CounterPolicy")

# (aggregate name, module, attribute path)
CALL_TARGETS = (
    *(
        (f"controller.FrameDriftPenaltyPolicy.{m}", "coopsim.controller",
         f"FrameDriftPenaltyPolicy.{m}")
        for m in _POLICY_METHODS
    ),
    *(
        (f"baselines.{cls}.{m}", "coopsim.baselines", f"{cls}.{m}")
        for cls in BASELINE_CLASSES
        for m in _POLICY_METHODS
    ),
    ("model.SlotOutcome", "coopsim.engine", "SlotOutcome"),
    ("model.step_pu_queue", "coopsim.engine", "step_pu_queue"),
    ("model.step_su_queue", "coopsim.engine", "step_su_queue"),
    ("model.update_virtual_queue", "coopsim.engine", "update_virtual_queue"),
)


def _resolve(module: str, path: str):
    """(owner, attribute, raw descriptor) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def _rewrap(raw, make):
    """Apply ``make`` to the function behind ``raw``, keeping classmethod form."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


class Tracer:
    """Spans and per-call aggregates of one traced run, kept in memory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.context: dict = {}
        self.absent: set[str] = set()
        self._stack: list[dict] = []
        self._cells: dict[str, list] = {}
        self._patches: list[tuple] = []

    # installation -------------------------------------------------------

    def install(self, per_call: bool) -> None:
        """Wrap the span targets, and the per-call targets when ``per_call``."""
        for name, module, path, also, attrs, adopt in SPAN_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, raw = found
            wrapped = _rewrap(raw, lambda fn: self._span_wrapper(fn, name, attrs, adopt))
            self._patch(owner, attr, raw, wrapped)
            for other in also:
                mod = importlib.import_module(other)
                if mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, raw, wrapped)
        if not per_call:
            return
        for name, module, path in CALL_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, raw = found
            cell = self._cells.setdefault(name, [0, 0.0])
            self._patch(owner, attr, raw, _rewrap(raw, lambda fn: _call_wrapper(fn, cell)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr, raw, replacement) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    # spans ----------------------------------------------------------------

    def _snapshot(self) -> dict[str, tuple]:
        return {name: (c[0], c[1]) for name, c in self._cells.items()}

    def _delta(self, before: dict[str, tuple]) -> dict[str, list]:
        out = {}
        for name, (calls, total) in self._cells.items():
            c0, t0 = before.get(name, (0, 0.0))
            if calls > c0:
                out[name] = [calls - c0, total - t0]
        return out

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "seed": self.seed,
            **self.context,
            "pid": self.pid,
            "attrs": {},
            "_agg0": self._snapshot(),
            "start": perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        span["agg"] = self._delta(span.pop("_agg0"))
        self._stack.pop()

    def adopt(self, result, parent: dict) -> None:
        """Turn pool-worker spans attached to ``result`` into children of ``parent``."""
        items = result if isinstance(result, (list, tuple)) else [result]
        for item in items:
            for obj in item if isinstance(item, tuple) else (item,):
                payload = getattr(obj, "__dict__", {}).pop(PAYLOAD, None)
                if payload is not None:
                    payload.update(id=len(self.spans), parent=parent["id"],
                                   workload=self.workload, seed=self.seed, **self.context)
                    self.spans.append(payload)

    def _span_wrapper(self, fn, name, attrs, adopt):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return tracer._in_worker(fn, name, attrs, args, kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span["attrs"] = _safe_attrs(attrs, args, result)
            if adopt:
                tracer.adopt(result, span)
            return result

        return wrapped

    def _in_worker(self, fn, name, attrs, args, kwargs):
        """Time a call in a forked pool worker and send the span back with the result."""
        before = self._snapshot()
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        payload = {"name": name, "pid": os.getpid(), "start": start, "end": end,
                   "agg": self._delta(before),
                   "attrs": _safe_attrs(attrs, args, result) if attrs else {}}
        try:
            setattr(result, PAYLOAD, payload)
        except AttributeError:
            pass
        return result


def _safe_attrs(attrs, args, result) -> dict:
    try:
        return attrs(args, result)
    except (AttributeError, IndexError, TypeError):
        return {}


def _call_wrapper(fn, cell):
    def wrapped(*args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        cell[1] += perf_counter() - t0
        cell[0] += 1
        return result

    return wrapped


# per-layer metrics ----------------------------------------------------------

# name -> (unit, better). The order is the order of BENCHMARK.json.
LAYER_METRICS = {
    **{f"engine.run_episode.{k}.kslot_per_s": ("kslot/s", "higher")
       for k in ("fbdpp", "no_coop", "always_coop", "counter")},
    "engine.run_episode.self_s": ("s", "lower"),
    "engine.slots": ("count", "higher"),
    "engine.frames": ("count", "higher"),
    "model.SlotOutcome.calls": ("count", "lower"),
    "model.SlotOutcome.total_s": ("s", "lower"),
    "model.step_queues.total_s": ("s", "lower"),
    "model.update_virtual_queue.calls": ("count", "lower"),
    "controller.begin_frame.calls": ("count", "lower"),
    "controller.begin_frame.us": ("us", "lower"),
    "controller.per_slot.calls": ("count", "lower"),
    "controller.per_slot.total_s": ("s", "lower"),
    "baselines.per_slot.calls": ("count", "lower"),
    "baselines.per_slot.total_s": ("s", "lower"),
    "baselines.choose_power.us": ("us", "lower"),
    "engine.sweep_v.s": ("s", "lower"),
    "engine.sweep_v.workers": ("count", "lower"),
    "cli.write_frames_csv.s": ("s", "lower"),
    "cli.write_frames_csv.krow_per_s": ("krow/s", "higher"),
    "cli.write_summary_csv.s": ("s", "lower"),
    "cli.write_sweep_csv.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "oracle.optimal_two_point.us": ("us", "lower"),
    "oracle.grid_search.s": ("s", "lower"),
    "oracle.simulate_stationary.kslot_per_s": ("kslot/s", "higher"),
    "montecarlo.sample_frames.mframe_per_s": ("Mframe/s", "higher"),
    "analysis.drift_constants.us": ("us", "lower"),
    "config.load.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

_CONTROLLER_PER_SLOT = tuple(
    f"controller.FrameDriftPenaltyPolicy.{m}" for m in ("choose_power", "admit", "end_slot")
)
_BASELINE_PER_SLOT = tuple(
    f"baselines.{cls}.{m}" for cls in BASELINE_CLASSES for m in ("choose_power", "admit", "end_slot")
)
_BASELINE_CHOOSE = tuple(f"baselines.{cls}.choose_power" for cls in BASELINE_CLASSES)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _dur(span) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


class _Iteration:
    """The spans of one traced iteration of one pass.

    Durations are scaled to nominal machine speed by the factor the worker
    measured for the whole iteration (see speed.py).
    """

    def __init__(self, spans: list[dict], pid: int):
        self.pid = pid
        speed = next((s["attrs"].get("speed", 1.0) for s in spans
                      if s["name"] == "bench.iteration"), 1.0)
        self.spans = [
            {**s, "end": s["start"] + _dur(s) * speed,
             "agg": {k: [c, t * speed] for k, (c, t) in s["agg"].items()}}
            for s in spans
        ]
        self.by_id = {s["id"]: s for s in self.spans}

    def named(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str) -> float:
        return sum(_dur(s) for s in self.named(name))

    def agg(self, names) -> tuple[int, float]:
        """Per-call totals over the iteration, pool workers included."""
        roots = [s for s in self.spans if s["parent"] is None or s["pid"] != self.pid]
        calls = sum(s["agg"].get(n, [0, 0.0])[0] for s in roots for n in names)
        total = sum(s["agg"].get(n, [0, 0.0])[1] for s in roots for n in names)
        return calls, total

    def self_time(self, name: str) -> float:
        spans = self.named(name)
        ids = {s["id"] for s in spans}
        children = sum(_dur(s) for s in self.spans if s["parent"] in ids)
        return sum(_dur(s) for s in spans) - children

    def top_level(self, prefix: str) -> list[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)
                and not self.by_id.get(s["parent"], {"name": ""})["name"].startswith(prefix)]


def layer_metrics(tracer: Tracer, untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer metrics from the spans of passes "spans" and "calls".

    Times and rates come from the pass with span wrappers only, so per-call
    wrappers do not slow what they report; call counts and per-call times
    come from the pass with both. Counts are those of iteration 0, which
    repeat exactly for a given seed; every other figure is the median over
    iterations (per call for ``.us`` figures), at nominal machine speed.
    A layer the workload does not exercise reads 0.
    """
    by_pass: dict[str, dict[int, list]] = {"spans": {}, "calls": {}}
    for span in tracer.spans:
        by_pass[span["pass"]].setdefault(span["iteration"], []).append(span)
    spans_it = {i: _Iteration(s, tracer.pid) for i, s in sorted(by_pass["spans"].items())}
    calls_it = {i: _Iteration(s, tracer.pid) for i, s in sorted(by_pass["calls"].items())}

    def per_iteration(fn, source=spans_it) -> float:
        return _median(v for v in (fn(it) for it in source.values()) if v is not None)

    def per_call(name: str, scale: float) -> float:
        return _median(_dur(s) * scale for it in spans_it.values() for s in it.named(name))

    def first(fn, source=calls_it) -> float:
        return fn(source[min(source)]) if source else 0

    m: dict[str, float] = {}
    for kind in ("fbdpp", "no_coop", "always_coop", "counter"):
        m[f"engine.run_episode.{kind}.kslot_per_s"] = per_iteration(
            lambda it, k=kind: _ratio(
                sum(s["attrs"]["slots"] for s in it.named("engine.run_episode", kind=k)) / 1e3,
                sum(_dur(s) for s in it.named("engine.run_episode", kind=k))))
    # Episode time without tracing cost, minus the per-call work inside it.
    m["engine.run_episode.self_s"] = _median(
        spans_it[i].total("engine.run_episode")
        - sum(t for s in calls_it[i].named("engine.run_episode") for _, t in s["agg"].values())
        for i in spans_it if i in calls_it and spans_it[i].named("engine.run_episode"))
    m["engine.slots"] = first(lambda it: sum(s["attrs"].get("slots", 0)
                                             for s in it.named("engine.run_episode")))
    m["engine.frames"] = first(lambda it: sum(s["attrs"].get("frames", 0)
                                              for s in it.named("engine.run_episode")))
    m["model.SlotOutcome.calls"] = first(lambda it: it.agg(["model.SlotOutcome"])[0])
    m["model.SlotOutcome.total_s"] = per_iteration(
        lambda it: it.agg(["model.SlotOutcome"])[1], calls_it)
    m["model.step_queues.total_s"] = per_iteration(
        lambda it: it.agg(["model.step_pu_queue", "model.step_su_queue"])[1], calls_it)
    m["model.update_virtual_queue.calls"] = first(
        lambda it: it.agg(["model.update_virtual_queue"])[0])
    begin = ["controller.FrameDriftPenaltyPolicy.begin_frame"]
    m["controller.begin_frame.calls"] = first(lambda it: it.agg(begin)[0])
    m["controller.begin_frame.us"] = per_iteration(
        lambda it: _ratio(it.agg(begin)[1] * 1e6, it.agg(begin)[0]), calls_it)
    m["controller.per_slot.calls"] = first(lambda it: it.agg(_CONTROLLER_PER_SLOT)[0])
    m["controller.per_slot.total_s"] = per_iteration(
        lambda it: it.agg(_CONTROLLER_PER_SLOT)[1], calls_it)
    m["baselines.per_slot.calls"] = first(lambda it: it.agg(_BASELINE_PER_SLOT)[0])
    m["baselines.per_slot.total_s"] = per_iteration(
        lambda it: it.agg(_BASELINE_PER_SLOT)[1], calls_it)
    m["baselines.choose_power.us"] = per_iteration(
        lambda it: _ratio(it.agg(_BASELINE_CHOOSE)[1] * 1e6, it.agg(_BASELINE_CHOOSE)[0]),
        calls_it)
    m["engine.sweep_v.s"] = per_iteration(lambda it: it.total("engine.sweep_v"))
    m["engine.sweep_v.workers"] = first(
        lambda it: len({s["pid"] for s in it.named("engine.run_episode") if s["pid"] != it.pid}),
        spans_it)
    m["cli.write_frames_csv.s"] = per_iteration(lambda it: it.total("cli.write_frames_csv"))
    m["cli.write_frames_csv.krow_per_s"] = per_iteration(
        lambda it: _ratio(sum(s["attrs"].get("rows", 0) for s in it.named("cli.write_frames_csv"))
                          / 1e3, it.total("cli.write_frames_csv")))
    m["cli.write_summary_csv.s"] = per_iteration(lambda it: it.total("cli.write_summary_csv"))
    m["cli.write_sweep_csv.s"] = per_iteration(lambda it: it.total("cli.write_sweep_csv"))
    m["cli.main.self_s"] = per_iteration(lambda it: it.self_time("cli.main"))
    m["oracle.optimal_two_point.us"] = per_call("oracle.optimal_two_point", 1e6)
    m["oracle.grid_search.s"] = per_call("oracle.grid_search", 1.0)
    m["oracle.simulate_stationary.kslot_per_s"] = per_iteration(
        lambda it: _ratio(sum(s["attrs"].get("slots", 0)
                              for s in it.named("oracle.simulate_stationary")) / 1e3,
                          it.total("oracle.simulate_stationary")))
    m["montecarlo.sample_frames.mframe_per_s"] = per_iteration(
        lambda it: _ratio(sum(s["attrs"].get("frames", 0)
                              for s in it.named("montecarlo.sample_frames")) / 1e6,
                          it.total("montecarlo.sample_frames")))
    m["analysis.drift_constants.us"] = per_call("analysis.drift_constants", 1e6)
    m["config.load.s"] = per_iteration(
        lambda it: sum(_dur(s) for s in it.top_level("config.")) or None)
    untraced = _median(untraced_walls)
    m["trace.overhead"] = _median(traced_walls) / untraced - 1.0 if untraced > 0 else 0.0
    return {k: v if LAYER_METRICS[k][0] == "count" else float(v) for k, v in m.items()}
