"""Outside-in tracing: wrappers around the public boundaries of each
``repro.*`` layer, recorded into an in-memory span list.

Nothing here edits the program.  :func:`install` replaces functions and
methods with timing wrappers: a function is replaced under every module
attribute that binds it (``build_trace`` imported into several modules
is traced wherever it is called from), a method on its class.  Spans are
kept in memory and written out once, at the end of the process.

Three very hot leaves (scheduler ``decide``/``state_fingerprint`` and
the HBM ``FairFactorCache.factors``) are aggregated rather than stored
one span per call: their time is added to the enclosing span's
``leaf_ns`` so self times still add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Environment variable carrying the op id into traced child processes.
OP_ENV = "PERFBENCH_OP"

# Span record layout: [id, name, parent, start_ns, end_ns, op, leaf_ns].
_ID, _NAME, _PARENT, _START, _END, _OP, _LEAF = range(7)


class Recorder:
    """In-memory span recorder plus named counters, one per process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.leaf_ns: Dict[str, int] = defaultdict(int)
        self.op: Any = os.environ.get(OP_ENV)
        self._local = threading.local()
        # next() on a C iterator is one call under the GIL, so span ids
        # stay unique across the server's handler threads.
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][_ID] if stack else None
        span = [next(self._ids), name, parent, time.perf_counter_ns(), 0, self.op, 0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open on this thread."""
        return any(span[_NAME] == name for span in self._stack())

    def leaf(self, name: str, elapsed_ns: int) -> None:
        self.leaf_calls[name] += 1
        self.leaf_ns[name] += elapsed_ns
        stack = self._stack()
        if stack:
            stack[-1][_LEAF] += elapsed_ns

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def dump(self) -> Dict[str, Any]:
        pid = os.getpid()
        return {
            "pid": pid,
            "spans": [
                [f"{pid}:{s[_ID]}", s[_NAME],
                 None if s[_PARENT] is None else f"{pid}:{s[_PARENT]}",
                 s[_START], s[_END], s[_OP], s[_LEAF]]
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "leaf_calls": dict(self.leaf_calls),
            "leaf_ns": dict(self.leaf_ns),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Hook = Callable[["Recorder", tuple, dict, Any], None]


def _span_wrapper(fn: Callable, name: str, rec: Recorder,
                  after: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _leaf_wrapper(fn: Callable, name: str, rec: Recorder) -> Callable:
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, clock() - start)

    return wrapper


def _factors_wrapper(fn: Callable, rec: Recorder) -> Callable:
    """``FairFactorCache.factors``: a leaf that also reads the cache's
    own ``hits`` counter across the call to classify it."""
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        hits = self.hits
        start = clock()
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.leaf("sim.hbm", clock() - start)
            rec.count("sim.hbm_hits" if self.hits > hits else "sim.hbm_misses")

    return wrapper


def _repro_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


#: ``(owner, attribute, original value)`` of every replaced binding.
Undo = List[Tuple[Any, str, Any]]


def _rebind_function(undo: Undo, module_name: str, attr: str,
                     wrap: Callable) -> None:
    """Replace ``module.attr`` under every repro module attribute bound
    to the same function object."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrap(original)
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapped)


def _rebind_method(undo: Undo, cls: type, attr: str, wrap: Callable) -> None:
    """Wrap ``cls.attr`` if ``cls`` itself defines it (not a base)."""
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    undo.append((cls, attr, raw))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def _subclasses(base: type) -> Iterable[type]:
    seen = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


def _count_hook(counter: str, measure: Callable[[tuple, Any], float]) -> Hook:
    def hook(rec: Recorder, args: tuple, kwargs: dict, out: Any) -> None:
        rec.count(counter, measure(args, out))

    return hook


def _exec_map_wrapper(fn: Callable, rec: Recorder) -> Callable:
    """``Executor.map_tasks``: only the outermost call on a thread is an
    ``exec.map`` span (a backend that hands a map to another backend
    runs one map, not two).  Tasks and retries are counted from the
    outcomes as they settle, so a map stopped part way counts the tasks
    it did run."""

    @functools.wraps(fn)
    def wrapper(self, task_fn, tasks, on_complete=None):
        if rec.inside("exec.map"):
            return fn(self, task_fn, tasks, on_complete)

        def settled(outcome):
            rec.count("exec.tasks")
            rec.count("exec.retries", max(outcome.attempts - 1, 0))
            if on_complete is not None:
                on_complete(outcome)

        span = rec.begin("exec.map")
        try:
            return fn(self, task_fn, tasks, settled)
        finally:
            rec.end(span)

    return wrapper


#: Modules imported before wrapping, so that every binding exists.
_MODULES = (
    "repro.api", "repro.api.scenario", "repro.api.result", "repro.api.runner",
    "repro.api.figures", "repro.cli", "repro.workloads.traces",
    "repro.compiler.lowering", "repro.traffic.openloop",
    "repro.traffic.cluster_sim", "repro.sim.engine", "repro.sim.hbm",
    "repro.sim.scheduler_base", "repro.megabatch.engine", "repro.exec",
    "repro.exec.journal", "repro.cluster.orchestrator",
    "repro.cluster.autoscale", "repro.runtime.hypervisor",
    "repro.serve.controller", "repro.serve.server", "repro.llmserve.engine",
    "repro.serving.server", "repro.experiments",
)

#: Figure experiment modules whose ``run_result`` is the figure layer.
_FIGURE_MODULES = (
    "ablations", "fig02_demand", "fig04_intensity", "fig05_utilization",
    "fig06_ve_idle", "fig07_hbm", "fig12_allocator", "fig16_neuisa_overhead",
    "fig19_22_serving", "fig23_harvest", "fig24_assignment", "fig25_scaling",
    "fig26_bandwidth", "fig27_llm", "hwcost",
)

#: ServeController verbs traced one span name each.
SERVE_VERBS = ("status", "segments", "advance", "tick", "pause", "start",
               "snapshot", "restore", "metrics", "inject")


def install(rec: Recorder) -> Undo:
    """Wrap every traced boundary of the ``repro`` package; returns what
    :func:`uninstall` needs to put the originals back."""
    undo: Undo = []
    for name in _MODULES:
        importlib.import_module(name)
    for name in _FIGURE_MODULES:
        importlib.import_module(f"repro.experiments.{name}")
    from repro.api import SCHEDULERS, AUTOSCALERS, EXECUTORS
    # Load the lazy registries so every plugin class is defined.
    for registry in (SCHEDULERS, AUTOSCALERS, EXECUTORS):
        registry.names()

    def span(name: str, after: Optional[Hook] = None) -> Callable:
        return lambda fn: _span_wrapper(fn, name, rec, after)

    # repro.api
    for attr in ("load_scenario", "load_scenarios", "parse_scenarios"):
        _rebind_function(undo, "repro.api.scenario", attr, span("api.load_validate"))
    from repro.api.scenario import Scenario
    from repro.api.result import RunResult
    _rebind_method(undo, Scenario, "validate", span("api.load_validate"))
    for attr in ("to_dict", "from_dict", "to_json"):
        _rebind_method(undo, RunResult, attr, span("api.result_codec"))
    for attr in ("sweep_scenario", "sweep_scenario_report"):
        _rebind_function(undo, "repro.api.runner", attr, span("api.sweep"))
    # compile and lowering
    _rebind_function(undo, "repro.workloads.traces", "build_trace",
                     span("compile.build_trace"))
    for attr in ("lower_graph_neuisa", "lower_graph_vliw"):
        _rebind_function(undo, "repro.compiler.lowering", attr, span("compile.lower"))
    # open-loop traffic
    _rebind_function(undo, "repro.traffic.openloop", "prepare_open_loop",
                     span("traffic.prepare"))
    _rebind_function(undo, "repro.traffic.openloop", "finalize_open_loop",
                     span("traffic.finalize"))
    # simulator core
    from repro.sim.engine import Simulator
    from repro.sim.hbm import FairFactorCache
    from repro.sim.scheduler_base import SchedulerBase
    _rebind_method(undo, Simulator, "run", span("sim.run"))
    for cls in _subclasses(SchedulerBase):
        _rebind_method(undo, cls, "decide",
                       lambda fn: _leaf_wrapper(fn, "sim.plan", rec))
        _rebind_method(undo, cls, "state_fingerprint",
                       lambda fn: _leaf_wrapper(fn, "sim.fingerprint", rec))
    _rebind_method(undo, FairFactorCache, "factors",
                   lambda fn: _factors_wrapper(fn, rec))
    # mega-batch engine
    from repro.megabatch.engine import MegaBatchEngine
    _rebind_method(undo, MegaBatchEngine, "run", span(
        "megabatch.run",
        _count_hook("megabatch.lanes", lambda args, out: len(out))))
    # executors and journal
    from repro.exec.base import Executor
    from repro.exec.journal import SweepJournal
    for cls in _subclasses(Executor):
        _rebind_method(undo, cls, "map_tasks",
                       lambda fn: _exec_map_wrapper(fn, rec))
    _rebind_function(undo, "repro.api.runner", "_run_scenario_payload",
                     span("exec.task"))
    _rebind_method(undo, SweepJournal, "__init__", span("exec.journal_open"))
    _rebind_method(undo, SweepJournal, "record", span("exec.journal_record"))
    # cluster segment orchestration, cluster and runtime
    from repro.traffic.cluster_sim import ClusterSimulation
    _rebind_method(undo, ClusterSimulation, "step_segment", span("cluster_sim.step"))
    _rebind_method(undo, ClusterSimulation, "snapshot", span(
        "cluster_sim.snapshot",
        _count_hook("cluster_sim.snapshot_bytes",
                    lambda args, out: len(out.payload))))
    _rebind_method(undo, ClusterSimulation, "restore", span("cluster_sim.restore"))
    from repro.cluster.orchestrator import ClusterOrchestrator
    for attr in ("submit", "release", "migrate"):
        _rebind_method(undo, ClusterOrchestrator, attr, span("cluster.orchestrator"))
    from repro.cluster.autoscale import Autoscaler
    for cls in _subclasses(Autoscaler):
        _rebind_method(undo, cls, "observe", span("cluster.autoscale"))
    from repro.runtime.hypervisor import Hypervisor
    for attr in ("hypercall_create", "hypercall_reconfigure",
                 "hypercall_destroy"):
        _rebind_method(undo, Hypervisor, attr, span("runtime.hypercall"))
    # live control
    from repro.serve.controller import ServeController
    for verb in SERVE_VERBS:
        _rebind_method(undo, ServeController, verb, span(f"serve.verb.{verb}"))
    # front-end engines
    _rebind_function(undo, "repro.llmserve.engine", "run_llm_serving",
                     span("llmserve.run"))
    _rebind_function(undo, "repro.serving.server", "run_collocation",
                     span("serving.collocation"))
    for name in _FIGURE_MODULES:
        _rebind_function(undo, f"repro.experiments.{name}", "run_result",
                         span("experiments.figure"))
    _rebind_function(undo, "repro.cli", "main", span("cli.main"))
    # A server's main thread waits here for its whole life; as a child
    # span it keeps that wait out of cli.main's self time.
    _rebind_function(undo, "repro.serve.server", "serve_forever",
                     span("serve.loop"))
    return undo


def uninstall(undo: Undo) -> None:
    """Restore every binding :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis: spans of every process -> per-layer metrics
# ----------------------------------------------------------------------
class SpanSet:
    """Spans merged from several processes, indexed for self time."""

    def __init__(self, dumps: Iterable[Dict[str, Any]]) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.leaf_ns: Dict[str, int] = defaultdict(int)
        for dump in dumps:
            self.spans.extend(dump["spans"])
            for key, table in (("counters", self.counters),
                               ("leaf_calls", self.leaf_calls),
                               ("leaf_ns", self.leaf_ns)):
                for name, value in dump[key].items():
                    table[name] += value
        self.by_id = {s[_ID]: s for s in self.spans}
        self.children: Dict[str, List[list]] = defaultdict(list)
        for s in self.spans:
            if s[_PARENT] is not None:
                self.children[s[_PARENT]].append(s)

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[_NAME] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def _has_ancestor(self, span: list, names: Tuple[str, ...]) -> bool:
        parent = self.by_id.get(span[_PARENT])
        while parent is not None:
            if parent[_NAME] in names:
                return True
            parent = self.by_id.get(parent[_PARENT])
        return False

    def total_ms(self, *names: str) -> float:
        """Wall time inside spans of ``names``, nested ones counted once."""
        return sum(
            s[_END] - s[_START] for s in self.spans
            if s[_NAME] in names and not self._has_ancestor(s, names)
        ) / 1e6

    def _descendants_in(self, span: list, names: Tuple[str, ...]) -> int:
        """ns covered by the outermost descendants of ``span`` named in
        ``names`` (the search stops at a match)."""
        total = 0
        todo = list(self.children.get(span[_ID], ()))
        while todo:
            child = todo.pop()
            if child[_NAME] in names:
                total += child[_END] - child[_START]
            else:
                todo.extend(self.children.get(child[_ID], ()))
        return total

    def self_ms(self, name: str, minus: Optional[Tuple[str, ...]] = None) -> float:
        """Duration of ``name`` spans minus their children: every direct
        child span and aggregated leaf (``minus=None``), or only the
        outermost descendants named in ``minus``."""
        total = 0
        for s in self.named(name):
            if minus is None:
                child = sum(c[_END] - c[_START]
                            for c in self.children.get(s[_ID], ()))
                child += s[_LEAF]
            else:
                child = self._descendants_in(s, minus)
            total += s[_END] - s[_START] - child
        return total / 1e6


def load_dumps(paths: Iterable[str]) -> List[Dict[str, Any]]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def layer_metrics(spans: SpanSet) -> Dict[str, float]:
    """The per-layer ledger (everything but start-up, serve HTTP
    overhead and RSS growth, which the workloads measure themselves)."""
    c = spans.counters
    fingerprints = spans.leaf_calls.get("sim.fingerprint", 0)
    plans = spans.leaf_calls.get("sim.plan", 0)
    hbm_hits = c.get("sim.hbm_hits", 0)
    hbm_calls = hbm_hits + c.get("sim.hbm_misses", 0)
    verbs = {f"serve.verb_ms.{v}": spans.total_ms(f"serve.verb.{v}")
             for v in ("status", "advance", "snapshot", "restore", "metrics")}
    runs = spans.calls("megabatch.run")
    return {
        "api.load_validate_ms": spans.total_ms("api.load_validate"),
        "api.result_codec_ms": spans.total_ms("api.result_codec"),
        "api.sweep_self_ms": spans.self_ms("api.sweep"),
        "compile.build_trace_calls": spans.calls("compile.build_trace"),
        "compile.build_trace_ms": spans.total_ms("compile.build_trace"),
        "compile.lower_calls": spans.calls("compile.lower"),
        "compile.lower_ms": spans.total_ms("compile.lower"),
        "traffic.prepare_ms": spans.total_ms("traffic.prepare"),
        "traffic.finalize_ms": spans.total_ms("traffic.finalize"),
        "sim.run_calls": spans.calls("sim.run"),
        "sim.run_ms": spans.self_ms("sim.run"),
        "sim.plan_calls": plans,
        "sim.plan_ms": spans.leaf_ns.get("sim.plan", 0) / 1e6,
        "sim.fingerprint_calls": fingerprints,
        "sim.fingerprint_ms": spans.leaf_ns.get("sim.fingerprint", 0) / 1e6,
        "sim.plan_replay_ratio": (1 - plans / fingerprints) if fingerprints else 0.0,
        "sim.hbm_calls": spans.leaf_calls.get("sim.hbm", 0),
        "sim.hbm_ms": spans.leaf_ns.get("sim.hbm", 0) / 1e6,
        "sim.hbm_hit_ratio": hbm_hits / hbm_calls if hbm_calls else 0.0,
        "megabatch.run_calls": runs,
        "megabatch.lanes": c.get("megabatch.lanes", 0) / runs if runs else 0.0,
        "megabatch.run_ms": spans.total_ms("megabatch.run"),
        "exec.map_self_ms": spans.self_ms("exec.map", ("exec.task",)),
        "exec.tasks": c.get("exec.tasks", 0),
        "exec.retries": c.get("exec.retries", 0),
        "exec.journal_open_ms": spans.total_ms("exec.journal_open"),
        "exec.journal_record_ms": spans.total_ms("exec.journal_record"),
        "exec.journal_records": spans.calls("exec.journal_record"),
        "cluster_sim.step_calls": spans.calls("cluster_sim.step"),
        "cluster_sim.step_self_ms": spans.self_ms(
            "cluster_sim.step", ("sim.run", "megabatch.run")),
        "cluster_sim.snapshot_ms": spans.total_ms("cluster_sim.snapshot"),
        "cluster_sim.snapshot_bytes": c.get("cluster_sim.snapshot_bytes", 0),
        "cluster_sim.restore_ms": spans.total_ms("cluster_sim.restore"),
        "cluster.orchestrator_ms": spans.total_ms("cluster.orchestrator"),
        "cluster.autoscale_ms": spans.total_ms("cluster.autoscale"),
        "runtime.hypercall_calls": spans.calls("runtime.hypercall"),
        "runtime.hypercall_ms": spans.total_ms("runtime.hypercall"),
        **verbs,
        "llmserve.run_ms": spans.total_ms("llmserve.run"),
        "serving.collocation_ms": spans.total_ms("serving.collocation"),
        "experiments.figure_ms": spans.total_ms("experiments.figure"),
        "cli.self_ms": spans.self_ms("cli.main"),
    }


def serve_verb_total_ms(spans: SpanSet) -> float:
    """All ServeController verb time, for the HTTP-overhead subtraction."""
    return spans.total_ms(*(f"serve.verb.{v}" for v in SERVE_VERBS))
