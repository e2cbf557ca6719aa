"""Shared helpers: paths, child processes, percentiles, digests, RSS."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import tracer

#: Directory of the benchmark's own files.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Root of the checkout the benchmark runs in (its working directory).
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Everything a run writes goes here (ignored by git).
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def child_env(op: Any = None) -> Dict[str, str]:
    """Environment for a child Python process running ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_PARALLEL_WORKERS", None)
    env.pop("REPRO_SIM_MEGABATCH", None)
    if op is not None:
        env[tracer.OP_ENV] = str(op)
    return env


def run_child(argv: Sequence[str], op: Any = None,
              timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run a child to completion, capturing its output."""
    return subprocess.run(
        list(argv), cwd=ROOT, env=child_env(op), capture_output=True,
        text=True, timeout=timeout, check=False,
    )


@dataclass
class Child:
    """A finished child process, with its own peak RSS."""

    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_measured_child(argv: Sequence[str], op: Any = None,
                       timeout: float = 120.0) -> Child:
    """Run a child to completion and reap it with ``wait4``, which gives
    the peak RSS of that child alone (``RUSAGE_CHILDREN`` would mix in
    every child reaped before it)."""
    proc = subprocess.Popen(
        list(argv), cwd=ROOT, env=child_env(op), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    errs: List[str] = []
    reader = threading.Thread(target=lambda: errs.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(proc.returncode, out, "".join(errs), usage.ru_maxrss / 1024.0)


def launcher(*args: str) -> List[str]:
    """Command line of the benchmark's own child launcher."""
    return [sys.executable, os.path.join(BENCH_DIR, "launch.py"), *args]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> float:
    """The highest whole percentile with at least ten samples above it,
    never below the median (which it is for fewer than 20 samples)."""
    n = len(values)
    return percentile(sorted(values), max(50.0, math.floor(100.0 * (n - 10) / n)))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of already sorted values."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------
def digest(items: Sequence[Any]) -> str:
    """sha256 over the canonical JSON of a sequence of metric dicts."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":"),
                            default=list).encode())
        h.update(b"\n")
    return h.hexdigest()


def sim_cycles(metrics: Dict[str, Any]) -> float:
    """Simulated NPU cycles a result reports (figures report none)."""
    return float(metrics.get("simulated_cycles", 0.0))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process or the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_status_mb(pid: int, key: str) -> Optional[float]:
    """``VmRSS``/``VmHWM`` of a live process from /proc, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: sha256 over the simulated metrics of a fixed, seed-determined set
    #: of outputs, so two commits' statistics compare exactly.
    outputs_digest: str = ""
    errors: List[str] = field(default_factory=list)
    record: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Deadline:
    """Wall-clock budget of a timed phase made of whole repetitions.

    ``between`` (if given) runs before each repetition with the share of
    the budget used so far; its time counts against the budget."""

    def __init__(self, seconds: float,
                 between: Optional[Callable[[float], None]] = None) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds
        self.between = between

    def more(self, done: int) -> bool:
        """Whether to start another repetition after ``done`` of them:
        always at least one, then only while the phase would end nearer
        to ``seconds`` with it than without it."""
        if self.between is not None:
            used = time.perf_counter() - self.start
            self.between(min(1.0, used / self.seconds) if self.seconds > 0 else 1.0)
        if done == 0:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + 0.5 * elapsed / done < self.seconds


#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 10


class SetupSampler:
    """Cold set-ups spread evenly over the timed window.

    The host's speed drifts in spells of a few seconds.  Set-ups taken
    in one burst all land in one spell; taken between the window's
    repetitions, they see the same mix of spells as the ops do."""

    def __init__(self, measure: Callable[[int], float],
                 count: int = SETUP_REPEATS) -> None:
        self.measure = measure
        self.count = count
        self.times: List[float] = []

    def __call__(self, used: float) -> None:
        """Take set-ups until ``used`` of them are done (at least one)."""
        want = min(self.count, max(1, math.ceil(used * self.count)))
        while len(self.times) < want:
            self.times.append(self.measure(len(self.times)))


def launch_setup(workload: str, scenario_file: str, work_dir: str,
                 index: int) -> float:
    """Wall time from spawning a fresh process until it prints ``ready``
    after one cold set-up of ``workload``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        launcher("setup", workload, scenario_file,
                 os.path.join(work_dir, f"setup-{index}")),
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        _out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up failed: {line} {err[-2000:]}")
    return elapsed


def import_times(repeats: int = 3) -> List[float]:
    """Cold ``import repro.api`` wall times, one fresh process each."""
    out = []
    for _ in range(repeats):
        proc = run_child(launcher("import"))
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout)["import_s"])
    return out


def fallback(metrics: Dict[str, float], op_ms: Sequence[float],
             names: Sequence[str]) -> None:
    """Report ``names`` -- metrics whose operation this workload does
    not have -- as the latency of the workload's own operation."""
    value = median(op_ms)
    for name in names:
        metrics[name] = value / 1000.0 if name == "resume_s" else value


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
#: Pool workers of an untraced sweep phase (never more than the cores).
WORKERS = max(1, min(2, os.cpu_count() or 1))


def write_scenarios(work: str, name: str, specs: List[Dict[str, Any]]) -> str:
    """Write ``specs`` as one JSON scenario file; return its path."""
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"scenarios": specs}, fh)
    return path


def plain(result) -> Dict[str, Any]:
    """A RunResult as the JSON data ``repro run --json`` prints."""
    return json.loads(json.dumps(result.to_dict(), default=list))


@contextlib.contextmanager
def in_process_tracing(trace_dir: Optional[str]) -> Iterator[Any]:
    """Trace this process for the duration of the block: yields the
    recorder (None when ``trace_dir`` is None), then unwraps and writes
    the spans to ``trace_dir``.  Import ``repro`` names inside the block,
    so that they are the wrappers."""
    if trace_dir is None:
        yield None
        return
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        yield rec
    finally:
        tracer.uninstall(undo)
        rec.write(os.path.join(trace_dir, "bench.json"))
