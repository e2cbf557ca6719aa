"""``live``: one client driving real ``repro serve`` processes.

Each replay starts a fresh server (with ``--restore-key``) on a long
cluster scenario (see ``scenarios.live_scenario``) whose seed is derived
from the workload seed and the replay's index.  One client runs a closed
loop: ``GET /status``, ``POST /advance {"segments": 1}``, and every
SNAPSHOT_EVERY segments a ``GET /snapshot`` followed by a ``POST
/restore`` of it.  When the run is done, ``GET /metrics``, then a ``POST
/restore`` of the snapshot taken at segment 0 rewinds the server, and
the server is stopped.  After the timed window, each replay's final
metrics must equal the in-process ``run_scenario`` result of its
scenario.  Only whole replays are timed; the server's start, from spawn
to the first ``/status`` 200, is a ``setup_s`` sample.

A replay's cost depends on its seed: over twelve seeds, the median
segment cost of one seed differed by up to 1.8x from another's.  A run
that kept to a few seeds carried that spread into every metric; one
fresh seed per replay averages it over the ~20 replays of a run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import scenarios

#: Segments between two snapshot/restore round trips.
SNAPSHOT_EVERY = 16
#: HMAC key the server authenticates restores with.
RESTORE_KEY = "perfbench-restore-key"


#: The one CPU the client and the server share in a replay.  The client
#: and the server wake each other on every request.  On two CPUs of a
#: VM, every wake-up of an idle CPU goes through the host's scheduler,
#: and in the host's busy spells whole runs came out ~45 % slower (their
#: p99 twice as high); on one CPU the hand-off is a plain context switch.
LOOP_CPUS = {max(os.sched_getaffinity(0))}


class Server:
    """A ``repro serve`` child process and a client connection to it.

    The server starts on every CPU this process may use, as a user's
    server would (pinned to one CPU, its start-up stalls whenever
    something else runs there); ``pin`` then moves all its threads."""

    def __init__(self, path: str, trace_file: Optional[str] = None) -> None:
        args = ["serve", path, "--port", "0", "--restore-key", RESTORE_KEY]
        if trace_file is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = common.launcher("cli", "--trace", trace_file, "--", *args)
        self.started = time.perf_counter()
        # SIGINT back to its default, which Python turns into a clean
        # exit; a parent started in the background may have it ignored.
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        self.conn: Optional[http.client.HTTPConnection] = None
        try:
            line = self.proc.stdout.readline()
            port = json.loads(line)["port"]
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            self.ready_s = self._await_status()
        except BaseException:
            self.stop()
            raise

    def _await_status(self) -> float:
        while True:
            try:
                status, _body = self.request("GET", "/status")
            except (ConnectionError, http.client.HTTPException):
                status = None
            if status == 200:
                return time.perf_counter() - self.started
            if self.proc.poll() is not None or \
                    time.perf_counter() - self.started > 120:
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.005)

    def pin(self, cpus: set) -> None:
        """Move every thread of the server (the handler thread of this
        client's connection among them) onto ``cpus``."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except (ProcessLookupError, FileNotFoundError):
                pass

    def request(self, method: str, path: str,
                body: Optional[Any] = None) -> Tuple[int, Any]:
        data = None if body is None else json.dumps(body)
        headers = {} if data is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def rss_mb(self, key: str = "VmRSS") -> Optional[float]:
        return common.proc_status_mb(self.proc.pid, key)

    def stop(self) -> None:
        """SIGINT (the server's clean exit, which lets a traced launcher
        write its spans), then wait; kill if it hangs."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prepare(seed: int, work: str) -> Dict[str, Any]:
    return {"seed": seed, "work": work, "paths": {}, "refs": {}}


def scenario_file(ctx: Dict[str, Any], k: int) -> str:
    """The scenario file of replay ``k``, written on first use."""
    if k not in ctx["paths"]:
        spec = scenarios.live_scenario(
            scenarios.derive_seed(ctx["seed"], "replay", k))
        ctx["paths"][k] = common.write_scenarios(
            ctx["work"], f"live-{k}.json", [spec])
    return ctx["paths"][k]


def reference(ctx: Dict[str, Any], k: int) -> Dict[str, Any]:
    """In-process ``run_scenario`` result of replay ``k``'s scenario."""
    if k not in ctx["refs"]:
        from repro.api import load_scenarios, run_scenario

        (scenario,) = load_scenarios(scenario_file(ctx, k))
        ctx["refs"][k] = common.plain(run_scenario(scenario))
    return ctx["refs"][k]


def phase(ctx: Dict[str, Any], seconds: float, out: common.Outcome,
          trace_dir: Optional[str]) -> Dict[str, Any]:
    """Replays 0, 1, 2, ... until ``seconds`` have passed, each on a
    fresh server; then check every replay's final metrics."""
    result = _replays(ctx, seconds, out, trace_dir)
    digest = None
    for k, final in enumerate(result.pop("finals")):
        if final is None:
            continue
        if final != reference(ctx, k):
            out.fail(f"replay {k}: final /metrics differs from in-process "
                     "run_scenario")
        elif digest is None:
            digest = common.digest([final["metrics"]])
        result["cycles"] += common.sim_cycles(final["metrics"])
    result["digest"] = digest
    return result


def _replays(ctx: Dict[str, Any], seconds: float, out: common.Outcome,
             trace_dir: Optional[str]) -> Dict[str, Any]:
    times: Dict[str, List[float]] = {
        k: [] for k in ("iteration", "status", "advance", "snapshot",
                        "restore", "rewind", "metrics")}
    segments = 0
    busy = 0.0
    finals: List[Optional[Dict[str, Any]]] = []
    ready: List[float] = []
    peaks: List[float] = []
    rss: Dict[str, Optional[float]] = {"first": None, "last": None}

    def call(server: Server, kind: str, method: str, path: str,
             body: Any = None):
        start = time.perf_counter()
        try:
            status, payload = server.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, payload = None, {"error": repr(exc)}
        times[kind].append((time.perf_counter() - start) * 1000.0)
        out.attempted += 1
        if status != 200:
            out.fail(f"{method} {path}: {status} {str(payload)[:200]}")
            return None
        return payload

    deadline = common.Deadline(seconds)
    all_cpus = os.sched_getaffinity(0)
    while deadline.more(len(finals)):
        k = len(finals)
        trace = (None if trace_dir is None
                 else os.path.join(trace_dir, f"server-{k}.json"))
        server = Server(scenario_file(ctx, k), trace)
        try:
            ready.append(server.ready_s)
            status, start_ckpt = server.request("GET", "/snapshot")
            if status != 200:
                raise RuntimeError(f"initial snapshot failed: {start_ckpt}")
            server.pin(LOOP_CPUS)
            os.sched_setaffinity(0, LOOP_CPUS)
            replay_start = time.perf_counter()
            done = False
            while not done:
                began = time.perf_counter()
                state = call(server, "status", "GET", "/status")
                step = call(server, "advance", "POST", "/advance", {"segments": 1})
                if state is None or step is None:
                    break
                if step["status"]["segments_completed"] != state["segments_completed"] + 1:
                    out.fail(f"advance from segment {state['segments_completed']} "
                             "did not step exactly one segment")
                segments += 1
                done = step["status"]["done"]
                if k == 0 and rss["first"] is None:
                    rss["first"] = server.rss_mb()
                times["iteration"].append((time.perf_counter() - began) * 1000.0)
                if step["status"]["segments_completed"] % SNAPSHOT_EVERY == 0:
                    ckpt = call(server, "snapshot", "GET", "/snapshot")
                    back = None if ckpt is None else call(
                        server, "restore", "POST", "/restore", ckpt)
                    if back is not None and back["segments_completed"] != \
                            step["status"]["segments_completed"]:
                        out.fail("restore did not return to the snapshot's segment")
            finals.append(call(server, "metrics", "GET", "/metrics"))
            rewound = call(server, "rewind", "POST", "/restore", start_ckpt)
            if rewound is not None and rewound["segments_completed"] != 0:
                out.fail("restore of the segment-0 snapshot did not rewind")
            busy += time.perf_counter() - replay_start
            if k == 0:
                rss["last"] = server.rss_mb()
            peaks.append(server.rss_mb("VmHWM") or 0.0)
        finally:
            os.sched_setaffinity(0, all_cpus)
            server.stop()
        if out.failed:
            break
    return {"times": times, "segments": segments, "replays": len(finals),
            "cycles": 0.0, "busy": busy, "finals": finals,
            "samples": times["iteration"], "setups": ready,
            "rss_first": rss["first"], "rss_last": rss["last"],
            "rss_peak": max(peaks, default=0.0)}


def end_to_end(ctx: Dict[str, Any], phase: Dict[str, Any]) -> Dict[str, float]:
    t = phase["times"]
    restores = t["restore"] + t["rewind"]
    return {
        "setup_s": common.median(phase["setups"]),
        "sim_cycles_per_s": phase["cycles"] / phase["busy"],
        "points_per_s": phase["segments"] / phase["busy"],
        "resume_s": common.median(t["rewind"]) / 1000.0,
        "run_p50_ms": common.median(t["iteration"]),
        "run_tail_ms": common.tail(t["iteration"]),
        "advance_p50_ms": common.median(t["advance"]),
        "advance_tail_ms": common.tail(t["advance"]),
        "snapshot_p50_ms": common.median(t["snapshot"]),
        "restore_p50_ms": common.median(restores),
        "peak_rss_mb": phase["rss_peak"] or common.peak_rss_mb(),
    }


def layer_extra(phase: Dict[str, Any], verb_ms: float) -> Dict[str, float]:
    """Serve-layer figures only the client side can give."""
    t = phase["times"]
    requests = sum(len(v) for k, v in t.items() if k != "iteration")
    client_ms = sum(sum(v) for k, v in t.items() if k != "iteration")
    growth = (phase["rss_last"] - phase["rss_first"]
              if phase["rss_first"] is not None and phase["rss_last"] is not None
              else 0.0)
    return {
        "serve.http_overhead_ms": (client_ms - verb_ms) / requests,
        "serve.rss_growth_mb": growth,
    }
