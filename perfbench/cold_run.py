"""``cold-run``: a closed loop of real ``repro run --json`` processes.

One process at a time cycles through seven scenario kinds (figure,
open-loop, closed-loop serving, three cluster runs, LLM).  Each run is
timed from spawn to parsed JSON, validated with ``validate_run_result``
and compared with the in-process ``run_scenario`` result computed during
set-up.  Only whole cycles are timed, so every run mixes the kinds alike.
Successive cycles use VARIANTS scenario files whose seeds differ: the LLM
run's simulated cycles, which dominate ``sim_cycles_per_s`` here, vary
by about 7 % from seed to seed, and a run that covers several seeds
averages that out.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import common
import scenarios

#: Scenario files a run cycles through, each with its own derived seeds.
VARIANTS = 6


def prepare(seed: int, work: str) -> Dict[str, Any]:
    from repro.api import Scenario, run_scenario

    variants = []
    for k in range(VARIANTS):
        specs = scenarios.cold_run_scenarios(scenarios.derive_seed(seed, "cycle", k))
        path = common.write_scenarios(work, f"cold-run-{k}.json", specs)
        refs = {spec["name"]: common.plain(run_scenario(Scenario.from_dict(spec)))
                for spec in specs}
        variants.append((specs, path, refs))
    return {"variants": variants, "work": work}


def setup_once(ctx: Dict[str, Any], index: int) -> float:
    path = ctx["variants"][index % VARIANTS][1]
    return common.launch_setup("cold-run", path, ctx["work"], index)


def phase(ctx: Dict[str, Any], seconds: float, out: common.Outcome,
          trace_dir: Optional[str]) -> Dict[str, Any]:
    """Run whole cycles until ``seconds`` have passed; with ``trace_dir``
    every run goes through the tracing launcher."""
    from repro.api import validate_run_result
    from repro.errors import ConfigError

    samples: List[float] = []
    cluster: List[float] = []
    rss: List[float] = []
    cycles = 0.0
    first_cycle: List[Any] = []
    deadline = common.Deadline(seconds, ctx.get("setups"))
    busy = 0.0
    done = 0
    while deadline.more(done):
        specs, path, refs = ctx["variants"][done % VARIANTS]
        done += 1
        for spec in specs:
            name = spec["name"]
            args = ["run", path, "--scenario", name, "--json"]
            op = out.attempted
            if trace_dir is None:
                argv = [sys.executable, "-m", "repro.cli", *args]
            else:
                trace = os.path.join(trace_dir, f"op{op}.json")
                argv = common.launcher("cli", "--trace", trace, "--", *args)
            start = time.perf_counter()
            proc = common.run_measured_child(argv, op=op)
            try:
                payload = json.loads(proc.stdout) if proc.returncode == 0 else None
            except json.JSONDecodeError:
                payload = None
            elapsed = time.perf_counter() - start
            out.attempted += 1
            busy += elapsed
            samples.append(elapsed * 1000.0)
            rss.append(proc.peak_rss_mb)
            if spec["kind"] == "cluster":
                cluster.append(elapsed * 1000.0)
            if payload is None:
                out.fail(f"{name}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            try:
                validate_run_result(payload)
            except ConfigError as exc:
                out.fail(f"{name}: {exc}")
                continue
            if payload != refs[name]:
                out.fail(f"{name}: output differs from in-process run_scenario")
                continue
            cycles += common.sim_cycles(payload["metrics"])
            if done == 1:
                first_cycle.append(payload["metrics"])
    return {"samples": samples, "cluster": cluster, "busy": busy, "rss": rss,
            "cycles": cycles, "digest": common.digest(first_cycle)}


def end_to_end(ctx: Dict[str, Any], phase: Dict[str, Any]) -> Dict[str, float]:
    runs = phase["samples"]
    metrics = {
        "setup_s": common.median(phase["setups"]),
        "sim_cycles_per_s": phase["cycles"] / phase["busy"],
        "points_per_s": len(runs) / phase["busy"],
        "run_p50_ms": common.median(runs),
        "run_tail_ms": common.tail(runs),
        "advance_p50_ms": common.median(phase["cluster"]),
        "advance_tail_ms": common.tail(phase["cluster"]),
        "peak_rss_mb": max(phase["rss"]),
    }
    common.fallback(metrics, runs, ("snapshot_p50_ms", "restore_p50_ms", "resume_s"))
    return metrics
