"""``sweep-ckpt``: ``sweep_scenario_report`` on the ``pool`` backend
with a checkpoint journal, over the seed sweeps of three open-loop bases
that differ in scheme and model pair.  Each base is interrupted from
``on_progress`` at half its points, then resumed; the merged results must
equal an uninterrupted run of the same grid made during set-up.  A traced
phase uses one worker, so the layers that would run in pool workers run
where the wrappers see them.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Dict, List, Optional

import common
import scenarios
from common import plain, write_scenarios


class _Interrupt(Exception):
    """Raised from ``on_progress`` to stop a sweep half way."""


def prepare(seed: int, work: str) -> Dict[str, Any]:
    from repro.api import Scenario, sweep_scenario_report

    specs = scenarios.sweep_ckpt_bases(seed)
    path = write_scenarios(work, "sweep-ckpt.json", specs)
    bases = [Scenario.from_dict(spec) for spec in specs]
    refs = [
        [plain(r) for r in sweep_scenario_report(
            base, executor="pool", max_workers=common.WORKERS).results]
        for base in bases
    ]
    return {"bases": bases, "refs": refs, "path": path, "work": work,
            "journals": itertools.count()}


def setup_once(ctx: Dict[str, Any], index: int) -> float:
    return common.launch_setup("sweep-ckpt", ctx["path"], ctx["work"], index)


def phase(ctx: Dict[str, Any], seconds: float, out: common.Outcome,
          trace_dir: Optional[str]) -> Dict[str, Any]:
    with common.in_process_tracing(trace_dir) as rec:
        return _timed(ctx, seconds, out, rec)


def _timed(ctx: Dict[str, Any], seconds: float, out: common.Outcome,
           rec: Any) -> Dict[str, Any]:
    workers = ctx["workers"]
    from repro.api import sweep_scenario_report, validate_run_result
    from repro.errors import ConfigError

    passes: List[float] = []
    resumes: List[float] = []
    checkpointing: List[float] = []
    resuming: List[float] = []
    settles: List[float] = []
    cycles = 0.0
    points = 0
    first: Optional[str] = None
    deadline = common.Deadline(seconds, ctx.get("setups"))
    while deadline.more(len(passes)):
        index = len(passes)
        if rec is not None:
            rec.op = index
        pass_ms = 0.0
        resume_s = 0.0
        digests = []
        for b, (base, ref) in enumerate(zip(ctx["bases"], ctx["refs"])):
            journal = os.path.join(ctx["work"], f"journal-{next(ctx['journals'])}")
            half = len(ref) // 2
            clock = [time.perf_counter()]

            def settle(done, total, outcome, stop=None):
                if outcome is None:
                    return
                now = time.perf_counter()
                settles.append((now - clock[0]) * 1000.0)
                clock[0] = now
                if stop is not None and done >= stop:
                    raise _Interrupt

            start = time.perf_counter()
            try:
                sweep_scenario_report(
                    base, executor="pool", max_workers=workers,
                    checkpoint=journal,
                    on_progress=lambda d, t, o: settle(d, t, o, half))
                interrupted = False
            except _Interrupt:
                interrupted = True
            mid = time.perf_counter()
            clock[0] = mid
            report = sweep_scenario_report(
                base, executor="pool", max_workers=workers,
                checkpoint=journal, resume=True, on_progress=settle)
            end = time.perf_counter()
            checkpointing.append((mid - start) * 1000.0)
            resuming.append((end - mid) * 1000.0)
            pass_ms += (end - start) * 1000.0
            resume_s += end - mid
            out.attempted += len(ref)
            points += len(ref)
            payloads = [plain(r) for r in report.results]
            if not interrupted or report.resumed != half:
                out.fail(f"{base.name}: resumed {report.resumed} of "
                         f"{report.total}, expected {half}")
            for i, payload in enumerate(payloads):
                try:
                    validate_run_result(payload)
                except ConfigError as exc:
                    out.fail(f"{base.name} point {i}: {exc}")
                    continue
                if i >= len(ref) or payload != ref[i]:
                    out.fail(f"{base.name} point {i}: resumed result "
                             "differs from the uninterrupted run")
                    continue
                cycles += common.sim_cycles(payload["metrics"])
            for _ in range(len(ref) - len(payloads)):
                out.fail(f"{base.name}: missing point")
            digests.extend(p["metrics"] for p in payloads)
        passes.append(pass_ms)
        resumes.append(resume_s)
        if first is None:
            first = common.digest(digests)
    return {"samples": passes, "busy": sum(passes) / 1000.0,
            "resumes": resumes, "checkpointing": checkpointing, "resuming": resuming,
            "settles": settles, "cycles": cycles, "points": points,
            "digest": first, "workers": workers}


def end_to_end(ctx: Dict[str, Any], phase: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": common.median(phase["setups"]),
        "sim_cycles_per_s": phase["cycles"] / phase["busy"],
        "points_per_s": phase["points"] / phase["busy"],
        "resume_s": common.median(phase["resumes"]),
        "run_p50_ms": common.median(phase["samples"]),
        "run_tail_ms": common.tail(phase["samples"]),
        "advance_p50_ms": common.median(phase["settles"]),
        "advance_tail_ms": common.tail(phase["settles"]),
        "snapshot_p50_ms": common.median(phase["checkpointing"]),
        "restore_p50_ms": common.median(phase["resuming"]),
        "peak_rss_mb": common.peak_rss_mb(),
    }
