"""Child-process launcher of the benchmark.

    python3 perfbench/launch.py cli [--trace FILE] -- <repro cli args>
    python3 perfbench/launch.py setup WORKLOAD SCENARIO_FILE WORK_DIR
    python3 perfbench/launch.py import

``cli`` runs ``repro.cli.main`` with the given arguments; with
``--trace`` it first wraps every traced layer (see ``tracer.py``) and
writes the spans to FILE when the process ends, also after SIGINT, which
is how a ``serve`` child is stopped.  ``setup`` makes one cold set-up of
a workload (import, scenario build and validation, one warm-up op) and
prints ``ready``.  ``import`` prints the wall time of a cold
``import repro.api``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _cli(argv: list) -> int:
    trace_file = None
    if argv and argv[0] == "--trace":
        trace_file, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    rec = None
    if trace_file is not None:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        if rec is not None:
            rec.write(trace_file)


def _setup(workload: str, path: str, work_dir: str) -> int:
    from repro.api import load_scenarios, run_scenario, sweep_scenario_report

    scenarios = load_scenarios(path)
    for scenario in scenarios:
        scenario.validate()
    first = scenarios[0]
    if workload == "cold-run":
        result = run_scenario(first)
        ok = result.scenario == first.name and bool(result.metrics)
    elif workload == "sweep-ckpt":
        values = first.sweep.values[:2]
        report = sweep_scenario_report(
            first, values=values, executor="serial",
            checkpoint=os.path.join(work_dir, "setup-journal"),
        )
        ok = len(report.results) == 2 and report.ok
    else:
        raise SystemExit(f"no set-up for workload {workload!r}")
    print("ready" if ok else "bad-warmup", flush=True)
    return 0 if ok else 1


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return _cli(rest)
    if mode == "setup":
        return _setup(*rest)
    if mode == "import":
        start = time.perf_counter()
        import repro.api  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    raise SystemExit(f"unknown launcher mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
