"""Benchmark of the repro: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout (``src/repro`` must be there).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs half the window untraced and half traced, and reports the per-layer
ledger, the start-up import time and the tracing overhead.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
details (errors, digests, sample counts) go to ``.perfbench_out/``.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

import cold_run
import common
import live
import sweep_ckpt
import tracer

WORKLOADS = {"cold-run": cold_run, "sweep-ckpt": sweep_ckpt, "live": live}


def _load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: str):
    """Run one workload; returns ``(outcome, metrics)``."""
    module = WORKLOADS[name]
    out = common.Outcome()
    ctx = module.prepare(seed, work)
    # A traced run keeps every sweep layer in this process, in both
    # halves, so that the halves differ only in tracing.
    ctx["workers"] = 1 if trace else common.WORKERS
    if not trace:
        # Cold set-ups are taken between the window's repetitions (a
        # workload without ``setup_once`` takes them in its ops).
        setups = None
        if hasattr(module, "setup_once"):
            setups = ctx["setups"] = common.SetupSampler(
                lambda index: module.setup_once(ctx, index))
        phase = module.phase(ctx, seconds, out, None)
        if setups is not None:
            setups(1.0)
            phase["setups"] = setups.times
        out.outputs_digest = phase["digest"]
        out.record["samples"] = len(phase["samples"])
        out.record["setup_times_s"] = phase["setups"]
        out.record["workers"] = phase.get("workers")
        return out, module.end_to_end(ctx, phase)
    # One untimed op first, so that neither half pays first-use
    # costs.  The traced half goes first: in-process sweeps re-run
    # the same inputs in both halves, and the second half finds the
    # simulator's memos warm.  So the ledger sees the less warm
    # process, and the overhead is an upper bound.
    module.phase(ctx, 0.0, out, None)
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    traced = module.phase(ctx, seconds / 2, out, trace_dir)
    plain = module.phase(ctx, seconds / 2, out, None)
    dumps = tracer.load_dumps(
        os.path.join(trace_dir, f) for f in sorted(os.listdir(trace_dir)))
    spans = tracer.SpanSet(dumps)
    metrics = tracer.layer_metrics(spans)
    if name == "live":
        metrics.update(module.layer_extra(traced, tracer.serve_verb_total_ms(spans)))
    else:
        metrics.update({"serve.http_overhead_ms": 0.0, "serve.rss_growth_mb": 0.0})
    metrics["startup.import_s"] = common.median(common.import_times())
    base = common.median(plain["samples"])
    metrics["trace.overhead_ms"] = common.median(traced["samples"]) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_ms"] / base
    out.outputs_digest = traced["digest"]
    out.record.update({
        "untraced_digest": plain["digest"],
        "traced_workers": traced.get("workers", "one per process"),
        "spans": len(spans.spans),
        "traced_points": traced.get("points"),
    })
    if plain["digest"] != traced["digest"]:
        out.fail("outputs_digest changed when tracing was turned on")
    return out, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print("perfbench: no src/repro in the working directory; run from "
              "the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(common.OUT_ROOT,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        out, values = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": out.attempted, "failed": out.failed,
        "outputs_digest": out.outputs_digest, "errors": out.errors,
        **out.record, "metrics": metrics,
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"outputs_digest": out.outputs_digest, **out.record}))
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
