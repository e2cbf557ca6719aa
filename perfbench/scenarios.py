"""Seed-derived scenario specs for every workload, as plain dicts.

The specs live here, not in ``examples/``, so that editing an example
never changes what the benchmark measures.  Every seed a scenario uses
is derived from the benchmark's ``--seed``; the program only ever sees
the generated scenario files.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List


def derive_seed(seed: int, *tags: Any) -> int:
    """A 31-bit scenario seed derived from the workload seed and tags."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def _pair(first: str, second: str, batch: int = 8) -> List[Dict[str, Any]]:
    return [{"model": first, "batch": batch}, {"model": second, "batch": batch}]


def cold_run_scenarios(seed: int) -> List[Dict[str, Any]]:
    """The seven scenario kinds ``repro run`` is cycled through: a figure,
    an open-loop pair, a closed-loop serving pair, three cluster runs
    (churn, autoscaling, VF-limited virtualization) and an LLM run."""
    return [
        {"name": "figure-ve-idle", "kind": "figure", "figure": "fig06"},
        {
            "name": "open-loop-pair", "kind": "open_loop", "scheme": "neu10",
            "arrival": "poisson", "load": 0.8, "duration_s": 0.002,
            "seed": derive_seed(seed, "open-loop"),
            "tenants": _pair("MNIST", "DLRM"),
        },
        {
            "name": "serving-pair", "kind": "serving", "scheme": "neu10",
            "target_requests": 20, "seed": derive_seed(seed, "serving"),
            "tenants": _pair("MNIST", "DLRM"),
        },
        {
            "name": "cluster-churn", "kind": "cluster", "scheme": "neu10",
            "arrival": "poisson", "load": 0.6, "duration_s": 0.002,
            "seed": derive_seed(seed, "churn"), "hosts": 2,
            "churn": [
                {"time_s": 0.0, "action": "arrive", "name": "mnist-a",
                 "model": "MNIST", "batch": 8},
                {"time_s": 0.0, "action": "arrive", "name": "dlrm-a",
                 "model": "DLRM", "batch": 8},
                {"time_s": 0.001, "action": "depart", "name": "mnist-a"},
                {"time_s": 0.001, "action": "arrive", "name": "bert-a",
                 "model": "BERT", "batch": 4},
            ],
        },
        {
            "name": "cluster-autoscale", "kind": "cluster", "scheme": "neu10",
            "arrival": "poisson", "load": 0.5, "duration_s": 0.002,
            "seed": derive_seed(seed, "autoscale"),
            "pools": [{"name": "default", "min_hosts": 1, "max_hosts": 3,
                       "initial_hosts": 1}],
            "autoscaler": {"policy": "slo-burn-rate", "interval_s": 0.00025,
                           "params": {"slo_target": 0.75}},
            "churn": [
                {"time_s": t, "action": "arrive", "name": n, "model": "MNIST",
                 "num_mes": 1, "num_ves": 1}
                for t, n in ((0.0, "base-a"), (0.0, "base-b"),
                             (0.0005, "spike-a"), (0.0005, "spike-b"))
            ] + [
                {"time_s": 0.0015, "action": "depart", "name": n}
                for n in ("spike-a", "spike-b")
            ],
        },
        {
            "name": "cluster-virt", "kind": "cluster", "scheme": "neu10",
            "arrival": "poisson", "load": 0.5, "duration_s": 0.002,
            "seed": derive_seed(seed, "virt"),
            "pools": [{"name": "pool", "min_hosts": 2, "max_hosts": 2,
                       "initial_hosts": 2}],
            "virtualization": {"num_vfs": 2, "hypercall_cost_s": 0.00002},
            "churn": [
                {"time_s": 0.0, "action": "arrive", "name": f"t{i}",
                 "model": "MNIST", "num_mes": 1, "num_ves": 1}
                for i in range(6)
            ] + [{"time_s": 0.001, "action": "depart", "name": "t0"}],
        },
        {
            "name": "llm-kv", "kind": "llm", "scheme": "neu10",
            "arrival": "poisson", "load": 0.9, "duration_s": 0.25,
            "seed": derive_seed(seed, "llm"),
            "llm": {
                "batch_tokens": 1024, "m_total": 2048,
                "preemption_mode": "swap", "victim_policy": "lifo",
                "tenants": [
                    {"name": "chat", "prompt_tokens": 256, "decode_tokens": 64},
                    {"name": "code", "prompt_tokens": 512, "decode_tokens": 128,
                     "weight": 0.5},
                ],
            },
        },
    ]


#: (scheme, model pair) of the ``sweep-ckpt`` bases.
CKPT_BASES = (
    ("neu10", ("MNIST", "DLRM")),
    ("neu10-nh", ("MNIST", "NCF")),
    ("pmt", ("NCF", "DLRM")),
)

#: Seed-sweep points per ``sweep-ckpt`` base.
CKPT_POINTS = 16


def sweep_ckpt_bases(seed: int) -> List[Dict[str, Any]]:
    """Open-loop bases that differ in scheme and model pair, each with a
    ``seed`` sweep of CKPT_POINTS derived seeds."""
    out = []
    for scheme, (first, second) in CKPT_BASES:
        out.append({
            "name": f"ckpt-{scheme}-{first}-{second}".lower(),
            "kind": "open_loop", "scheme": scheme, "arrival": "poisson",
            "load": 0.8, "duration_s": 0.004,
            "seed": derive_seed(seed, "ckpt", scheme),
            "tenants": _pair(first, second),
            "sweep": {
                "param": "seed",
                "values": [derive_seed(seed, "ckpt", scheme, i)
                           for i in range(CKPT_POINTS)],
            },
        })
    return out


def live_scenario(seed: int) -> Dict[str, Any]:
    """A long cluster run for ``repro serve``: an elastic pool under the
    slo-burn-rate autoscaler at 0.2 ms ticks, VF-limited virtualization
    with hypercall cost, one host crash and rolling MNIST/DLRM/NCF churn."""
    models = ("MNIST", "DLRM", "NCF")
    churn: List[Dict[str, Any]] = []
    for i in range(12):
        arrive = round(0.0025 * i, 6)
        churn.append({"time_s": arrive, "action": "arrive", "name": f"r{i}",
                      "model": models[i % 3], "batch": 4,
                      "num_mes": 1, "num_ves": 1})
        if i >= 3:
            churn.append({"time_s": arrive, "action": "depart",
                          "name": f"r{i - 3}"})
    return {
        "name": "live-cluster", "kind": "cluster", "scheme": "neu10",
        "arrival": "poisson", "load": 0.7, "duration_s": 0.03,
        "seed": derive_seed(seed, "live"),
        "pools": [{"name": "elastic", "min_hosts": 1, "max_hosts": 3,
                   "initial_hosts": 2}],
        "autoscaler": {"policy": "slo-burn-rate", "interval_s": 0.0002,
                       "params": {"slo_target": 0.75}},
        "virtualization": {"num_vfs": 3, "hypercall_cost_s": 0.00002},
        "faults": [{"kind": "host-crash", "time_s": 0.0131}],
        "churn": churn,
    }
