"""Mega-batch engine core.

Steps many independent :class:`repro.sim.engine.Simulator` instances
("lanes") together through one struct-of-arrays epoch loop.  Lanes in
memoised steady state are bound to shared *chain nodes* (interned
structural states) and advance through per-unit remaining-work arrays
instead of re-fingerprinting and re-planning per epoch.  Results are
bit-identical to running each simulator alone.

Escape hatch: ``REPRO_SIM_MEGABATCH=0`` disables the batched call sites
(``api.runner.sweep_scenario`` and the cluster host-segment fan-out),
restoring the one-simulation-per-job paths exactly.
"""

from repro.megabatch.engine import (
    MEGABATCH_ENV,
    MegaBatchEngine,
    megabatch_chunks,
    megabatch_default,
    run_simulators,
)

__all__ = [
    "MEGABATCH_ENV",
    "MegaBatchEngine",
    "megabatch_chunks",
    "megabatch_default",
    "run_simulators",
]
