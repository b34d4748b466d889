"""Reference table of per-layer times at 32^2, 64^2 and 128^2 (traced rounds).

    python3 benchmarks/layers.py

Prints a Markdown table for ``README.md``.  Each cell is the median over the
stepping phase of one traced round of ``STEPS`` steps per grid and scenario.
Where set-up fails (every 128^2 scenario today, on the fixed 1e-9 Poisson
residual test), the layers that need no simulation state, the projection and
the heat solve, are timed by direct calls on a random field, and the rest are
marked as failing.
"""

from __future__ import annotations

import sys
import time

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np

from nematicflow import linsolve
from nematicflow.grid import Grid, VectorField2D

from tracing import Tracer
from workloads import Workload, clear_program_caches, run_round

STEPS = 300
PROBE_CALLS = 30

ROWS = [
    ("linsolve.projection_first_ms", "projection, first call (factorization)"),
    ("linsolve.projection_ms", "projection"),
    ("linsolve.heat_ms", "heat solve (2 components)"),
    ("linsolve.poisson_ms", "Poisson solve"),
    ("lifting.update_ms", "lifting update"),
    ("dynamics.rhs_self_ms", "explicit right-hand side (step self time)"),
    ("dynamics.step_ms", "step"),
    ("diagnostics.energy_record_ms", "energy_record"),
    ("dynamics.loop_self_ms_per_step", "run loop self time per step"),
]


def traced_cell(n: int, family: str, out_dir) -> dict:
    tracer = Tracer()
    with tracer.installed():
        r = run_round(Workload(f"layers-{family}-{n}", family, n, STEPS), 1, out_dir, tracer)
    if r.error is not None:
        return {"error": f"{r.error} (residual {r.residual:.2g})"}
    return run.layer_metrics(tracer, [r])


def direct_probe(n: int) -> dict:
    """Projection and heat solve on a random field, outside any scenario."""
    g = Grid(n, n)
    rng = np.random.default_rng(0)
    u = np.zeros((2, n, n))
    u[:, 1:-1, 1:-1] = rng.standard_normal((2, n - 2, n - 2))
    field = VectorField2D(g, u)
    clear_program_caches()
    t0 = time.perf_counter()
    linsolve.project_divergence_free(field)
    first = time.perf_counter() - t0
    proj, heat = [], []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        linsolve.project_divergence_free(field)
        proj.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        linsolve.heat_solve_interior(g, u[:, 1:-1, 1:-1], 1e-3)
        heat.append(time.perf_counter() - t0)
    return {
        "linsolve.projection_first_ms": first * 1e3,
        "linsolve.projection_ms": float(np.median(proj)) * 1e3,
        "linsolve.heat_ms": float(np.median(heat)) * 1e3,
    }


def main() -> int:
    out_dir = run.OUT_ROOT / "layers"
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = []
    for n in (32, 64, 128):
        for family in ("energy-law", "decay"):
            cell = traced_cell(n, family, out_dir)
            if "error" in cell:
                cell = {**direct_probe(n), "error": cell["error"]}
            columns.append((f"{n}^2 {family}", cell))

    print("| layer (ms per call) | " + " | ".join(name for name, _ in columns) + " |")
    print("|---|" + "---:|" * len(columns))
    for key, label in ROWS:
        cells = []
        for _, cell in columns:
            if key in cell:
                cells.append("–" if cell[key] == 0.0 else f"{cell[key]:.3f}")
            else:
                cells.append("fails")
        print(f"| {label} | " + " | ".join(cells) + " |")
    for name, cell in columns:
        if "error" in cell:
            print(f"\n{name}: set-up fails: {cell['error']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
