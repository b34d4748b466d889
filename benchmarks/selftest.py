"""Self-tests of the benchmark's correctness checks on a short horizon.

Each check must pass on a real 32x32 trajectory and fail on the same data
deliberately broken: a record pair whose energy rises, a velocity with
nonzero discrete divergence, a ring value off by one ulp, and a lifting pair
that breaks the discrete identity.  A check that cannot fail would pass
vacuously.  ``run.py`` runs these before every measurement; run them alone
with ``python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from nematicflow import dynamics
from nematicflow.grid import VectorField2D, extract_ring, set_ring
from nematicflow.harness import scenarios

import checks
from workloads import Workload, StateCapture

STEPS = 30


def _trajectory(family: str):
    wl = Workload(f"selftest-{family}", family, 32, STEPS)
    sc = dataclasses.replace(wl.scenario(seed=1), sample_every=5 if family == "decay" else 1)
    gen = scenarios.generate_scenario(sc)
    with StateCapture(1) as cap:
        summary = dynamics.run(gen.state, (STEPS - 0.5) * gen.state.dt,
                               sample_every=sc.sample_every, reference=wl.reference(gen))
    return gen, summary.records, cap.states[1:] + [summary.final]


def _with_v(state, v):
    return dataclasses.replace(state, v=VectorField2D(state.v.grid, v))


def _with_d(state, d):
    return dataclasses.replace(state, d=VectorField2D(state.d.grid, d))


def run_selftests() -> list[tuple[str, bool, str]]:
    """Return (name, ok, detail); ok means the check passed on real data and
    failed on the broken copy."""
    gen_e, recs_e, states_e = _trajectory("energy-law")
    gen_d, recs_d, states_d = _trajectory("decay")
    dt = gen_e.state.dt
    out = []

    def expect(name, good, bad):
        ok = good.passed and not bad.passed
        out.append((name, ok, f"real data {good.line()}; broken data {bad.line()}"))

    # a record pair whose lifted energy rises by ten times the allowed increment
    broken = copy.deepcopy(recs_e)
    e0 = broken[0].E_hat
    broken[6].E_hat = broken[5].E_hat + 10 * 1e-13 * (1.0 + e0)
    expect("energy rises: monotonicity", checks.energy_monotone(recs_e), checks.energy_monotone(broken))
    expect("energy rises: energy inequality", checks.energy_inequality(recs_e, dt),
           checks.energy_inequality(broken, dt))

    # a velocity with nonzero discrete divergence at one interior node
    s = states_d[-1]
    v = s.v.data.copy()
    v[0, 10, 12] += 1e-9
    expect("divergent velocity", checks.divergence(states_d), checks.divergence([_with_v(s, v)]))

    # ring values one ulp away from the exact ones
    d = s.d.data.copy()
    ring = extract_ring(d[1])
    ring[7] = np.nextafter(ring[7], np.inf)
    set_ring(d[1], ring)
    expect("ring director one ulp off", checks.ring_director_trace(states_d),
           checks.ring_director_trace([_with_d(s, d)]))
    v = s.v.data.copy()
    ring = extract_ring(v[0])
    ring[3] = np.nextafter(0.0, 1.0)
    set_ring(v[0], ring)
    expect("ring velocity one ulp off", checks.ring_velocity_zero(states_e),
           checks.ring_velocity_zero([_with_v(s, v)]))

    # a lifting pair whose time derivative used a step 1% off
    lift = s.lifting
    bad_lift = dataclasses.replace(lift, dt_dP=VectorField2D(lift.dP.grid, 1.01 * lift.dt_dP.data))
    expect("lifting pair off the identity", checks.lifting_identity(states_d),
           checks.lifting_identity([dataclasses.replace(s, lifting=bad_lift)]))
    return out


if __name__ == "__main__":
    results = run_selftests()
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)
