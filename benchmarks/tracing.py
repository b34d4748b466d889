"""In-memory span recorder wrapped around the program's public layer functions.

Each wrapped call appends one span ``[name, start, end, parent, child_time,
phase, note]``.  Spans nest through an explicit stack, so a span's self time
is its duration minus the time its direct children cover.  ``phase`` is the
benchmark phase (setup, stepping, checks, write) open when the call began;
``note`` holds a per-call quantity taken from the arguments or the result
(computed flops, solver iterations).  A wrapper with a ``when`` predicate
records only the calls whose arguments satisfy it.

Functions are replaced on the module that *calls* them, because each module
binds its imports at import time: ``dynamics.project_divergence_free`` is the
name ``step`` looks up, not ``linsolve.project_divergence_free``.  Nothing is
wrapped outside ``Tracer.installed()``.
"""

from __future__ import annotations

import contextlib
import time

from nematicflow import diagnostics, dynamics, grid, lifting
from nematicflow.lifting import LiftingState
from nematicflow.harness import scenarios


def _heat_flops(args, _result) -> float:
    """Computed flops of one dense sine-transform solve: two transforms, each
    two matmuls (2 m_x^2 m_y + 2 m_x m_y^2 flops per component)."""
    b = args[1]
    mx, my = b.shape[-2], b.shape[-1]
    ncomp = b.size // (mx * my)
    return float(ncomp * 4 * mx * my * (mx + my))


def _iterations(_args, result) -> float:
    return float(result.iterations)


def _is_lifting(args) -> bool:
    return isinstance(args[0], LiftingState)


# (module, attribute, span name, note, when).  Module functions are looked up
# at call time by their callers, so replacing the attribute reroutes every
# call made through that module's binding.  With a static trace, ``step``
# updates the liftings by ``replace(s.lifting, t=t1)`` instead of calling
# ``parabolic_lift_step``; both are recorded as the lifting update.
WRAPPED = [
    (dynamics, "run", "dynamics.run", None, None),
    (dynamics, "step", "dynamics.step", None, None),
    (dynamics, "parabolic_lift_step", "lifting.update", None, None),
    (dynamics, "replace", "lifting.update", None, _is_lifting),
    (dynamics, "heat_solve_interior", "linsolve.heat", _heat_flops, None),
    (dynamics, "project_divergence_free", "linsolve.projection", None, None),
    (dynamics, "energy_record", "diagnostics.energy_record", None, None),
    (dynamics, "init_lifting", "lifting.init", None, None),
    (lifting, "heat_step", "linsolve.heat_step", None, None),
    (lifting, "solve_poisson_dirichlet", "linsolve.poisson", None, None),
    (diagnostics, "solve_poisson_dirichlet", "linsolve.poisson", None, None),
    (scenarios, "solve_poisson_dirichlet", "linsolve.poisson", None, None),
    (scenarios, "init", "dynamics.init", None, None),
    (scenarios, "reference_equilibrium", "steady.reference", None, None),
    (scenarios, "solve_gradient_flow", "steady.gradient_flow", _iterations, None),
    (scenarios, "newton_refine", "steady.newton", None, None),
    (scenarios, "check_hypotheses", "harness.check_hypotheses", None, None),
    (grid.ScalarField2D, "__post_init__", "grid.field_init", None, None),
    (grid.VectorField2D, "__post_init__", "grid.field_init", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""

    def wrap(self, fn, name: str, note=None, when=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[6] = note(args, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; it also sets the phase."""
        previous = self.phase
        self.phase = name
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0.0, name, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]
            self.phase = previous

    @contextlib.contextmanager
    def installed(self):
        """Replace every function in ``WRAPPED``; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, note, when in WRAPPED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note, when))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s,phase,note\n")
            for i, (name, start, end, parent, child, phase, note) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{start:.9f},{end:.9f},{parent},"
                    f"{end - start - child:.9f},{phase},{'' if note is None else note}\n"
                )


@contextlib.contextmanager
def phase(tracer: Tracer | None, name: str):
    """Benchmark phase span when tracing, nothing otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
