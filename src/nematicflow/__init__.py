"""2D simulator and verification harness for nematic director flow with
time-dependent Dirichlet boundary data and decaying external force."""

__version__ = "0.1.0"

from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    divergence,
    gradient,
    laplacian,
)
from .linsolve import (
    SolverError,
    harmonic_extension,
    heat_step,
    project_divergence_free,
    solve_poisson_dirichlet,
)
from .lifting import (
    LiftingState,
    appendix_diagnostics,
    parabolic_lift_step,
)
from .dynamics import Forcing, PhysParams, SimState, init, run, step
from .diagnostics import (
    EnergyRecord,
    RateModel,
    convergence_report,
    energy_inequality_residual,
    energy_record,
    fit_decay_exponent,
    norms,
    uniform_gronwall_check,
)
from .steady import Equilibrium, local_minimizer_check, newton_refine, solve_gradient_flow
from .majorant import MajorantProblem, comparison_check, solve_majorant

__all__ = [name for name in dir() if not name.startswith("_")]
