"""Command-line interface.

Exit codes: 0 on success, 2 when an acceptance-style check fails, 1 on error
(bad config, unknown preset, solver failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..diagnostics import CSV_COLUMNS, FIT_TAIL, fit_decay_exponent, read_records_csv, write_csv
from ..lifting import DEDPT_TOL
from ..majorant import MajorantProblem, solve_majorant
from ..steady import local_minimizer_check
from .config import ConfigError, parse_config
from .io import output_root, write_snapshot
from .presets import MAX_D_SLACK, PRESETS, build_lifting, build_trajectory, persist, run_experiment
from .scenarios import make_forcing, reference_equilibrium


def _out_dir(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else output_root() / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(manifest) -> int:
    """Print the lines the manifest holds; exit 2 if a check failed."""
    print("\n".join(manifest.lines()))
    return 0 if manifest.passed else 2


def _cmd_run(args) -> int:
    parsed = parse_config(args.config)
    sc = parsed.scenario
    slack = parsed.tolerances.get("max_abs_d_slack", MAX_D_SLACK)
    return _report(persist(lambda: build_trajectory(sc, True, slack), _out_dir(args, sc.name)))


def _cmd_steady(args) -> int:
    parsed = parse_config(args.config)
    sc = parsed.scenario
    out = _out_dir(args, f"{sc.name}-steady")
    forcing = make_forcing(sc)
    eq = reference_equilibrium(sc, forcing)
    verdict = local_minimizer_check(eq, sc.params, seed=sc.seed)
    write_snapshot(out / "equilibrium.snap", eq.psi, float("inf"))
    write_csv(
        out / "index.csv",
        ["residual", "energy_E", "energy_script", "verdict"],
        [[eq.residual, eq.energy_E, eq.energy_script, verdict.kind]],
    )
    print(
        f"residual={eq.residual:.3e} E={eq.energy_E:.6g} "
        f"script_E={eq.energy_script:.6g} verdict={verdict.kind}"
    )
    return 0 if eq.converged else 2


def _cmd_lifting_check(args) -> int:
    parsed = parse_config(args.config)
    sc = parsed.scenario
    dt = sc.dt if sc.dt is not None else 0.01
    tol = parsed.tolerances.get("dedpt_tol", DEDPT_TOL)
    out = _out_dir(args, f"{sc.name}-lifting")
    return _report(persist(lambda: build_lifting(sc, dt, tol), out))


def _cmd_majorant(args) -> int:
    parsed = parse_config(args.config)
    m = dict(parsed.majorant)  # after the pops below: solve_majorant's dt, y_cap, t_horizon
    out = _out_dir(args, "majorant")
    r3_const = m.pop("r3_const", 0.0)
    problem = MajorantProblem(
        c_star=m.pop("c_star", 1.0),
        y0=m.pop("y0", 1.0),
        r3=(lambda t: r3_const) if r3_const > 0 else None,
    )
    sol = solve_majorant(problem, **m)
    write_csv(out / "majorant.csv", ["t", "Y"], zip(sol.t, sol.y))
    if sol.blew_up:
        print(f"T_max estimate: {sol.t_max:.8g}")
    else:
        print(f"no blow-up before t = {sol.t[-1]:.6g}")
    return 0


def _cmd_fit_rate(args) -> int:
    path = Path(args.csv)
    if not path.exists():
        raise ConfigError(f"CSV file not found: {path}")
    records = read_records_csv(path)
    if args.column not in CSV_COLUMNS:
        raise ConfigError(
            f"unknown column {args.column!r}; available: {', '.join(CSV_COLUMNS)}"
        )
    t = np.array([r.t for r in records])
    vals = np.array([getattr(r, args.column) for r in records])
    exponent, r2 = fit_decay_exponent(t, vals, tail_fraction=args.tail)
    print(f"{exponent:.3f} (r2={r2:.6f})")
    return 0


def _cmd_list_presets(_args) -> int:
    for name in sorted(PRESETS):
        print(name)
    return 0


def _cmd_preset(args) -> int:
    return _report(run_experiment(args.name, args.out)[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nematicflow",
        description="2D director-flow simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_steady = sub.add_parser("steady", help="solve the steady state of a config's boundary data")
    p_steady.add_argument("config")
    p_steady.add_argument("--out", default=None)
    p_steady.set_defaults(fn=_cmd_steady)

    p_lift = sub.add_parser("lifting-check", help="evolve the liftings and check decay estimates")
    p_lift.add_argument("config")
    p_lift.add_argument("--out", default=None)
    p_lift.set_defaults(fn=_cmd_lifting_check)

    p_maj = sub.add_parser("majorant", help="integrate the majorant ODE from a config")
    p_maj.add_argument("config")
    p_maj.add_argument("--out", default=None)
    p_maj.set_defaults(fn=_cmd_majorant)

    p_fit = sub.add_parser("fit-rate", help="fit a decay exponent to a records.csv column")
    p_fit.add_argument("csv")
    p_fit.add_argument("column")
    p_fit.add_argument("--tail", type=float, default=FIT_TAIL)
    p_fit.set_defaults(fn=_cmd_fit_rate)

    p_list = sub.add_parser("list-presets", help="list prepackaged experiments")
    p_list.set_defaults(fn=_cmd_list_presets)

    p_preset = sub.add_parser("preset", help="run a prepackaged experiment")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(fn=_cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # bad config, unknown preset, solver failures, bad data
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
