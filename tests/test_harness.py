from pathlib import Path

import numpy as np
import pytest

from nematicflow.diagnostics import CSV_COLUMNS, DECAY_FLOOR, EnergyRecord, write_records_csv
from nematicflow import dynamics
from nematicflow.dynamics import run
from nematicflow.grid import Grid, ScalarField2D, VectorField2D
from nematicflow.harness.cli import main
from nematicflow.harness.config import ConfigError, parse_config
from nematicflow.harness.io import read_snapshot, write_snapshot
from nematicflow.harness.presets import (
    PRESETS,
    energy_law_autonomous,
    minimizer_perturbation,
    omega_limit,
    rate_gamma2,
    run_experiment,
)
from nematicflow.harness.scenarios import (
    Scenario,
    check_hypotheses,
    generate_scenario,
    make_forcing,
)


def small_scenario(**kw):
    base = dict(
        name="tiny",
        family="polynomial-decay",
        nx=16,
        ny=16,
        gamma=1.5,
        a_h=0.2,
        a_g=0.05,
        kappa=0.25,
        t_end=0.2,
        dt=5e-3,
        sample_every=4,
        seed=42,
    )
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            Scenario(name="x", family="chaotic")

    def test_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Scenario(name="x", family="polynomial-decay", gamma=0.0)

    def test_boundary_is_exactly_unit(self):
        sc = small_scenario()
        forcing = make_forcing(sc)
        for t in (0.0, 0.3, 7.0):
            h = forcing.boundary(t)
            assert np.max(np.abs(h[:, 0] ** 2 + h[:, 1] ** 2 - 1.0)) < 1e-14

    @pytest.mark.parametrize(
        "nx,ny,lx,ly", [(8, 8, 1.0, 1.0), (13, 21, 1.0, 1.0), (24, 20, 1.0, 0.75),
                        (17, 40, 2.0, 0.5), (64, 64, 1.0, 1.0), (96, 130, 1.0, 1.3)]
    )
    def test_body_force_equals_mesh_evaluation(self, nx, ny, lx, ly):
        # the old mesh evaluation of g0 is the oracle, bit for bit
        from nematicflow.harness.scenarios import _body_force

        sc = small_scenario(nx=nx, ny=ny, lx=lx, ly=ly)
        grid = sc.grid
        X, Y = grid.mesh()
        g0 = np.stack([
            np.sin(2.0 * np.pi * X / lx) * np.sin(np.pi * Y / ly),
            np.sin(np.pi * X / lx) * np.sin(2.0 * np.pi * Y / ly),
        ])
        g = _body_force(sc, grid)
        for t in (0.0, 0.7):
            expected = sc.a_g * (1.0 + t) ** (-(2.0 + sc.gamma) / 2.0) * g0
            assert g(t).tobytes() == expected.tobytes()

    def test_generation_deterministic(self):
        sc = small_scenario()
        g1 = generate_scenario(sc)
        g2 = generate_scenario(sc)
        assert np.array_equal(g1.state.d.data, g2.state.d.data)
        assert np.array_equal(g1.state.v.data, g2.state.v.data)

    def test_compatibility_and_projection_at_init(self):
        from nematicflow.grid import divergence, extract_ring

        sc = small_scenario()
        gen = generate_scenario(sc)
        h0 = gen.forcing.boundary(0.0)
        for k in range(2):
            assert np.array_equal(extract_ring(gen.state.d.data[k]), h0[:, k])
        assert np.max(np.abs(divergence(gen.state.v).data[1:-1, 1:-1])) < 1e-10

    def test_rate_model_defaults(self):
        gen = generate_scenario(small_scenario(gamma=2.0))
        assert gen.rate.theta_prime == pytest.approx(0.25)
        assert gen.rate.predicted_exponent == pytest.approx(0.5)
        gen_auto = generate_scenario(small_scenario(family="autonomous", a_g=0.0))
        assert gen_auto.rate is None

    def test_minimizer_family_budgets(self):
        from nematicflow.diagnostics import norms

        sc = small_scenario(
            family="minimizer-perturbation", a_h=0.01, a_g=0.01,
            sigma1=0.04, sigma2=0.04, gamma=2.0,
        )
        gen = generate_scenario(sc)
        assert norms(gen.state.v, "L2") <= sc.sigma1
        diff = VectorField2D(sc.grid, gen.state.d.data - gen.reference.psi.data)
        assert norms(diff, "H1") <= sc.sigma2
        assert np.max(gen.state.d.magnitude()) <= 1.0 + 1e-12

    def test_hypothesis_checker_family(self):
        sc = small_scenario(gamma=1.5)
        forcing = make_forcing(sc)
        checks = check_hypotheses(forcing, sc.gamma)
        names = {c.name for c in checks}
        assert {f"hypothesis H{k} exponent" for k in range(1, 8)} <= names
        assert all(c.passed for c in checks)

    def test_hypothesis_checker_fails_slow_decay(self):
        # the family at gamma = 0.5 has |h_t| ~ (1+t)^(-2.5), half a power
        # slower than the (1+t)^(-3) that gamma = 2 requires
        forcing = make_forcing(small_scenario(gamma=0.5))
        checks = {c.name: c for c in check_hypotheses(forcing, 2.0)}
        for name in ("hypothesis H5 exponent", "hypothesis H6 exponent"):
            c = checks[name]
            assert not c.passed
            assert c.value == pytest.approx(2.5, abs=0.05)
            assert c.threshold == pytest.approx(3.0 - 0.05)

    def test_hypothesis_tail_integrals_gain_exactly_one_power(self):
        # |h_t| and |g|^2 are exactly (1+t)^-4 shapes, so the tail integrals of
        # |h_t|, |h_t|^2 and |g|^2 decay like (1+t)^-3, (1+t)^-7 and (1+t)^-3;
        # a quadrature stopped at t = 60 read 3.068 for H1
        from nematicflow.dynamics import Forcing

        g = Grid(16, 16)
        rng = np.random.default_rng(3)
        rate, body = rng.uniform(-1, 1, (g.n_boundary, 2)), rng.uniform(-1, 1, (2, *g.shape))
        forcing = Forcing(
            g,
            lambda t: np.tile([1.0, 0.0], (g.n_boundary, 1)),
            body_force_values=lambda t: (1.0 + t) ** -2 * body,
            boundary_rate=lambda t: (1.0 + t) ** -4 * rate,
        )
        checks = {c.name: c.value for c in check_hypotheses(forcing, 2.0)}
        for name, exponent in (("H1", 3.0), ("H2", 7.0), ("H3", 3.0)):
            assert checks[f"hypothesis {name} exponent"] == pytest.approx(exponent, abs=1e-3)

    def test_hypothesis_checker_autonomous_empty(self):
        sc = small_scenario(family="autonomous", a_g=0.0)
        forcing = make_forcing(sc)
        assert check_hypotheses(forcing, 1.0) == []


class TestDeterminism:
    def test_records_bitwise_identical_across_runs(self, tmp_path):
        sc = small_scenario()
        paths = []
        for tag in ("a", "b"):
            gen = generate_scenario(sc)
            summary = run(gen.state, sc.t_end, sample_every=sc.sample_every,
                          reference=gen.reference.psi)
            p = tmp_path / f"records_{tag}.csv"
            write_records_csv(p, summary.records)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSnapshots:
    def test_scalar_round_trip(self, tmp_path):
        g = Grid(9, 8, 2.0, 1.5)
        rng = np.random.default_rng(0)
        f = ScalarField2D(g, rng.standard_normal(g.shape))
        p = tmp_path / "f.snap"
        write_snapshot(p, f, t=1.25)
        back, t = read_snapshot(p)
        assert t == 1.25
        assert back.grid == g
        assert np.array_equal(back.data, f.data)

    def test_vector_round_trip(self, tmp_path):
        g = Grid(8, 8)
        rng = np.random.default_rng(1)
        u = VectorField2D(g, rng.standard_normal((2, *g.shape)))
        p = tmp_path / "u.snap"
        write_snapshot(p, u, t=0.0)
        back, _ = read_snapshot(p)
        assert np.array_equal(back.data, u.data)


CONFIG_OK = """
[grid]
nx = 16
ny = 16

[params]
nu = 1.0
eps = 0.25

[forcing]
family = polynomial-decay
gamma = 1.5
a_h = 0.2
a_g = 0.05
kappa = 0.25

[run]
name = demo
t_end = 0.1
dt = 5e-3
sample_every = 4
seed = 1
"""


class TestConfig:
    def test_parse_valid(self, tmp_path):
        p = tmp_path / "demo.cfg"
        p.write_text(CONFIG_OK)
        parsed = parse_config(p)
        sc = parsed.scenario
        assert sc.nx == 16 and sc.gamma == 1.5 and sc.name == "demo"
        assert sc.params.eps == 0.25

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nnx = 16\nfoo = 3\n")
        with pytest.raises(ConfigError, match=r"'foo' in section \[grid\]"):
            parse_config(p)

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[plasma]\nq = 1\n")
        with pytest.raises(ConfigError, match=r"\[plasma\]"):
            parse_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nnx = many\n")
        with pytest.raises(ConfigError, match="nx"):
            parse_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("does-not-exist.cfg")

    def test_unreadable_path_refused(self, tmp_path, capsys):
        # configparser skips a path it cannot open; a directory must not run
        # as the default scenario
        with pytest.raises(ConfigError, match="cannot read") as info:
            parse_config(tmp_path)
        assert str(tmp_path) in str(info.value)
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("eps", "-1"), ("nu", "nan"), ("eps", "inf"), ("lambda", "0")]
    )
    def test_bad_physical_parameter_named(self, tmp_path, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[params]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(p)

    @pytest.mark.parametrize(
        "section,key,value",
        [("forcing", "gamma", "inf"), ("forcing", "a_g", "nan"), ("run", "t_end", "inf"),
         ("majorant", "c_star", "nan")],
    )
    def test_non_finite_float_named(self, tmp_path, capsys, section, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"'{key}' in section \\[{section}\\]"):
            parse_config(p)
        command = "majorant" if section == "majorant" else "run"
        assert main([command, str(p), "--out", str(tmp_path / "out")]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,text",
        [
            ("t_end", "[run]\nt_end = 0\n"),
            ("sample_every", "[run]\nsample_every = 0\n"),
            ("dt", "[run]\ndt = 0\n"),
            ("dt", "[run]\ndt = -1e-3\n"),
            ("sigma1", "[forcing]\nfamily = minimizer-perturbation\nsigma1 = 0\n"),
            ("sigma2", "[forcing]\nfamily = minimizer-perturbation\nsigma2 = -0.1\n"),
            ("nx", "[grid]\nnx = 4\n"),
            ("ny", "[grid]\nny = 7\n"),
            ("lx", "[grid]\nlx = 0\n"),
            ("ly", "[grid]\nly = -1\n"),
            ("seed", "[run]\nseed = -1\n"),
            ("v0_amplitude", "[run]\nv0_amplitude = -1\n"),
            # the bound 1 + slack would lie below |h| = 1 on the ring
            ("max_abs_d_slack", "[tolerances]\nmax_abs_d_slack = -1\n"),
            ("dedpt_tol", "[tolerances]\ndedpt_tol = 0\n"),
            # R3 = -5 used to run as R3 = 0, and t_horizon = -1 to integrate nothing
            ("r3_const", "[majorant]\nr3_const = -5\n"),
            ("t_horizon", "[majorant]\nt_horizon = -1\n"),
            ("t_horizon", "[majorant]\nt_horizon = 0\n"),
        ],
    )
    def test_bad_run_key_refused_up_front(self, tmp_path, capsys, key, text):
        p = tmp_path / "bad.cfg"
        p.write_text(text if text.startswith("[grid]") else "[grid]\nnx = 16\nny = 16\n" + text)
        with pytest.raises(ConfigError, match=key):
            parse_config(p)
        command = "majorant" if "[majorant]" in text else "run"
        assert main([command, str(p), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    def test_empty_config_is_the_scenario_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        assert parse_config(p).scenario == Scenario(name="run")

    def test_schema_keys_are_field_names(self):
        # a renamed field must fail here rather than silently drop its key
        from dataclasses import fields

        from nematicflow.dynamics import PhysParams
        from nematicflow.harness.config import _SCHEMA

        scenario_fields = {f.name for f in fields(Scenario)}
        for section in ("grid", "forcing", "run"):
            assert set(_SCHEMA[section]) <= scenario_fields, section
        renamed = {"lambda": "lam"}
        params = {renamed.get(k, k) for k in _SCHEMA["params"]}
        assert params <= {f.name for f in fields(PhysParams)}


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    @pytest.mark.parametrize(
        "scale, printed",
        [(5.0, "3.000 (r2=1.000000)\n"), (DECAY_FLOOR, "inf (r2=nan)\n")],
        ids=["power-law", "at-floor"],
    )
    def test_fit_rate_planted(self, tmp_path, capsys, scale, printed):
        t = np.linspace(0, 50, 120)
        recs = []
        for tt in t:
            vals = dict.fromkeys(CSV_COLUMNS, 0.0)
            vals["t"] = tt
            vals["dist_d_L2"] = scale * (1 + tt) ** -3.0
            recs.append(EnergyRecord(**vals))
        p = tmp_path / "series.csv"
        write_records_csv(p, recs)
        assert main(["fit-rate", str(p), "dist_d_L2", "--tail", "1.0"]) == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.parametrize(
        "column, reason",
        [
            ([float("nan")] * 10, "non-finite samples in fit window"),
            ([1.0, 0.5, 0.25], "need at least 4 samples"),
            ([(-0.5) ** k for k in range(10)], "non-positive values"),
        ],
        ids=["nan", "3-rows", "mixed-sign"],
    )
    def test_fit_rate_refuses_a_broken_column(self, tmp_path, capsys, column, reason):
        recs = [EnergyRecord(**{**dict.fromkeys(CSV_COLUMNS, 0.0), "t": float(k), "dist_d_L2": x})
                for k, x in enumerate(column)]
        p = tmp_path / "series.csv"
        write_records_csv(p, recs)
        assert main(["fit-rate", str(p), "dist_d_L2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in captured.err

    def test_fit_rate_unknown_column(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        write_records_csv(p, [])
        assert main(["fit-rate", str(p), "bogus"]) == 1

    def test_fit_rate_empty_csv_names_file_and_header(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["fit-rate", str(p), "t"]) == 1
        err = capsys.readouterr().err
        assert str(p) in err and ",".join(CSV_COLUMNS) in err

    def test_run_missing_config_exits_1(self, capsys):
        assert main(["run", "missing.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, capsys):
        assert main(["preset", "nonexistent"]) == 1
        err = capsys.readouterr().err
        assert "available" in err

    def test_majorant_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("[majorant]\nc_star = 1.0\ny0 = 1.0\ndt = 1e-3\ny_cap = 1e6\n")
        out_dir = tmp_path / "out"
        assert main(["majorant", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "majorant.csv").exists()
        assert "T_max" in capsys.readouterr().out

    def test_run_subcommand_small(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CONFIG_OK)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "final.snap").exists()
        assert (out_dir / "manifest.txt").exists()
        assert (out_dir / "equilibrium.snap").exists()

    def test_run_max_principle_check_fails_exit_2(self, tmp_path, capsys):
        # at dt = 0.05 the explicit penalization step, 2 dt/eps^2 = 1.6 > 1,
        # overshoots |d| = 1 (max|d| about 1.001), so a zero slack fails: the
        # check line reports FAIL and run exits 2, in stdout and manifest alike
        text = CONFIG_OK.replace("dt = 5e-3", "dt = 0.05")
        text = text.replace("sample_every = 4", "sample_every = 1")
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(text + "\n[tolerances]\nmax_abs_d_slack = 0\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out.splitlines()
        line = next(s for s in out if "max|d|" in s)
        assert line.startswith("FAIL max|d| <= 1 + slack: 1.0") and line.endswith(" <= 1")
        assert out[-1] == "passed: False"
        assert (out_dir / "manifest.txt").read_text().splitlines() == out

    def test_run_divergence_check_fails_without_projection(self, tmp_path, capsys, monkeypatch):
        # with v^{n+1} = u* the velocity keeps the divergence of its predictor
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CONFIG_OK)
        assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        line = next(s for s in capsys.readouterr().out.splitlines() if "div v" in s)
        assert line.startswith("PASS div v after projection")
        zero_pressure = lambda u: (u, ScalarField2D(u.grid, np.zeros(u.grid.shape)))
        monkeypatch.setattr(dynamics, "project_divergence_free", zero_pressure)
        assert main(["run", str(cfg), "--out", str(tmp_path / "skipped")]) == 2
        out = capsys.readouterr().out.splitlines()
        assert next(s for s in out if "div v" in s).startswith("FAIL div v after projection")
        assert out[-1] == "passed: False"

    def test_minimizer_family_defaults_refused_up_front(self, tmp_path, capsys):
        # with the family's own a_h = 0.3 the trace shift alone lies farther
        # from psi* than its sigma2 = 0.05, so no bump fits: refused, naming both
        cfg = tmp_path / "min.cfg"
        cfg.write_text("[grid]\nnx = 16\nny = 16\n[forcing]\nfamily = minimizer-perturbation\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "a_h = 0.3" in err and "sigma2 = 0.05" in err

    def test_steady_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CONFIG_OK)
        out_dir = tmp_path / "out"
        assert main(["steady", str(cfg), "--out", str(out_dir)]) == 0
        index = (out_dir / "index.csv").read_text().splitlines()
        assert index[0] == "residual,energy_E,energy_script,verdict"
        assert "minimizer-consistent" in index[1]

    def test_lifting_check_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(
            CONFIG_OK.replace("t_end = 0.1", "t_end = 10.0")
            + "\n[tolerances]\ndedpt_tol = 1e-3\n"
        )
        out_dir = tmp_path / "out"
        assert main(["lifting-check", str(cfg), "--out", str(out_dir)]) == 0
        header = (out_dir / "lifting.csv").read_text().splitlines()[0]
        assert header == "t,dPdE_H1,dt_dP,grad_lap_dP,A3,A5,A6,A8,A9,dedpt"
        # the manifest's lines, among them each check's value, comparison and
        # threshold, as ``preset`` prints them
        out = capsys.readouterr().out.splitlines()
        assert (out_dir / "manifest.txt").read_text().splitlines() == out
        checks = [line for line in out if line.startswith(("PASS ", "FAIL "))]
        assert [line.split(":")[0] for line in checks] == [
            "PASS A3 weighted-integral bound holds", "PASS A5 cumulative bound holds",
            "PASS A6 cumulative bound holds", "PASS A8 dt d_P squared decay exponent",
            "PASS A9 sliding-integral exponent", "PASS dedpt dt d_P at t_end",
        ]
        assert checks[-1].endswith("<= 0.001")

    def test_preset_prints_the_lines_of_its_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["preset", "majorant-closed-form", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert (out_dir / "manifest.txt").read_text().splitlines() == out
        assert out[0] == "name: majorant-closed-form" and out[-1] == "passed: True"

    def test_shipped_configs_parse_and_demo_lifting_check_passes(self, tmp_path, capsys):
        configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert configs
        for cfg in configs:
            parse_config(cfg)
        demo = next(cfg for cfg in configs if cfg.name == "demo.cfg")
        assert main(["lifting-check", str(demo), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "passed: True"


def _plant_abort(monkeypatch) -> None:
    """Make ``dynamics.step`` raise after 5 steps, as a step on bad data does."""
    original = dynamics.step
    calls = []

    def failing(s):
        calls.append(1)
        if len(calls) > 5:
            raise ValueError("planted step failure")
        return original(s)

    monkeypatch.setattr(dynamics, "step", failing)


class TestAbortedRun:
    @pytest.mark.parametrize(
        "preset", [energy_law_autonomous, omega_limit, rate_gamma2, minimizer_perturbation],
        ids=lambda f: f.__name__,
    )
    def test_preset_fails(self, monkeypatch, preset):
        _plant_abort(monkeypatch)
        result = preset()
        assert result.summary.aborted and result.summary.n_steps == 5
        assert not result.passed
        line = next(c.line() for c in result.checks if c.name == "run aborted before t_end")
        assert line == "FAIL run aborted before t_end: 1 <= 0"

    def test_rate_preset_exits_2(self, tmp_path, capsys, monkeypatch):
        # five steps leave no sample in the rate fit's window t in [10, 120]
        _plant_abort(monkeypatch)
        assert main(["preset", "rate-gamma2", "--out", str(tmp_path)]) == 2
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "FAIL run aborted before t_end: 1 <= 0" in manifest
        assert manifest[-1] == "passed: False"

    def test_run_exits_2_and_names_the_reason(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CONFIG_OK)
        out_dir = tmp_path / "out"
        _plant_abort(monkeypatch)
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert capsys.readouterr().out.splitlines() == manifest
        assert "steps: 5" in manifest
        assert "aborted: True (step failed at t=0.025: planted step failure)" in manifest
        assert "FAIL run aborted before t_end: 1 <= 0" in manifest
        assert manifest[-1] == "passed: False"


class TestRunExperiment:
    def test_unknown_name(self):
        from nematicflow.harness.presets import UnknownPresetError

        with pytest.raises(UnknownPresetError, match="available"):
            run_experiment("not-a-preset")

    def test_majorant_preset_outputs(self, tmp_path):
        result, manifest = run_experiment("majorant-closed-form", tmp_path / "m")
        assert result.passed
        assert manifest.passed
        text = (tmp_path / "m" / "manifest.txt").read_text()
        assert "PASS" in text and "wall_clock_seconds" in text
        assert (tmp_path / "m" / "majorant.csv").exists()
