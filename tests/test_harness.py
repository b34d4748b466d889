import numpy as np
import pytest

from nematicflow.diagnostics import EnergyRecord, CSV_COLUMNS, write_records_csv
from nematicflow.dynamics import run
from nematicflow.grid import Grid, ScalarField2D, VectorField2D
from nematicflow.harness.cli import main
from nematicflow.harness.config import ConfigError, parse_config
from nematicflow.harness.io import read_snapshot, write_snapshot
from nematicflow.harness.presets import PRESETS, run_experiment
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
        assert gen_auto.regime == "exponential"

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
        assert {"H1", "H2", "H3", "H4", "H5", "H6", "H7"} <= names
        assert all(c.passed for c in checks)

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

    @pytest.mark.parametrize("key,value", [("eps", "-1"), ("nu", "nan"), ("eps", "inf")])
    def test_bad_physical_parameter_named(self, tmp_path, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[params]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(p)


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_fit_rate_planted(self, tmp_path, capsys):
        t = np.linspace(0, 50, 120)
        recs = []
        for tt in t:
            vals = dict.fromkeys(CSV_COLUMNS, 0.0)
            vals["t"] = tt
            vals["dist_d_L2"] = 5.0 * (1 + tt) ** -3.0
            recs.append(EnergyRecord(**vals))
        p = tmp_path / "series.csv"
        write_records_csv(p, recs)
        assert main(["fit-rate", str(p), "dist_d_L2", "--tail", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3.000")

    def test_fit_rate_unknown_column(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        write_records_csv(p, [])
        assert main(["fit-rate", str(p), "bogus"]) == 1

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

    def test_steady_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CONFIG_OK)
        out_dir = tmp_path / "out"
        assert main(["steady", str(cfg), "--out", str(out_dir)]) == 0
        index = (out_dir / "index.csv").read_text().splitlines()
        assert index[0] == "residual,energy_E,energy_script,verdict"
        assert "minimizer-consistent" in index[1]

    def test_lifting_check_subcommand(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(
            CONFIG_OK.replace("t_end = 0.1", "t_end = 10.0")
            + "\n[tolerances]\ndedpt_tol = 1e-3\n"
        )
        out_dir = tmp_path / "out"
        assert main(["lifting-check", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "lifting.csv").exists()


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
