"""Settings parsing, the analysis pipeline, and both console entry points."""

import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from shockstab import SettingsError, cli, harness, stability
from shockstab.cli import (
    Settings,
    parse_domain_spec,
    parse_grid_spec,
    parse_settings,
    parse_settings_text,
    settings_to_text,
)
from shockstab.mesh import compute_metrics, make_annular_grid, make_cartesian_grid, read_grid, write_grid
from shockstab.state import FlowField, GasModel, prim_to_cons, write_flow_files

GAS = GasModel()

MINIMAL = "test_case = normal_shock\ngrid = 11x11\nmach = 20\nepsilon = 0.1\n"


def _summary(outdir) -> dict:
    return dict(line.split("=", 1) for line in (outdir / "summary.txt").read_text().splitlines())


def stable_settings(outdir) -> str:
    # a sharp-profile base under HLL is neutrally stable: fast (no 1-D march)
    return (
        MINIMAL
        + "solver = hll\nreconstruction = first_order\n"
        + "initialization = rankine_hugoniot\n"
        + f"output_dir = {outdir}\n"
    )


def unstable_settings(outdir) -> str:
    return (
        MINIMAL
        + "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
        + "initialization = rankine_hugoniot\n"
        + f"output_dir = {outdir}\n"
    )


class TestParsing:
    def test_minimal_normal_shock(self):
        s = parse_settings_text(MINIMAL)
        assert s.test_case == "normal_shock"
        assert s.mach == 20.0
        assert s.epsilon == 0.1
        assert s.solver == "roe"
        assert s.reconstruction == "muscl"
        # defaults for the shock problem are filled in
        assert s.bc_left == "supersonic_inflow"
        assert s.bc_right == "fixed_pressure_outflow"
        assert s.bc_bottom == "periodic"
        assert s.bc_top == "periodic"

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n" + MINIMAL.replace("mach = 20", "mach = 20  # trailing")
        assert parse_settings_text(text).mach == 20.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(SettingsError, match="unknown settings key 'cfl' on line 2"):
            parse_settings_text("test_case = normal_shock\ncfl = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SettingsError, match="duplicate settings key 'mach'"):
            parse_settings_text(MINIMAL + "mach = 3\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(SettingsError, match="line 1 is not"):
            parse_settings_text("just words\n")
        with pytest.raises(SettingsError, match="has no value"):
            parse_settings_text("mach =\n")

    def test_type_errors(self):
        with pytest.raises(SettingsError, match="needs a number"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = fast"))
        with pytest.raises(SettingsError, match="needs an integer"):
            parse_settings_text(MINIMAL + "oned_steps = 2.5\n")
        with pytest.raises(SettingsError, match="must be finite"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = inf"))

    def test_range_checks(self):
        with pytest.raises(SettingsError, match="epsilon must lie in"):
            parse_settings_text(MINIMAL.replace("epsilon = 0.1", "epsilon = 1.5"))
        with pytest.raises(SettingsError, match="mach > 1"):
            parse_settings_text(MINIMAL.replace("mach = 20", "mach = 0.8"))
        with pytest.raises(SettingsError, match="gamma must exceed 1"):
            parse_settings_text(MINIMAL + "gamma = 1.0\n")
        with pytest.raises(SettingsError, match="must be positive"):
            parse_settings_text(MINIMAL + "oned_cfl = -0.5\n")
        with pytest.raises(SettingsError, match="'seed' must be non-negative"):
            parse_settings_text(MINIMAL + "seed = -1\n")

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_roe_rejects_degenerate_interface(self, epsilon):
        text = MINIMAL.replace("epsilon = 0.1", f"epsilon = {epsilon}")
        with pytest.raises(SettingsError, match="solver 'roe' needs"):
            parse_settings_text(text)
        # other solvers accept the same value
        parse_settings_text(text + "solver = hllc\n")

    @pytest.mark.parametrize("drop", ["mach", "epsilon"])
    def test_normal_shock_requires_mach_and_epsilon(self, drop):
        text = "".join(line + "\n" for line in MINIMAL.splitlines() if not line.startswith(drop))
        with pytest.raises(SettingsError, match="^normal_shock requires both 'mach' and 'epsilon'$"):
            parse_settings_text(text)

    def test_grid_exclusivity(self):
        with pytest.raises(SettingsError, match="exactly one of"):
            parse_settings_text("test_case = normal_shock\nmach = 2\nepsilon = 0.1\n")
        with pytest.raises(SettingsError, match="exactly one of"):
            parse_settings_text(MINIMAL + "grid_file = g.dat\n")

    def test_grid_and_domain_specs(self):
        assert parse_grid_spec("11x3") == (11, 3)
        assert parse_grid_spec("4X5") == (4, 5)
        for bad in ("11", "ax3", "0x3", "11x3x2"):
            with pytest.raises(SettingsError):
                parse_grid_spec(bad)
        assert parse_domain_spec("0,2,-1,1") == (0.0, 2.0, -1.0, 1.0)
        for bad in ("0,2,1", "0,a,0,1", "2,0,0,1"):
            with pytest.raises(SettingsError):
                parse_domain_spec(bad)
        with pytest.raises(SettingsError, match="'domain' applies only"):
            parse_settings_text(
                "test_case = normal_shock\ngrid_file = g.dat\nmach = 2\n"
                "epsilon = 0.1\ndomain = 0,1,0,1\n"
            )

    def test_external_flow_requirements(self):
        base = "test_case = external_flow\ngrid_file = g.dat\n"
        with pytest.raises(SettingsError, match="requires 'flow_file_prefix'"):
            parse_settings_text(base)
        with pytest.raises(SettingsError, match="missing bc_left"):
            parse_settings_text(base + "flow_file_prefix = f_\n")
        bcs = ("bc_left = zero_gradient\nbc_right = zero_gradient\n"
               "bc_bottom = slip_wall\nbc_top = slip_wall\n")
        ok = parse_settings_text(base + "flow_file_prefix = f_\n" + bcs)
        assert ok.bc_bottom == "slip_wall"
        with pytest.raises(SettingsError, match="applies only to test_case = normal_shock"):
            parse_settings_text(base + "flow_file_prefix = f_\n" + bcs + "mach = 2\n")
        with pytest.raises(SettingsError, match="need 'exit_pressure'"):
            parse_settings_text(
                base + "flow_file_prefix = f_\n"
                + bcs.replace("bc_right = zero_gradient", "bc_right = fixed_pressure_outflow")
            )
        with pytest.raises(SettingsError, match="need all of"):
            parse_settings_text(
                base + "flow_file_prefix = f_\n"
                + bcs.replace("bc_left = zero_gradient", "bc_left = supersonic_inflow")
            )

    def test_inflow_values_all_or_none(self):
        with pytest.raises(SettingsError, match="all four inflow"):
            parse_settings_text(MINIMAL + "inflow_rho = 1.0\n")

    def test_flow_prefix_rejected_for_shock_case(self):
        with pytest.raises(SettingsError, match="applies only to test_case = external_flow"):
            parse_settings_text(MINIMAL + "flow_file_prefix = f_\n")

    def test_unknown_bc_kind(self):
        with pytest.raises(SettingsError, match="bc_top"):
            parse_settings_text(MINIMAL + "bc_top = farfield\n")

    def test_echo_round_trip(self):
        s = parse_settings_text(MINIMAL + "solver = hllc\nround_lambda1 = 0.25\n")
        assert parse_settings_text(settings_to_text(s)) == s

    def test_parse_settings_missing_file(self, tmp_path):
        with pytest.raises(SettingsError, match="cannot read settings file"):
            parse_settings(tmp_path / "none.cfg")

    def test_non_ascii_settings_file_is_a_settings_error(self, tmp_path, capsys):
        # A non-ASCII byte used to escape as a UnicodeDecodeError traceback.
        cfg = tmp_path / "accent.cfg"
        cfg.write_text(MINIMAL + "# r\u00e9sum\u00e9 of the case\n", encoding="utf-8")
        with pytest.raises(SettingsError, match="cannot read settings file .*accent.cfg"):
            parse_settings(cfg)
        assert cli.main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read settings file {str(cfg)!r}") and "Traceback" not in err

    def test_readme_settings_reference_lists_every_key(self):
        # Rows name one key, join keys with " / " (defaults joined alike), or
        # abbreviate a family as "prefix_first/second/...".
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Settings reference", 1)[1]
        rows = takewhile(lambda line: line.startswith("|"), section.strip().splitlines()[2:])
        defaults = {f.name: f.default for f in fields(Settings)}
        documented = []
        for row in rows:
            key_cell, default_cell, _meaning = (cell.strip() for cell in row[1:].split("|", 2))
            keys = [key.strip("`") for key in key_cell.split(" / ")]
            given = default_cell.split(" / ") if len(keys) > 1 else [default_cell]
            assert len(given) == len(keys), row
            for key, default in zip(keys, given):
                first, *rest = key.split("/")
                prefix = first.rpartition("_")[0] + "_"
                for name in [first] + [prefix + tail for tail in rest]:
                    documented.append(name)
                    want = defaults.get(name)
                    if default.startswith("`") and default.endswith("`"):
                        assert want is not None and type(want)(default.strip("`")) == want, (name, default)
                    else:
                        assert want is None, (name, default)
        assert sorted(documented) == sorted(cli.KNOWN_KEYS)


class TestMainAnalysis:
    def write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="ascii")
        return str(path)

    def test_stable_case_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, stable_settings(out))])
        assert code == 0
        assert "(stable)" in capsys.readouterr().out
        for name in ("settings_echo.dat", "eigenvalues.dat", "summary.txt",
                     "mode_rho.dat", "mode_u.dat", "mode_v.dat", "mode_p.dat",
                     "flow_rho.dat", "flow_u.dat", "flow_v.dat", "flow_p.dat"):
            assert (out / name).is_file()
        spectrum = np.loadtxt(out / "eigenvalues.dat")
        assert spectrum.shape == (4 * 11 * 11, 2)
        assert np.all(np.diff(spectrum[:, 0]) <= 1e-12)  # sorted by real part
        summary = _summary(out)
        assert summary["verdict"] == "stable"
        assert float(summary["max_re_lambda"]) <= 1e-10
        assert int(summary["unknowns"]) == 484

    def test_unstable_case_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, unstable_settings(out))])
        assert code == 1
        assert "(unstable)" in capsys.readouterr().out
        summary = _summary(out)
        assert summary["verdict"] == "unstable"
        assert float(summary["max_re_lambda"]) > 0.01

    def test_settings_error_exit_two(self, tmp_path, capsys):
        code = cli.main([self.write(tmp_path, "mach = 2\n")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main([str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize("u, p", [("1e200", "1"), ("1e10", "1e-9")])
    def test_inflow_state_lost_in_conversion_is_a_settings_error(self, tmp_path, capsys, u, p):
        # At u = 1e200 the inflow energy overflows; at u = 1e10 it swamps
        # p = 1e-9.  Either way the run names the inflow_* keys, not a
        # non-positive density or pressure, and numpy stays quiet.
        cfg = tmp_path / "inflow.cfg"
        cfg.write_text("test_case = normal_shock\ngrid = 8x4\nmach = 3\nepsilon = 0.1\ninflow_rho = 1\n"
                       f"inflow_u = {u}\ninflow_v = 0\ninflow_p = {p}\noutput_dir = {tmp_path / 'out'}\n",
                       encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([str(cfg)]) == 2
        assert capsys.readouterr().err == ("error: inflow_rho, inflow_u, inflow_v, inflow_p give an inflow state "
                                           "whose conservative form overflows or loses its pressure\n")

    def test_slip_wall_one_cell_across_exit_two(self, tmp_path, capsys):
        text = ("grid = 1x4\nmach = 3\nepsilon = 0.3\nsolver = hllc\n"
                "initialization = rankine_hugoniot\nbc_left = slip_wall\nbc_right = slip_wall\n"
                f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main([self.write(tmp_path, text)]) == 2
        assert "slip_wall on the left side" in capsys.readouterr().err

    def test_crash_exit_two(self, tmp_path, capsys, monkeypatch):
        # an unexpected exception is an error, not the "unstable" exit code 1
        def crash(settings):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "analyze", crash)
        assert cli.main([self.write(tmp_path, stable_settings(tmp_path / "out"))]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_artifacts_are_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main([self.write(tmp_path, unstable_settings(out_a), "a.cfg")])
        cli.main([self.write(tmp_path, unstable_settings(out_b), "b.cfg")])
        for name in ("eigenvalues.dat", "summary.txt", "mode_rho.dat", "mode_p.dat",
                     "flow_rho.dat"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # the echo differs only in the output_dir line
        echo_a, echo_b = (
            [l for l in (d / "settings_echo.dat").read_text().splitlines()
             if not l.startswith("output_dir")]
            for d in (out_a, out_b)
        )
        assert echo_a == echo_b

    def test_dump_matrix(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([self.write(tmp_path, stable_settings(out)), "--dump-matrix"])
        assert code == 0
        header = (out / "matrix.dat").read_text().splitlines()[0].split()
        assert header[0] == header[1] == str(4 * 11 * 11)

    @pytest.mark.parametrize("key, value, replacement", [
        ("eig_cap", "500", "stability.eigensolve(cap=12000)"),
        ("validate_cfl", "0.3", "harness.evolve_nonlinear(cfl=0.4)"),
        ("validate_amplitude", "1e-6", "harness.evolve_nonlinear(amplitude=1e-08)"),
    ])
    def test_removed_key_names_its_replacement(self, tmp_path, capsys, key, value, replacement):
        out = tmp_path / "out"
        text = stable_settings(out)
        lineno = text.count("\n") + 1
        assert cli.main([self.write(tmp_path, text + f"{key} = {value}\n", "old.cfg")]) == 2
        err = capsys.readouterr().err
        assert f"settings key {key!r} on line {lineno} was removed" in err
        assert err.rstrip().endswith(f"the run uses the library default {replacement}")
        assert cli.main([self.write(tmp_path, text)]) == 0
        echoed = [line.split(" = ")[0] for line in (out / "settings_echo.dat").read_text().splitlines()]
        assert key not in echoed and len(echoed) > 20

    def test_settings_echo_reparses(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.write(tmp_path, stable_settings(out))
        cli.main([cfg])
        echoed = parse_settings(out / "settings_echo.dat")
        assert echoed == parse_settings(cfg)

    def test_arnoldi_method(self, tmp_path):
        out = tmp_path / "out"
        text = unstable_settings(out) + "eig_method = arnoldi\narnoldi_k = 8\n"
        code = cli.main([self.write(tmp_path, text)])
        assert code == 1
        assert np.loadtxt(out / "eigenvalues.dat").shape == (8, 2)

    @pytest.mark.parametrize("extra", ["", "eig_method = arnoldi\narnoldi_k = 4\n"], ids=["dense", "arnoldi"])
    def test_eigensolver_failure_on_a_degenerate_domain_is_an_error(self, tmp_path, capsys, extra):
        # Cells 1e-300 wide scale S near overflow: the eigenvector's
        # iterates turn NaN (dense) or ARPACK fails (arnoldi).  Either way the
        # run exits 2 with one error line, no traceback and no numpy warning.
        out = tmp_path / "out"
        text = ("test_case = normal_shock\ngrid = 6x6\nmach = 3\nepsilon = 0.1\nsolver = hllc\n"
                f"domain = 0,1e-300,0,1\noutput_dir = {out}\n" + extra)
        cfg = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "mode_rho.dat").exists()

    def test_degenerate_domain_error_names_a_finite_norm(self, tmp_path, capsys):
        # S's entries near 1e300 overflow the sum of squares behind |S|_F;
        # the stall message quotes the scaled, finite norm.
        out = tmp_path / "out"
        text = ("test_case = normal_shock\ngrid = 6x6\nmach = 3\nepsilon = 0.1\nsolver = hllc\n"
                f"domain = 0,1e-300,0,1\noutput_dir = {out}\n")
        assert cli.main([self.write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: inverse iteration stalled: residual nan exceeds 1e-8 * |S|_F = ")
        assert np.isfinite(float(err.rsplit("= ", 1)[1]))

    @pytest.mark.parametrize("extra,method", [
        ("", "transverse_fourier"),
        ("bc_bottom = slip_wall\nbc_top = slip_wall\n", "dense"),
        ("eig_method = arnoldi\narnoldi_k = 8\n", "arnoldi"),
    ])
    def test_summary_names_the_solve_that_ran(self, tmp_path, extra, method):
        out = tmp_path / "out"
        assert cli.main([self.write(tmp_path, unstable_settings(out) + extra)]) == 1
        summary = _summary(out)
        assert summary["eig_method_used"] == method
        assert int(summary["spectrum_size"]) == (8 if method == "arnoldi" else 484)


class TestExternalFlow:
    def make_case(self, tmp_path, reconstruction="first_order"):
        grid = make_cartesian_grid(8, 4)
        write_grid(grid, tmp_path / "duct.grd")
        prim = np.tile(np.array([1.0, 2.0, 0.0, 1.0 / 1.4]), (8, 4, 1))
        write_flow_files(FlowField(q=prim_to_cons(prim, GAS)), str(tmp_path / "base_"), GAS)
        out = tmp_path / "out"
        text = (
            "test_case = external_flow\n"
            f"grid_file = {tmp_path / 'duct.grd'}\n"
            f"flow_file_prefix = {tmp_path / 'base_'}\n"
            "bc_left = supersonic_inflow\nbc_right = zero_gradient\n"
            "bc_bottom = periodic\nbc_top = periodic\n"
            "inflow_rho = 1.0\ninflow_u = 2.0\ninflow_v = 0.0\n"
            f"inflow_p = {1.0 / 1.4:.17g}\n"
            f"solver = hllc\nreconstruction = {reconstruction}\n"
            f"output_dir = {out}\n"
        )
        path = tmp_path / "ext.cfg"
        path.write_text(text, encoding="ascii")
        return path, out

    def test_uniform_duct_is_stable(self, tmp_path):
        cfg, out = self.make_case(tmp_path)
        assert cli.main([str(cfg)]) == 0
        summary = _summary(out)
        assert float(summary["max_re_lambda"]) < -0.1
        # the echoed base flow reproduces the input files bit for bit
        assert (out / "flow_rho.dat").read_bytes() == (tmp_path / "base_rho.dat").read_bytes()

    def test_validate_flag_rejected_for_external_flow(self, tmp_path):
        cfg, out = self.make_case(tmp_path)
        assert cli.main([str(cfg), "--validate"]) == 2

    def test_sweep_flag_rejected_for_external_flow(self, tmp_path, capsys):
        cfg, out = self.make_case(tmp_path)
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert capsys.readouterr().err == "error: --sweep supports the normal_shock case only\n"
        assert not (out / "sweep.dat").exists()

    def test_overflowing_energy_is_a_flow_file_error(self, tmp_path, capsys):
        # u = 1e200 is finite, but its kinetic energy overflows the
        # conservative state; the run names the files, not a flux.
        cfg, out = self.make_case(tmp_path)
        u_file = tmp_path / "base_u.dat"
        values = u_file.read_text(encoding="ascii").split()
        values[13] = "1e200"
        u_file.write_text("\n".join(values) + "\n", encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([str(cfg)]) == 2
        err = capsys.readouterr().err
        prefix = str(tmp_path / "base_")
        assert err == (f"error: flow files {prefix!r}* contain 1 cell(s) whose conservative state "
                       "overflows or loses its pressure\n")


class TestSweepAndValidate:
    def test_non_numeric_sweep_mach_is_a_settings_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{MINIMAL}sweep_mach = 2,three\noutput_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert capsys.readouterr().err == "error: sweep_mach must be a comma list of numbers, got '2,three'\n"
        assert not (out / "sweep.dat").exists()

    def test_sweep_table(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "test_case = normal_shock\ngrid = 7x3\nmach = 3\nepsilon = 0.1\n"
            "solver = hllc\nreconstruction = first_order\n"
            "initialization = rankine_hugoniot\n"
            "sweep_mach = 2,3\nsweep_solvers = hllc\n"
            f"output_dir = {out}\n"
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text, encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 0
        lines = (out / "sweep.dat").read_text().splitlines()
        assert lines[0].startswith("# mach solver scheme")
        rows = [l.split() for l in lines[1:]]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["2", "3"]
        assert all(r[1] == "hllc" for r in rows)

    def test_validate_writes_tables_and_series(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "test_case = normal_shock\ngrid = 7x3\nmach = 3\nepsilon = 0.1\n"
            "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
            "initialization = rankine_hugoniot\n"
            "validate_linear_steps = 300\nvalidate_nonlinear_steps = 60\n"
            f"output_dir = {out}\n"
        )
        cfg = tmp_path / "val.cfg"
        cfg.write_text(text, encoding="ascii")
        code = cli.main([str(cfg), "--validate"])
        assert code in (0, 1)
        lines = (out / "validation.dat").read_text().splitlines()
        assert lines[0].startswith("# mach solver scheme")
        assert lines[1].split()[0] == "3"
        assert (out / "series_linear.dat").is_file()
        assert (out / "series_nonlinear.dat").is_file()

    def test_sweep_validates_entries(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = MINIMAL + f"sweep_mach = 2,0.5\noutput_dir = {out}\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert "sweep_mach" in capsys.readouterr().err

    def test_sweep_rejects_non_finite_mach(self, tmp_path, capsys):
        # "3,inf" used to write Mach 3's row and then fail on the shock states
        for entries in ("3,inf", "nan,3"):
            out = tmp_path / "out"
            cfg = tmp_path / "inf.cfg"
            cfg.write_text(MINIMAL + f"sweep_mach = {entries}\noutput_dir = {out}\n", encoding="ascii")
            assert cli.main([str(cfg), "--sweep"]) == 2
            assert "'sweep_mach' entries must be finite" in capsys.readouterr().err
            assert not (out / "sweep.dat").exists()

    # At CFL 4 the M=20 march leaves the physical state space at step 16
    # while the M=6 march succeeds; both march as one batch.
    FAILING_MEMBER = (MINIMAL + "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\n"
                      "oned_steps = 200\noned_cfl = 4\nsweep_solvers = hllc\n")

    @pytest.mark.parametrize("order, rows", [
        ("6,20", ["6 hllc muscl/van_albada 0.034411088521031002"]),
        ("20,6", []),
    ])
    def test_sweep_member_failure_waits_for_its_row(self, tmp_path, capsys, order, rows):
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.FAILING_MEMBER + f"sweep_mach = {order}\noutput_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert "1-D march left the physical state space at step 16" in capsys.readouterr().err
        lines = (out / "sweep.dat").read_text().splitlines()
        assert lines[0].startswith("# mach solver scheme")
        assert [" ".join(line.split()[:4]) for line in lines[1:]] == rows

    def test_sweep_marches_each_solver_once(self, tmp_path, monkeypatch):
        # Every case of the sweep is one member of a single batched 1-D
        # march, in row order, and every row equals the case analysed on
        # its own.
        marches = []
        solve = harness.solve_1d_steady

        def counted(*args, **kwargs):
            marches.append((args[1], args[5]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_1d_steady", counted)
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("test_case = normal_shock\ngrid = 5x3\nmach = 3\nepsilon = 0.1\nshock_col = 3\n"
                       "reconstruction = muscl\noned_steps = 40\nsweep_mach = 20,3,6\n"
                       f"sweep_solvers = hllc,roe\noutput_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 0
        assert marches == [([20.0, 3.0, 6.0] * 2, ["hllc"] * 3 + ["roe"] * 3)]
        rows = [line.split() for line in (out / "sweep.dat").read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [(m, s) for s in ("hllc", "roe") for m in ("20", "3", "6")]
        marches.clear()
        settings = parse_settings(cfg)
        for row in rows:
            alone = cli.analyze(replace(settings, mach=float(row[0]), solver=row[1])).spectrum
            assert row[3:5] == [f"{alone[0].real:.17g}", f"{alone[0].imag:.17g}"]
        assert marches == [(m, s) for s in ("hllc", "roe") for m in (20.0, 3.0, 6.0)]

    def test_sweep_mixed_solver_failure_waits_for_its_row(self, tmp_path, capsys):
        # SLAU with MUSCL/superbee leaves the physical state space at step 151
        # at M=20 on 11 cells; in the one mixed march the HLLC members and
        # SLAU at M=3 still get their rows, and the sweep stops at its row.
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("test_case = normal_shock\ngrid = 11x3\nmach = 20\nepsilon = 0.1\n"
                       "reconstruction = muscl\nlimiter = superbee\noned_steps = 200\n"
                       f"sweep_mach = 3,20\nsweep_solvers = hllc,slau\noutput_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        assert "1-D march left the physical state space at step 151" in capsys.readouterr().err
        rows = [line.split() for line in (out / "sweep.dat").read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("3", "hllc"), ("20", "hllc"), ("3", "slau")]
        settings = parse_settings(cfg)
        for row in rows:
            alone = cli.analyze(replace(settings, mach=float(row[0]), solver=row[1])).spectrum
            assert row[3:5] == [f"{alone[0].real:.17g}", f"{alone[0].imag:.17g}"]

    @pytest.mark.parametrize("axis, entry", [
        ("sweep_mach = 3,3\n", "3.0"),
        ("sweep_mach = 2,3,3.0\n", "3.0"),
        ("sweep_solvers = hllc,roe,hllc\n", "'hllc'"),
    ])
    def test_sweep_rejects_repeated_entry(self, tmp_path, capsys, axis, entry):
        # A repeated entry used to write identical rows, each analysed anew.
        out = tmp_path / "out"
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(MINIMAL + axis + f"output_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--sweep"]) == 2
        key = axis.split()[0]
        assert f"key {key!r} lists the entry {entry} more than once" in capsys.readouterr().err
        assert not (out / "sweep.dat").exists()

    def test_sweep_rejects_empty_axis(self, tmp_path, capsys):
        for axis in ("sweep_mach = ,\n", "sweep_solvers = ,\n"):
            out = tmp_path / "out"
            cfg = tmp_path / "empty.cfg"
            cfg.write_text(MINIMAL + axis + f"output_dir = {out}\n", encoding="ascii")
            assert cli.main([str(cfg), "--sweep"]) == 2
            assert axis.split()[0] in capsys.readouterr().err
            assert not (out / "sweep.dat").exists()

    def test_sweep_rejects_other_run_flags(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL + f"output_dir = {out}\n", encoding="ascii")
        for flag in ("--validate", "--dump-matrix"):
            with pytest.raises(SystemExit) as exc:
                cli.main([str(cfg), "--sweep", flag])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_sweep_rejects_pinned_boundary_states(self, tmp_path, capsys):
        for extra in ("exit_pressure = 10\n",
                      "inflow_rho = 1\ninflow_u = 3\ninflow_v = 0\ninflow_p = 0.7\n"):
            out = tmp_path / "out"
            cfg = tmp_path / "pinned.cfg"
            cfg.write_text(MINIMAL + extra + f"sweep_mach = 2,3\noutput_dir = {out}\n", encoding="ascii")
            assert cli.main([str(cfg), "--sweep"]) == 2
            assert "--sweep" in capsys.readouterr().err
            assert not (out / "sweep.dat").exists()

    def test_oned_history_written_by_single_runs_only(self, tmp_path):
        base = ("test_case = normal_shock\ngrid = 5x3\nmach = 3\nepsilon = 0.1\nsolver = hllc\n"
                "reconstruction = first_order\noned_steps = 40\nsweep_mach = 3\nsweep_solvers = hllc\n")
        runs = {"single": ("", []), "sweep": ("", ["--sweep"]),
                "rh": ("initialization = rankine_hugoniot\n", [])}
        for name, (extra, flags) in runs.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + extra + f"output_dir = {tmp_path / name}\n", encoding="ascii")
            assert cli.main([str(cfg), *flags]) in (0, 1)
        rows = [line.split() for line in (tmp_path / "single" / "series_oned.dat").read_text().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(40))
        history = cli.analyze(parse_settings(tmp_path / "single.cfg")).oned.residual_history
        assert np.array_equal([float(r[1]) for r in rows], history)
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == ["settings_echo.dat", "sweep.dat"]
        assert not (tmp_path / "rh" / "series_oned.dat").exists()

    # Both modes below must analyse the operator of the configured grid and
    # boundaries, not a unit-cell grid with the default shock boundaries.
    SCALED = (
        "test_case = normal_shock\ngrid = 5x3\ndomain = 0,10,0,6\nmach = 20\nepsilon = 0.1\n"
        "solver = hllc\nreconstruction = muscl\ninitialization = rankine_hugoniot\n"
        "bc_right = zero_gradient\n"
    )

    def test_validation_checks_the_analysed_operator(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "val.cfg"
        cfg.write_text(self.SCALED + "validate_linear_steps = 50\nvalidate_nonlinear_steps = 20\n"
                       f"output_dir = {out}\n", encoding="ascii")
        assert cli.main([str(cfg), "--validate"]) == 1
        row = (out / "validation.dat").read_text().splitlines()[1].split()
        assert float(row[3]) == float(_summary(out)["max_re_lambda"])

    STRIP = {"test_case": "normal_shock", "grid": "7x6", "mach": "3", "epsilon": "0.1", "reconstruction": "muscl",
             "oned_steps": "40", "sweep_mach": "3,20", "sweep_solvers": "hllc,ausm_plus"}

    @staticmethod
    def assembled_shapes(monkeypatch):
        """Grid shapes of every ``stability.assemble`` call from here on."""
        shapes, assemble = [], stability.assemble

        def counted(base, *args, **kwargs):
            shapes.append((base.ni, base.nj))
            return assemble(base, *args, **kwargs)

        monkeypatch.setattr(stability, "assemble", counted)
        return shapes

    @pytest.mark.parametrize("keys, shape", [
        ({}, (7, 5)),
        ({"grid": "7x5"}, (7, 5)),
        ({"grid": "7x4"}, (7, 4)),
        ({"domain": "0,1,0,0.7"}, (7, 6)),
        ({"bc_bottom": "zero_gradient", "bc_top": "slip_wall"}, (7, 6)),
        ({"eig_method": "arnoldi", "arnoldi_k": "4"}, (7, 6)),
    ])
    def test_sweep_assembles_the_strip_only_where_s_splits_bitwise(self, tmp_path, monkeypatch, keys, shape):
        # A splittable case assembles one ni x 5 strip; nj <= 5, cell areas
        # that differ in the last bit from row to row, non-periodic j sides
        # and Arnoldi assemble the full S once each.  Every row equals the
        # full route's.
        out = tmp_path / "out"
        cfg = tmp_path / "sweep.cfg"
        text = "".join(f"{k} = {v}\n" for k, v in {**self.STRIP, **keys}.items())
        cfg.write_text(text + f"output_dir = {out}\n", encoding="ascii")
        settings = parse_settings(cfg)
        if "domain" in keys:
            assert not cli._rows_repeat(compute_metrics(cli._build_grid(settings)).volume)
        shapes = self.assembled_shapes(monkeypatch)
        assert cli.main([str(cfg), "--sweep"]) == 0
        assert shapes == [shape] * 4
        rows = [line.split() for line in (out / "sweep.dat").read_text().splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            alone = cli.analyze(replace(settings, mach=float(row[0]), solver=row[1]))
            assert alone.stab is not None
            assert row[3:6] == [f"{alone.spectrum[0].real:.17g}", f"{alone.spectrum[0].imag:.17g}",
                                f"{harness.dominance_gap(alone.spectrum):.17g}"]

    def test_single_analysis_assembles_the_full_operator(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = tmp_path / "single.cfg"
        text = "".join(f"{k} = {v}\n" for k, v in self.STRIP.items())
        cfg.write_text(text + f"solver = hllc\noutput_dir = {out}\n", encoding="ascii")
        shapes = self.assembled_shapes(monkeypatch)
        cli.main([str(cfg)])
        assert shapes == [(7, 6)]
        assert _summary(out)["eig_method_used"] == "transverse_fourier"

    def test_sweep_row_matches_single_run(self, tmp_path):
        single, sweep = tmp_path / "single", tmp_path / "sweep"
        for out, flags in ((single, []), (sweep, ["--sweep"])):
            cfg = tmp_path / f"{out.name}.cfg"
            cfg.write_text(self.SCALED + f"sweep_mach = 3,20\nsweep_solvers = hllc\noutput_dir = {out}\n",
                           encoding="ascii")
            cli.main([str(cfg), *flags])
        rows = [l.split() for l in (sweep / "sweep.dat").read_text().splitlines()[1:]]
        row = next(r for r in rows if r[0] == "20")
        assert float(row[3]) == float(_summary(single)["max_re_lambda"])


class TestAnalyze:
    @staticmethod
    def settings(**keys):
        keys = {"grid": "8x3", "mach": 2, "epsilon": 0.1, **keys}
        return parse_settings_text("".join(f"{k} = {v}\n" for k, v in keys.items()))

    def test_time_march_structure(self):
        analysis = cli.analyze(self.settings(
            reconstruction="first_order", initialization="rankine_hugoniot",
            validate_linear_steps=300, validate_nonlinear_steps=100))
        assert analysis.spectrum.shape == (4 * 8 * 3,)
        assert np.all(np.diff(analysis.spectrum.real) <= 0.0)
        assert analysis.oned is None
        assert np.array_equal(analysis.base.q, prim_to_cons(analysis.base_prim, GAS))
        marches, errors = cli.time_march(analysis)
        assert list(marches) == ["linear", "nonlinear"]
        for kind, (series, sigma) in marches.items():
            assert len(series.t) > 1
            # every rate is either fitted or has a recorded reason
            assert (sigma is not None) or any(e.startswith(kind) for e in errors)

    def test_projection_bookkeeping(self):
        analysis = cli.analyze(self.settings(solver="hllc", oned_steps=200))
        assert analysis.stab.n == 4 * 8 * 3
        assert analysis.oned is not None
        assert analysis.oned.residual_history.shape == (200,)

    def test_deterministic(self):
        settings = self.settings(reconstruction="first_order", initialization="rankine_hugoniot",
                                 validate_linear_steps=200, validate_nonlinear_steps=10)
        a, b = cli.analyze(settings), cli.analyze(settings)
        assert np.array_equal(a.spectrum, b.spectrum)
        lin_a, lin_b = cli.time_march(a)[0]["linear"][0], cli.time_march(b)[0]["linear"][0]
        assert np.array_equal(lin_a.log_norm, lin_b.log_norm)


class TestGridgen:
    def test_cartesian(self, tmp_path):
        out = tmp_path / "cart.grd"
        assert cli.gridgen_main(["cartesian", "4", "3", "-o", str(out)]) == 0
        grid = read_grid(out)
        ref = make_cartesian_grid(4, 3)
        assert np.array_equal(grid.x, ref.x)
        assert np.array_equal(grid.y, ref.y)

    def test_cartesian_with_extent(self, tmp_path):
        out = tmp_path / "cart.grd"
        code = cli.gridgen_main(
            ["cartesian", "4", "3", "--extent", "0", "2", "-1", "1", "-o", str(out)]
        )
        assert code == 0
        grid = read_grid(out)
        ref = make_cartesian_grid(4, 3, (0.0, 2.0, -1.0, 1.0))
        assert np.array_equal(grid.x, ref.x)

    def test_annular(self, tmp_path):
        out = tmp_path / "ann.grd"
        code = cli.gridgen_main(
            ["annular", "5", "4", "--inner", "1.5", "--outer", "3.0",
             "--angle-deg", "45", "-o", str(out)]
        )
        assert code == 0
        grid = read_grid(out)
        ref = make_annular_grid(5, 4, 1.5, 3.0, np.deg2rad(45.0))
        assert np.allclose(grid.x, ref.x, rtol=1e-15, atol=1e-17)
        assert np.allclose(grid.y, ref.y, rtol=1e-15, atol=1e-17)

    def test_invalid_counts_exit_two(self, tmp_path, capsys):
        code = cli.gridgen_main(["cartesian", "0", "3", "-o", str(tmp_path / "g.grd")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_crash_exit_two(self, tmp_path, capsys, monkeypatch):
        # an unexpected exception is an error (exit 2), as in the main CLI
        def crash(grid, path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "write_grid", crash)
        assert cli.gridgen_main(["cartesian", "4", "3", "-o", str(tmp_path / "g.grd")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.gridgen_main([])


class TestNonFiniteExtents:
    """An infinite extent is refused by name, before any grid is built or warning raised."""

    def test_domain_spec(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ("0,inf,0,1", "-inf,1,0,1", "0,1,0,inf", "0,1,nan,1"):
                with pytest.raises(SettingsError, match="domain"):
                    parse_domain_spec(bad)

    def test_settings_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("test_case = normal_shock\ngrid = 4x3\ndomain = 0,inf,0,1\nmach = 2\nepsilon = 0.1\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([str(cfg)]) == 2
        assert "domain" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["annular", "3", "2", "--outer", "inf"],
                                      ["cartesian", "3", "2", "--extent", "0", "inf", "0", "1"]])
    def test_gridgen_exits_two(self, tmp_path, capsys, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.gridgen_main(args + ["-o", str(tmp_path / "g.grd")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "g.grd").exists()


# Run in a fresh interpreter, so no test before it has imported the solvers.
LAZY_SOLVERS_SCRIPT = textwrap.dedent(r"""
    import sys
    from pathlib import Path

    def solvers():
        return [name for name in ("scipy.sparse.linalg", "scipy.linalg") if name in sys.modules]

    from shockstab import cli
    assert solvers() == [], f"import shockstab.cli loaded {solvers()}"
    out = Path(sys.argv[1])
    assert cli.gridgen_main(["cartesian", "5", "5", "-o", str(out / "g.grd")]) == 0
    assert solvers() == [], f"gridgen_main loaded {solvers()}"
    cfg = out / "case.cfg"
    cfg.write_text("test_case = normal_shock\ngrid = 5x5\nmach = 3\nepsilon = 0.1\noned_steps = 20\n"
                   f"sweep_mach = 3\nsweep_solvers = hllc\noutput_dir = {out / 'out'}\n")
    assert cli.main([str(cfg), "--sweep"]) == 0
    assert solvers() == [], f"--sweep loaded {solvers()}"
    assert cli.main([str(cfg)]) in (0, 1)
    assert "scipy.sparse.linalg" in sys.modules, "a single analysis ran without the sparse solvers"
""")


def test_sweep_and_gridgen_leave_the_sparse_eigensolvers_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", LAZY_SOLVERS_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
