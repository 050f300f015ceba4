import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platform_eq.cli as cli
import platform_eq.equilibrium as equilibrium
import platform_eq.statics as statics
from platform_eq.cli import DERIV_SPECS, main
from platform_eq.config import MAX_SWEEP_POINTS, SWEEP_AXES, ConfigError, axis_count, parse_config
from platform_eq.model import MarketParams, Side

BASE_INI = """\
[market]
n_platforms = 2
beta_b = 1.0
beta_s = 1.0

[output]
seed = 0
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.ini"
    path.write_text(BASE_INI)
    return str(path)


def read_rows(path):
    lines = [l for l in open(path).read().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestConfig:
    def test_parse_minimal(self):
        cfg = parse_config(BASE_INI)
        assert cfg.market.n_platforms == 2
        assert cfg.get("solve", "regime") == "both"
        assert len(cfg.sha256) == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE_INI + "\n[solve]\nphi_bb = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE_INI + "\n[platforms]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE_INI + "\n[mc]\nsamples = 10\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("[market]\nn_platforms = 2\nbeta_b = 1.0\n")

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(BASE_INI.replace("beta_b = 1.0", "beta_b = fast"))

    def test_invalid_market(self):
        cfg = parse_config(BASE_INI.replace("n_platforms = 2", "n_platforms = 1"))
        with pytest.raises(ConfigError):
            cfg.market

    def test_sweep_point_cap(self):
        # parsed only, never swept: a sweep at the cap is accepted, one point more is not
        at_cap = "\n[sweep]\nstart = 0\nstop = 999999\nstep = 1\n"
        assert axis_count(0.0, 999999.0, 1.0) == MAX_SWEEP_POINTS
        parse_config(BASE_INI + at_cap)
        with pytest.raises(ConfigError, match="points"):
            parse_config(BASE_INI + at_cap.replace("999999", "1000000"))

    def test_solve_tol_is_an_unknown_key(self, tmp_path, capsys):
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[solve]\ntol = 1e-10\n")
        assert main(["solve", "--config", str(ini)]) == 1
        assert capsys.readouterr().err == "config error: unknown key 'tol' in section [solve]\n"
        ini.write_text(BASE_INI)
        assert main(["solve", "--config", str(ini), "--tol", "1e-10"]) == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_bad_sweep_axis(self):
        with pytest.raises(ConfigError, match="sweep axis"):
            parse_config(BASE_INI + "\n[sweep]\naxis = gamma\n")

    # flag, its argument, the [section] key it sets, the parsed value, the file's value
    @pytest.mark.parametrize("flag, arg, section, key, value, file_value", [
        ("--regime", "ce", "solve", "regime", "ce", "cne"),
        ("--out", "flag-dir", "output", "dir", "flag-dir", "file-dir"),
        ("--seed", "7", "output", "seed", 7, "3"),
        ("--jobs", "2", "output", "jobs", 2, "1"),
        ("--figure", "fig3", "figure", "id", "fig3", "fig1"),
    ])
    def test_flag_overrides_file(self, tmp_path, monkeypatch, flag, arg, section, key,
                                 value, file_value):
        if section == "output":
            text = BASE_INI.replace("seed = 0", f"{key} = {file_value}")
        else:
            text = BASE_INI + f"\n[{section}]\n{key} = {file_value}\n"
        ini = tmp_path / "f.ini"
        ini.write_text(text)
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "figures", (lambda cfg: seen.append(cfg) or 0, ""))
        assert main(["figures", "--config", str(ini), flag, arg]) == 0
        expected = parse_config(text).values
        assert expected[section][key] != value
        expected[section][key] = value
        assert seen[0].values == expected
        assert type(seen[0].values[section][key]) is type(value)


    def test_parser_built_once_and_flags_do_not_leak(self, tmp_path, monkeypatch):
        # main keeps one parser per process; a flag of one call must not
        # reach the next call, which takes the file's value
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI.replace("seed = 0", "seed = 3"))
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "solve", (lambda cfg: seen.append(cfg) or 0, ""))
        assert main(["solve", "--config", str(ini), "--seed", "7"]) == 0
        parser = cli._build_parser()
        assert main(["solve", "--config", str(ini)]) == 0
        assert cli._build_parser() is parser
        assert [cfg.get("output", "seed") for cfg in seen] == [7, 3]


# case -> (command, config text after [market], flags); each is a config error, exit 1
INVALID_SETTINGS = {
    "figure_u0_abc": ("figures", "[figure]\nu0 = abc\n", ["--figure", "fig1"]),
    "figure_n_1": ("figures", "[figure]\nn_platforms = 1\n", ["--figure", "fig1"]),
    "resolution_0": ("figures", "[grid]\nresolution = 0\n", ["--figure", "fig1"]),
    "phi_max_inf": ("figures", "[grid]\nphi_max = inf\n", ["--figure", "fig1"]),
    "beta_min_nan": ("figures", "[grid]\nbeta_min = nan\n", ["--figure", "fig1"]),
    "phi_range_empty": ("figures", "[grid]\nphi_min = 1\nphi_max = 1\n", ["--figure", "fig1"]),
    "beta_range_reversed": ("figures", "[grid]\nbeta_min = 2\nbeta_max = 0\n",
                            ["--figure", "fig1"]),
    # BASE_INI ends in its [output] section, which these keys join
    "svg_size_negative": ("figures", "width = 10\nheight = -5\n", ["--figure", "fig1"]),
    "svg_height_at_margins": ("figures", "height = 80\n", ["--figure", "fig1"]),
    "grid_n_0": ("verify", "[verify]\ngrid_n = 0\n", []),
    "radius_nan": ("verify", "[verify]\nradius = nan\ngrid_n = 5\n", []),
    "tolerance_0": ("verify", "[verify]\ntolerance = 0\n", []),
    "perturb_price_inf": ("verify", "[verify]\nperturb_price = inf\n", []),
    "step_nan": ("sweep", "[sweep]\nstep = nan\n", []),
    "step_0": ("sweep", "[sweep]\nstep = 0\n", []),
    "step2_negative": ("sweep", "[sweep]\naxis2 = beta\nstart2 = 0.5\nstop2 = 1\nstep2 = -1\n",
                       []),
    "step_underflows": ("sweep", "[sweep]\nstep = 5e-324\n", []),
    "step2_underflows": ("sweep", "[sweep]\naxis2 = beta\nstart2 = 0.5\nstop2 = 1\n"
                         "step2 = 5e-324\n", []),
    # finite point counts, but more than MAX_SWEEP_POINTS on one axis or over both
    "step_too_fine": ("sweep", "[sweep]\nstep = 1e-300\n", []),
    "sweep_points_product": ("sweep", "[sweep]\nstep = 0.001\naxis2 = beta\nstart2 = 0.5\n"
                             "stop2 = 1\nstep2 = 0.0001\n", []),
    "sweep_reversed": ("sweep", "[sweep]\nstart = 6\nstop = 3\nstep = 1\n", []),
    "sweep2_reversed": ("sweep", "[sweep]\naxis2 = beta\nstart2 = 1\nstop2 = 0.5\nstep2 = 0.1\n",
                        []),
    "n_sweep_from_1": ("sweep", "[sweep]\naxis = n_platforms\nstart = 1\nstop = 3\nstep = 1\n",
                       []),
    # round() took N = 2, 2, 3, 4, 4, 4 from 2, 2.5, ..., 4.5
    "n_sweep_step_half": ("sweep", "[sweep]\naxis = n_platforms\nstart = 2\nstop = 4.5\n"
                          "step = 0.5\n", []),
    "n_sweep2_start_fraction": ("sweep", "[sweep]\naxis2 = n_platforms\nstart2 = 2.5\n"
                                "stop2 = 4.5\nstep2 = 1\n", []),
    "beta_sweep_leaves_domain": ("sweep", "[sweep]\naxis = beta\nstart = -0.5\nstop = 0.5\n"
                                 "step = 0.5\n", []),
    # [solve] tol is not a key: a valid-looking value and bad ones are all rejected
    "solve_tol_is_unknown": ("solve", "[solve]\ntol = 1e-10\n", []),
    "tol_negative": ("solve", "[solve]\ntol = -1\n", []),
    "tol_nan": ("solve", "[solve]\ntol = nan\n", []),
    "flag_regime_bad": ("solve", "", ["--regime", "bad"]),
    "flag_seed_abc": ("solve", "", ["--seed", "abc"]),
    "flag_figure_fig9": ("figures", "", ["--figure", "fig9"]),
}


@pytest.mark.parametrize("command, text, flags", INVALID_SETTINGS.values(),
                         ids=INVALID_SETTINGS)
def test_invalid_settings_are_config_errors(tmp_path, capsys, command, text, flags):
    ini = tmp_path / "bad.ini"
    ini.write_text(BASE_INI + "\n" + text)
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_usage_error_exits_1_and_help_exits_0(base_cfg, capsys):
    assert main(["nope", "--config", base_cfg]) == 1
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert main(["solve"]) == 1
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


class TestSolveCommand:
    def test_base_case_row(self, base_cfg, capsys):
        assert main(["solve", "--config", base_cfg]) == 0
        out = capsys.readouterr().out
        header, rows = _parse_csv_text(out)
        assert rows[0]["regime"] == "cne" and rows[1]["regime"] == "ce"
        assert float(rows[0]["z_b"]) == pytest.approx(-1.2267506448, abs=1e-9)
        assert float(rows[0]["p_b"]) == pytest.approx(1.2267506448, abs=1e-9)
        assert float(rows[1]["z_b"]) == pytest.approx(-1.4630555134, abs=1e-9)

    def test_regime_flag(self, base_cfg, capsys):
        assert main(["solve", "--config", base_cfg, "--regime", "ce"]) == 0
        out = capsys.readouterr().out
        _, rows = _parse_csv_text(out)
        assert len(rows) == 1 and rows[0]["regime"] == "ce"

    def test_both_regimes_take_one_stage1_call_and_report_cne_first(self, tmp_path,
                                                                   monkeypatch, capsys):
        # the market of test_one_stage1_call_reports_cne_failure_first: both
        # regimes stall, and solve reports the competitive failure, exit 2
        calls = []
        for module, name in ((cli, "solve_markets"), (equilibrium, "solve_cne"),
                             (equilibrium, "solve_ce")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        ini = tmp_path / "s.ini"
        ini.write_text("[market]\nn_platforms = 61\nbeta_b = 3e-7\nbeta_s = 3e-7\n"
                       "phi_bs = 0.0226\nphi_sb = 4e-134\nphi_ss = 4e-134\nu0_s = -3.5e-62\n")
        assert main(["solve", "--config", str(ini)]) == 2
        assert calls == ["solve_markets"]
        monkeypatch.undo()
        cne, ce = (results[0] for results in equilibrium.solve_markets(
            ("cne", "ce"), [MarketParams(61, (3e-7, 3e-7), ((0, 0.0226), (4e-134, 4e-134)),
                                         (0, -3.5e-62))]))
        assert isinstance(cne, equilibrium.SolverError) and isinstance(ce, equilibrium.SolverError)
        assert capsys.readouterr().err == f"solver failure: {cne}\n"

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[market]\nn_platforms = 2\nbeta_b = 1.0\nbeta_s = 1.0\nwhat = 3\n")
        out_dir = tmp_path / "out"
        code = main(["solve", "--config", str(bad), "--out", str(out_dir)])
        assert code == 1
        assert not out_dir.exists()

    def test_missing_file_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1


def _parse_csv_text(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_csv_text_cell_rules():
    # bools true/false, any float %.17g, everything else str; rows of one
    # type signature share a format, rows of another get their own
    rows = [(True, 0.1, np.float64(1 / 3), np.float32(0.1), 7, np.int64(-2), "a b", None),
            [False, -0.0, np.float64("nan"), np.float32("inf"), 0, np.bool_(True), "", 1e300],
            ("x", 2.5)]
    text = cli.csv_text(["note"], ("a", "b"), rows)
    assert text.splitlines() == [
        "# note", "a,b",
        "true,0.10000000000000001,0.33333333333333331,0.10000000149011612,7,-2,a b,None",
        "false,-0,nan,inf,0,True,,1.0000000000000001e+300",
        "x,2.5"]


class TestDeterminism:
    def test_solve_byte_identical(self, base_cfg, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["solve", "--config", base_cfg, "--out", str(d), "--seed", "3"]) == 0
        assert (d1 / "solve.csv").read_bytes() == (d2 / "solve.csv").read_bytes()

    def test_figures_jobs_flag_is_inert(self, tmp_path):
        # --jobs still parses, for scripts that pass it, and changes nothing
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[grid]\nresolution = 6\n")
        d1, d2 = tmp_path / "jobs1", tmp_path / "jobs2"
        assert main(["figures", "--config", str(ini), "--out", str(d1), "--jobs", "1"]) == 0
        assert main(["figures", "--config", str(ini), "--out", str(d2), "--jobs", "2"]) == 0
        names = sorted(os.listdir(d1))
        assert len(names) == 16 and names == sorted(os.listdir(d2))
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestSweepCommand:
    def test_price_monotone_in_u0(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(BASE_INI
                       + "\n[sweep]\naxis = u0\nstart = -5.0\nstop = 5.0\nstep = 0.5\n"
                       + "\n[solve]\nregime = cne\n")
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d)]) == 0
        _, rows = read_rows(d / "sweep.csv")
        prices = [float(r["p_b"]) for r in rows]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        assert all(r["deriv_method"] == "analytic" for r in rows)
        assert all(float(r["dprice_du0_b"]) < 0 for r in rows)

    def test_participation_monotone_in_n(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(BASE_INI
                       + "\n[sweep]\naxis = n_platforms\nstart = 2\nstop = 50\nstep = 4\n"
                       + "\n[solve]\nregime = cne\n")
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d)]) == 0
        _, rows = read_rows(d / "sweep.csv")
        nx = [float(r["nx_b"]) for r in rows]
        assert all(b > a for a, b in zip(nx, nx[1:]))

    def test_coupled_rows_take_one_solve_and_ift(self, tmp_path, monkeypatch):
        ini = tmp_path / "sweep.ini"
        ini.write_text("[market]\nn_platforms = 2\nbeta_b = 1.0\nbeta_s = 1.0\n"
                       "phi_bb = 0.2\nphi_bs = 0.03\nphi_sb = 0.03\nphi_ss = 0.2\n"
                       "\n[sweep]\naxis = u0\nstart = -1.0\nstop = 1.0\nstep = 1.0\n"
                       "\n[solve]\nregime = cne\n")
        calls = {"solved": 0, "newton": [], "ift": [], "solve_cne": 0, "fd": 0}

        def counting(name, fn, weight=lambda *args: 1):
            def wrapper(*args, **kwargs):
                calls[name] += weight(*args)
                return fn(*args, **kwargs)
            return wrapper

        def markets(regime, markets, *args):
            return len(markets)

        # the batched entry point counts the markets it solves
        monkeypatch.setattr(cli, "solve_markets", counting("solved", cli.solve_markets, markets))
        real_newton, real_ift = equilibrium._newton, cli.ift_columns

        def newton(c, n, z, *args, **kwargs):
            calls["newton"].append(z.shape[1])
            return real_newton(c, n, z, *args, **kwargs)

        def ift(eqs):
            calls["ift"].append(len(eqs))
            return real_ift(eqs)

        # one Newton batch and one implicit-function batch over the 3 coupled points
        monkeypatch.setattr(equilibrium, "_newton", newton)
        monkeypatch.setattr(cli, "ift_columns", ift)
        monkeypatch.setattr(equilibrium, "solve_cne", counting("solve_cne", equilibrium.solve_cne))
        monkeypatch.setattr(statics, "solve_cne", counting("solve_cne", statics.solve_cne))
        monkeypatch.setattr(statics, "fd_derivative", counting("fd", statics.fd_derivative))
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d), "--jobs", "1"]) == 0
        _, rows = read_rows(d / "sweep.csv")
        assert len(rows) == 3
        assert calls == {"solved": 3, "newton": [3], "ift": [3], "solve_cne": 0, "fd": 0}
        monkeypatch.undo()
        for r in rows:
            assert r["deriv_method"] == "ift"
            assert not any(v.startswith("error:") for v in r.values())
            params = MarketParams(2, (1.0, 1.0), ((0.2, 0.03), (0.03, 0.2)),
                                  (float(r["u0_b"]), float(r["u0_s"])))
            for quantity, wrt, name in DERIV_SPECS:
                for side in Side:
                    fd = statics.fd_derivative(quantity, wrt, params, side)
                    assert abs(float(r[f"{name}_{side.label}"]) - fd) <= 1e-6, (name, side)

    def test_overflowing_closed_forms_write_error_cells(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text("[market]\nn_platforms = 3\nbeta_b = 1.0\nbeta_s = 1.0\n"
                       "phi_bb = 0.3\nphi_ss = 0.3\n"
                       "\n[sweep]\naxis = u0\nstart = -500.0\nstop = -500.0\nstep = 1.0\n"
                       "\n[solve]\nregime = cne\n")
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d)]) == 0
        _, rows = read_rows(d / "sweep.csv")
        (row,) = rows
        assert row["deriv_method"] == "analytic"
        for _quantity, _wrt, name in DERIV_SPECS:
            for side in ("b", "s"):
                cell = row[f"{name}_{side}"]
                assert "nan" not in cell
                if name == "dz_du0":
                    assert float(cell) == pytest.approx(-1.0)
                else:
                    assert cell == "error:ArithmeticError"

    def test_two_axis_sweep(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(BASE_INI + "\n".join([
            "", "[sweep]", "axis = phi_own", "start = -0.5", "stop = 0.5", "step = 0.5",
            "axis2 = beta", "start2 = 0.5", "stop2 = 1.0", "step2 = 0.5",
            "derivatives = false", "", "[solve]", "regime = cne"]))
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d)]) == 0
        _, rows = read_rows(d / "sweep.csv")
        assert len(rows) == 6
        assert {(r["phi_bb"], r["beta_b"]) for r in rows} == {
            ("-0.5", "0.5"), ("-0.5", "1"), ("0", "0.5"), ("0", "1"), ("0.5", "0.5"), ("0.5", "1")}


# sweep axis -> the input columns it sets
AXIS_CELLS = {
    "u0": {"u0_b", "u0_s"}, "u0_b": {"u0_b"}, "u0_s": {"u0_s"},
    "beta": {"beta_b", "beta_s"}, "beta_b": {"beta_b"}, "beta_s": {"beta_s"},
    "phi_own": {"phi_bb", "phi_ss"}, "phi_bb": {"phi_bb"}, "phi_ss": {"phi_ss"},
    "phi_bs": {"phi_bs"}, "phi_sb": {"phi_sb"}, "n_platforms": {"n_platforms"},
}
# every input cell distinct, so a cell set by mistake shows
AXIS_INI = """\
[market]
n_platforms = 3
beta_b = 1.1
beta_s = 0.9
phi_bb = 0.2
phi_bs = 0.01
phi_sb = 0.02
phi_ss = -0.1
u0_b = 0.3
u0_s = -0.2
mu_b = 0.4
mu_s = -0.4

[solve]
regime = cne
"""


class TestSweepAxes:
    @pytest.mark.parametrize("axis", sorted(AXIS_CELLS))
    def test_axis_sets_exactly_its_cells(self, tmp_path, axis):
        assert set(AXIS_CELLS) == set(SWEEP_AXES)
        value = 5.0 if axis == "n_platforms" else 0.05
        ini = tmp_path / "sweep.ini"
        ini.write_text(AXIS_INI + f"\n[sweep]\naxis = {axis}\nstart = {value}\n"
                       f"stop = {value}\nstep = 1.0\nderivatives = false\n")
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(ini), "--out", str(d)]) == 0
        _, rows = read_rows(d / "sweep.csv")
        (row,) = rows
        base = parse_config(AXIS_INI).values["market"]
        changed = {c for c in cli.INPUT_COLS if float(row[c]) != base[c]}
        assert changed == AXIS_CELLS[axis]
        assert all(float(row[c]) == value for c in changed)


class TestVerifyCommand:
    def test_base_case_passes(self, tmp_path, base_cfg, capsys):
        code = main(["verify", "--config", base_cfg, "--out", str(tmp_path / "v")])
        assert code == 0
        assert (tmp_path / "v" / "verify.json").exists()

    def test_perturbed_prices_exit_3(self, tmp_path, capsys):
        ini = tmp_path / "v.ini"
        ini.write_text(BASE_INI + "\n[verify]\nperturb_price = 0.1\ngrid_n = 21\n")
        assert main(["verify", "--config", str(ini)]) == 3

    @pytest.mark.parametrize("perturb, reused", [(0.0, True), (0.1, False)])
    def test_one_soc_call_per_regime(self, tmp_path, monkeypatch, capsys, perturb, reused):
        # the search's Hessian at p* is passed on only when it searched at p*
        calls = []
        real = cli.soc_report
        monkeypatch.setattr(cli, "soc_report", lambda params, eq, hessian=None: calls.append(
            (eq.regime, hessian is not None)) or real(params, eq, hessian))
        ini = tmp_path / "v.ini"
        ini.write_text(BASE_INI + f"\n[verify]\nperturb_price = {perturb}\ngrid_n = 11\n")
        main(["verify", "--config", str(ini)])
        assert calls == [("cne", reused), ("ce", False)]

    def test_one_stage1_call_reports_cne_failure_first(self, tmp_path, monkeypatch, capsys):
        # both regimes come from one stage-1 batch; on a market where both
        # stall, the competitive failure is the one reported, with exit 2
        calls = []
        for module, name in ((cli, "solve_markets"), (equilibrium, "solve_cne"),
                             (equilibrium, "solve_ce")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        ini = tmp_path / "v.ini"
        ini.write_text("[market]\nn_platforms = 61\nbeta_b = 3e-7\nbeta_s = 3e-7\n"
                       "phi_bs = 0.0226\nphi_sb = 4e-134\nphi_ss = 4e-134\nu0_s = -3.5e-62\n")
        assert main(["verify", "--config", str(ini)]) == 2
        assert calls == ["solve_markets"]
        with pytest.raises(equilibrium.SolverError) as cne:
            equilibrium.solve_cne(MarketParams(61, (3e-7, 3e-7), ((0, 0.0226), (4e-134, 4e-134)),
                                               (0, -3.5e-62)))
        assert capsys.readouterr().err == f"solver failure: {cne.value}\n"

    @pytest.mark.parametrize("n, beta, phi_own, u0", [
        (3, 0.1, 0.3, -1.0), (5, 0.2, 0.8, -1.0), (5, 0.2, 0.8, 0.0)])
    def test_nonpositive_margin_markets_report(self, tmp_path, capsys,
                                               n, beta, phi_own, u0):
        ini = tmp_path / "v.ini"
        ini.write_text(
            f"[market]\nn_platforms = {n}\nbeta_b = {beta}\nbeta_s = {beta}\n"
            f"phi_bb = {phi_own}\nphi_ss = {phi_own}\nu0_b = {u0}\nu0_s = {u0}\n"
            "\n[verify]\ngrid_n = 11\n")
        out = tmp_path / "v"
        assert main(["verify", "--config", str(ini), "--out", str(out)]) == 3
        doc = json.loads((out / "verify.json").read_text())
        assert doc["deviation"]["certified"] is False and doc["passed"] is False


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_z_market_passes_with_valid_json(self, tmp_path, capsys):
        # z_b* = 118.5: the closed-form SOC series in e^z overflow there, and
        # the e^{-z} form gives the limit -N (beta N^2 - 2 (N-1) phi) / (N-1)^2
        ini = tmp_path / "v.ini"
        ini.write_text("[market]\nn_platforms = 3\nbeta_b = 0.05\nbeta_s = 1.0\nu0_b = -6.0\n")
        assert main(["verify", "--config", str(ini)]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert doc["passed"] is True and doc["deviation"]["certified"] is True
        assert doc["soc_cne"]["closed_form_diag"][0] == pytest.approx(-0.3375, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_negative_collusive_z_writes_null(self, tmp_path, capsys):
        # z_ce,b ~ -1000.9: e^{-z} overflows in the closed-form collusive
        # Hessian, whose -inf diagonal still reads negative; JSON has no
        # spelling for -inf, so verify.json holds null there.  No buyer
        # participates, so both numeric Hessians have an all-zero buyer row:
        # the profit is flat in p_b, and the point passes on the seller side
        ini = tmp_path / "v.ini"
        ini.write_text("[market]\nn_platforms = 3\nbeta_b = 0.01\nbeta_s = 1.0\n"
                       "phi_bs = 0.01\nu0_b = 10\n")
        assert main(["verify", "--config", str(ini)]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert doc["passed"] is True
        hessian = doc["soc_ce"]["closed_form_hessian"]
        assert hessian[0][0] is None and hessian[1][1] < 0
        assert doc["soc_ce"]["closed_form_negative_definite"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(n=st.sampled_from([2, 3, 5, 61, 5000]),
           beta=st.tuples(*[st.floats(-4.0, 0.5).map(lambda e: 10.0 ** e)] * 2),
           own=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
           cross=st.tuples(*[st.sampled_from([0.0, 0.01, -0.05])] * 2),
           u0=st.tuples(*[st.floats(-700.0, 700.0)] * 2))
    def test_verify_writes_valid_json_on_wide_markets(self, n, beta, own, cross, u0):
        # exit 0 or 3 with JSON that spells no NaN or Infinity, or exit 2 with
        # a solver failure
        with tempfile.TemporaryDirectory() as tmp:
            ini = os.path.join(tmp, "v.ini")
            with open(ini, "w") as fh:
                fh.write(f"[market]\nn_platforms = {n}\nbeta_b = {beta[0]!r}\n"
                         f"beta_s = {beta[1]!r}\nphi_bb = {own[0]!r}\nphi_ss = {own[1]!r}\n"
                         f"phi_bs = {cross[0]!r}\nphi_sb = {cross[1]!r}\n"
                         f"u0_b = {u0[0]!r}\nu0_s = {u0[1]!r}\n\n[verify]\ngrid_n = 11\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", "--config", ini])
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("solver failure: ") and not out.getvalue()
        else:
            doc = json.loads(out.getvalue(), parse_constant=_no_constant)
            assert doc["passed"] is (code == 0)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFiguresCommand:
    def test_fig1_outputs(self, tmp_path, capsys):
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[grid]\nresolution = 40\n")
        d = tmp_path / "figs"
        assert main(["figures", "--config", str(ini), "--figure", "fig1",
                     "--out", str(d)]) == 0
        csv_path, svg_path = d / "fig1.csv", d / "fig1.svg"
        assert csv_path.exists() and svg_path.exists()
        header, rows = read_rows(csv_path)
        assert header[:4] == ["phi", "beta", "verdict", "margin"]
        assert len(rows) == 1600
        # boundary beta = 0.375 phi visible: verdicts flip across it for phi > 0
        for r in rows:
            phi, beta = float(r["phi"]), float(r["beta"])
            if phi > 0.1 and beta > 0.375 * phi + 0.05:
                assert r["verdict"] == "positive"
            if phi > 0.1 and beta < 0.375 * phi - 0.05:
                assert r["verdict"] == "negative"
            if phi <= 0:
                assert r["verdict"] == "positive"
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and 'version="1.1"' in svg
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg and "<image" not in svg  # self-contained

    def test_fig2_two_panels(self, tmp_path, capsys):
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[grid]\nresolution = 24\n")
        d = tmp_path / "figs"
        assert main(["figures", "--config", str(ini), "--figure", "fig2",
                     "--out", str(d)]) == 0
        assert (d / "fig2_u0_-1.csv").exists()
        assert (d / "fig2_u0_0.5.csv").exists()
        assert (d / "fig2_u0_-1.svg").exists()

    def test_fig5_region_above_gx(self, tmp_path):
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[grid]\nresolution = 30\n")
        d = tmp_path / "figs"
        assert main(["figures", "--config", str(ini), "--figure", "fig5",
                     "--out", str(d)]) == 0
        _, rows = read_rows(d / "fig5.csv")
        gx4 = (2 * 16 - 8 + 1) / (4 * (16 - 4 + 1))
        for r in rows:
            phi, beta = float(r["phi"]), float(r["beta"])
            if phi > 0.1 and beta > gx4 * phi + 0.05:
                assert r["paint"] == "1"
            if phi > 0.1 and beta < gx4 * phi - 0.05:
                assert r["paint"] == "0"

    def test_each_z_grid_solved_once_per_command(self, tmp_path, capsys, monkeypatch):
        # 8 panels read 6 distinct z-grids: fig2's and fig3's two panels
        # one each, and fig4-fig6 share z*(N +- h) at N = 4, u0 = 0; fig1
        # reads none.  A second command solves them again.
        import platform_eq.regions as regions
        solves = []
        solve = regions.solve_decoupled_batch
        monkeypatch.setattr(regions, "solve_decoupled_batch",
                            lambda regime, beta, phi, n, u0:
                            solves.append((regime, n, u0)) or solve(regime, beta, phi, n, u0))
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[grid]\nresolution = 10\n")
        for run in (1, 2):
            assert main(["figures", "--config", str(ini), "--out", str(tmp_path / "figs"),
                         "--jobs", "1"]) == 0
            assert len(solves) == 6 * run
            assert len(set(solves[-6:])) == 6
        stems = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert stems == 2 * ["fig1", "fig2_u0_-1", "fig2_u0_0.5", "fig3_u0_-1", "fig3_u0_1",
                             "fig4", "fig5", "fig6"]

    def test_unknown_figure_exit_1(self, tmp_path):
        # argparse rejects bad --figure values itself; a bad config id is ours
        ini = tmp_path / "f.ini"
        ini.write_text(BASE_INI + "\n[figure]\nid = fig9\n")
        assert main(["figures", "--config", str(ini)]) == 1


class TestCompareClassifyLimits:
    def test_compare_row(self, base_cfg, capsys):
        assert main(["compare", "--config", base_cfg]) == 0
        _, rows = _parse_csv_text(capsys.readouterr().out)
        row = rows[0]
        assert float(row["dz_b"]) == pytest.approx(0.23630487, abs=1e-6)
        assert float(row["decomp_residual"]) < 1e-9

    def test_classify_rows(self, base_cfg, capsys):
        assert main(["classify", "--config", base_cfg]) == 0
        _, rows = _parse_csv_text(capsys.readouterr().out)
        by_name = {(r["classifier"], r["side"]): r for r in rows}
        assert by_name[("sign_z_cne", "b")]["verdict"] == "negative"
        assert by_name[("vprofit_dn", "b")]["verdict"] == "decreasing"
        assert len(rows) == 2 * (2 + 7)

    def test_limits_command(self, base_cfg, capsys):
        assert main(["limits", "--config", base_cfg]) == 0
        _, rows = _parse_csv_text(capsys.readouterr().out)
        assert {r["kind"] for r in rows} == {"large_n", "small_u0", "large_u0"}
        assert all(r["converged"] == "true" for r in rows)
