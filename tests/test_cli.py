"""Command-line behavior: exit codes, output shapes, error routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fleetcontest as fc
from fleetcontest import verify
from fleetcontest.cli import cli_main


@pytest.fixture()
def two_region_config(tmp_path):
    path = tmp_path / "two.cfg"
    path.write_text(fc.format_config(fc.two_region_spec(1.0)))
    return str(path)


@pytest.fixture()
def four_region_config(tmp_path):
    path = tmp_path / "four.cfg"
    path.write_text(fc.format_config(fc.four_region_spec(1.0)))
    return str(path)


class TestSolve:
    def test_prints_csv_row_and_duals(self, two_region_config, capsys):
        assert cli_main(["solve", two_region_config]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "param,x_a_1,x_a_2,x_b_1,x_b_2,u_a,u_b,location,t_lambda"
        fields = lines[1].split(",")
        assert fields[7] == "interior"
        assert float(fields[1]) == pytest.approx(222.5621675181248, rel=1e-12)
        assert any(line.startswith("lambda_a = ") for line in lines)
        assert any(line.startswith("nu_b = ") for line in lines)
        assert any(line.startswith("ne_residual = ") for line in lines)

    def test_four_region_config_is_solvable(self, four_region_config, capsys):
        assert cli_main(["solve", four_region_config]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "x_a_4" in header

    def test_missing_file(self, tmp_path, capsys):
        assert cli_main(["solve", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("fleet_a = 1000\nwhat is this\n")
        assert cli_main(["solve", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_negative_fleet_config(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(
            "fleet_a = -5\nfleet_b = 2000\nregion beta_m=35000 beta_c=10 epsilon=100\n")
        assert cli_main(["solve", str(path)]) == 1

    def test_numerical_failures_exit_two(self, two_region_config, capsys, monkeypatch):
        import fleetcontest.cli as cli_module

        def explode(spec):
            raise fc.NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli_module, "solve_spec", explode)
        assert cli_main(["solve", two_region_config]) == 2
        assert "synthetic breakdown" in capsys.readouterr().err


    def test_fleets_beyond_the_root_find_exit_two(self, tmp_path, capsys):
        """Fleets of 1e300 overflow the square of the total mass; the solve
        reports a NumericalError instead of a traceback."""
        path = tmp_path / "huge.cfg"
        path.write_text(fc.format_config(
            fc.GameSpec(fc.two_region_spec(3.0).regions, fleet_a=1e300, fleet_b=1e300)))
        assert cli_main(["solve", str(path)]) == 2
        assert "error: root residual" in capsys.readouterr().err


    def test_a_price_row_that_misses_feasibility_exits_two(self, tmp_path, capsys):
        regions = ((87.014577345429799, 109.35791949721579, 0.011780113409158043),
                   (73623.338476571895, 0.038702490272917264, 692787.52527986467),
                   (26791975.726399578, 8148.4849383213686, 992540.75579221011))
        spec = fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions),
                           fleet_a=6302.97741740527, fleet_b=1.1234720823442839)
        path = tmp_path / "stalled.cfg"
        path.write_text(fc.format_config(spec))
        assert cli_main(["solve", str(path)]) == 2
        assert "error: price solve leaves player 'b' infeasible" in capsys.readouterr().err

    def test_a_price_row_with_non_finite_multipliers_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(
            "fleet_a = 6.053143669154861e+63\n"
            "fleet_b = 1.3275221484938615e+75\n"
            "region beta_m=2.941968375335863e-258 beta_c=2.982180626888285e-22"
            " epsilon=1.955368352426307e-196\n"
            "region beta_m=7.402976395652519e+116 beta_c=0 epsilon=1.829097389497198e+16\n")
        assert cli_main(["solve", str(path)]) == 2
        assert "error: price solve multiplier nu_a is not finite" in capsys.readouterr().err

    def test_a_small_fleet_beside_a_large_charging_cost_is_certified(self, tmp_path, capsys):
        """The best response's water level would cancel against beta_c if it
        were not shifted by the cheapest cost."""
        path = tmp_path / "one.cfg"
        path.write_text(fc.format_config(one_region_wide_spec()))
        assert cli_main(["solve", str(path)]) == 0
        captured = capsys.readouterr()
        assert "ne_residual = " in captured.out and captured.err == ""

    def test_a_failing_certificate_prints_no_half_result(self, two_region_config, capsys,
                                                         monkeypatch):
        def explode(spec, y, target):
            raise fc.NumericalError("synthetic water fill")

        monkeypatch.setattr(verify, "_water_fill", explode)
        assert cli_main(["solve", two_region_config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: synthetic water fill" in captured.err


def one_region_wide_spec():
    """A ±2.25-decade spec whose fleet a is 5e-5 of the rival's mass."""
    return fc.GameSpec((fc.RegionParams(730.43957470279338, 5063.2706106353207,
                                        1154.0769945716861),),
                       fleet_a=6.1594260574539499, fleet_b=120558.08142384748)


class TestArgumentHandling:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out


class TestSweep:
    def test_csv_shape(self, capsys):
        code = cli_main(["sweep", "--kind", "two", "--from", "1", "--to", "3",
                         "--points", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_a_sweep_that_fails_everywhere_keeps_the_scenario_header(self, capsys):
        code = cli_main(["sweep", "--kind", "four", "--from", "21", "--to", "22",
                         "--points", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("param,x_a_1,x_a_2,x_a_3,x_a_4,x_b_1,x_b_2,x_b_3,x_b_4,"
                            "u_a,u_b,location,t_lambda")
        assert lines[1:] == ["21,,,,,,,,,,,error,", "22,,,,,,,,,,,error,"]

    def test_zero_points_rejected(self, capsys):
        code = cli_main(["sweep", "--kind", "two", "--from", "1", "--to", "3",
                         "--points", "0"])
        assert code == 1
        assert "points" in capsys.readouterr().err

    def test_point_count_is_capped(self, capsys):
        code = cli_main(["sweep", "--kind", "two", "--from", "1", "--to", "3",
                         "--points", "1000000000"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_kind_is_checked_by_the_parser(self, capsys):
        code = cli_main(["sweep", "--kind", "five", "--from", "1", "--to", "3",
                         "--points", "2"])
        assert code == 1
        capsys.readouterr()


class TestDetectors:
    def test_alpha_crit_narrow_window(self, capsys):
        assert cli_main(["alpha-crit", "--lo", "40", "--hi", "41.5"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 40.2 <= value <= 41.2

    def test_alpha_crit_reports_absence(self, capsys):
        assert cli_main(["alpha-crit", "--lo", "1", "--hi", "5"]) == 0
        assert "no transition" in capsys.readouterr().out

    def test_fleet_opt_narrow_window(self, capsys):
        assert cli_main(["fleet-opt", "--lo", "1700", "--hi", "1800"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1754.198, abs=0.05)

    def test_bad_window_exits_one(self, capsys):
        assert cli_main(["alpha-crit", "--lo", "0", "--hi", "5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["alpha-crit", "fleet-opt"])
    def test_step_is_no_option(self, command, capsys):
        assert cli_main([command, "--step", "1"]) == 1
        assert "unrecognized arguments: --step" in capsys.readouterr().err


class TestTable1:
    def test_four_rows(self, capsys):
        assert cli_main(["table1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "5", "25", "41"]
        assert lines[4].split(",")[7] == "A2"


class TestModuleEntryPoint:
    def test_python_dash_m_prints_what_cli_main_prints(self, capsys):
        assert cli_main(["table1"]) == 0
        expected = capsys.readouterr().out.encode()
        src = str(Path(fc.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "fleetcontest", "table1"],
            capture_output=True, env=env, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == expected


class TestVerify:
    def test_two_region_config_passes_all_checks(self, two_region_config, capsys):
        assert cli_main(["verify", two_region_config]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        for name in ("feasibility", "ne_residual", "kkt_residual", "grid_agreement"):
            assert name in out

    def test_a_small_fleet_beside_a_large_charging_cost_passes(self, tmp_path, capsys):
        spec = one_region_wide_spec()
        path = tmp_path / "twice.cfg"
        path.write_text(fc.format_config(fc.GameSpec(spec.regions * 2, spec.fleet_a,
                                                     spec.fleet_b)))
        assert cli_main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    def test_four_regions_pass_all_but_the_grid_check(self, four_region_config, capsys):
        assert cli_main(["verify", four_region_config]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert out.count("SKIP") == 1
        assert "FAIL" not in out
        assert "SKIP grid_agreement: the grid oracle needs two regions\n" in out
