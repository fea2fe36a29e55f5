"""Command-line behavior: exit codes, output shapes, error routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fleetcontest as fc
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
        assert cli_main(["alpha-crit", "--lo", "40", "--hi", "41.5", "--step", "0.5"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 40.2 <= value <= 41.2

    def test_alpha_crit_reports_absence(self, capsys):
        assert cli_main(["alpha-crit", "--lo", "1", "--hi", "5", "--step", "1"]) == 0
        assert "no transition" in capsys.readouterr().out

    def test_fleet_opt_narrow_window(self, capsys):
        assert cli_main(["fleet-opt", "--lo", "1700", "--hi", "1800", "--step", "5"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1754.198, abs=0.05)

    def test_bad_window_exits_one(self, capsys):
        assert cli_main(["alpha-crit", "--lo", "0", "--hi", "5", "--step", "1"]) == 1
        capsys.readouterr()


    @pytest.mark.parametrize("command", ["alpha-crit", "fleet-opt"])
    @pytest.mark.parametrize("step", ["nan"])
    def test_unusable_step_exits_one(self, command, step, capsys):
        assert cli_main([command, "--step", step]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_needs_two_regions(self, four_region_config, capsys):
        assert cli_main(["verify", four_region_config]) == 1
        assert "error:" in capsys.readouterr().err
