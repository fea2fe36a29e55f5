"""Config document parsing and CSV serialization."""

import numpy as np
import pytest

import fleetcontest as fc
from helpers import random_spec

CANONICAL_TWO_REGION = (
    "fleet_a = 1000\n"
    "fleet_b = 2000\n"
    "region beta_m=35000 beta_c=10 epsilon=100\n"
    "region beta_m=120000 beta_c=10 epsilon=300\n"
)


class TestParseConfig:
    def test_canonical_document(self):
        spec = fc.parse_config(CANONICAL_TWO_REGION)
        assert spec == fc.two_region_spec(1.0)

    def test_comments_blanks_and_order_are_free(self):
        text = (
            "# scenario file\n"
            "\n"
            "region beta_m=35000 beta_c=10 epsilon=100  # the cheap region\n"
            "fleet_b = 2000\n"
            "region beta_m=120000 beta_c=10 epsilon=300\n"
            "fleet_a = 1000\n"
        )
        assert fc.parse_config(text) == fc.two_region_spec(1.0)

    def test_raw_region_form_matches_aggregate(self):
        raw = (
            "fleet_a = 10\nfleet_b = 20\n"
            "region requests=1200 profit=25 price=0.4 demand=30 epsilon=50\n"
        )
        aggregate = (
            "fleet_a = 10\nfleet_b = 20\n"
            "region beta_m=30000 beta_c=12 epsilon=50\n"
        )
        assert fc.parse_config(raw) == fc.parse_config(aggregate)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            assert fc.parse_config(fc.format_config(spec)) == spec

    def test_seventeen_digit_serialization(self):
        spec = fc.GameSpec(
            regions=(fc.RegionParams(beta_m=0.1, beta_c=0.2, epsilon=0.3),),
            fleet_a=1.0 / 3.0,
            fleet_b=2.0,
        )
        text = fc.format_config(spec)
        assert "0.10000000000000001" in text
        assert "0.33333333333333331" in text
        assert fc.parse_config(text) == spec

    @pytest.mark.parametrize("text,line", [
        ("fleet_a = 1\nfleet_b = 2\nwat\nregion beta_m=1 beta_c=0 epsilon=1\n", 3),
        ("fleet_a = 1\nfleet_a = 2\nregion beta_m=1 beta_c=0 epsilon=1\n", 2),
        ("fleet_a = x\n", 1),
        ("fleet_a = inf\n", 1),
        ("fleet_a = -5\n", 1),
        ("fleet_a = 1\nfleet_b = 2\nregion beta_m=1 beta_c=0\n", 3),
        ("fleet_a = 1\nfleet_b = 2\nregion beta_m=1 beta_m=2 epsilon=1\n", 3),
        ("fleet_a = 1\nfleet_b = 2\nregion beta_m=1 beta_c=zero epsilon=1\n", 3),
        ("fleet_a = 1\nfleet_b = 2\nregion beta_m=1 beta_c=0 epsilon=0\n", 3),
        ("fleet_a = 1\nfleet_b = 2\nregion beta_m epsilon=1 beta_c=0\n", 3),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(fc.ParseError) as info:
            fc.parse_config(text)
        assert info.value.line == line
        assert f"line {line}:" in str(info.value)

    def test_document_level_errors_have_no_line(self):
        with pytest.raises(fc.ParseError) as info:
            fc.parse_config("fleet_a = 1\nregion beta_m=1 beta_c=0 epsilon=1\n")
        assert info.value.line is None
        assert "fleet_b" in str(info.value)
        with pytest.raises(fc.ParseError) as info:
            fc.parse_config("fleet_a = 1\nfleet_b = 2\n")
        assert "region" in str(info.value)


class TestFormatConfig:
    def test_canonical_output(self):
        assert fc.format_config(fc.two_region_spec(1.0)) == CANONICAL_TWO_REGION

    def test_output_is_deterministic(self):
        spec = fc.four_region_spec(17.0)
        assert fc.format_config(spec) == fc.format_config(spec)


class TestEmitCsv:
    def test_golden_records(self):
        records = [
            fc.SweepRecord(1.0, fc.joint_from_arrays([1.5, 2.5], [3.0, 4.0]),
                           10.25, -0.5, "interior", -2.0),
            fc.SweepRecord(2.5, None, None, None, None, None, error="boom"),
            fc.SweepRecord(3.0, fc.joint_from_arrays([0.125, 0.0], [1.0, 0.0]),
                           1.0 / 3.0, 2.0, "A2", None),
        ]
        expected = (
            "param,x_a_1,x_a_2,x_b_1,x_b_2,u_a,u_b,location,t_lambda\n"
            "1,1.5,2.5,3,4,10.25,-0.5,interior,-2\n"
            "2.5,,,,,,,error,\n"
            "3,0.125,0,1,0,0.33333333333333331,2,A2,\n"
        )
        assert fc.emit_csv(records) == expected

    def test_empty_record_list_keeps_the_header(self):
        assert fc.emit_csv([]) == "param,x_a_1,x_a_2,x_b_1,x_b_2,u_a,u_b,location,t_lambda\n"
        assert fc.emit_csv([], m=3).startswith("param,x_a_1,x_a_2,x_a_3,x_b_1")

    def test_error_only_records_use_default_region_count(self):
        out = fc.emit_csv([fc.SweepRecord(9.0, None, None, None, None, None, error="x")])
        assert out.splitlines()[1] == "9,,,,,,,error,"

    def test_reference_row_bytes(self):
        out = fc.emit_csv(fc.alpha_sweep("two", [1.0]))
        assert out == (
            "param,x_a_1,x_a_2,x_b_1,x_b_2,u_a,u_b,location,t_lambda\n"
            "1,222.56216751812485,777.43783248187538,452.96371574535692,"
            "1547.0362842546433,35591.515545305439,71178.384068094834,"
            "interior,-30.950029525470512\n"
        )
        u_a = float(out.splitlines()[1].split(",")[5])
        assert abs(u_a - 35591.0) <= 1.0

    def test_byte_stability_across_calls_and_containers(self):
        records = fc.reference_rows()
        assert fc.emit_csv(records) == fc.emit_csv(tuple(records))

    def test_mixed_region_counts_rejected(self):
        records = [
            fc.SweepRecord(1.0, fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0]),
                           0.0, 0.0, "interior", None),
            fc.SweepRecord(2.0, fc.joint_from_arrays([1.0], [3.0]),
                           0.0, 0.0, "interior", None),
        ]
        with pytest.raises(fc.ValidationError):
            fc.emit_csv(records)
