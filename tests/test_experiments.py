"""Scenario builders, sweeps, and the two transition detectors."""

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest.experiments import _grid


# Charging-price scale where the two-region equilibrium collapses into
# region 1, solved offline to high precision from the corner onset
# condition; detectors must land within their own bisection width of it.
COLLAPSE_SCALE = 40.599375650364204


class TestScenarioBuilders:
    def test_four_region_parameters(self):
        spec = fc.four_region_spec(2.0)
        np.testing.assert_array_equal(spec.beta_m, [35_000.0, 50_000.0, 100_000.0, 180_000.0])
        np.testing.assert_array_equal(spec.beta_c, [5.0, 6.0, 10.0, 50.0])
        np.testing.assert_array_equal(spec.eps, [50.0, 100.0, 120.0, 200.0])
        assert spec.fleet_a == 1000.0
        assert spec.fleet_b == 2000.0

    def test_two_region_parameters(self):
        spec = fc.two_region_spec(41.0)
        np.testing.assert_array_equal(spec.beta_m, [35_000.0, 120_000.0])
        np.testing.assert_array_equal(spec.beta_c, [10.0, 410.0])
        np.testing.assert_array_equal(spec.eps, [100.0, 300.0])

    def test_alpha_ranges(self):
        with pytest.raises(fc.ValidationError):
            fc.four_region_spec(0.5)
        with pytest.raises(fc.ValidationError):
            fc.four_region_spec(20.5)
        with pytest.raises(fc.ValidationError):
            fc.two_region_spec(0.0)
        with pytest.raises(fc.ValidationError):
            fc.two_region_spec(50.1)


class TestSolveSpec:
    def test_two_regions_use_the_exact_solver(self):
        result = fc.solve_spec(fc.two_region_spec(41.0))
        assert result.location == "A2"

    def test_four_regions_solve_interior(self):
        result = fc.solve_spec(fc.four_region_spec(1.0))
        assert result.location == "interior"
        assert result.strategy.alloc_a.total == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [4.0, 8.0, 20.0])
    def test_four_regions_in_units_scaled_by_1e5(self, alpha):
        """beta_m, epsilon and both fleets times 1e5 scale the equilibrium by 1e5."""
        base = fc.four_region_spec(alpha)
        scaled = fc.GameSpec(
            regions=tuple(fc.RegionParams(r.beta_m * 1e5, r.beta_c, r.epsilon * 1e5)
                          for r in base.regions),
            fleet_a=base.fleet_a * 1e5,
            fleet_b=base.fleet_b * 1e5,
        )
        big = fc.solve_spec(scaled)
        small = fc.solve_spec(base)
        assert big.location == small.location
        for player in fc.PLAYERS:
            np.testing.assert_allclose(
                big.strategy.of(player).values, 1e5 * small.strategy.of(player).values,
                rtol=1e-7, atol=0)

    def test_fallback_labels_its_stalled_components_empty(self):
        """Seven regions whose fallback stalls a's empty regions 2 and 4 near 4e-7."""
        regions = (
            (79248.56, 50.38444, 64.81672), (26437.64, 53.81626, 201.4434),
            (15818.51, 6.124569, 66.74063), (13729.22, 22.05556, 315.1041),
            (38838.46, 6.802587, 153.9853), (42590.54, 27.44353, 263.6790),
            (76819.68, 45.11879, 223.6299),
        )
        spec = fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions),
                           fleet_a=380.8565, fleet_b=2378.028)
        result = fc.solve_spec(spec)
        assert result.location == "boundary"
        for player in fc.PLAYERS:
            x = result.strategy.of(player).values
            assert np.all((x == 0.0) | (x > 1e-9 * spec.fleet_of(player)))
        assert np.flatnonzero(result.strategy.alloc_a.values == 0.0).tolist() == [1, 3]
        # The game's largest payoff gradient, reached at the empty allocation.
        empty = np.zeros(spec.m)
        grad_scale = float(np.abs(fc.raw_utility_gradient(spec, empty, empty)).max())
        assert fc.kkt_residual(spec, result.strategy, result.duals) <= 1e-8 * grad_scale


class TestAlphaSweep:
    def test_interior_record_carries_multiplier_sum(self):
        records = fc.alpha_sweep("two", [1.0])
        rec = records[0]
        assert rec.parameter == 1.0
        assert rec.error is None
        assert rec.location == "interior"
        assert rec.t_lambda == pytest.approx(-30.950029525470512, rel=1e-10)
        assert rec.u_a == pytest.approx(35591.515545305432, rel=1e-10)
        assert rec.u_b == pytest.approx(71178.384068094849, rel=1e-10)

    def test_boundary_record_has_no_multiplier_sum(self):
        rec = fc.alpha_sweep("two", [45.0])[0]
        assert rec.location == "A2"
        assert rec.t_lambda is None

    def test_bad_alpha_is_captured_not_raised(self):
        records = fc.alpha_sweep("two", [1.0, 99.0, 2.0])
        assert [r.error is None for r in records] == [True, False, True]
        assert records[1].strategy is None
        assert records[1].u_a is None
        assert "alpha" in records[1].error

    def test_unknown_kind(self):
        with pytest.raises(fc.ValidationError):
            fc.alpha_sweep("three", [1.0])

    def test_records_are_equilibria(self):
        for kind, alphas in (("two", [2.0, 30.0]), ("four", [3.0, 17.0])):
            for rec in fc.alpha_sweep(kind, alphas):
                spec = (fc.two_region_spec if kind == "two" else fc.four_region_spec)(
                    rec.parameter)
                res = fc.ne_residual(spec, rec.strategy)
                assert res <= 1e-6 * (abs(rec.u_a) + abs(rec.u_b) + 1.0)

    def test_two_region_cheap_region_absorbs_fleets_as_prices_rise(self):
        alphas = np.linspace(1.0, 50.0, 25)
        records = fc.alpha_sweep("two", alphas)
        for player in ("a", "b"):
            expensive = [r.strategy.of(player).values[1] for r in records]
            assert all(x >= y - 1e-7 for x, y in zip(expensive, expensive[1:]))

    def test_four_region_shift_away_from_scaled_prices(self):
        alphas = np.linspace(1.0, 20.0, 21)
        records = fc.alpha_sweep("four", alphas)
        tol = 1e-7
        for player in ("a", "b"):
            paths = np.array([r.strategy.of(player).values for r in records])
            for region in (1, 2):
                assert np.all(np.diff(paths[:, region]) <= tol)
            for region in (0, 3):
                assert np.all(np.diff(paths[:, region]) >= -tol)


class TestDetectAlphaCrit:
    def test_locates_the_collapse(self):
        value = fc.detect_alpha_crit(40.0, 41.5, 0.5)
        assert value == pytest.approx(COLLAPSE_SCALE, abs=0.01)

    def test_stable_under_step_halving(self):
        coarse = fc.detect_alpha_crit(40.0, 41.5, 0.4)
        fine = fc.detect_alpha_crit(40.0, 41.5, 0.2)
        assert abs(coarse - fine) <= 0.4 / 50.0

    def test_none_when_nothing_collapses(self):
        assert fc.detect_alpha_crit(1.0, 5.0, 1.0) is None

    def test_first_point_already_collapsed(self):
        assert fc.detect_alpha_crit(45.0, 50.0, 1.0) == 45.0

    def test_window_validation(self):
        with pytest.raises(fc.ValidationError):
            fc.detect_alpha_crit(0.5, 50.0, 0.1)
        with pytest.raises(fc.ValidationError):
            fc.detect_alpha_crit(10.0, 5.0, 0.1)
        with pytest.raises(fc.ValidationError):
            fc.detect_alpha_crit(1.0, 50.0, 0.0)

    def test_grid_includes_both_endpoints(self):
        points = _grid(1.0, 2.0, 0.4)
        assert points[0] == 1.0
        assert points[-1] == 2.0
        assert len(points) == 4


class TestFleetSweep:
    def test_rival_growth_never_helps(self):
        values = np.linspace(200.0, 4000.0, 20)
        records = fc.fleet_sweep(values)
        u_a = [r.u_a for r in records]
        assert all(x >= y - 1e-7 for x, y in zip(u_a, u_a[1:]))

    def test_range_validation(self):
        with pytest.raises(fc.ValidationError):
            fc.fleet_sweep([100.0])
        with pytest.raises(fc.ValidationError):
            fc.fleet_sweep([4500.0])


class TestDetectOptimalFleet:
    def test_narrow_window_refines_the_peak(self):
        value = fc.detect_optimal_fleet(1700.0, 1800.0, 5.0)
        assert value == pytest.approx(1754.198, abs=0.05)

    def test_endpoints_pay_less_than_the_peak(self):
        records = {r.parameter: r.u_b for r in fc.fleet_sweep([200.0, 1754.0, 4000.0])}
        assert records[200.0] < records[1754.0]
        assert records[4000.0] < records[1754.0]

    def test_window_validation(self):
        with pytest.raises(fc.ValidationError):
            fc.detect_optimal_fleet(100.0, 4000.0, 1.0)
        with pytest.raises(fc.ValidationError):
            fc.detect_optimal_fleet(2000.0, 1000.0, 1.0)
        with pytest.raises(fc.ValidationError):
            fc.detect_optimal_fleet(200.0, 4000.0, -1.0)


class TestReferenceRows:
    def test_parameters_and_locations(self):
        rows = fc.reference_rows()
        assert [r.parameter for r in rows] == [1.0, 5.0, 25.0, 41.0]
        assert [r.location for r in rows] == ["interior", "interior", "interior", "A2"]

    def test_frozen_payoffs(self):
        rows = {r.parameter: r for r in fc.reference_rows()}
        assert rows[1.0].u_a == pytest.approx(35591.515545305432, rel=1e-10)
        assert rows[5.0].u_a == pytest.approx(20317.643818507677, rel=1e-10)
        assert rows[5.0].u_b == pytest.approx(31791.358434463822, rel=1e-10)
        assert rows[25.0].u_a == pytest.approx(3711.1331989758346, rel=1e-10)
        assert rows[25.0].u_b == pytest.approx(5650.266135545291, rel=1e-10)
        assert rows[41.0].u_a == pytest.approx(1290.322580645162, rel=1e-10)
        assert rows[41.0].u_b == pytest.approx(2580.645161290324, rel=1e-10)

    def test_corner_row_allocations(self):
        rows = fc.reference_rows()
        np.testing.assert_array_equal(rows[3].strategy.alloc_a.values, [1000.0, 0.0])
        np.testing.assert_array_equal(rows[3].strategy.alloc_b.values, [2000.0, 0.0])
