"""Scenario builders, sweeps, and the two transition detectors."""

import hashlib
import warnings
from collections import Counter

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import experiments, interior
from fleetcontest.game import FEASIBILITY_RTOL
from helpers import fingerprint, random_spec, relative_kkt, solo_fingerprint


# Charging-price scale where the two-region equilibrium collapses into
# region 1, solved offline to high precision from the corner onset
# condition.
COLLAPSE_SCALE = 40.599375650364204


def counted_solves(monkeypatch):
    """Count the solve_spec calls the detectors make from here on."""
    calls = []
    solve = experiments.solve_spec

    def counted(spec):
        calls.append(spec)
        return solve(spec)

    monkeypatch.setattr(experiments, "solve_spec", counted)
    return calls


def mislabel_spec():
    """Seven regions, unequal fleets; a leaves regions 2 and 4 empty."""
    regions = (
        (79248.56, 50.38444, 64.81672), (26437.64, 53.81626, 201.4434),
        (15818.51, 6.124569, 66.74063), (13729.22, 22.05556, 315.1041),
        (38838.46, 6.802587, 153.9853), (42590.54, 27.44353, 263.6790),
        (76819.68, 45.11879, 223.6299),
    )
    return fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions),
                       fleet_a=380.8565, fleet_b=2378.028)


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
        spec = mislabel_spec()
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


def _spec(bm, bc, eps, fleet_a, fleet_b):
    regions = tuple(fc.RegionParams(float(m), float(c), float(e)) for m, c, e in zip(bm, bc, eps))
    return fc.GameSpec(regions, float(fleet_a), float(fleet_b))


def symmetric_boundary_game(rng):
    """Equal fleets, equal allocations, and the first regions left empty.

    Charging costs make every occupied gradient one level; an empty
    region's cost sits a seeded margin above what entry would earn there.
    """
    m = int(rng.integers(3, 9))
    empty = int(rng.integers(1, m // 2 + 1))
    bm = rng.uniform(1e4, 8e4, m)
    eps = rng.uniform(50.0, 320.0, m)
    x = np.zeros(m)
    x[empty:] = rng.uniform(50.0, 500.0, m - empty)
    benefit = bm * (x + eps) / (2.0 * x + eps) ** 2
    lam = rng.uniform(5.0, 30.0) - benefit[empty:].min()
    bc = benefit + lam
    bc[:empty] = np.maximum(bm / eps + lam, 0.0)[:empty] + rng.uniform(0.05, 0.3, empty) * (bm / eps)[:empty]
    order = rng.permutation(m)
    return _spec(bm[order], bc[order], eps[order], x.sum(), x.sum()), x[order], x[order]


def asymmetric_boundary_game(rng):
    """Unequal fleets; the smaller player leaves the first regions empty.

    Shared regions hold more of the larger player, whose level is higher
    by d. Of the empty regions the first `both` are left by both
    players; in the rest the larger player holds y below the smaller
    root of beta_m y / (y + eps)**2 = c < d, so entry does not pay for
    the smaller one.
    """
    m = int(rng.integers(3, 9))
    empty = int(rng.integers(1, m // 2 + 1))
    both = int(rng.integers(0, empty + 1))
    bm = rng.uniform(1e4, 8e4, m)
    eps = rng.uniform(50.0, 320.0, m)
    split = rng.uniform(100.0, 1000.0, m)
    mass = split + eps
    d = rng.uniform(0.3, 1.0) * float(np.min((0.8 * split * bm / mass**2)[empty:]))
    diff = d * mass**2 / bm
    large, small = (split + diff) / 2.0, (split - diff) / 2.0
    c = d * rng.uniform(0.3, 0.9, m)
    half = bm - 2.0 * c * eps
    disc = half * half - 4.0 * c * c * eps * eps
    y = np.where(disc > 0.0,
                 (half - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * c) * rng.uniform(0.5, 0.95, m),
                 rng.uniform(50.0, 500.0, m))
    small[:empty] = 0.0
    large[:empty] = y[:empty]
    large[:both] = 0.0
    benefit = bm * (small + eps) / (large + small + eps) ** 2
    lam = rng.uniform(5.0, 30.0) - benefit[both:].min()
    bc = benefit + lam
    bc[:both] = (np.maximum(bm / eps + lam, 0.0) + rng.uniform(0.05, 0.3, m) * bm / eps)[:both]
    order = rng.permutation(m)
    x_a, x_b = (large, small) if rng.random() < 0.5 else (small, large)
    return _spec(bm[order], bc[order], eps[order], x_a.sum(), x_b.sum()), x_a[order], x_b[order]


class TestSolveSpecAnyRegionCount:
    def test_boundary_specs_are_exact_kkt_points(self):
        """About 300 box boundary specs, m = 3..8; the tag follows the support."""
        rng = np.random.default_rng(12345)
        solved = 0
        while solved < 300:
            spec = random_spec(rng, int(rng.integers(3, 9)))
            if fc.interior_equilibrium(spec).is_interior:
                continue
            result = fc.solve_spec(spec)
            assert relative_kkt(spec, result) <= 1e-12
            empty = any(np.any(result.strategy.of(player).values <= 1e-9 * spec.fleet_of(player))
                        for player in fc.PLAYERS)
            assert (result.location == "boundary") == empty
            solved += 1

    @pytest.mark.parametrize("build", [symmetric_boundary_game, asymmetric_boundary_game])
    def test_constructed_equilibria(self, build):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            spec, x_a, x_b = build(rng)
            result = fc.solve_spec(spec)
            assert result.location == "boundary"
            for player, expected in (("a", x_a), ("b", x_b)):
                gap = np.abs(result.strategy.of(player).values - expected)
                assert gap.max() <= 1e-12 * spec.fleet_of(player)

    def test_exact_on_fixed_boundary_specs(self):
        specs = [mislabel_spec()] + [fc.two_region_spec(alpha) for alpha in (39.9, 41.0, 45.0, 50.0)]
        for spec in specs:
            assert relative_kkt(spec, fc.solve_spec(spec)) <= 1e-12

    def test_interior_point_whose_closed_form_misses_a_fleet_sum(self):
        """Unshifted charging costs made the closed form miss b's fleet by
        6.5e-9 of it here; the shifted closed form meets both fleet sums."""
        spec = _spec([108.94827768967991, 676402.6217152451],
                     [407.9835639328686, 1411.9000409152627],
                     [399.82546914752044, 14.82547155550008],
                     129979.73918412217, 1634.3659973422364)
        outcome = fc.interior_equilibrium(spec)
        assert outcome.is_interior
        for player in fc.PLAYERS:
            total = outcome.strategy.of(player).total
            assert abs(total - spec.fleet_of(player)) <= FEASIBILITY_RTOL * spec.fleet_of(player)
        result = fc.solve_spec(spec)
        assert result.location == "interior"
        assert result.trace is not None
        assert relative_kkt(spec, result) <= 1e-12

    def test_wide_parameter_range(self):
        """Parameters log-uniform over 4.5 decades around the box, m = 2..8."""
        rng = np.random.default_rng(7)

        def draw(centre, size):
            return centre * 10.0 ** rng.uniform(-2.25, 2.25, size)

        for _ in range(300):
            m = int(rng.integers(2, 9))
            spec = _spec(draw(1e4, m), draw(100.0, m) * (rng.random(m) < 0.9), draw(100.0, m),
                         draw(1000.0, 1)[0], draw(1000.0, 1)[0])
            assert relative_kkt(spec, fc.solve_spec(spec)) <= 1e-8


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

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(fc.ValidationError, match="step"):
            fc.detect_alpha_crit(1.0, 50.0, step)
        with pytest.raises(fc.ValidationError, match="step"):
            fc.detect_optimal_fleet(200.0, 4000.0, step)

    def test_closed_form_from_one_solve(self, monkeypatch):
        """Both fleets in region 1 is an equilibrium while each player's
        region-2 multiplier beta_c2 - lambda - beta_m2 / eps2 stays >= 0,
        with lambda read off region 1's stationarity at the full fleets;
        the collapse starts where the larger of the two bounds on beta_c2
        is met."""
        spec = fc.two_region_spec(50.0)
        (bm1, bm2), (bc1, bc2), (eps1, eps2) = spec.beta_m, spec.beta_c, spec.eps
        mass = spec.fleet_a + spec.fleet_b + eps1
        lambdas = [bc1 - bm1 * (rival + eps1) / mass**2 for rival in (spec.fleet_b, spec.fleet_a)]
        expected = (max(lambdas) + bm2 / eps2) / (bc2 / 50.0)
        calls = counted_solves(monkeypatch)
        value = fc.detect_alpha_crit(1.0, 50.0, 0.1)
        assert len(calls) == 1
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(COLLAPSE_SCALE, rel=1e-12)


def failing_root_spec():
    """Two regions whose first beta_m overflows the mass balance's square."""
    return fc.GameSpec((fc.RegionParams(1e200, 1.0, 1.0), fc.RegionParams(1e3, 2.0, 1.0)),
                       fleet_a=100.0, fleet_b=100.0)


def failing_price_spec():
    """Two regions where the price Newton cannot meet a's fleet of 1e-200."""
    return fc.GameSpec((fc.RegionParams(1e3, 0.0, 1.0), fc.RegionParams(1e3, 1e200, 1.0)),
                       fleet_a=1e-200, fleet_b=100.0)


def stalled_price_spec():
    """Three regions whose price Newton meets BALANCE_RTOL but returns b's
    allocation 1.416e-11 of its fleet short, beyond FEASIBILITY_RTOL."""
    regions = ((87.014577345429799, 109.35791949721579, 0.011780113409158043),
               (73623.338476571895, 0.038702490272917264, 692787.52527986467),
               (26791975.726399578, 8148.4849383213686, 992540.75579221011))
    return fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions),
                       fleet_a=6302.97741740527, fleet_b=1.1234720823442839)


class TestSolveBatch:
    def test_a_failing_spec_fails_alone(self):
        """Each failure stays in its own entry, with solve_spec's message,
        and the entries beside it are their solo solves to the bit."""
        specs = [fc.two_region_spec(1.0), failing_root_spec(), fc.two_region_spec(45.0),
                 failing_price_spec(), fc.two_region_spec(10.0)]
        results = fc.solve_batch(specs)
        assert len(results) == len(specs)
        for index in (1, 3):
            assert isinstance(results[index], fc.NumericalError)
            with pytest.raises(fc.NumericalError) as raised:
                fc.solve_spec(specs[index])
            assert str(results[index]) == str(raised.value)
        assert "root residual" in str(results[1])
        assert "price solve" in str(results[3])
        for index in (0, 2, 4):
            assert isinstance(results[index], fc.EquilibriumResult)
            assert fingerprint(results[index]) == solo_fingerprint(specs[index])
        assert [results[i].location for i in (0, 2, 4)] == ["interior", "A2", "interior"]

    def test_a_failing_spec_gives_its_sweep_record(self, monkeypatch):
        original = experiments.two_region_spec

        def build(alpha):
            return failing_root_spec() if alpha == 2.0 else original(alpha)

        monkeypatch.setattr(experiments, "two_region_spec", build)
        records = fc.alpha_sweep("two", [1.0, 2.0, 45.0])
        assert [r.parameter for r in records] == [1.0, 2.0, 45.0]
        assert records[1].error.startswith("root residual inf exceeds tolerance")
        assert records[1].strategy is None and records[1].location is None
        assert [records[0].location, records[2].location] == ["interior", "A2"]
        assert records[2].u_b == fc.utility(original(45.0), "b", records[2].strategy)

    def test_sweep_keeps_order_and_build_errors(self):
        records = fc.alpha_sweep("four", [5, 25, 8])
        assert [r.parameter for r in records] == [5.0, 25.0, 8.0]
        assert records[1].error == "alpha must be in [1, 20], got 25.0"
        for record in (records[0], records[2]):
            spec = fc.four_region_spec(record.parameter)
            solo = fc.solve_spec(spec).strategy
            assert record.error is None
            assert record.strategy.alloc_a.values.tobytes() == solo.alloc_a.values.tobytes()
            assert record.strategy.alloc_b.values.tobytes() == solo.alloc_b.values.tobytes()
            assert record.u_a == fc.utility(spec, "a", solo)
            assert record.u_b == fc.utility(spec, "b", solo)
            assert record.t_lambda == fc.solve_spec(spec).trace.multiplier_sum

    @pytest.mark.parametrize("spec", [
        fc.GameSpec(fc.two_region_spec(3.0).regions, fleet_a=1e154, fleet_b=1e154),
        fc.GameSpec(fc.two_region_spec(3.0).regions, fleet_a=1e300, fleet_b=1e300),
        fc.GameSpec((fc.RegionParams(1e4, 1.0, 1e-200), fc.RegionParams(2e4, 2.0, 1e-200)),
                    fleet_a=1e-200, fleet_b=1e-200),
    ], ids=["square-overflows-1e154", "square-overflows-1e300", "square-underflows"])
    def test_a_bracket_out_of_range_fails_alone(self, spec):
        """The square of the total mass leaves the range of a double, so the
        root find's bracket cannot be formed. That row fails its root check,
        and the row beside it is its solo solve."""
        results = fc.solve_batch([spec, fc.two_region_spec(3.0)])
        assert isinstance(results[0], fc.NumericalError)
        assert str(results[0]).startswith("root residual inf exceeds tolerance")
        assert fingerprint(results[1]) == solo_fingerprint(fc.two_region_spec(3.0))

    def test_a_price_step_lost_to_underflow_fails_alone(self):
        """One region; the price Newton's step underflows to zero."""
        spec = fc.GameSpec((fc.RegionParams(1e-8, 0.0, 1e16),), fleet_a=1e46, fleet_b=1e-9)
        results = fc.solve_batch([spec, fc.GameSpec(spec.regions, 10.0, 20.0)])
        assert isinstance(results[0], fc.NumericalError)
        assert str(results[0]).startswith("price solve fleet-sum error")
        assert fingerprint(results[1]) == solo_fingerprint(fc.GameSpec(spec.regions, 10.0, 20.0))

    def test_a_candidate_with_non_finite_multipliers_goes_to_the_price_solve(self):
        """Region 1's mass squared over its beta_m overflows, so the closed
        form's multipliers are NaN. interior_equilibrium rejects the
        candidate; the solve hands the row to the price Newton, which
        misses a fleet sum here."""
        spec = fc.GameSpec((fc.RegionParams(1e-120, 0.0, 1e100), fc.RegionParams(1e4, 1.0, 10.0)),
                           fleet_a=100.0, fleet_b=100.0)
        with pytest.raises(fc.ValidationError, match="lambda_a must be finite, got nan"):
            fc.interior_equilibrium(spec)
        with pytest.raises(fc.NumericalError, match="price solve fleet-sum error inf"):
            fc.solve_spec(spec)

    def test_a_price_row_that_misses_feasibility_fails_as_numerical(self):
        """The price solve's own tolerance is met, is_feasible's is not: the
        row fails with a NumericalError naming b, and its neighbour is its
        solo solve to the bit."""
        spec = stalled_price_spec()
        neighbour = fc.GameSpec(spec.regions, fleet_a=1000.0, fleet_b=2000.0)
        results = fc.solve_batch([spec, neighbour])
        assert isinstance(results[0], fc.NumericalError)
        assert str(results[0]).startswith("price solve leaves player 'b' infeasible")
        with pytest.raises(fc.NumericalError, match="price solve leaves player 'b'"):
            fc.solve_spec(spec)
        assert fingerprint(results[1]) == solo_fingerprint(neighbour)

    def test_an_overflowing_row_fails_alone_when_warnings_are_errors(self):
        specs = [fc.two_region_spec(1.0), failing_root_spec(), fc.two_region_spec(45.0)]
        expected = [fingerprint(result) for result in fc.solve_batch(specs)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [fingerprint(result) for result in fc.solve_batch(specs)] == expected
            with pytest.raises(fc.NumericalError, match="root residual"):
                fc.interior_equilibrium(failing_root_spec())
            with pytest.raises(fc.NumericalError, match="root residual"):
                fc.solve_multiplier_sum(failing_root_spec())
        assert expected[1][0] == "NumericalError"

    def test_the_solve_builds_no_interior_outcome(self, monkeypatch):
        """interior_equilibrium is the only builder of InteriorOutcome and
        NotInterior: with both broken, a batch of interior, boundary and
        failing specs solves as before."""
        specs = [fc.two_region_spec(1.0), failing_root_spec(), fc.two_region_spec(45.0),
                 failing_price_spec(), fc.two_region_spec(41.0)]
        expected = [fingerprint(result) for result in fc.solve_batch(specs)]

        def broken(*args, **kwargs):
            raise AssertionError("the solve built an interior outcome")

        monkeypatch.setattr(interior, "InteriorOutcome", broken)
        monkeypatch.setattr(interior, "NotInterior", broken)
        assert [fingerprint(result) for result in fc.solve_batch(specs)] == expected
        assert [expected[i][5] for i in (0, 2, 4)] == ["interior", "A2", "A2"]

    def test_solve_spec_is_the_batch_of_one(self, monkeypatch):
        calls = []
        batch = experiments.solve_batch

        def counted(specs):
            calls.append(specs)
            return batch(specs)

        monkeypatch.setattr(experiments, "solve_batch", counted)
        spec = fc.four_region_spec(3.0)
        result = fc.solve_spec(spec)
        assert calls == [[spec]]
        assert fingerprint(result) == fingerprint(batch([spec])[0])
        with pytest.raises(fc.NumericalError):
            fc.solve_spec(failing_root_spec())


class TestSweepReadsTheStack:
    def test_each_record_is_its_batch_entry(self):
        """Over the specs TestSolveBytes pins, one region count at a time, a
        sweep record carries its solve_batch entry's error message, or its
        allocation bytes, tag, t_lambda and payoffs."""
        by_m = {}
        for spec in TestSolveBytes.specs():
            by_m.setdefault(spec.m, []).append(spec)
        for specs in by_m.values():
            records = experiments._sweep(lambda k, specs=specs: specs[int(k)], range(len(specs)))
            for spec, record, result in zip(specs, records, fc.solve_batch(specs)):
                if isinstance(result, fc.FleetContestError):
                    assert record.error == str(result) and record.strategy is None
                    continue
                assert record.error is None
                for player in fc.PLAYERS:
                    assert (record.strategy.of(player).values.tobytes()
                            == result.strategy.of(player).values.tobytes())
                assert record.location == result.location
                trace = result.trace
                assert record.t_lambda == (None if trace is None else trace.multiplier_sum)
                assert record.u_a == fc.utility(spec, "a", result.strategy)
                assert record.u_b == fc.utility(spec, "b", result.strategy)

    def test_a_sweep_builds_no_result_objects(self, monkeypatch):
        """A sweep reads the solved stack: with EquilibriumResult,
        DualCertificate and InteriorSolveTrace broken, interior, boundary
        and out-of-range points sweep as before, and a stalled price row
        still gets its message."""
        alphas = {"two": [1.0, 25.0, 41.0, 45.0, 60.0], "four": [1.0, 8.0, 20.0, 25.0]}
        expected = {kind: fc.emit_csv(fc.alpha_sweep(kind, a)) for kind, a in alphas.items()}

        def broken(*args, **kwargs):
            raise AssertionError("the sweep built a result object")

        for name in ("EquilibriumResult", "DualCertificate"):
            monkeypatch.setattr(experiments, name, broken)
        monkeypatch.setattr(interior, "InteriorSolveTrace", broken)
        for kind, a in alphas.items():
            assert fc.emit_csv(fc.alpha_sweep(kind, a)) == expected[kind]
        assert "A2" in expected["two"] and "error" in expected["four"]
        stalled = stalled_price_spec()
        (record,) = experiments._sweep(lambda _: stalled, [0.0])
        assert record.error.startswith("price solve leaves player 'b' infeasible")


class TestSweepBytes:
    """The CSV bytes of three dense sweeps, pinned so that a change of solve
    path that moves any allocation, payoff, t_lambda or tag shows."""

    @staticmethod
    def digest(records):
        return hashlib.sha256(fc.emit_csv(records).encode()).hexdigest()

    def test_four_region_sweep(self):
        records = fc.alpha_sweep("four", np.linspace(1.0, 20.0, 1000))
        assert self.digest(records) == (
            "a82e1a857e6614e07b6d041f4e22b9756dc1297ba1729fc60fa481f022006d6c")

    def test_two_region_sweep(self):
        records = fc.alpha_sweep("two", np.linspace(1.0, 50.0, 1000))
        assert self.digest(records) == (
            "17d433a609596735f4581a33e1d6c013be7349b874bbf31312bb5bc5cdb088ba")

    def test_fleet_sweep(self):
        records = fc.fleet_sweep(np.linspace(200.0, 4000.0, 200))
        assert self.digest(records) == (
            "658c046e5f79f6a4cd20efbbe1f7c2d7daa75aa5a7e6f485faa2995898bf2c9d")


class TestSolveBytes:
    """The fingerprints of solve_spec over a seeded set of specs, pinned so
    that a change of solve path that moves any allocation, multiplier,
    tag, count or error message shows.

    For each m = 1..8 the set holds 60 box specs and 60 specs with
    parameters log-uniform over 4.5 decades around the box; about two
    thirds of them have boundary equilibria. The two failing specs add
    a root failure and a price-solve failure.
    """

    @staticmethod
    def specs():
        rng = np.random.default_rng(20261018)

        def draw(centre, size):
            return centre * 10.0 ** rng.uniform(-2.25, 2.25, size)

        specs = [failing_root_spec(), failing_price_spec()]
        for m in range(1, 9):
            for _ in range(60):
                specs.append(random_spec(rng, m))
                specs.append(_spec(draw(1e4, m), draw(100.0, m) * (rng.random(m) < 0.9),
                                   draw(100.0, m), draw(1000.0, 1)[0], draw(1000.0, 1)[0]))
        return specs

    def test_solve_spec(self):
        fingerprints = [solo_fingerprint(spec) for spec in self.specs()]
        kinds = Counter(f[0] if isinstance(f[0], str) else f[5] for f in fingerprints)
        assert kinds == {"interior": 273, "boundary": 632, "A1": 27, "A2": 20, "B1": 4, "B2": 4,
                         "NumericalError": 2}
        assert hashlib.sha256(repr(fingerprints).encode()).hexdigest() == (
            "22ec73eb6aeae057a2328f1f1bff8cc9958d5bdcd7cd59b178f87db252e3e015")


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

    def test_golden_search_over_the_full_range(self, monkeypatch):
        """At most 40 solves, and b pays at least the best of a 0.5-spaced scan."""
        grid = np.linspace(200.0, 4000.0, 7601)
        scores = [r.u_b for r in fc.fleet_sweep(grid)]
        best = int(np.argmax(scores))
        calls = counted_solves(monkeypatch)
        value = fc.detect_optimal_fleet(200.0, 4000.0, 1.0)
        assert len(calls) <= 40
        assert abs(value - grid[best]) <= 0.5
        found = fc.fleet_sweep([value])[0].u_b
        assert found >= scores[best] - 1e-12 * abs(scores[best])

    def test_payoff_is_unimodal_over_the_admissible_range(self):
        """The golden search relies on one sign change of b's payoff differences."""
        scores = [r.u_b for r in fc.fleet_sweep(np.arange(200.0, 4001.0, 10.0))]
        signs = np.sign(np.diff(scores))
        assert np.all(signs != 0.0)
        assert np.count_nonzero(np.diff(signs)) == 1
        assert signs[0] > 0.0

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
