"""Boundary families, certification, and the two-region solver."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import boundary, verify
from fleetcontest.boundary import (
    _distinct_certified,
    _family,
    _slope,
    boundary_candidate,
    enumerate_candidates,
)
from helpers import random_spec, relative_kkt


def quad_spec():
    """Both regions identical, tiny fleets; roots come out in surds."""
    return fc.GameSpec(
        regions=(fc.RegionParams(8.0, 0.0, 1.0), fc.RegionParams(8.0, 0.0, 1.0)),
        fleet_a=1.0,
        fleet_b=2.0,
    )


def endpoint_slopes(spec, family):
    """The family's slope at z = 0 and at the free fleet: its upper and lower bound."""
    _, held, free = _family(spec, family)
    return _slope(spec, held, free, 0.0), _slope(spec, held, free, free)


class TestSlopeBounds:
    def test_unit_parameter_bounds_by_hand(self):
        # A pinned fleet of 0 holds nothing in either region, so the
        # region-1-empty and region-2-empty layouts are one slope.
        region = fc.RegionParams(1.0, 0.0, 1.0)
        spec = fc.GameSpec((region, region), fleet_a=1.0, fleet_b=2.0)
        upper = _slope(spec, (0.0, 0.0), 2.0, 0.0)
        lower = _slope(spec, (0.0, 0.0), 2.0, 2.0)
        assert upper == pytest.approx(8.0 / 9.0, rel=1e-15)
        assert lower == pytest.approx(-8.0 / 9.0, rel=1e-15)

    def test_upper_always_exceeds_lower(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            spec = random_spec(rng)
            for family in fc.FAMILIES:
                upper, lower = endpoint_slopes(spec, family)
                assert upper > lower

    def test_frozen_values_at_high_charging_scale(self):
        spec = fc.two_region_spec(41.0)
        upper, lower = endpoint_slopes(spec, "A2")
        assert upper == pytest.approx(425.0128888125107, rel=1e-12)
        assert lower == pytest.approx(4.006243496357968, rel=1e-12)

    def test_shape_error_off_two_regions(self):
        spec = fc.four_region_spec(1.0)
        with pytest.raises(fc.ShapeError):
            _family(spec, "A1")


class TestPinnedBestResponse:
    def test_quad_spec_closed_form(self):
        # slope 8/(z+1)^2 = 16/(4-z)^2 gives z* = (4 - sqrt(2)) / (1 + sqrt(2)).
        z = fc.pinned_best_response(quad_spec(), "A1")
        expected = (4.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        assert abs(z - expected) <= 1e-10

    def test_identical_regions_closed_form_with_crowded_rival(self):
        # B1 pins b's 8 vehicles into region 2; the free player a solves
        # 3 / (z + 3)^2 = 11 / (16 - z)^2 for its region-1 mass.
        region = fc.RegionParams(50.0, 0.0, 3.0)
        spec = fc.GameSpec(regions=(region, region), fleet_a=5.0, fleet_b=8.0)
        expected = (16.0 * math.sqrt(3.0) - 3.0 * math.sqrt(11.0)) / (math.sqrt(11.0) + math.sqrt(3.0))
        assert fc.pinned_best_response(spec, "B1") == pytest.approx(expected, abs=1e-9)

    def test_endpoint_saturation(self):
        spec = fc.two_region_spec(41.0)
        assert fc.pinned_best_response(spec, "A2") == spec.fleet_b
        assert fc.pinned_best_response(spec, "B2") == spec.fleet_a

    def test_zero_endpoint_when_region_one_unattractive(self):
        spec = fc.GameSpec(
            regions=(fc.RegionParams(1e3, 500.0, 500.0), fc.RegionParams(2e5, 0.0, 10.0)),
            fleet_a=100.0,
            fleet_b=100.0,
        )
        upper, _ = endpoint_slopes(spec, "A1")
        assert upper <= 0.0
        assert fc.pinned_best_response(spec, "A1") == 0.0

    def test_interior_root_residual_is_small(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            spec = random_spec(rng)
            for family in fc.FAMILIES:
                _, held, free = _family(spec, family)
                z = fc.pinned_best_response(spec, family)
                if not 0.0 < z < free:
                    continue
                assert abs(_slope(spec, held, free, z)) <= 1e-8 * spec.beta_m.sum()
                checked += 1
        assert checked >= 100

    def test_steep_root_with_small_market_profits(self):
        """A root the bisection pins to rounding, on a slope whose charging
        prices and steepness dwarf beta_m; its residual must not raise."""
        spec = fc.GameSpec((fc.RegionParams(0.0112, 7.11, 0.00106),
                            fc.RegionParams(0.280, 0.00327, 0.118)), 115.2, 0.0649)
        _, held, free = _family(spec, "B1")
        z = fc.pinned_best_response(spec, "B1")
        assert 0.0 < z < free
        assert _slope(spec, held, free, z - 1e-12) > 0.0 > _slope(spec, held, free, z + 1e-12)

    def test_slope_strictly_decreasing_in_z(self):
        rng = np.random.default_rng(6)
        samples = 0
        while samples < 1000:
            spec = random_spec(rng)
            zs = np.sort(rng.uniform(0.0, spec.fleet_b, size=12))
            for family in ("A1", "A2"):
                _, held, free = _family(spec, family)
                values = [_slope(spec, held, free, z) for z in zs]
                assert all(a > b for a, b in zip(values, values[1:]))
            samples += 2 * len(zs)

    def test_bad_family_name(self):
        with pytest.raises(fc.ValidationError):
            fc.pinned_best_response(quad_spec(), "C1")

    def test_residual_of_a_non_monotone_slope_raises(self, monkeypatch):
        # A slope with a tooth at the bisection's final midpoint, where it
        # rises by 1.0 above the smooth slope, whose terms there sum to
        # 3.7; the bisection itself sees only the smooth slope.
        spec = quad_spec()
        z = fc.pinned_best_response(spec, "A1")
        smooth = _slope

        def toothed(spec, held, free, at):
            return smooth(spec, held, free, at) + (1.0 if at == z else 0.0)

        monkeypatch.setattr(boundary, "_slope", toothed)
        with pytest.raises(fc.NumericalError, match="pinned best-response root residual"):
            fc.pinned_best_response(spec, "A1")


class TestFamilyStrategy:
    def test_shapes_of_all_four_families(self):
        spec = fc.two_region_spec(2.0)
        a1 = fc.family_strategy(spec, "A1", 700.0)
        np.testing.assert_array_equal(a1.alloc_a.values, [0.0, 1000.0])
        np.testing.assert_array_equal(a1.alloc_b.values, [700.0, 1300.0])
        a2 = fc.family_strategy(spec, "A2", 700.0)
        np.testing.assert_array_equal(a2.alloc_a.values, [1000.0, 0.0])
        b1 = fc.family_strategy(spec, "B1", 700.0)
        np.testing.assert_array_equal(b1.alloc_a.values, [700.0, 300.0])
        np.testing.assert_array_equal(b1.alloc_b.values, [0.0, 2000.0])
        b2 = fc.family_strategy(spec, "B2", 700.0)
        np.testing.assert_array_equal(b2.alloc_b.values, [2000.0, 0.0])

    def test_z_range_is_the_free_players_fleet(self):
        spec = fc.two_region_spec(2.0)
        with pytest.raises(fc.ValidationError):
            fc.family_strategy(spec, "A1", 2000.5)
        with pytest.raises(fc.ValidationError):
            fc.family_strategy(spec, "B1", 1000.5)
        with pytest.raises(fc.ValidationError):
            fc.family_strategy(spec, "A1", -1.0)

    def test_shape_error_off_two_regions(self):
        with pytest.raises(fc.ShapeError, match="exactly two regions, spec has 4"):
            fc.family_strategy(fc.four_region_spec(1.0), "A1", 1.0)


class TestCertify:
    def test_frozen_candidates_at_high_charging_scale(self):
        spec = fc.two_region_spec(41.0)
        cands = {c.family: c for c in enumerate_candidates(spec)}
        assert cands["A1"].z_star == 2000.0
        assert cands["A1"].nu_check == pytest.approx(-395.36489151873764, rel=1e-12)
        assert not cands["A1"].certified
        assert cands["A2"].z_star == 2000.0
        assert cands["A2"].nu_check == pytest.approx(7.648283038501567, rel=1e-12)
        assert cands["A2"].certified
        assert cands["B1"].z_star == 1000.0
        assert cands["B1"].nu_check == pytest.approx(-425.01288881251077, rel=1e-12)
        assert not cands["B1"].certified
        assert cands["B2"].z_star == 1000.0
        assert cands["B2"].nu_check == pytest.approx(4.006243496357975, rel=1e-12)
        assert cands["B2"].certified

    def test_corner_multiplier_matches_endpoint_slope_expression(self):
        # At the region-1 corner of A2, nu is the endpoint slope bound plus
        # the pinned player's own crowding term.
        spec = fc.two_region_spec(41.0)
        cand = fc.certify(spec, "A2", spec.fleet_b)
        expected = cand.slope_lower + 1000.0 * 35000.0 / 3100.0 ** 2
        assert cand.nu_check == pytest.approx(expected, rel=1e-12)

    def test_zero_endpoint_certificate(self):
        spec = fc.GameSpec(
            regions=(fc.RegionParams(1e3, 500.0, 500.0), fc.RegionParams(2e5, 0.0, 10.0)),
            fleet_a=100.0,
            fleet_b=100.0,
        )
        cand = fc.certify(spec, "A1", 0.0)
        assert cand.nu_check == pytest.approx(996.8662131519275, rel=1e-12)
        assert cand.certified

    def test_impossible_endpoints_never_certify(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            spec = random_spec(rng)
            assert not fc.certify(spec, "A1", spec.fleet_b).certified
            assert not fc.certify(spec, "B1", spec.fleet_a).certified
            assert not fc.certify(spec, "A2", 0.0).certified
            assert not fc.certify(spec, "B2", 0.0).certified

    @pytest.mark.parametrize("family, regions, fleet_a, fleet_b, z_star, nu_check", [
        ("A1", ((132000.0, 388.0, 320.0), (150000.0, 64.0, 420.0)), 300.0, 1000.0,
         21.85094718991598, 10.593372482661888),
        ("A2", ((183000.0, 15.0, 130.0), (10000.0, 10.0, 130.0)), 1000.0, 2900.0,
         2658.298475729672, 3.6517991679781012),
        ("B1", ((113000.0, 466.0, 230.0), (112000.0, 20.0, 320.0)), 2800.0, 500.0,
         9.514778563633008, 0.9376624550930543),
        ("B2", ((171000.0, 169.0, 70.0), (11000.0, 159.0, 320.0)), 4000.0, 1600.0,
         3120.2041207581224, 4.606008308001497),
    ])
    def test_frozen_multiplier_at_interior_z(self, family, regions, fleet_a, fleet_b,
                                             z_star, nu_check):
        """nu_check at a certified inner best reply, as the per-family formulas gave it."""
        spec = fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions), fleet_a, fleet_b)
        cand = boundary_candidate(spec, family)
        assert cand.z_star == pytest.approx(z_star, rel=1e-12)
        assert cand.nu_check == pytest.approx(nu_check, rel=1e-9)
        assert cand.certified

    def test_endpoint_nu_check_matches_slope_bounds(self):
        """At z = 0 and z = fleet, nu is an endpoint slope bound plus crowding terms."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            spec = random_spec(rng)
            (bm1, bm2), (e1, e2) = spec.beta_m, spec.eps
            for family in fc.FAMILIES:
                pinned, _, xb = _family(spec, family)
                xa = spec.fleet_of(pinned)
                upper, lower = endpoint_slopes(spec, family)
                if family.endswith("1"):
                    at_zero = (xb - xa) * bm2 / (xa + xb + e2) ** 2 - upper
                    at_fleet = -bm1 * xb / (xb + e1) ** 2 - lower - bm2 * xa / (xa + e2) ** 2
                else:
                    at_zero = upper - bm1 * xa / (xa + e1) ** 2 - bm2 * xb / (xb + e2) ** 2
                    at_fleet = (xb - xa) * bm1 / (xa + xb + e1) ** 2 + lower
                scale = 1.0 + abs(upper) + abs(lower) + bm1 / e1 + bm2 / e2
                for z, expected in ((0.0, at_zero), (xb, at_fleet)):
                    cand = fc.certify(spec, family, z)
                    assert abs(cand.nu_check - expected) <= 1e-12 * scale

    def test_z_star_out_of_range(self):
        with pytest.raises(fc.ValidationError):
            fc.certify(quad_spec(), "A1", 2.5)

    def test_mirror_families_reduce_to_swapped_spec(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            spec = random_spec(rng)
            sw = spec.swapped()
            for b_family, a_family in (("B1", "A1"), ("B2", "A2")):
                mine = boundary_candidate(spec, b_family)
                other = boundary_candidate(sw, a_family)
                assert mine.z_star == other.z_star
                assert mine.nu_check == other.nu_check
                assert mine.certified == other.certified
                np.testing.assert_array_equal(
                    mine.strategy.alloc_a.values, other.strategy.alloc_b.values)
                np.testing.assert_array_equal(
                    mine.strategy.alloc_b.values, other.strategy.alloc_a.values)


def decade_spec(rng, decades):
    """Two regions with every parameter log-uniform over 10**+-decades, and a
    zero charging cost a tenth of the time."""
    def draw():
        return float(10.0 ** rng.uniform(-decades, decades))

    regions = tuple(fc.RegionParams(draw(), 0.0 if rng.random() < 0.1 else draw(), draw())
                    for _ in range(2))
    return fc.GameSpec(regions, draw(), draw())


def family_outcome(spec, family):
    """(certified, where z* lies on the free fleet's segment), or the error's type."""
    free = spec.fleet_b if family.startswith("A") else spec.fleet_a
    try:
        cand = boundary_candidate(spec, family)
    except fc.FleetContestError as exc:
        return type(exc).__name__
    kind = "zero" if cand.z_star == 0.0 else "fleet" if cand.z_star == free else "inside"
    return cand.certified, kind


def test_family_outcomes_are_pinned():
    """Every family's verdict on 300 box specs and 300 specs over +-3 decades.

    Entries 458 A1 and 463 A2 are steep inside roots, whose residual only
    the slope's drop across the bisection's final bracket bounds.
    """
    box_rng, wide_rng = np.random.default_rng(2301), np.random.default_rng(2303)
    specs = [random_spec(box_rng) for _ in range(300)]
    specs += [decade_spec(wide_rng, 3) for _ in range(300)]
    outcomes = [family_outcome(spec, family) for spec in specs for family in fc.FAMILIES]
    assert Counter(outcomes[:1200]) == {
        (False, "inside"): 568, (False, "fleet"): 259, (False, "zero"): 243,
        (True, "fleet"): 68, (True, "zero"): 52, (True, "inside"): 10}
    assert Counter(outcomes[1200:]) == {
        (False, "zero"): 319, (False, "fleet"): 254, (True, "zero"): 240, (True, "fleet"): 180,
        (False, "inside"): 159, (True, "inside"): 48}
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "31aa6077e62b4aa141fa08579565996480ead148f176cfec0239adb5da14c65e"


class TestSolveTwoRegion:
    def test_interior_spec_stays_interior(self):
        result = fc.solve_two_region(fc.two_region_spec(1.0))
        assert result.location == "interior"
        assert result.converged
        np.testing.assert_allclose(
            result.strategy.alloc_a.values,
            [222.5621675181248, 777.43783248187515], rtol=1e-10)

    def test_regression_mid_charging_scale(self):
        result = fc.solve_two_region(fc.two_region_spec(5.0))
        assert result.location == "interior"
        np.testing.assert_allclose(
            result.strategy.alloc_a.values,
            [490.45465747335345, 509.54534252664655], rtol=1e-10)
        np.testing.assert_allclose(
            result.strategy.alloc_b.values,
            [1348.3256931105677, 651.6743068894324], rtol=1e-10)
        assert result.trace.multiplier_sum == pytest.approx(1.0162824067355707, rel=1e-10)

    def test_corner_at_high_charging_scale(self):
        result = fc.solve_two_region(fc.two_region_spec(41.0))
        assert result.location == "A2"
        np.testing.assert_array_equal(result.strategy.alloc_a.values, [1000.0, 0.0])
        np.testing.assert_array_equal(result.strategy.alloc_b.values, [2000.0, 0.0])
        assert abs(result.ne_residual) <= 1e-9
        assert np.all(result.duals.nu_a >= 0.0)
        assert np.all(result.duals.nu_b >= 0.0)

    def test_corner_counted_once_after_dedupe(self):
        spec = fc.two_region_spec(41.0)
        distinct = _distinct_certified(spec, enumerate_candidates(spec))
        assert len(distinct) == 1
        assert distinct[0].family == "A2"

    def test_shape_error_off_two_regions(self):
        with pytest.raises(fc.ShapeError):
            fc.solve_two_region(fc.four_region_spec(1.0))

    def test_box_spec_with_fleet_sum_off_by_a_nanovehicle(self):
        """The closed form misses a's fleet by 1.3e-9 vehicles, 4e-13 of it."""
        spec = fc.GameSpec(
            regions=(
                fc.RegionParams(189921.5777198292, 420.4049251721063, 415.7017726579397),
                fc.RegionParams(2977.1903883154546, 299.32540683814136, 361.4056922875875),
            ),
            fleet_a=3226.5234392571324,
            fleet_b=3638.459309013228,
        )
        result = fc.solve_two_region(spec)
        assert result.location == "interior"
        u_a = fc.utility(spec, "a", result.strategy)
        u_b = fc.utility(spec, "b", result.strategy)
        assert result.ne_residual <= 1e-6 * (abs(u_a) + abs(u_b) + 1.0)

    def test_boundary_suspect_solves_to_a2_without_reading_residuals(self, monkeypatch):
        """Near the A2 transition a's region-2 share is 1e-11 of its fleet.

        The interior candidate is positive but below the support threshold,
        so the price solve takes over; it needs no ne_residual to decide.
        """
        calls = []
        eager = verify.ne_residual

        def counted(spec, joint):
            calls.append(joint)
            return eager(spec, joint)

        monkeypatch.setattr(verify, "ne_residual", counted)
        spec = fc.two_region_spec(39.86759748053348)
        outcome = fc.interior_equilibrium(spec)
        assert outcome.strategy is not None and outcome.not_interior is not None
        result = fc.solve_two_region(spec)
        assert calls == []
        assert result.location == "A2"
        assert relative_kkt(spec, result) <= 1e-12

    @pytest.mark.parametrize("samples, seed", [(100, 1743), (1000, 42)])
    def test_matches_the_family_oracle(self, samples, seed):
        """The lone certified family, or the interior outcome, is the solve's result.

        Seed 1743 draws criterion 5 and 6's samples, seed 42 the box specs
        of test_exactly_one_equilibrium_description.
        """
        rng = np.random.default_rng(seed)
        boundary = 0
        for _ in range(samples):
            spec = random_spec(rng)
            outcome = fc.interior_equilibrium(spec)
            if outcome.is_interior:
                tag, expected = "interior", outcome.strategy
            else:
                (lone,) = _distinct_certified(spec, enumerate_candidates(spec))
                tag, expected = lone.family, lone.strategy
                boundary += 1
            result = fc.solve_two_region(spec)
            assert result.location == tag
            for player in fc.PLAYERS:
                gap = np.abs(result.strategy.of(player).values - expected.of(player).values)
                assert gap.max() <= 1e-12 * spec.fleet_of(player)
        assert boundary > 0

    def test_exactly_one_equilibrium_description(self):
        """Interior validity and a lone certified family are mutually exclusive."""
        rng = np.random.default_rng(42)
        interior_count = 0
        for _ in range(1000):
            spec = random_spec(rng)
            outcome = fc.interior_equilibrium(spec)
            distinct = _distinct_certified(spec, enumerate_candidates(spec))
            assert outcome.is_interior != (len(distinct) == 1)
            if outcome.is_interior:
                interior_count += 1
                assert len(distinct) == 0
        assert 0 < interior_count < 1000

    def test_never_fully_separated_corners(self):
        """The players never end up alone in opposite regions."""
        rng = np.random.default_rng(43)
        for _ in range(1000):
            spec = random_spec(rng)
            result = fc.solve_two_region(spec)
            xa = result.strategy.alloc_a.values
            xb = result.strategy.alloc_b.values
            assert not (xa[0] == 0.0 and xb[1] == 0.0)
            assert not (xa[1] == 0.0 and xb[0] == 0.0)

    def test_player_swap_consistency(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            spec = random_spec(rng)
            mine = fc.solve_two_region(spec)
            other = fc.solve_two_region(spec.swapped())
            np.testing.assert_allclose(
                mine.strategy.alloc_a.values, other.strategy.alloc_b.values,
                rtol=0, atol=1e-8)
            np.testing.assert_allclose(
                mine.strategy.alloc_b.values, other.strategy.alloc_a.values,
                rtol=0, atol=1e-8)
            assert (mine.location == "interior") == (other.location == "interior")

    def test_residual_scales_with_utilities(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            spec = random_spec(rng)
            result = fc.solve_two_region(spec)
            u_a = fc.utility(spec, "a", result.strategy)
            u_b = fc.utility(spec, "b", result.strategy)
            assert result.ne_residual >= -1e-9
            assert result.ne_residual <= 1e-6 * (abs(u_a) + abs(u_b) + 1.0)
