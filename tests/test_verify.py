"""Best responses, residuals, the concavity certificate, and the grid oracle."""

import hashlib
from collections import Counter

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import verify
from fleetcontest.verify import GRID_MAX_CELLS, _result, duals_from_gradients
from helpers import fingerprint, random_feasible_point, random_spec


class TestBestResponse:
    def test_single_region_sends_everything(self):
        spec = fc.GameSpec(
            regions=(fc.RegionParams(100.0, 2.0, 5.0),), fleet_a=7.0, fleet_b=3.0)
        reply = fc.best_response(spec, "a", fc.Allocation(np.array([3.0]), "b"))
        assert reply.values[0] == pytest.approx(7.0, rel=1e-12)
        assert reply.owner == "a"

    def test_reply_to_published_rival(self):
        spec = fc.two_region_spec(1.0)
        reply = fc.best_response(spec, "a", fc.Allocation(np.array([453.0, 1547.0]), "b"))
        np.testing.assert_allclose(reply.values, [222.6, 777.4], atol=0.1)

    def test_water_level_equalizes_active_gradients(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            rival = random_feasible_point(rng, spec).alloc_b
            reply = fc.best_response(spec, "a", rival)
            assert reply.values.sum() == pytest.approx(spec.fleet_a, rel=1e-12)
            grad = fc.raw_utility_gradient(spec, reply.values, rival.values)
            active = reply.values > 1e-9 * spec.fleet_a
            scale = 1.0 + float(np.abs(grad).max())
            assert grad[active].max() - grad[active].min() <= 1e-9 * scale
            # inactive regions cannot offer a better marginal payoff
            assert grad.max() - grad[active].max() <= 1e-9 * scale

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            spec = random_spec(rng)
            rival = random_feasible_point(rng, spec).alloc_b
            reply = fc.best_response(spec, "a", rival)
            u_reply = fc.raw_utility(spec, reply.values, rival.values)
            for _ in range(500):
                other = rng.dirichlet(np.ones(spec.m)) * spec.fleet_a
                assert u_reply - fc.raw_utility(spec, other, rival.values) >= -1e-9

    def test_rejects_mismatched_or_infeasible_rival(self):
        spec = fc.two_region_spec(1.0)
        with pytest.raises(fc.ValidationError):
            fc.best_response(spec, "a", fc.Allocation(np.array([500.0, 500.0]), "a"))
        with pytest.raises(fc.ValidationError):
            fc.best_response(spec, "a", fc.Allocation(np.array([1.0, 1.0]), "b"))


class TestNeResidual:
    def test_small_at_published_equilibrium(self):
        spec = fc.two_region_spec(1.0)
        printed = fc.joint_from_arrays([222.6, 777.4], [453.0, 1547.0])
        res = fc.ne_residual(spec, printed)
        assert res == pytest.approx(0.0001269392087124288, rel=1e-3)
        assert res <= 1e-6 * 35591.0

    def test_large_away_from_equilibrium(self):
        spec = fc.two_region_spec(1.0)
        uniform = fc.joint_from_arrays([500.0, 500.0], [1000.0, 1000.0])
        assert fc.ne_residual(spec, uniform) > 1000.0

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            spec = random_spec(rng)
            result = fc.solve_two_region(spec)
            assert fc.ne_residual(spec, result.strategy) >= -1e-9

    def test_requires_feasible_input(self):
        spec = fc.two_region_spec(1.0)
        with pytest.raises(fc.ValidationError):
            fc.ne_residual(spec, fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0]))


class TestKktResidual:
    def test_interior_equilibrium_satisfies_the_system(self):
        spec = fc.two_region_spec(1.0)
        result = fc.solve_two_region(spec)
        grad = fc.utility_gradient(spec, "a", result.strategy)
        scale = 1.0 + float(np.abs(grad).max())
        assert fc.kkt_residual(spec, result.strategy, result.duals) <= 1e-8 * scale

    def test_corner_equilibrium_satisfies_the_system(self):
        spec = fc.two_region_spec(41.0)
        result = fc.solve_two_region(spec)
        grad = fc.utility_gradient(spec, "a", result.strategy)
        scale = 1.0 + float(np.abs(grad).max())
        assert fc.kkt_residual(spec, result.strategy, result.duals) <= 1e-8 * scale

    def test_shifted_multiplier_shows_up_as_unit_violation(self):
        spec = fc.two_region_spec(1.0)
        result = fc.solve_two_region(spec)
        bumped = fc.DualCertificate(
            lambda_a=result.duals.lambda_a + 1.0,
            lambda_b=result.duals.lambda_b,
            nu_a=result.duals.nu_a,
            nu_b=result.duals.nu_b,
        )
        assert fc.kkt_residual(spec, result.strategy, bumped) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_wrong_dual_shape(self):
        spec = fc.two_region_spec(1.0)
        result = fc.solve_two_region(spec)
        bad = fc.DualCertificate(0.0, 0.0, np.zeros(3), np.zeros(3))
        with pytest.raises(fc.ValidationError):
            fc.kkt_residual(spec, result.strategy, bad)


class TestConcavityCertificate:
    def test_single_region_hand_values(self):
        spec = fc.GameSpec(
            regions=(fc.RegionParams(2.0, 0.0, 1.0),), fleet_a=1.0, fleet_b=1.0)
        cert = fc.concavity_certificate(spec, fc.joint_from_arrays([0.0], [0.0]))
        np.testing.assert_allclose(cert.matrix, [[-8.0, -4.0], [-4.0, -8.0]], rtol=1e-15)
        np.testing.assert_allclose(cert.schur, [[-6.0]], rtol=1e-15)
        assert cert.max_eigenvalue == pytest.approx(-4.0, rel=1e-15)
        assert cert.negative_definite

    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            joint = random_feasible_point(rng, spec)
            cert = fc.concavity_certificate(spec, joint)
            dense = float(np.linalg.eigvalsh(cert.matrix).max())
            assert abs(cert.max_eigenvalue - dense) <= 1e-10 * (1.0 + abs(dense))
            assert cert.negative_definite
            assert cert.max_eigenvalue < 0.0

    def test_off_simplex_points_are_accepted(self):
        # the certificate is a pointwise property, no fleet-sum needed
        spec = fc.two_region_spec(1.0)
        cert = fc.concavity_certificate(spec, fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0]))
        assert cert.negative_definite

    def test_rejects_negative_component(self):
        spec = fc.two_region_spec(1.0)
        joint = fc.JointStrategy(
            alloc_a=fc.Allocation(np.array([-1.0, 2.0]), "a"),
            alloc_b=fc.Allocation(np.array([3.0, 4.0]), "b"),
        )
        with pytest.raises(fc.ValidationError):
            fc.concavity_certificate(spec, joint)


class TestGridEquilibrium:
    def test_published_point_recovered_at_tenth_step(self):
        spec = fc.two_region_spec(1.0)
        oracle = fc.grid_equilibrium(spec, step=0.1)
        np.testing.assert_allclose(oracle.strategy.alloc_a.values, [222.6, 777.4], atol=1e-9)
        np.testing.assert_allclose(oracle.strategy.alloc_b.values, [453.0, 1547.0], atol=1e-9)
        assert oracle.eps_ne == 0.0

    def test_symmetric_spec_splits_evenly(self):
        region = fc.RegionParams(9.0, 1.0, 2.0)
        spec = fc.GameSpec(regions=(region, region), fleet_a=4.0, fleet_b=4.0)
        oracle = fc.grid_equilibrium(spec, step=1.0)
        np.testing.assert_array_equal(oracle.strategy.alloc_a.values, [2.0, 2.0])
        np.testing.assert_array_equal(oracle.strategy.alloc_b.values, [2.0, 2.0])

    def test_agrees_with_exact_solver(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            spec = random_spec(rng)
            step = max(spec.fleet_a, spec.fleet_b) / 2000.0
            oracle = fc.grid_equilibrium(spec, step=step)
            exact = fc.solve_two_region(spec)
            for player in ("a", "b"):
                effective = spec.fleet_of(player) / max(1, round(spec.fleet_of(player) / step))
                gap = np.abs(oracle.strategy.of(player).values - exact.strategy.of(player).values)
                assert gap.max() <= 2.0 * effective

    def test_size_caps(self):
        spec = fc.two_region_spec(1.0)
        with pytest.raises(fc.GridSizeError):
            fc.grid_equilibrium(spec, step=0.005)  # per-player cell cap
        with pytest.raises(fc.GridSizeError):
            fc.grid_equilibrium(spec, step=0.05)  # joint point cap
        assert GRID_MAX_CELLS == 100_000

    @pytest.mark.parametrize("step", [1e-310, 5e-324])
    def test_subnormal_step_hits_the_cell_cap(self, step):
        # fleet / step overflows to infinity, which round() cannot convert.
        with pytest.raises(fc.GridSizeError):
            fc.grid_equilibrium(fc.two_region_spec(1.0), step=step)

    def test_step_and_shape_validation(self):
        spec = fc.two_region_spec(1.0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(fc.ValidationError):
                fc.grid_equilibrium(spec, step=bad)
        with pytest.raises(fc.ShapeError):
            fc.grid_equilibrium(fc.four_region_spec(1.0), step=1.0)


class TestDualsFromGradients:
    def test_multiplier_is_negated_top_gradient(self):
        spec = fc.two_region_spec(41.0)
        result = fc.solve_two_region(spec)
        duals = duals_from_gradients(spec, result.strategy)
        for player in ("a", "b"):
            grad = fc.utility_gradient(spec, player, result.strategy)
            x = result.strategy.of(player).values
            assert duals.lambda_of(player) == -float(grad.max())
            nu = duals.nu_of(player)
            empty = x <= 1e-9 * spec.fleet_of(player)
            np.testing.assert_allclose(
                nu[empty], (-duals.lambda_of(player) - grad)[empty], rtol=0, atol=1e-12)
            assert np.all(nu[~empty] == 0.0)

    def test_complementary_slackness_at_solved_points(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            spec = random_spec(rng)
            result = fc.solve_two_region(spec)
            duals = duals_from_gradients(spec, result.strategy)
            for player in ("a", "b"):
                nu = duals.nu_of(player)
                x = result.strategy.of(player).values
                bound = 1e-8 * spec.fleet_of(player) * max(float(nu.max()), 1e-30)
                assert float((nu * x).max()) <= max(bound, 1e-12)


class TestIteratedBestResponse:
    def test_identical_regions_converge_immediately(self):
        region = fc.RegionParams(1000.0, 12.0, 37.0)
        spec = fc.GameSpec(regions=(region, region), fleet_a=210.0, fleet_b=340.0)
        result = fc.iterated_best_response(spec)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.strategy.alloc_a.values, [105.0, 105.0], rtol=1e-9)

    def test_matches_interior_solver_on_four_regions(self):
        spec = fc.four_region_spec(1.0)
        dynamic = fc.iterated_best_response(spec)
        exact = fc.interior_equilibrium(spec)
        assert dynamic.converged
        assert dynamic.location == "interior"
        for player in ("a", "b"):
            np.testing.assert_allclose(
                dynamic.strategy.of(player).values,
                exact.strategy.of(player).values, rtol=0, atol=1e-4)

    def test_matches_two_region_solver(self):
        spec = fc.two_region_spec(5.0)
        dynamic = fc.iterated_best_response(spec)
        exact = fc.solve_two_region(spec)
        for player in ("a", "b"):
            np.testing.assert_allclose(
                dynamic.strategy.of(player).values,
                exact.strategy.of(player).values, rtol=0, atol=1e-4)

    def test_tags_a_two_region_boundary_point_like_the_solver(self):
        spec = fc.two_region_spec(45.0)
        assert fc.iterated_best_response(spec).location == "A2"
        assert fc.solve_spec(spec).location == "A2"

    def test_iteration_budget_flags_no_convergence(self):
        result = fc.iterated_best_response(fc.two_region_spec(5.0), max_iters=1)
        assert not result.converged
        assert result.iterations == 1

    def test_parameter_validation(self):
        spec = fc.two_region_spec(1.0)
        with pytest.raises(fc.ValidationError):
            fc.iterated_best_response(spec, damping=0.0)
        with pytest.raises(fc.ValidationError):
            fc.iterated_best_response(spec, damping=1.5)
        with pytest.raises(fc.ValidationError):
            fc.iterated_best_response(spec, max_iters=0)


def _spec(regions, fleet_a, fleet_b):
    return fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions), fleet_a, fleet_b)


class TestLazyNeResidual:
    @pytest.mark.parametrize("location, spec", [
        ("interior", fc.two_region_spec(1.0)),
        ("A1", _spec(((132000.0, 388.0, 320.0), (150000.0, 64.0, 420.0)), 300.0, 1000.0)),
        ("A2", _spec(((183000.0, 15.0, 130.0), (10000.0, 10.0, 130.0)), 1000.0, 2900.0)),
        ("B1", _spec(((113000.0, 466.0, 230.0), (112000.0, 20.0, 320.0)), 2800.0, 500.0)),
        ("B2", _spec(((171000.0, 169.0, 70.0), (11000.0, 159.0, 320.0)), 4000.0, 1600.0)),
        ("boundary", _spec(
            ((35000.0, 5.0, 50.0), (5000.0, 400.0, 100.0), (100000.0, 10.0, 120.0)),
            1000.0, 2000.0)),
    ])
    def test_equals_the_eager_residual(self, location, spec):
        result = fc.solve_spec(spec)
        assert result.location == location
        assert result.ne_residual == fc.ne_residual(spec, result.strategy)

    def test_computed_on_first_read_only(self, monkeypatch):
        calls = []
        eager = verify.ne_residual

        def counted(spec, joint):
            calls.append(joint)
            return eager(spec, joint)

        monkeypatch.setattr(verify, "ne_residual", counted)
        spec = fc.two_region_spec(1.0)
        result = fc.solve_two_region(spec)
        assert calls == []
        first = result.ne_residual
        assert result.ne_residual == first
        assert len(calls) == 1
        assert first == eager(spec, result.strategy)

    def test_result_rejects_an_infeasible_strategy(self):
        spec = fc.two_region_spec(1.0)
        duals = fc.interior_equilibrium(spec).duals
        joint = fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(fc.ValidationError):
            _result(spec, joint, "interior")

    def test_result_rejects_an_unknown_location(self):
        spec = fc.two_region_spec(1.0)
        out = fc.interior_equilibrium(spec)
        with pytest.raises(fc.ValidationError, match="unknown location tag 'inside'"):
            _result(spec, out.strategy, "inside")


class TestCheckBytes:
    """The bytes of the checks over a seeded set of points, pinned so that a
    change to kkt_residual, ne_residual, duals_from_gradients or
    iterated_best_response that moves any value shows.

    For each m = 1..8 the set holds 12 box specs, each checked at its
    solve_spec equilibrium (interior or boundary) and at a random feasible
    point, which is no equilibrium.
    """

    @staticmethod
    def checks(spec, joint, duals):
        own = duals_from_gradients(spec, joint)
        values = [fc.kkt_residual(spec, joint, own), fc.ne_residual(spec, joint)]
        if duals is not None:
            values.append(fc.kkt_residual(spec, joint, duals))
        return (np.array(values + [own.lambda_a, own.lambda_b]).tobytes(),
                own.nu_a.tobytes(), own.nu_b.tobytes())

    def test_residuals_and_gradient_duals(self):
        rng = np.random.default_rng(20261019)
        digests = []
        locations = Counter()
        for m in range(1, 9):
            for _ in range(12):
                spec = random_spec(rng, m)
                result = fc.solve_spec(spec)
                locations[result.location] += 1
                digests.append(self.checks(spec, result.strategy, result.duals))
                digests.append(self.checks(spec, random_feasible_point(rng, spec), None))
        assert locations == {"interior": 39, "boundary": 55, "A1": 1, "A2": 1}
        assert hashlib.sha256(repr(digests).encode()).hexdigest() == (
            "a5e80e32064e277110d78fac3bf168eebba4a6ad03d69453146876bcacf74217")

    def test_iterated_best_response(self):
        rng = np.random.default_rng(3)
        digests = []
        for spec in (fc.four_region_spec(1.0), fc.two_region_spec(45.0), random_spec(rng, 3)):
            result = fc.iterated_best_response(spec)
            digests.append(fingerprint(result) + (result.converged,))
        assert [d[5:] for d in digests] == [
            ("interior", 28, None, True), ("A2", 29, None, True), ("boundary", 31, None, True)]
        assert hashlib.sha256(repr(digests).encode()).hexdigest() == (
            "508cae55cdd64f89c4b39db9703fbad05f208c6439779966596b7c71d6f028fb")
