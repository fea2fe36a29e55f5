"""Parameter containers, payoffs, and gradients."""

import math

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import game
from helpers import random_feasible_point, random_spec


def two_region(alpha=1.0):
    return fc.two_region_spec(alpha)


class TestRegionParams:
    def test_fields_are_kept(self):
        r = fc.RegionParams(beta_m=35000.0, beta_c=10.0, epsilon=100.0)
        assert r.beta_m == 35000.0
        assert r.beta_c == 10.0
        assert r.epsilon == 100.0

    def test_zero_charging_cost_is_allowed(self):
        r = fc.RegionParams(beta_m=1.0, beta_c=0.0, epsilon=1.0)
        assert r.beta_c == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(beta_m=0.0, beta_c=0.0, epsilon=1.0),
        dict(beta_m=-3.0, beta_c=0.0, epsilon=1.0),
        dict(beta_m=1.0, beta_c=-0.1, epsilon=1.0),
        dict(beta_m=1.0, beta_c=0.0, epsilon=0.0),
        dict(beta_m=float("nan"), beta_c=0.0, epsilon=1.0),
        dict(beta_m=float("inf"), beta_c=0.0, epsilon=1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(fc.ValidationError):
            fc.RegionParams(**kwargs)

    def test_from_raw_market_quantities(self):
        """requests * profit gives the revenue scale, price * demand the cost rate."""
        r = fc.region_from_raw(requests=1200.0, profit_per_request=25.0,
                               energy_price=0.4, charging_demand=30.0,
                               epsilon=50.0)
        assert r.beta_m == pytest.approx(30000.0)
        assert r.beta_c == pytest.approx(12.0)
        assert r.epsilon == 50.0

    def test_from_raw_rejects_nonpositive_requests(self):
        with pytest.raises(fc.ValidationError):
            fc.region_from_raw(requests=0.0, profit_per_request=25.0,
                               energy_price=0.4, charging_demand=30.0,
                               epsilon=50.0)
        with pytest.raises(fc.ValidationError):
            fc.region_from_raw(requests=10.0, profit_per_request=-1.0,
                               energy_price=0.4, charging_demand=30.0,
                               epsilon=50.0)


class TestGameSpec:
    def test_arrays_mirror_regions(self):
        spec = two_region()
        np.testing.assert_array_equal(spec.beta_m, [35000.0, 120000.0])
        np.testing.assert_array_equal(spec.beta_c, [10.0, 10.0])
        np.testing.assert_array_equal(spec.eps, [100.0, 300.0])
        assert spec.m == 2
        assert spec.fleet_of("a") == 1000.0
        assert spec.fleet_of("b") == 2000.0

    def test_parameter_arrays_are_readonly(self):
        spec = two_region()
        with pytest.raises(ValueError):
            spec.beta_m[0] = 1.0

    def test_swapped_exchanges_fleets(self):
        spec = two_region()
        sw = spec.swapped()
        assert sw.fleet_a == spec.fleet_b
        assert sw.fleet_b == spec.fleet_a
        assert sw.regions == spec.regions
        assert sw.swapped() == spec

    def test_rejects_empty_or_bad_fleets(self):
        region = fc.RegionParams(1.0, 0.0, 1.0)
        with pytest.raises(fc.ValidationError):
            fc.GameSpec(regions=(), fleet_a=1.0, fleet_b=1.0)
        with pytest.raises(fc.ValidationError):
            fc.GameSpec(regions=(region,), fleet_a=0.0, fleet_b=1.0)
        with pytest.raises(fc.ValidationError):
            fc.GameSpec(regions=(region,), fleet_a=1.0, fleet_b=float("nan"))

    def test_rejects_regions_that_are_not_region_params(self):
        with pytest.raises(fc.ValidationError, match="regions must be RegionParams, got tuple"):
            fc.GameSpec(regions=((1.0, 0.0, 1.0),), fleet_a=1.0, fleet_b=1.0)

    def test_fleet_of_unknown_player(self):
        with pytest.raises(fc.ValidationError):
            two_region().fleet_of("c")

    def test_opponent(self):
        assert fc.opponent("a") == "b"
        assert fc.opponent("b") == "a"
        with pytest.raises(fc.ValidationError):
            fc.opponent("z")


class TestAllocation:
    def test_rejects_bad_owner_and_values(self):
        with pytest.raises(fc.ValidationError):
            fc.Allocation(values=np.array([1.0]), owner="x")
        with pytest.raises(fc.ValidationError):
            fc.Allocation(values=np.array([]), owner="a")
        with pytest.raises(fc.ValidationError):
            fc.Allocation(values=np.array([1.0, float("nan")]), owner="a")

    def test_values_are_flattened_and_frozen(self):
        alloc = fc.Allocation(values=np.array([[1.0, 2.0]]), owner="a")
        assert alloc.values.shape == (2,)
        with pytest.raises(ValueError):
            alloc.values[0] = 5.0

    def test_joint_from_arrays(self):
        joint = fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0])
        assert joint.m == 2
        np.testing.assert_array_equal(joint.of("a").values, [1.0, 2.0])
        np.testing.assert_array_equal(joint.of("b").values, [3.0, 4.0])
        with pytest.raises(fc.ValidationError):
            fc.joint_from_arrays([1.0], [2.0, 3.0])

    def test_joint_strategy_rejects_swapped_owners(self):
        with pytest.raises(fc.ValidationError,
                           match="joint strategy needs alloc_a owned by 'a' and alloc_b by 'b'"):
            fc.JointStrategy(alloc_a=fc.Allocation(np.array([1.0]), "b"),
                             alloc_b=fc.Allocation(np.array([1.0]), "a"))


class TestJointRows:
    """game._joint_rows builds a stack's strategies in one step, with
    Allocation's checks and words, and values equal to the one-row build."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(28)
        return rng.uniform(0.0, 1000.0, (5, 2, 3))

    def test_a_non_finite_row_gets_the_allocation_message(self):
        x = self.rows()
        x[3, 1, 2] = float("inf")
        with pytest.raises(fc.ValidationError) as built:
            game._joint_rows(x)
        with pytest.raises(fc.ValidationError) as alone:
            fc.joint_from_arrays(*x[3])
        assert str(built.value) == str(alone.value) == "allocation components must be finite"

    def test_no_region_gets_the_allocation_message(self):
        with pytest.raises(fc.ValidationError,
                           match="^allocation must have at least one component$"):
            game._joint_rows(np.zeros((3, 2, 0)))

    def test_each_row_is_the_one_row_build(self):
        x = self.rows()
        for joint, row in zip(game._joint_rows(x), x, strict=True):
            alone = fc.joint_from_arrays(*row)
            assert isinstance(joint, fc.JointStrategy) and joint.m == 3
            for player in fc.PLAYERS:
                values = joint.of(player).values
                assert joint.of(player).owner == player
                assert values.dtype == float and values.shape == (3,)
                assert values.tobytes() == alone.of(player).values.tobytes()
                with pytest.raises(ValueError):
                    values[0] = 1.0

    def test_writing_to_the_source_moves_no_built_strategy(self):
        x = self.rows()
        before = x.copy()
        joints = game._joint_rows(x)
        x[:] = -1.0
        for joint, row in zip(joints, before, strict=True):
            assert joint.alloc_a.values.tobytes() == row[0].tobytes()
            assert joint.alloc_b.values.tobytes() == row[1].tobytes()


class TestDualCertificate:
    def test_rejects_negative_slack(self):
        with pytest.raises(fc.ValidationError):
            fc.DualCertificate(lambda_a=0.0, lambda_b=0.0,
                               nu_a=np.array([-1e-3, 0.0]),
                               nu_b=np.array([0.0, 0.0]))

    def test_rejects_non_finite_slack(self):
        with pytest.raises(fc.ValidationError, match="nu_a must be finite"):
            fc.DualCertificate(lambda_a=0.0, lambda_b=0.0,
                               nu_a=np.array([float("inf"), 0.0]),
                               nu_b=np.array([0.0, 0.0]))


def bits(value) -> bytes:
    """A double's bytes, which tell apart the signs of zeros and NaNs."""
    return np.float64(value).tobytes()


class TestNumpyOrderSum:
    """game._add adds a list of floats with np.add.reduce's bits."""

    def test_random_rows_of_every_length(self):
        rng = np.random.default_rng(104)
        for n in range(1, 301):
            for _ in range(5):
                row = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
                assert bits(game._add(row.tolist())) == bits(np.add.reduce(row)), n

    def test_rows_with_signed_zeros_infinities_and_nan(self):
        """The NaN is the one arithmetic makes (inf - inf, as numpy's 0/0), so
        a row holds one NaN payload however its infinities meet."""
        specials = [0.0, -0.0, math.inf, -math.inf, math.inf - math.inf]
        rng = np.random.default_rng(105)
        with np.errstate(invalid="ignore"):
            for n in range(1, 301):
                for _ in range(5):
                    row = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 30.0, n)
                    for i in rng.integers(0, n, int(rng.integers(1, 4))):
                        row[i] = specials[rng.integers(len(specials))]
                    assert bits(game._add(row.tolist())) == bits(np.add.reduce(row)), n
                for zeros in (np.full(n, -0.0), rng.choice([0.0, -0.0], n)):
                    assert bits(game._add(zeros.tolist())) == bits(np.add.reduce(zeros)), n

    def test_a_zero_divisor_gives_numpys_quotient(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in (1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, math.inf - math.inf):
                for b in (0.0, -0.0, 2.0):
                    assert bits(game._divide(a, b)) == bits(np.divide(a, b)), (a, b)


def test_is_feasible_accepts_exact_split():
    spec = two_region()
    assert fc.is_feasible(spec, fc.Allocation(np.array([400.0, 600.0]), "a"))
    assert fc.is_feasible(spec, fc.Allocation(np.array([900.0, 1100.0]), "b"))


def test_is_feasible_rejects_wrong_total_or_negative():
    spec = two_region()
    assert not fc.is_feasible(spec, fc.Allocation(np.array([400.0, 601.0]), "a"))
    assert not fc.is_feasible(spec, fc.Allocation(np.array([-1.0, 1001.0]), "a"))
    with pytest.raises(fc.ValidationError):
        fc.is_feasible(spec, fc.Allocation(np.array([1.0, 2.0, 3.0]), "a"))


def test_is_feasible_sum_tolerance_scales_with_the_fleet():
    regions = two_region().regions
    large = fc.GameSpec(regions=regions, fleet_a=1e8, fleet_b=2e8)
    assert fc.is_feasible(large, fc.Allocation(np.array([4e7, 6e7 + 5e-5]), "a"))
    assert not fc.is_feasible(large, fc.Allocation(np.array([4e7, 6e7 + 1e-2]), "a"))
    small = fc.GameSpec(regions=regions, fleet_a=1.0, fleet_b=2.0)
    assert fc.is_feasible(small, fc.Allocation(np.array([0.25, 0.75]), "a"))
    assert not fc.is_feasible(small, fc.Allocation(np.array([0.25, 0.75 + 1e-10]), "a"))


def test_market_share_and_profit_loss_by_hand():
    region = fc.RegionParams(beta_m=35000.0, beta_c=10.0, epsilon=100.0)
    own, rival = 222.6, 453.0
    denom = own + rival + 100.0
    assert fc.market_share(region, own, rival) == pytest.approx(35000.0 * own / denom)
    assert fc.profit_loss(region, own, rival) == pytest.approx(35000.0 * 100.0 / denom)


def test_market_share_and_profit_loss_reject_negative_allocations():
    region = fc.RegionParams(beta_m=35000.0, beta_c=10.0, epsilon=100.0)
    with pytest.raises(fc.ValidationError, match="allocations must be >= 0"):
        fc.market_share(region, -1.0, 453.0)
    with pytest.raises(fc.ValidationError, match="allocations must be >= 0"):
        fc.profit_loss(region, 222.6, -1.0)


def test_revenue_splits_conserve_the_region_scale():
    """Shares of both players plus the abandonment loss add back to beta_m."""
    rng = np.random.default_rng(103)
    for _ in range(200):
        spec = random_spec(rng, m=int(rng.integers(1, 5)))
        joint = random_feasible_point(rng, spec)
        for j, region in enumerate(spec.regions):
            xa = joint.alloc_a.values[j]
            xb = joint.alloc_b.values[j]
            total = (fc.market_share(region, xa, xb)
                     + fc.market_share(region, xb, xa)
                     + fc.profit_loss(region, xa, xb))
            assert abs(total - region.beta_m) <= 1e-12 * region.beta_m


def test_utility_at_reference_equilibrium():
    spec = two_region(1.0)
    joint = fc.joint_from_arrays(
        [222.5621675181248, 777.43783248187515],
        [452.96371574535692, 1547.0362842546433],
    )
    assert fc.utility(spec, "a", joint) == pytest.approx(35591.515545305432, rel=1e-12)
    assert fc.utility(spec, "b", joint) == pytest.approx(71178.384068094849, rel=1e-12)


def test_utility_requires_feasible_strategies():
    spec = two_region()
    bad = fc.joint_from_arrays([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(fc.ValidationError):
        fc.utility(spec, "a", bad)


def test_utility_gradient_matches_central_differences():
    rng = np.random.default_rng(101)
    h_scale = 1e-5
    for _ in range(50):
        spec = random_spec(rng, m=int(rng.integers(1, 5)))
        joint = random_feasible_point(rng, spec)
        own = joint.alloc_a.values.copy()
        rival = joint.alloc_b.values
        grad = fc.utility_gradient(spec, "a", joint)
        for j in range(spec.m):
            h = h_scale * (1.0 + abs(own[j]))
            up, dn = own.copy(), own.copy()
            up[j] += h
            dn[j] = max(dn[j] - h, 0.0)
            fd = (fc.raw_utility(spec, up, rival) - fc.raw_utility(spec, dn, rival)) / (up[j] - dn[j])
            assert abs(fd - grad[j]) <= 1e-6 * (1.0 + abs(grad[j]))


def test_utility_gradient_component_formula():
    spec = two_region(1.0)
    joint = fc.joint_from_arrays([200.0, 800.0], [500.0, 1500.0])
    grad = fc.utility_gradient(spec, "b", joint)
    t1 = 200.0 + 500.0 + 100.0
    expected = 35000.0 * (200.0 + 100.0) / t1 ** 2 - 10.0
    assert grad[0] == pytest.approx(expected, rel=1e-14)


def test_utility_gradient_rejects_negative_entries():
    spec = two_region()
    joint = fc.JointStrategy(
        alloc_a=fc.Allocation(np.array([-1.0, 1001.0]), "a"),
        alloc_b=fc.Allocation(np.array([900.0, 1100.0]), "b"),
    )
    with pytest.raises(fc.ValidationError):
        fc.utility_gradient(spec, "a", joint)


def test_utility_gradient_rejects_a_wrong_length():
    joint = fc.joint_from_arrays([400.0, 300.0, 300.0], [900.0, 600.0, 500.0])
    with pytest.raises(fc.ValidationError,
                       match="allocation length does not match region count"):
        fc.utility_gradient(two_region(), "a", joint)
