"""Mass-balance equation and the interior equilibrium construction."""

import math

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import interior
from fleetcontest.experiments import _FLEET
from fleetcontest.game import stack_specs
from fleetcontest.interior import BALANCE_RTOL, _balance, _balance_terms
from helpers import BRACKET_OUT_OF_RANGE, random_spec


def single_region_spec():
    return fc.GameSpec(
        regions=(fc.RegionParams(beta_m=4.0, beta_c=1.5, epsilon=1.0),),
        fleet_a=1.0,
        fleet_b=1.0,
    )


def twin_region_spec():
    region = fc.RegionParams(beta_m=1000.0, beta_c=12.0, epsilon=37.0)
    return fc.GameSpec(regions=(region, region), fleet_a=210.0, fleet_b=340.0)


class TestMassBalance:
    def test_hand_value_below_offset(self):
        # beta_m=4, eps=1, offset 3, t=2: disc = 16 + 16 = 32,
        # kappa = (4 + sqrt(32)) / 2, minus fleets and eps gives 2*sqrt(2) - 1.
        spec = single_region_spec()
        value = fc.mass_balance(spec, offsets=np.array([3.0]), t=2.0)
        assert value == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, rel=1e-14)

    def test_hand_value_negative_t(self):
        # t=-1: disc = 16 + 64 = 80, kappa = (4 + sqrt(80)) / 8.
        spec = single_region_spec()
        value = fc.mass_balance(spec, offsets=np.array([3.0]), t=-1.0)
        assert value == pytest.approx((4.0 + math.sqrt(80.0)) / 8.0 - 3.0, rel=1e-14)

    def test_derivative_hand_value(self):
        spec = single_region_spec()
        deriv = fc.mass_balance_derivative(spec, offsets=np.array([3.0]), t=2.0)
        assert deriv == pytest.approx(2.0 + 3.0 / math.sqrt(2.0), rel=1e-14)

    def test_strictly_increasing_left_of_offset(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            offsets = 2.0 * spec.beta_c
            edge = float(offsets.min())
            ts = np.sort(edge - np.exp(rng.uniform(-6.0, 8.0, size=8)))
            values = [fc.mass_balance(spec, offsets, t) for t in ts]
            assert all(a < b for a, b in zip(values, values[1:]))
            for t in ts:
                assert fc.mass_balance_derivative(spec, offsets, t) > 0.0

    def test_domain_error_at_pole_and_beyond_edge(self):
        # The pole sits at the offset; the domain edge is where the
        # discriminant 16 + 16 * (3 - t) hits zero, at t = 4.
        spec = single_region_spec()
        offsets = np.array([3.0])
        with pytest.raises(fc.DomainError):
            fc.mass_balance(spec, offsets, 3.0)
        with pytest.raises(fc.DomainError):
            fc.mass_balance(spec, offsets, 5.0)
        with pytest.raises(fc.DomainError):
            fc.mass_balance_derivative(spec, offsets, 3.0)
        with pytest.raises(fc.DomainError):
            fc.mass_balance_derivative(spec, offsets, 4.0)

    def test_kernel_matches_public_functions(self):
        """The unchecked kernel, fed the root find's gap form, gives the public values."""
        rng = np.random.default_rng(15)
        for m in range(1, 9):
            for _ in range(25):
                spec = random_spec(rng, m=m)
                offsets = 2.0 * spec.beta_c
                pole = float(offsets.min())
                t = pole - float(np.exp(rng.uniform(-6.0, 8.0)))
                terms = _balance_terms(spec.beta_m, spec.eps)
                kappa, total, slope = _balance(terms, (offsets - pole) + (pole - t))
                assert total == float(kappa.sum())
                mass = spec.fleet_a + spec.fleet_b + float(spec.eps.sum())
                assert abs(total - mass - fc.mass_balance(spec, offsets, t)) <= 1e-14 * total
                assert slope == pytest.approx(
                    fc.mass_balance_derivative(spec, offsets, t), rel=1e-14)

    def test_rejects_nonfinite_t_and_bad_offsets(self):
        spec = single_region_spec()
        with pytest.raises(fc.ValidationError):
            fc.mass_balance(spec, np.array([3.0]), float("nan"))
        with pytest.raises(fc.ValidationError):
            fc.mass_balance(spec, np.array([3.0, 4.0]), 1.0)
        with pytest.raises(fc.ValidationError, match="offsets must be finite"):
            fc.mass_balance(spec, np.array([float("inf")]), 1.0)

    def test_a_slightly_negative_discriminant_clamps_to_the_edge(self):
        """At t just beyond the domain edge (t = 28 here) the discriminant is
        about -5e-5, inside the clamp window [-1e-12 * beta_m**2, 0) =
        [-1e-4, 0): its square root counts as 0, so the region mass is
        beta_m / (2 gap)."""
        spec = fc.GameSpec((fc.RegionParams(1e4, 1.5, 100.0),), 10.0, 20.0)
        t = 28.000000000012502
        value = fc.mass_balance(spec, [3.0], t)
        assert value == pytest.approx(1e4 / (2.0 * (3.0 - t)) - 130.0, rel=1e-12)


class TestMultiplierSum:
    def test_root_satisfies_balance(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            root = fc.interior_equilibrium(spec).trace.multiplier_sum
            mass = spec.fleet_a + spec.fleet_b + float(spec.eps.sum())
            assert abs(fc.mass_balance(spec, 2.0 * spec.beta_c, root)) <= 1e-10 * mass
            assert root < 2.0 * spec.beta_c.min()

    def test_twin_region_closed_form(self):
        """Identical regions split evenly, which pins the root in closed form."""
        spec = twin_region_spec()
        total = spec.fleet_a + spec.fleet_b + 2.0 * 37.0
        expected = 2.0 * 12.0 - 2.0 * 1000.0 * (total + 2.0 * 37.0) / total ** 2
        assert fc.interior_equilibrium(spec).trace.multiplier_sum == pytest.approx(
            expected, rel=1e-12)


def _evaluations(spec):
    return fc.interior_equilibrium(spec).trace.iterations


def _scaled(spec, factor):
    """spec with beta_m, epsilon and both fleets multiplied by factor."""
    return fc.GameSpec(
        regions=tuple(
            fc.RegionParams(r.beta_m * factor, r.beta_c, r.epsilon * factor)
            for r in spec.regions
        ),
        fleet_a=spec.fleet_a * factor,
        fleet_b=spec.fleet_b * factor,
    )


ROW_KERNELS = ("_balance_row", "_contest_row")
ARRAY_KERNELS = ("_balance", "_contests")


def counted_kernels(monkeypatch, names=ROW_KERNELS + ARRAY_KERNELS) -> list:
    """Hooks the named interior kernels. Returns a list that gets the name
    of each hooked call that returns; a row kernel's call that raises, and
    so is redone by the array kernel, is not counted."""
    calls = []
    for name in names:
        def counted(*args, kernel=getattr(interior, name), name=name):
            out = kernel(*args)
            calls.append(name)
            return out

        monkeypatch.setattr(interior, name, counted)
    return calls


class TestRootFind:
    def test_iterations_count_every_balance_evaluation(self, monkeypatch):
        calls = counted_kernels(monkeypatch, ("_balance", "_balance_row"))
        out = fc.interior_equilibrium(fc.two_region_spec(1.0))
        assert out.trace.iterations == len(calls)
        assert len(calls) > 0

    def test_gap_far_below_the_pole(self):
        """One cheap region against two very expensive ones.

        The root sits 0.6 below a pole at 1e8, where t itself resolves
        gaps only to 1.5e-8; the balance still closes because the root
        find works in the gap.
        """
        spec = fc.GameSpec(
            regions=(
                fc.RegionParams(2000.0, 5e7, 10.0),
                fc.RegionParams(1e5, 5e9, 100.0),
                fc.RegionParams(3e5, 8e9, 200.0),
            ),
            fleet_a=1000.0,
            fleet_b=2000.0,
        )
        out = fc.interior_equilibrium(spec)
        assert out.trace.iterations <= 12
        mass = spec.fleet_a + spec.fleet_b + float(spec.eps.sum())
        assert abs(out.trace.balance_residual) <= BALANCE_RTOL * mass
        # The expensive regions sit ~1e10 from the pole, so their masses
        # barely move with the gap; the cheap region holds the rest, which
        # fixes its gap in closed form.
        bm, eps = spec.beta_m[1:], spec.eps[1:]
        shift = 2.0 * spec.beta_c[1:] - 1e8
        far = (bm + np.sqrt(bm * bm + 4.0 * bm * eps * shift)) / (2.0 * shift)
        np.testing.assert_allclose(out.trace.region_mass[1:], far, rtol=1e-9)
        rest = mass - float(far.sum())
        assert out.trace.region_mass[0] == pytest.approx(rest, rel=1e-12)
        gap = 2000.0 * (rest + 10.0) / rest**2
        assert 1e8 - out.trace.multiplier_sum == pytest.approx(gap, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 4.0, 8.0, 12.0, 16.0, 20.0])
    def test_four_regions_in_units_scaled_by_1e5(self, alpha):
        base = fc.interior_equilibrium(fc.four_region_spec(alpha)).trace
        big = fc.interior_equilibrium(_scaled(fc.four_region_spec(alpha), 1e5)).trace
        assert big.iterations <= 12
        assert big.multiplier_sum == pytest.approx(base.multiplier_sum, rel=1e-12)
        np.testing.assert_allclose(big.region_mass, 1e5 * base.region_mass, rtol=1e-12)

    def test_at_most_twelve_evaluations_on_case_study_specs(self):
        specs = (
            [fc.four_region_spec(a) for a in np.arange(1.0, 20.001, 0.25)]
            + [fc.two_region_spec(a) for a in np.arange(1.0, 50.001, 0.25)]
            + [_FLEET.spec(b) for b in np.arange(200.0, 4000.001, 20.0)]
        )
        assert max(_evaluations(spec) for spec in specs) <= 12

    def test_evaluations_bounded_on_random_specs(self):
        rng = np.random.default_rng(16)
        counts = [_evaluations(random_spec(rng, m=int(rng.integers(1, 9)))) for _ in range(2000)]
        assert max(counts) <= 50


class TestInteriorEquilibrium:
    def test_reference_two_region_values(self):
        spec = fc.two_region_spec(1.0)
        out = fc.interior_equilibrium(spec)
        assert out.is_interior
        assert out.not_interior is None
        np.testing.assert_allclose(
            out.strategy.alloc_a.values,
            [222.5621675181248, 777.43783248187515], rtol=1e-10)
        np.testing.assert_allclose(
            out.strategy.alloc_b.values,
            [452.96371574535692, 1547.0362842546433], rtol=1e-10)
        assert out.trace.multiplier_sum == pytest.approx(-30.950029525470512, rel=1e-12)
        assert out.duals.lambda_a == pytest.approx(-22.17896601608664, rel=1e-12)
        assert out.duals.lambda_b == pytest.approx(-8.771063509383874, rel=1e-12)
        np.testing.assert_array_equal(out.duals.nu_a, [0.0, 0.0])

    def test_multiplier_sum_splits_into_player_multipliers(self):
        spec = fc.two_region_spec(1.0)
        out = fc.interior_equilibrium(spec)
        lam_sum = out.duals.lambda_a + out.duals.lambda_b
        assert lam_sum == pytest.approx(out.trace.multiplier_sum, rel=1e-12)

    def test_twin_region_even_split(self):
        spec = twin_region_spec()
        out = fc.interior_equilibrium(spec)
        np.testing.assert_allclose(out.strategy.alloc_a.values, [105.0, 105.0], rtol=1e-12)
        np.testing.assert_allclose(out.strategy.alloc_b.values, [170.0, 170.0], rtol=1e-12)

    def test_gradients_equalized_across_regions(self):
        """At an interior point each player's payoff slope is flat across regions."""
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(200):
            spec = random_spec(rng, m=int(rng.integers(2, 5)))
            out = fc.interior_equilibrium(spec)
            if not out.is_interior:
                continue
            checked += 1
            for player in fc.PLAYERS:
                grad = fc.utility_gradient(spec, player, out.strategy)
                scale = 1.0 + float(np.abs(grad).max())
                assert grad.max() - grad.min() <= 1e-8 * scale
                # the multiplier is the negated payoff slope at the optimum
                lam = getattr(out.duals, f"lambda_{player}")
                assert abs(grad[0] + lam) <= 1e-7 * (1.0 + abs(lam))
        assert checked >= 50

    def test_allocations_sum_to_fleets(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            spec = random_spec(rng, m=int(rng.integers(1, 5)))
            out = fc.interior_equilibrium(spec)
            if not out.is_interior:
                continue
            assert out.strategy.alloc_a.values.sum() == pytest.approx(spec.fleet_a, rel=1e-12)
            assert out.strategy.alloc_b.values.sum() == pytest.approx(spec.fleet_b, rel=1e-12)
            assert np.all(out.strategy.alloc_a.values > 0)
            assert np.all(out.strategy.alloc_b.values > 0)

    def test_not_interior_reports_offending_components(self):
        spec = fc.two_region_spec(45.0)
        out = fc.interior_equilibrium(spec)
        assert not out.is_interior
        assert out.strategy is None
        assert out.duals is None
        assert out.not_interior.items
        assert out.not_interior.strictly_outside
        players = {player for player, _, _ in out.not_interior.items}
        assert players <= set(fc.PLAYERS)


def contests(bm, eps, cost, mu_a, mu_b):
    """interior._contests for one spec: its allocations (2 x m), fleet sums
    and Jacobian. A player is active where its allocation is above 0.0."""
    terms = interior._contest_terms(bm[None], eps[None], cost[None])
    return [field[0] for field in interior._contests(terms, np.array([[[mu_a], [mu_b]]]))]


def solve_prices(spec, lambda_a, lambda_b):
    """interior._solve_prices for one spec, started from the given multipliers:
    its allocations (2 x m), multipliers and kernel evaluations."""
    x, lambdas, nu, evaluations, _ = interior._solve_prices(
        stack_specs([spec]), [(lambda_a, lambda_b)])
    return x[0], fc.DualCertificate(*lambdas[0], *nu[0]), evaluations[0]


class TestContests:
    def test_each_region_is_a_one_region_equilibrium(self):
        """At fixed prices every active holding equalizes its own marginal
        payoff with its price, and no inactive player gains from entering."""
        rng = np.random.default_rng(31)
        for _ in range(500):
            m = int(rng.integers(1, 9))
            bm = 10.0 ** rng.uniform(1.0, 6.0, m)
            eps = 10.0 ** rng.uniform(0.0, 3.0, m)
            cost = np.concatenate([[0.0], (bm / eps * 10.0 ** rng.uniform(-4.0, 1.0, m))[1:]])
            mu_a, mu_b = (float(bm[0] / eps[0]) * 10.0 ** rng.uniform(-4.0, 1.0, 2)).tolist()
            x, *_ = contests(bm, eps, cost, mu_a, mu_b)
            price = np.add.outer((mu_a, mu_b), cost)
            total = x[0] + x[1] + eps
            gain = bm * (x[::-1] + eps) / total**2
            assert np.all(x >= 0.0)
            active = x > 0.0
            assert np.all(np.abs(gain - price)[active] <= 1e-12 * price[active])
            assert np.all((gain - price)[~active] <= 1e-12 * price[~active])

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(200):
            spec = random_spec(rng, int(rng.integers(1, 9)))
            cost = spec.beta_c - spec.beta_c.min()
            levels = 10.0 ** rng.uniform(-1.0, 2.0, 2)
            x, _, jacobian = contests(spec.beta_m, spec.eps, cost, *levels)
            active = x > 0.0
            jac = np.reshape(jacobian, (2, 2))
            for k in range(2):
                h = 1e-6 * levels[k]
                up, down = levels.copy(), levels.copy()
                up[k] += h
                down[k] -= h
                x_up = contests(spec.beta_m, spec.eps, cost, *up)[0]
                x_down = contests(spec.beta_m, spec.eps, cost, *down)[0]
                if not (np.array_equal(x_up > 0.0, active)
                        and np.array_equal(x_down > 0.0, active)):
                    continue  # A support change inside the stencil.
                fd = (x_up.sum(axis=1) - x_down.sum(axis=1)) / (2.0 * h)
                scale = np.abs(jac).max()
                assert np.abs(fd - jac[:, k]).max() <= 1e-6 * scale
                checked += 1
        assert checked >= 300


class TestPriceSolve:
    def test_a_row_with_non_finite_multipliers_gets_the_certificate_error(self):
        """A row that meets BALANCE_RTOL but carries a NaN multiplier fails as a
        numerical error that names the multiplier."""
        x = np.array([[4.0, 6.0], [5.0, 15.0]])
        error = interior._rejection("price solve", np.array([10.0, 20.0]), x,
                                    np.array([math.nan, 1.0]), np.zeros((2, 2)))
        assert isinstance(error, fc.NumericalError)
        assert str(error) == "price solve multiplier lambda_a is not finite: nan"

    def test_the_rule_and_its_words_on_a_mixed_stack(self):
        """_accepted flags each row of a stack, and _rejection names the first
        check a row fails: the multipliers in the order lambda_a, lambda_b,
        nu_a, nu_b, then player a's fleet sum, then b's."""
        fleets = np.array([[8.0, 16.0]] * 5)
        x = np.array([[[3.0, 5.0], [6.0, 10.0]]] * 5)
        lambdas = np.ones((5, 2))
        nu = np.zeros((5, 2, 2))
        lambdas[1, 1] = math.nan  # Row 1 also carries an infinite nu_b and misses a's fleet.
        nu[1:3, 1, 1] = math.inf
        x[[1, 3, 4], 0, 1] = 6.0  # Player a sums to 9 of 8, an error of 0.125.
        x[4, 1, 0] = 8.0  # Player b sums to 18 of 16, also 0.125.
        miss = "fleet-sum error 0.125 exceeds tolerance 1e-11"
        expected = [
            None,
            "price solve multiplier lambda_b is not finite: nan",
            "price solve multiplier nu_b is not finite: [0.0, inf]",
            f"price solve leaves player 'a' infeasible: {miss}",
            f"price solve leaves player 'a' infeasible: {miss}",
        ]
        errors = [interior._rejection("price solve", *row) for row in zip(fleets, x, lambdas, nu)]
        assert [None if e is None else str(e) for e in errors] == expected
        assert all(e is None or isinstance(e, fc.NumericalError) for e in errors)
        accepted = interior._accepted(fleets, x, lambdas, nu)
        assert accepted.tolist() == [e is None for e in errors]

    def test_evaluations_bounded_on_box_boundary_specs(self):
        rng = np.random.default_rng(33)
        counts = []
        while len(counts) < 200:
            spec = random_spec(rng, int(rng.integers(2, 9)))
            outcome = fc.interior_equilibrium(spec)
            if outcome.is_interior:
                continue
            _, _, evaluations = solve_prices(
                spec, outcome.trace.lambda_a, outcome.trace.lambda_b)
            counts.append(evaluations)
        assert max(counts) <= 20

    def test_start_far_from_the_levels(self):
        """Multipliers far off in either direction still reach the equilibrium."""
        spec = fc.two_region_spec(45.0)
        expected = fc.solve_spec(spec)
        for lambda_a, lambda_b in ((1e6, 1e6), (-1e6, -1e6), (1e6, -1e6), (0.0, 0.0)):
            x, duals, _ = solve_prices(spec, lambda_a, lambda_b)
            np.testing.assert_allclose(x[0], expected.strategy.alloc_a.values, rtol=0, atol=1e-9)
            np.testing.assert_allclose(x[1], expected.strategy.alloc_b.values, rtol=0, atol=1e-9)
            assert duals.lambda_a == pytest.approx(expected.duals.lambda_a, rel=1e-12)

    def test_iterations_count_every_contest_evaluation(self, monkeypatch):
        """A boundary solve's iterations are its _contests and _contest_row
        calls: the price solve makes no kernel call that it does not count."""
        calls = counted_kernels(monkeypatch, ("_contests", "_contest_row"))
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 280:
            spec = random_spec(rng, int(rng.integers(2, 9)))
            calls.clear()
            result = fc.solve_spec(spec)
            if result.location == "interior":
                assert calls == []
                continue
            assert result.iterations == len(calls) > 0
            checked += 1


def row_specs(rng, m: int, decades, count: int) -> list:
    """count specs of m regions from the box (decades None), or with every
    parameter log-uniform over 10**+-decades around the box's centres and
    a tenth of the charging costs zero."""
    if decades is None:
        return [random_spec(rng, m) for _ in range(count)]

    def draw(centre, size):
        return (centre * 10.0 ** rng.uniform(-decades, decades, size)).tolist()

    return [fc.GameSpec(tuple(map(fc.RegionParams, draw(1e4, m),
                                  [c * (rng.random() < 0.9) for c in draw(100.0, m)],
                                  draw(100.0, m))), *draw(1000.0, 2))
            for _ in range(count)]


def bits(*values) -> bytes:
    """The bytes of values as one float array."""
    return np.array(values, dtype=float).tobytes()


def tried(monkeypatch, name: str, specs: list) -> list:
    """The arguments of every call of the array kernel name while
    solve_batch solves specs: each call's terms, and its gaps or levels,
    which the searches try around each row's root."""
    calls = []
    kernel = getattr(interior, name)

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    with monkeypatch.context() as patched:
        patched.setattr(interior, name, recorded)
        fc.solve_batch(specs)
    return calls


class TestRowKernels:
    """The row kernels give the array kernels' bits on one-row stacks of
    any region count, and the solve picks them by the row count alone."""

    @pytest.mark.parametrize("decades", [None, 6, 30])
    def test_balance_row_gives_balances_bits(self, decades, monkeypatch):
        """At every gap the root find tries on 20-row stacks of m = 1..16
        regions, and at each scaled by up to a decade either way, row by row:
        numpy sums 8 terms and more pairwise. No such gap makes Python raise."""
        rng = np.random.default_rng(41)
        compared = 0
        for m in range(1, 17):
            for terms, gaps in tried(monkeypatch, "_balance", row_specs(rng, m, decades, 20)):
                for scaled in (gaps, gaps * 10.0 ** rng.uniform(-1.0, 1.0, (len(gaps), 1))):
                    with np.errstate(all="ignore"):
                        kappa, totals, slopes = _balance(terms, scaled)
                    for i, row in enumerate(scaled.tolist()):
                        kappa_row, total, slope = interior._balance_row(
                            [*(a[i].tolist() for a in terms), row], 0.0)
                        assert bits(kappa_row) == kappa[i].tobytes()
                        assert bits(total, slope) == bits(totals[i], slopes[i])
                        assert bits(total) == kappa[i].sum().tobytes()
                        compared += 1
        assert compared >= 1200

    @pytest.mark.parametrize("decades", [None, 6, 30])
    def test_contest_row_gives_the_contests_and_jacobians_bits(self, decades, monkeypatch):
        """At every pair of water levels the price Newton tries on 20-row
        stacks of m = 1..16 regions, and at each scaled by up to a decade
        either way, row by row. No such pair makes Python raise."""
        rng = np.random.default_rng(42)
        compared = 0
        for m in range(1, 17):
            for terms, mu in tried(monkeypatch, "_contests", row_specs(rng, m, decades, 20)):
                for scaled in (mu, mu * 10.0 ** rng.uniform(-1.0, 1.0, (len(mu), 2, 1))):
                    with np.errstate(all="ignore"):
                        x, fleet_sums, jacobians = interior._contests(terms, scaled)
                    for i, row in enumerate(scaled[:, :, 0].tolist()):
                        x_row, sums, jacobian = interior._contest_row(
                            [a[i, 0].tolist() for a in terms], row)
                        assert bits(x_row) == x[i].tobytes()
                        assert bits(sums) == bits(fleet_sums[i]) == x[i].sum(axis=1).tobytes()
                        assert bits(jacobian) == bits(jacobians[i])
                        compared += 1
        assert compared >= 1200

    @pytest.mark.parametrize("spec", BRACKET_OUT_OF_RANGE.values(), ids=BRACKET_OUT_OF_RANGE.keys())
    def test_a_one_row_solve_redoes_what_python_cannot_evaluate(self, spec, monkeypatch):
        """The bracket's gap is zero, where Python raises and numpy gives inf:
        _balance redoes the row's evaluation, and the solve raises the words
        of the spec's row in a batch."""
        batch = fc.solve_batch([spec, fc.two_region_spec(3.0)])[0]
        calls = counted_kernels(monkeypatch)
        with pytest.raises(fc.NumericalError) as error:
            fc.solve_spec(spec)
        assert "_balance" in calls
        assert str(error.value) == str(batch)

    def test_a_short_row_calls_no_array_kernel(self, monkeypatch):
        """One spec at a time, m = 1..12."""
        rng = np.random.default_rng(43)
        calls = counted_kernels(monkeypatch)
        for m in range(1, 13):
            for _ in range(10):
                fc.solve_spec(random_spec(rng, m))
        assert set(calls) == set(ROW_KERNELS)

    def test_two_rows_call_no_row_kernel(self, monkeypatch):
        """Two boundary specs solved together, so that both reach the price
        solve."""
        rng = np.random.default_rng(44)
        pairs = []
        while len(pairs) < 6:
            spec = random_spec(rng, len(pairs) + 2)
            if fc.solve_spec(spec).location != "interior":
                pairs.append([spec, spec])
        calls = counted_kernels(monkeypatch)
        for pair in pairs:
            fc.solve_batch(pair)
        assert set(calls) == set(ARRAY_KERNELS)
