"""Random instance builders shared across the test modules.

Specs are drawn from the parameter box the verification oracles are
calibrated for: beta_m in [1e3, 2e5], beta_c in [0, 500], epsilon in
[10, 500], fleets in [100, 5000]. Every test passes its own seeded
generator so failures replay exactly.
"""

import math

import numpy as np

import fleetcontest as fc


#: Specs whose root-find bracket leaves the range of a double, because the
#: square of the total mass overflows or underflows, by test id.
BRACKET_OUT_OF_RANGE = {
    "square-overflows-1e154": fc.GameSpec(fc.two_region_spec(3.0).regions,
                                          fleet_a=1e154, fleet_b=1e154),
    "square-overflows-1e300": fc.GameSpec(fc.two_region_spec(3.0).regions,
                                          fleet_a=1e300, fleet_b=1e300),
    "square-underflows": fc.GameSpec((fc.RegionParams(1e4, 1.0, 1e-200),
                                      fc.RegionParams(2e4, 2.0, 1e-200)),
                                     fleet_a=1e-200, fleet_b=1e-200),
}


def random_spec(rng, m=2):
    regions = tuple(
        fc.RegionParams(
            beta_m=float(rng.uniform(1e3, 2e5)),
            beta_c=float(rng.uniform(0.0, 500.0)),
            epsilon=float(rng.uniform(10.0, 500.0)),
        )
        for _ in range(m)
    )
    return fc.GameSpec(
        regions=regions,
        fleet_a=float(rng.uniform(100.0, 5000.0)),
        fleet_b=float(rng.uniform(100.0, 5000.0)),
    )


def random_feasible_point(rng, spec):
    """Uniform Dirichlet split of each fleet, always exactly feasible."""
    x_a = rng.dirichlet(np.ones(spec.m)) * spec.fleet_a
    x_b = rng.dirichlet(np.ones(spec.m)) * spec.fleet_b
    return fc.joint_from_arrays(x_a, x_b)


def relative_kkt(spec, result):
    """kkt_residual of a result over the largest |payoff gradient| at it."""
    scale = max(
        float(np.abs(fc.raw_utility_gradient(
            spec, result.strategy.of(player).values,
            result.strategy.of(fc.opponent(player)).values)).max())
        for player in fc.PLAYERS
    )
    return fc.kkt_residual(spec, result.strategy, result.duals) / scale


def fingerprint(result):
    """The bytes of everything a solve returns, for bit-for-bit comparisons.

    An error gives its type and message instead.
    """
    if isinstance(result, fc.FleetContestError):
        return type(result).__name__, str(result)
    trace = result.trace
    return (
        result.strategy.alloc_a.values.tobytes(),
        result.strategy.alloc_b.values.tobytes(),
        np.array([result.duals.lambda_a, result.duals.lambda_b]).tobytes(),
        result.duals.nu_a.tobytes(),
        result.duals.nu_b.tobytes(),
        result.location,
        result.iterations,
        None if trace is None else (
            np.array([trace.multiplier_sum, trace.balance_residual]).tobytes(),
            trace.region_mass.tobytes(),
        ),
    )


def solo_solve(spec):
    """solve_spec(spec), or the error it raises."""
    try:
        return fc.solve_spec(spec)
    except fc.FleetContestError as exc:
        return exc


def solo_fingerprint(spec):
    """fingerprint of solve_spec(spec), or of the error it raises."""
    return fingerprint(solo_solve(spec))


def plain_filled(bm, y, cost, nu):
    """One evaluation of plain_water_fill, the one place it evaluates."""
    return np.maximum(0.0, np.sqrt(bm * y / (cost + nu)) - y)


def plain_water_fill(spec, y, target):
    """verify._water_fill as a plain geometric bisection that evaluates every
    midpoint: the reference the Newton-started fill must match bit for bit,
    errors included."""
    bm = spec.beta_m
    cheapest = int(spec.beta_c.argmin())
    cost = spec.beta_c - spec.beta_c[cheapest]

    def filled(nu):
        return plain_filled(bm, y, cost, nu)

    lo = float(bm[cheapest] * y[cheapest] / (y[cheapest] + target) ** 2)
    hi = float((bm / y - cost).max())
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if filled(mid).sum() > target:
            lo = mid
        else:
            hi = mid
    x = filled(lo)
    total = float(x.sum())
    if not abs(total - target) <= fc.verify.BR_SUM_RTOL * target:
        raise fc.NumericalError("best-response bisection missed its fleet-sum tolerance")
    return x * (target / total)
