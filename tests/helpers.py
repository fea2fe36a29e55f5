"""Random instance builders shared across the test modules.

Specs are drawn from the parameter box the verification oracles are
calibrated for: beta_m in [1e3, 2e5], beta_c in [0, 500], epsilon in
[10, 500], fleets in [100, 5000]. Every test passes its own seeded
generator so failures replay exactly.
"""

import numpy as np

import fleetcontest as fc


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
