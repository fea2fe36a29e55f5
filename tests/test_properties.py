"""Invariances of the solved equilibrium, checked by Hypothesis.

Parameters are drawn log-uniformly over the calibrated box of
tests/helpers.py and beyond it: beta_m in [1e2, 1e6], beta_c zero or in
[0.1, 5e3], epsilon in [1, 5e3], fleets in [10, 5e4], for 1 to 8
regions. Every property holds to 1e-10 of the fleet concerned. Runs are
derandomized so that a failure replays exactly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcontest as fc

PROPERTY_RTOL = 1e-10

CHECKED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda exponent: 10.0**exponent)


@st.composite
def specs(draw):
    m = draw(st.integers(1, 8))
    regions = tuple(
        fc.RegionParams(
            beta_m=draw(log_uniform(1e2, 1e6)),
            beta_c=draw(st.one_of(st.just(0.0), log_uniform(0.1, 5e3))),
            epsilon=draw(log_uniform(1.0, 5e3)),
        )
        for _ in range(m)
    )
    return fc.GameSpec(regions, draw(log_uniform(10.0, 5e4)), draw(log_uniform(10.0, 5e4)))


def allocations(spec):
    strategy = fc.solve_spec(spec).strategy
    return strategy.alloc_a.values, strategy.alloc_b.values


def assert_close(got, expected, fleet):
    assert np.abs(got - expected).max() <= PROPERTY_RTOL * fleet


@CHECKED
@given(specs())
def test_swapping_the_fleets_swaps_the_players(spec):
    x_a, x_b = allocations(spec)
    swapped_a, swapped_b = allocations(spec.swapped())
    assert_close(swapped_a, x_b, spec.fleet_b)
    assert_close(swapped_b, x_a, spec.fleet_a)


@CHECKED
@given(specs(), st.data())
def test_permuting_the_regions_permutes_the_components(spec, data):
    order = data.draw(st.permutations(range(spec.m)))
    permuted = fc.GameSpec(tuple(spec.regions[j] for j in order), spec.fleet_a, spec.fleet_b)
    x_a, x_b = allocations(spec)
    permuted_a, permuted_b = allocations(permuted)
    assert_close(permuted_a, x_a[list(order)], spec.fleet_a)
    assert_close(permuted_b, x_b[list(order)], spec.fleet_b)


@CHECKED
@given(specs(), log_uniform(1e-3, 1e3))
def test_scaling_the_vehicle_unit_scales_the_allocations(spec, k):
    """beta_m, epsilon and both fleets times k: the allocations times k."""
    scaled = fc.GameSpec(
        tuple(fc.RegionParams(r.beta_m * k, r.beta_c, r.epsilon * k) for r in spec.regions),
        spec.fleet_a * k,
        spec.fleet_b * k,
    )
    x_a, x_b = allocations(spec)
    scaled_a, scaled_b = allocations(scaled)
    assert_close(scaled_a, k * x_a, scaled.fleet_a)
    assert_close(scaled_b, k * x_b, scaled.fleet_b)


@CHECKED
@given(specs(), log_uniform(1e-3, 1e3))
def test_scaling_the_currency_leaves_the_allocations(spec, k):
    """beta_m and beta_c times k: the same allocations."""
    scaled = fc.GameSpec(
        tuple(fc.RegionParams(r.beta_m * k, r.beta_c * k, r.epsilon) for r in spec.regions),
        spec.fleet_a,
        spec.fleet_b,
    )
    x_a, x_b = allocations(spec)
    scaled_a, scaled_b = allocations(scaled)
    assert_close(scaled_a, x_a, spec.fleet_a)
    assert_close(scaled_b, x_b, spec.fleet_b)


@CHECKED
@given(specs(), st.integers(1, 2**20))
def test_a_common_charging_cost_leaves_the_allocations(spec, c):
    """The same c added to every beta_c: the same allocations.

    beta_c is rounded to a multiple of 2**-10 first, so that beta_c + c
    is exact and any difference is the solver's own.
    """
    on_grid = fc.GameSpec(
        tuple(fc.RegionParams(r.beta_m, round(r.beta_c * 1024.0) / 1024.0, r.epsilon)
              for r in spec.regions),
        spec.fleet_a,
        spec.fleet_b,
    )
    shifted = fc.GameSpec(
        tuple(fc.RegionParams(r.beta_m, r.beta_c + c, r.epsilon) for r in on_grid.regions),
        spec.fleet_a,
        spec.fleet_b,
    )
    x_a, x_b = allocations(on_grid)
    shifted_a, shifted_b = allocations(shifted)
    assert_close(shifted_a, x_a, spec.fleet_a)
    assert_close(shifted_b, x_b, spec.fleet_b)
