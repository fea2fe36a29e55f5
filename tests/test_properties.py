"""Invariances of the solved equilibrium, checked by Hypothesis.

Parameters are drawn log-uniformly over the calibrated box of
tests/helpers.py and beyond it: beta_m in [1e2, 1e6], beta_c zero or in
[0.1, 5e3], epsilon in [1, 5e3], fleets in [10, 5e4], for 1 to 8
regions. Every property holds to 1e-10 of the fleet concerned. Runs are
derandomized so that a failure replays exactly. A batch solve must
give each spec's solo solve bit for bit, also over the whole double
range, and the pruned grid scan the full grid's brute force, over six
decades around the kernel's box.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fleetcontest as fc
from fleetcontest._kernels import two_region_scan
from helpers import fingerprint, solo_fingerprint
from test_kernels import brute_force_scan

PROPERTY_RTOL = 1e-10

CHECKED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda exponent: 10.0**exponent)


@st.composite
def specs(draw, m=None):
    if m is None:
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


@CHECKED
@given(specs(), st.data(), log_uniform(1e-3, 1e3))
def test_raising_a_charging_price_never_raises_that_regions_holding(spec, data, delta):
    """beta_c of one region j plus delta: x_a,j + x_b,j does not rise."""
    j = data.draw(st.integers(0, spec.m - 1))
    regions = list(spec.regions)
    regions[j] = fc.RegionParams(regions[j].beta_m, regions[j].beta_c + delta, regions[j].epsilon)
    dearer = fc.GameSpec(tuple(regions), spec.fleet_a, spec.fleet_b)
    before, after = (result.strategy.alloc_a.values[j] + result.strategy.alloc_b.values[j]
                     for result in fc.solve_batch([spec, dearer]))
    assert after - before <= PROPERTY_RTOL * (spec.fleet_a + spec.fleet_b)


def whole_range_specs(m):
    """Specs of m regions whose parameters are 10**e, e uniform over [-300,
    300], drawn as one list (much faster to draw than one float each); a
    beta_c whose e is below -150, a quarter of them, is zero instead."""
    def build(e):
        p = [10.0**x for x in e]
        regions = tuple(fc.RegionParams(p[j], p[m + j] if e[m + j] >= -150.0 else 0.0, p[2 * m + j])
                        for j in range(m))
        return fc.GameSpec(regions, p[-2], p[-1])

    return st.lists(st.floats(-300.0, 300.0), min_size=3 * m + 2, max_size=3 * m + 2).map(build)


@st.composite
def batches(draw, make=specs):
    """One to six specs from make that share a region count of 1 to 8."""
    m = draw(st.integers(1, 8))
    return draw(st.lists(make(m), min_size=1, max_size=6))


@CHECKED
@given(batches(), batches(whole_range_specs))
def test_a_batch_solves_each_spec_as_alone(batch, whole_range_batch):
    """Also over the whole double range, where most rows fail: each entry
    is a result or the error its own row raised, and no numpy warning
    escapes even when warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (batch, whole_range_batch):
            results = fc.solve_batch(rows)
            assert len(results) == len(rows)
            for spec, result in zip(rows, results):
                assert isinstance(result, (fc.EquilibriumResult, fc.FleetContestError))
                assert fingerprint(result) == solo_fingerprint(spec)


def test_an_empty_batch_solves_to_nothing():
    assert fc.solve_batch([]) == []


def test_a_batch_needs_one_region_count():
    with pytest.raises(fc.ShapeError):
        fc.solve_batch([fc.two_region_spec(1.0), fc.four_region_spec(1.0)])


def around(lo, hi, decades=6.0):
    """Log-uniform over [lo, hi] widened by the given decades at each end."""
    return log_uniform(lo * 10.0**-decades, hi * 10.0**decades)


@st.composite
def grid_cases(draw):
    """Grid-kernel arguments over six decades around the box of test_kernels.random_case."""
    return dict(
        bm1=draw(around(1e3, 2e5)),
        bm2=draw(around(1e3, 2e5)),
        bc1=draw(st.one_of(st.just(0.0), around(0.1, 500.0))),
        bc2=draw(st.one_of(st.just(0.0), around(0.1, 500.0))),
        e1=draw(around(10.0, 500.0)),
        e2=draw(around(10.0, 500.0)),
        xa=draw(around(100.0, 5000.0)),
        xb=draw(around(100.0, 5000.0)),
        na=draw(st.integers(1, 80)),
        nb=draw(st.integers(1, 80)),
    )


# The smallest max-regret, 8.1, is far above b's regret two cells off
# its peaks, so b's spans double twice on each side of six of the 17 rows.
WIDENING = dict(bm1=92679.13952147325, bm2=157775.0367221308, bc1=231.23465901806122,
                bc2=262.8926213680891, e1=285.1910809062327, e2=194.2675815167838,
                xa=2098.703339685668, xb=376.97045894346417, na=16, nb=69)


@CHECKED
@given(grid_cases())
@example(WIDENING)
@example(dict(WIDENING, na=3, nb=80))
@example(dict(WIDENING, na=80, nb=3))
def test_grid_scan_matches_the_full_grid(case):
    assert two_region_scan(**case) == brute_force_scan(**case)
