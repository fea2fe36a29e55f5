"""Grid-scan kernel against a naive loop and a vectorised brute force."""

import tracemalloc

import numpy as np
import pytest

import fleetcontest as fc
from fleetcontest import _kernels
from fleetcontest._kernels import two_region_scan


def naive_scan(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb):
    """Plain triple-loop scan, written independently of the kernels."""
    sa = xa / na
    sb = xb / nb

    def pair(ia, ib):
        za = ia * sa
        zb = ib * sb
        d1 = (za + zb) + e1
        d2 = ((xa - za) + (xb - zb)) + e2
        gain1 = bm1 / d1 - bc1
        gain2 = bm2 / d2 - bc2
        u_a = za * gain1 + (xa - za) * gain2
        u_b = zb * gain1 + (xb - zb) * gain2
        return u_a, u_b

    best = None
    for ia in range(na + 1):
        for ib in range(nb + 1):
            u_a, u_b = pair(ia, ib)
            regret_a = max(pair(k, ib)[0] for k in range(na + 1)) - u_a
            regret_b = max(pair(ia, k)[1] for k in range(nb + 1)) - u_b
            eps = max(regret_a, regret_b)
            if best is None or eps < best[2]:
                best = (ia, ib, eps)
    return best


def brute_force_scan(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb, block=512):
    """Two full passes over the joint grid: maxima first, then regrets."""
    za_all = np.arange(na + 1) * (xa / na)
    zb = np.arange(nb + 1) * (xb / nb)
    rem_b = xb - zb

    def utilities(za):
        own_a = za[:, None]
        rem_a = (xa - za)[:, None]
        gain1 = bm1 / ((own_a + zb[None, :]) + e1) - bc1
        gain2 = bm2 / ((rem_a + rem_b[None, :]) + e2) - bc2
        return own_a * gain1 + rem_a * gain2, zb[None, :] * gain1 + rem_b[None, :] * gain2

    br_a = np.full(nb + 1, -np.inf)
    br_b = np.empty(na + 1)
    for lo in range(0, na + 1, block):
        u_a, u_b = utilities(za_all[lo:lo + block])
        np.maximum(br_a, u_a.max(axis=0), out=br_a)
        br_b[lo:lo + block] = u_b.max(axis=1)

    best = (0, 0, np.inf)
    for lo in range(0, na + 1, block):
        u_a, u_b = utilities(za_all[lo:lo + block])
        regret = np.maximum(br_a[None, :] - u_a, br_b[lo:lo + block, None] - u_b)
        flat = int(np.argmin(regret))
        if regret.flat[flat] < best[2]:
            best = (lo + flat // (nb + 1), flat % (nb + 1), float(regret.flat[flat]))
    return best


def spec_case(spec, na, nb):
    bm, bc, eps = spec.beta_m, spec.beta_c, spec.eps
    return dict(
        bm1=bm[0], bm2=bm[1], bc1=bc[0], bc2=bc[1], e1=eps[0], e2=eps[1],
        xa=spec.fleet_a, xb=spec.fleet_b, na=na, nb=nb,
    )


def random_case(rng):
    return dict(
        bm1=float(rng.uniform(1e3, 2e5)),
        bm2=float(rng.uniform(1e3, 2e5)),
        bc1=float(rng.uniform(0.0, 500.0)),
        bc2=float(rng.uniform(0.0, 500.0)),
        e1=float(rng.uniform(10.0, 500.0)),
        e2=float(rng.uniform(10.0, 500.0)),
        xa=float(rng.uniform(100.0, 5000.0)),
        xb=float(rng.uniform(100.0, 5000.0)),
        na=int(rng.integers(1, 14)),
        nb=int(rng.integers(1, 14)),
    )


def test_backend_is_reported():
    assert fc.KERNEL_BACKEND == "python"


def test_matches_naive_reference():
    rng = np.random.default_rng(8)
    for _ in range(40):
        case = random_case(rng)
        expected = naive_scan(**case)
        got = two_region_scan(**case)
        assert (got[0], got[1]) == (expected[0], expected[1])
        assert got[2] == expected[2]


def test_exact_tie_resolves_first_in_row_major_order():
    # Symmetric integer instance: the center point and its mirror images
    # give identical regrets, the scan must keep the first one.
    result = two_region_scan(8.0, 8.0, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 4, 4)
    assert result == (2, 2, 0.0)
    assert naive_scan(8.0, 8.0, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 4, 4) == (2, 2, 0.0)


def test_blocked_path_is_block_size_invariant(monkeypatch):
    rng = np.random.default_rng(81)
    for _ in range(10):
        case = random_case(rng)
        case["na"] = int(rng.integers(5, 14))
        monkeypatch.setattr(_kernels, "_BLOCK", 512)
        whole = two_region_scan(**case)
        monkeypatch.setattr(_kernels, "_BLOCK", 3)
        tiny = two_region_scan(**case)
        assert whole == tiny


def test_single_cell_grids():
    result = two_region_scan(100.0, 50.0, 1.0, 2.0, 5.0, 5.0, 10.0, 20.0, 1, 1)
    assert result[0] in (0, 1)
    assert result[1] in (0, 1)
    assert result[2] >= 0.0


def test_matches_brute_force_on_box_specs():
    rng = np.random.default_rng(82)
    for _ in range(30):
        case = random_case(rng)
        case["na"] = int(rng.integers(100, 400))
        case["nb"] = int(rng.integers(100, 400))
        assert two_region_scan(**case) == brute_force_scan(**case)


def test_matches_brute_force_with_best_responses_at_grid_ends():
    # At charging scale 45 both fleets sit entirely in region 1.
    case = spec_case(fc.two_region_spec(45.0), 500, 1000)
    result = two_region_scan(**case)
    assert result == brute_force_scan(**case)
    assert result[:2] == (500, 1000)


def test_matches_brute_force_on_exact_tie():
    for cells in (4, 400):
        case = dict(bm1=8.0, bm2=8.0, bc1=0.0, bc2=0.0, e1=1.0, e2=1.0,
                    xa=4.0, xb=4.0, na=cells, nb=cells)
        assert two_region_scan(**case) == brute_force_scan(**case)


#: beta_m is so small that rounding noise swamps the curvature, so the
#: computed payoffs are not unimodal.
FLAT = dict(
    bm1=1.315983480903408e-10, bm2=2.684150589770447e-10,
    bc1=5.427827079572237, bc2=5.427827079572244,
    e1=890.7994921040937, e2=33.96448942760579,
    xa=677.5806911994487, xb=336.66382083160374, na=87, nb=141,
)


def test_payoffs_flat_to_rounding_match_brute_force():
    # A window around the binary-search peak alone misses the maxima here
    # and reports a negative regret.
    assert two_region_scan(**FLAT) == brute_force_scan(**FLAT)


def test_row_blocks_bound_memory():
    case = spec_case(fc.two_region_spec(1.0), 200, 20_000)
    tracemalloc.start()
    try:
        two_region_scan(**case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_one_row_blocks_scan_whole_row_spans(monkeypatch):
    # With _BLOCK = 1 a whole-row span exceeds a chunk's cell budget and
    # must be scanned as a chunk of its own.
    monkeypatch.setattr(_kernels, "_BLOCK", 1)
    assert two_region_scan(**FLAT) == brute_force_scan(**FLAT)


def test_whole_row_spans_bound_memory():
    # The flat case on a finer grid: no peak of b is certified, so every
    # row's span is the whole row and the pass visits every cell, chunk
    # by chunk.
    tracemalloc.start()
    try:
        result = two_region_scan(**dict(FLAT, na=1000, nb=2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (144, 14, 0.0)
    assert peak < 32 * 2**20
