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
    # One cell spans a whole fleet, the widest cell a peak is rounded to.
    for na, nb in ((1, 1), (1, 7), (9, 1)):
        case = dict(bm1=100.0, bm2=50.0, bc1=1.0, bc2=2.0, e1=5.0, e2=5.0,
                    xa=10.0, xb=20.0, na=na, nb=nb)
        assert two_region_scan(**case) == naive_scan(**case)


def test_matches_brute_force_on_box_specs():
    rng = np.random.default_rng(82)
    for _ in range(30):
        case = random_case(rng)
        case["na"] = int(rng.integers(100, 400))
        case["nb"] = int(rng.integers(100, 400))
        assert two_region_scan(**case) == brute_force_scan(**case)


def log_uniform_case(rng, decades):
    """Small grids with every parameter log-uniform over +-decades, and
    a zero charging cost a tenth of the time."""
    def draw():
        return float(10.0 ** rng.uniform(-decades, decades))

    def cost():
        return 0.0 if rng.random() < 0.1 else draw()

    return dict(bm1=draw(), bm2=draw(), bc1=cost(), bc2=cost(), e1=draw(), e2=draw(),
                xa=draw(), xb=draw(), na=int(rng.integers(1, 41)), nb=int(rng.integers(1, 41)))


@pytest.mark.parametrize("decades", [30, 300])
def test_matches_brute_force_at_every_scale(decades):
    # Far from unit scale the peak search's iterates over- or underflow;
    # such columns must still reach the full scan's values.
    rng = np.random.default_rng(83 + decades)
    with np.errstate(all="ignore"):
        for _ in range(450):
            case = log_uniform_case(rng, decades)
            got = two_region_scan(**case)
            expected = brute_force_scan(**case)
            assert got[:2] == expected[:2], case
            assert got[2] == expected[2] or (np.isnan(got[2]) and np.isnan(expected[2])), case


def verify_grid_cases():
    """20 seeded grids as `fleetcontest verify` scans them: one fleet
    about half the other, at the CLI's step of a 2000th of the larger."""
    rng = np.random.default_rng(84)
    cases = []
    for _ in range(20):
        case = random_case(rng)
        big = float(rng.uniform(1000.0, 5000.0))
        small = big * float(rng.uniform(0.45, 0.55))
        xa, xb = (big, small) if rng.random() < 0.5 else (small, big)
        step = big / 2000  # the CLI's step
        case.update(xa=xa, xb=xb, na=round(xa / step), nb=round(xb / step))
        cases.append(case)
    return cases


def scan_grid(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb):
    """The scan's grid (za, rem_a, zb, rem_b), its payoff rounding bound
    and its payoff parameters, formed as two_region_scan forms them."""
    za = np.arange(na + 1) * (xa / na)
    zb = np.arange(nb + 1) * (xb / nb)
    scale = max(xa, xb) * (bm1 / e1 + bm2 / e2 + abs(bc1) + abs(bc2))
    tol = 64.0 * np.finfo(float).eps * scale
    return (za, xa - za, zb, xb - zb), tol, (bm1, bm2, bc1, bc2, e1, e2)


def test_peaks_certify_every_column_on_verify_grids(monkeypatch):
    # On the grids `fleetcontest verify` scans, the window around each
    # peak certifies it, so no column of either player's best responses
    # falls back to the full scan.
    formed = []
    scanned = []
    found = _kernels._best_response_values
    maxima = _kernels._column_maxima

    def recording(*args):
        formed.append(args[2].size)
        return found(*args)

    def scanning(*args):
        scanned.append(args[2].size)
        return maxima(*args)

    monkeypatch.setattr(_kernels, "_best_response_values", recording)
    monkeypatch.setattr(_kernels, "_column_maxima", scanning)
    for case in verify_grid_cases():
        two_region_scan(**case)
    assert len(formed) == 20
    assert scanned == []


def test_regret_pass_scans_no_row_whole_on_verify_grids(monkeypatch):
    # On the same grids every row's window is certified, so the regret
    # pass makes one pass over the windows, visits at most
    # 2 * _WINDOW + 1 cells per row of a, and scans no row whole.
    calls = []
    found = _kernels._payoffs

    def recording(grid, ia, ib, *params):
        calls.append((grid, np.broadcast(ia, ib).size))
        return found(grid, ia, ib, *params)

    monkeypatch.setattr(_kernels, "_payoffs", recording)
    test_peaks_certify_every_column_on_verify_grids(monkeypatch)
    # calls keeps each scan's grid alive, so its id names that scan.
    cells = {}
    passes = {}
    rows = {}
    for grid, count in calls:
        cells[id(grid)] = cells.get(id(grid), 0) + count
        passes[id(grid)] = passes.get(id(grid), 0) + 1
        rows[id(grid)] = grid[0].size
    assert len(cells) == 20
    assert all(count == 1 for count in passes.values())
    assert all(cells[k] <= (2 * _kernels._WINDOW + 1) * rows[k] for k in cells)


def test_best_responses_of_a_span_the_windows_of_b_on_verify_grids(monkeypatch):
    # a's best-response values are formed over at most the columns from
    # the first cell of b's windows to the last, the span the regret
    # pass reads.
    formed = []
    found = _kernels._best_response_values

    def recording(*args):
        formed.append(args[2].size)
        return found(*args)

    monkeypatch.setattr(_kernels, "_best_response_values", recording)
    for case in verify_grid_cases():
        formed.clear()
        two_region_scan(**case)
        (za, rem_a, zb, rem_b), _, params = scan_grid(**case)
        peak = _kernels._peaks(zb, rem_b, za, rem_a, *params)
        first = max(peak.min() - _kernels._WINDOW, 0)
        last = min(peak.max() + _kernels._WINDOW, case["nb"])
        assert len(formed) == 1
        assert formed[0] <= last - first + 1


@pytest.mark.parametrize("case, expected", [
    (dict(bm1=0.002096900204086986, bm2=0.005926062584702359, bc1=0.0, bc2=0.0,
          e1=0.06071359031057972, e2=0.18963363933168978,
          xa=11.947072115328027, xb=0.018198709563248996, na=48, nb=271),
     (13, 93, 1.786347957235385e-07)),
    (dict(bm1=7627.096086414264, bm2=77.39624554600309,
          bc1=3.1933583791704197e-06, bc2=0.17235945672510644,
          e1=4.587656486044541, e2=0.013361812538495223,
          xa=2989.423286378751, xb=22.149917210155692, na=157, nb=205),
     (156, 183, 0.46609870787480645)),
])
def test_minimum_beyond_the_window_of_a_certified_peak(case, expected):
    # b's peak is certified, yet its window's edge does not rise above
    # the bound, so the minimum lies further along the row.
    result = two_region_scan(**case)
    assert result == brute_force_scan(**case)
    assert result == expected


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
    # A window around the first-order peak alone misses the maxima here
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
    # With _BLOCK = 1 each row that is scanned whole is a block of its
    # own.
    monkeypatch.setattr(_kernels, "_BLOCK", 1)
    assert two_region_scan(**FLAT) == brute_force_scan(**FLAT)


def test_whole_row_spans_bound_memory():
    # The flat case on a finer grid: no peak of b is certified, so every
    # row is scanned whole and the pass visits every cell, in blocks of
    # _BLOCK rows.
    tracemalloc.start()
    try:
        result = two_region_scan(**dict(FLAT, na=1000, nb=2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (144, 14, 0.0)
    assert peak < 32 * 2**20


def best_response_grids(kind):
    """Ten seeded scan cases of one kind: box parameters, parameters
    log-uniform over +-6 decades, or FLAT's, on seeded grid sizes."""
    rng = np.random.default_rng(85)
    cases = []
    for _ in range(10):
        if kind == "box":
            case = random_case(rng)
        elif kind == "six decades":
            case = log_uniform_case(rng, 6)
        else:
            case = dict(FLAT)
        case.update(na=int(rng.integers(20, 300)), nb=int(rng.integers(20, 300)))
        cases.append(case)
    return cases


@pytest.mark.parametrize("kind", ["box", "six decades", "flat"])
def test_best_response_values_do_not_depend_on_the_columns_passed(kind):
    # A column's value is the exact maximum of its computed payoffs, so
    # passing a contiguous sub-span of the columns, which may move the
    # peaks through the Newton slack of the span's first column, gives
    # the same bits.
    rng = np.random.default_rng(86)
    for case in best_response_grids(kind):
        (za, rem_a, zb, rem_b), tol, params = scan_grid(**case)
        for own, rem, other, rem_other in ((za, rem_a, zb, rem_b), (zb, rem_b, za, rem_a)):
            whole = _kernels._best_response_values(own, rem, other, rem_other, tol, *params)
            for _ in range(10):
                lo, hi = np.sort(rng.choice(other.size + 1, size=2, replace=False))
                part = _kernels._best_response_values(own, rem, other[lo:hi], rem_other[lo:hi],
                                                      tol, *params)
                assert part.tobytes() == whole[lo:hi].tobytes(), (case, lo, hi)
