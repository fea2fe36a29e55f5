"""The grid oracle's joint two-region scan, in numpy.

Each player's payoff is strictly concave along its own grid axis, so its
best-response value for every opponent cell comes from a binary search
instead of a joint pass. The regret at b's best-response cell of each of
a's rows seeds an upper bound on the smallest max-regret. b's regret is
convex along its own axis, so in each row only a span of cells around
that best response can stay within the bound; one fused pass over those
spans, in chunks of bounded size, then computes the regrets. This is the
package's one kernel; fleetcontest.KERNEL_BACKEND names it "python".
"""

import numpy as np

#: Rows per pass of the full scan of a column whose peak is not certified; a
#: chunk of the regret pass holds at most half as many rows of cells.
_BLOCK = 16

#: Half-width of the window searched exhaustively around each binary-search peak,
#: and the first half-width of the regret spans around b's peaks.
_WINDOW = 2


def _payoff(own, rem, other, rem_other, bm1, bm2, bc1, bc2, e1, e2):
    d1 = (own + other) + e1
    d2 = (rem + rem_other) + e2
    return own * (bm1 / d1 - bc1) + rem * (bm2 / d2 - bc2)


def _best_response_values(own, rem, other, rem_other, tol, *params):
    """Largest payoff over the own grid axis, for each opponent cell.

    A binary search on the sign of the forward difference finds each
    peak; both sides of the difference come from one payoff call per
    step. The exact maximum over a window around the peak absorbs
    rounding near it. Concavity makes that maximum global when the
    payoff rises by more than twice the rounding bound tol into the
    window's left edge and falls by that much out of its right edge;
    columns where this does not hold get a full scan.

    Returns the values, the peaks and the mask of certified peaks. A
    certified peak lies within the window's half-width of the exact
    maximizer of the payoff.
    """
    n = own.size - 1

    peak = np.zeros(other.size, dtype=np.intp)
    back = np.array([[0], [1]])
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = np.minimum(peak + step, n)
        pair = cand - back
        u = _payoff(own[pair], rem[pair], other, rem_other, *params)
        peak = np.where(u[0] > u[1], cand, peak)
        step >>= 1

    offsets = np.arange(-_WINDOW, _WINDOW + 1)[:, None]
    index = np.clip(peak + offsets, 0, n)
    window = _payoff(own[index], rem[index], other, rem_other, *params)
    best = window.max(axis=0)
    certified = (peak - _WINDOW <= 0) | (window[1] > window[0] + 2.0 * tol)
    certified &= (peak + _WINDOW >= n) | (window[-2] > window[-1] + 2.0 * tol)
    cols = np.flatnonzero(~certified)
    if cols.size:
        best[cols] = -np.inf
        for lo in range(0, n + 1, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            u = _payoff(own[rows, None], rem[rows, None], other[cols], rem_other[cols], *params)
            best[cols] = np.maximum(best[cols], u.max(axis=0))
    return best, peak, certified


def _regrets(grid, ia, ib, bm1, bm2, bc1, bc2, e1, e2):
    """Both players' regrets at the cells (ia[k], ib[k]).

    Every cell's two regrets come from the same floating-point operations
    in the same order wherever the cell is visited, so equal cells give
    equal bits.
    """
    za, rem_a, zb, rem_b, br_a, br_b = grid
    own_a = za[ia]
    left_a = rem_a[ia]
    own_b = zb[ib]
    left_b = rem_b[ib]
    gain1 = own_a + own_b
    gain1 += e1
    np.divide(bm1, gain1, out=gain1)
    gain1 -= bc1
    gain2 = left_a + left_b
    gain2 += e2
    np.divide(bm2, gain2, out=gain2)
    gain2 -= bc2

    # a's regret: br_a - (za * gain1 + rem_a * gain2)
    own_a *= gain1
    left_a *= gain2
    own_a += left_a
    regret_a = np.subtract(br_a[ib], own_a, out=own_a)
    # b's regret: br_b - (zb * gain1 + rem_b * gain2), reusing the gain buffers
    gain1 *= own_b
    gain2 *= left_b
    gain1 += gain2
    regret_b = np.subtract(br_b[ia], gain1, out=gain1)
    return regret_a, regret_b


def two_region_scan(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb):
    """Return (ia, ib, eps) minimizing the larger unilateral grid regret.

    na and nb are cell counts per player, so the joint grid has
    (na + 1) * (nb + 1) points. Player a's region-1 mass at index ia is
    ia * xa / na. Ties resolve to the first point in row-major (ia, ib)
    order. The inputs obey GameSpec's checks (beta_m > 0, beta_c >= 0,
    epsilon > 0, fleets > 0), which make each payoff concave along its
    own axis.

    The smallest max-regret over the cells where b best responds to a
    row of a, eps0, bounds the result from above. In each row b's regret
    is convex along b's axis, so the cells that can reach eps0 form a
    span around b's certified peak. The span starts as the peak's window
    and doubles on each side until the regret at its edge exceeds eps0
    by more than four rounding bounds, which by convexity puts every
    cell beyond the edge above eps0. A row whose peak is not certified
    spans the whole row. Only the spans are scanned, so the result is
    that of the full scan bit for bit. They are scanned in chunks of
    whole spans, at most _BLOCK * (nb + 1) / 2 cells or one span, so
    memory stays bounded on large grids.
    """
    params = (bm1, bm2, bc1, bc2, e1, e2)
    za = np.arange(na + 1) * (xa / na)
    zb = np.arange(nb + 1) * (xb / nb)
    rem_a = xa - za
    rem_b = xb - zb

    # A bound on the rounding error of one payoff: every term it sums is
    # at most fleet * (beta_m / epsilon + |beta_c|) in size.
    scale = max(xa, xb) * (bm1 / e1 + bm2 / e2 + abs(bc1) + abs(bc2))
    tol = 64.0 * np.finfo(float).eps * scale
    br_a, _, _ = _best_response_values(za, rem_a, zb, rem_b, tol, *params)
    br_b, peak, certified = _best_response_values(zb, rem_b, za, rem_a, tol, *params)
    grid = (za, rem_a, zb, rem_b, br_a, br_b)

    rows = np.arange(na + 1)
    seed_a, seed_b = _regrets(grid, rows, peak, *params)
    bound = float(np.maximum(seed_a, seed_b).min()) + 4.0 * tol

    edges = []
    for sign, end in ((-1, 0), (1, nb)):
        edge = np.where(certified, np.clip(peak + sign * _WINDOW, 0, nb), end)
        live = np.flatnonzero(edge != end)
        width = _WINDOW
        while live.size:
            # A row widens unless its edge rises above the bound; a NaN does not.
            live = live[~(_regrets(grid, live, edge[live], *params)[1] > bound)]
            width *= 2
            edge[live] = np.clip(peak[live] + sign * width, 0, nb)
            live = live[edge[live] != end]
        edges.append(edge)
    first, last = edges

    # The spans laid end to end: row ia's cells end before position
    # ends[ia], and the cell at position k in row ia has ib = k + shift[ia].
    counts = last - first + 1
    ends = np.cumsum(counts)
    shift = first - (ends - counts)
    cap = _BLOCK * (nb + 1) // 2
    best_eps = np.inf
    best_ia = 0
    best_ib = 0
    lo = 0
    while lo <= na:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, start + cap, side="right")), lo + 1)
        ia = np.repeat(rows[lo:hi], counts[lo:hi])
        ib = np.arange(start, int(ends[hi - 1]))
        ib += np.repeat(shift[lo:hi], counts[lo:hi])
        regret_a, regret_b = _regrets(grid, ia, ib, *params)
        np.maximum(regret_a, regret_b, out=regret_a)
        k = int(np.argmin(regret_a))
        value = float(regret_a[k])
        if value < best_eps:
            best_eps = value
            best_ia = int(ia[k])
            best_ib = int(ib[k])
        lo = hi
    return best_ia, best_ib, best_eps
