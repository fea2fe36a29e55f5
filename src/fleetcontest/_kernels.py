"""The grid oracle's joint two-region scan, in numpy.

Each player's payoff is strictly concave along its own grid axis, so its
best-response value for every opponent cell is the maximum over a few
cells around the peak that a Newton solve of the payoff's first-order
condition finds, instead of a joint pass. The regret at b's
best-response cell of each of a's rows seeds an upper bound on the
smallest max-regret. b's regret is convex along its own axis, so in a
row whose window around that best response rises above the bound at
both edges no other cell can reach it; every other row is scanned
whole. This is the package's one kernel; fleetcontest.KERNEL_BACKEND
names it "python".
"""

import numpy as np

#: Rows per pass of the full scan of a column whose peak is not certified, and
#: of the whole-row scan of the regret pass.
_BLOCK = 16

#: Half-width of the window searched exhaustively around each Newton peak, and
#: of the regret window around b's peaks.
_WINDOW = 2

#: Most Newton steps per peak search, a bound on the loop should some column's
#: iterates never settle; such a column keeps its last iterate, which the
#: window's certificate checks like any other.
_NEWTON_STEPS = 40


def _payoff(own, rem, other, rem_other, bm1, bm2, bc1, bc2, e1, e2):
    d1 = (own + other) + e1
    d2 = (rem + rem_other) + e2
    return own * (bm1 / d1 - bc1) + rem * (bm2 / d2 - bc2)


def _peaks(own, rem, other, rem_other, bm1, bm2, bc1, bc2, e1, e2):
    """The cell nearest each opponent column's continuous payoff maximizer.

    With p = other + e1 and q = rem_other + e2, the payoff's derivative
    vanishes where region j's mass is sqrt(beta_m_j * p_j / (beta_c_j + nu))
    for both regions at one level nu and the two masses sum to
    fleet + p + q. In y = 1 / sqrt(nu + min beta_c) the summed mass is
    (a_c + a_o / sqrt(1 + d y^2)) y, with a_j = sqrt(beta_m_j * p_j), c the
    cheaper region, o the other and d their price gap: concave and
    increasing from 0, so Newton's method from y = 0 rises to the root
    without overshooting, and its first step is the equal-price closed
    form. The steps stop once every column's summed mass is within a
    quarter cell of its target, or within its rounding if that is more.
    The derivative falls strictly along the own axis, so region 1's
    holding at the root, clipped to the fleet, is the maximizer. A column
    whose iterate is not finite gets peak 0; the window's certificate
    settles it either way.
    """
    # own runs 0, cell, 2 cell, ... and rem[0] is the whole fleet.
    n = own.size - 1
    cell = own[1]
    p = other + e1
    q = rem_other + e2
    total = (rem[0] + p) + q
    a1 = np.sqrt(bm1 * p)
    a2 = np.sqrt(bm2 * q)
    one_cheap = bc1 <= bc2
    a_c, a_o = (a1, a2) if one_cheap else (a2, a1)
    d = abs(bc1 - bc2)
    y = total / (a_c + a_o)
    # The target is the same in every column up to rounding, and the miss
    # cannot fall below a few ulps of it.
    slack = max(0.25 * cell, 16.0 * np.finfo(float).eps * total[0])
    for _ in range(_NEWTON_STEPS):
        g = 1.0 / np.sqrt(1.0 + d * (y * y))
        mass_c = a_c * y
        mass_o = a_o * g * y
        miss = mass_c + mass_o - total
        if not (np.abs(miss) >= slack).any():
            break
        y -= miss / (a_c + a_o * (g * g * g))
    z = ((mass_c if one_cheap else mass_o) - p) / cell
    return np.where(np.isfinite(z), np.clip(np.rint(z), 0, n), 0).astype(np.intp)


def _best_response_values(own, rem, other, rem_other, tol, *params):
    """Largest payoff over the own grid axis, for each opponent cell.

    _peaks finds each column's peak from the payoff's first-order
    condition. The exact maximum over a window around the peak absorbs
    the rounding of the peak and of the payoffs near it. Concavity makes
    that maximum global when the payoff rises by more than twice the
    rounding bound tol into the window's left edge and falls by that
    much out of its right edge; columns where this does not hold get a
    full scan, so the values never depend on the peak.

    Returns the values, the peaks and the mask of certified peaks. A
    certified peak lies within the window's half-width of the exact
    maximizer of the payoff.
    """
    n = own.size - 1
    peak = _peaks(own, rem, other, rem_other, *params)

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
    """Both players' regrets at the cells (ia, ib), index arrays that broadcast.

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
    u_a = own_a * gain1
    u_a += left_a * gain2
    regret_a = np.subtract(br_a[ib], u_a, out=u_a)
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
    is convex along b's axis, so when b's peak is certified and the
    regret at each edge of the window around it exceeds eps0 by more
    than four rounding bounds (or the edge is a grid end), no cell
    beyond the window can reach eps0. Every other row is scanned whole,
    _BLOCK rows at a time, so the result is that of the full scan bit
    for bit. A NaN at a window's edge does not rise above the bound, so
    its row is scanned whole; argmin finds a NaN first, so a NaN regret
    in any visited cell makes the scan return (0, 0, inf), as it does
    when no regret is finite.
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
    index = np.clip(peak[:, None] + np.arange(-_WINDOW, _WINDOW + 1), 0, nb)
    regret_a, regret_b = _regrets(grid, rows[:, None], index, *params)
    worst = np.maximum(regret_a, regret_b)
    # Column _WINDOW holds b's peaks, the cells that seed the bound.
    bound = float(worst[:, _WINDOW].min()) + 4.0 * tol
    certified = (certified & ((peak - _WINDOW <= 0) | (regret_b[:, 0] > bound))
                 & ((peak + _WINDOW >= nb) | (regret_b[:, -1] > bound)))
    pick = worst.argmin(axis=1)
    best = worst[rows, pick]
    best_ib = index[rows, pick]

    whole = np.flatnonzero(~certified)
    for lo in range(0, whole.size, _BLOCK):
        ia = whole[lo:lo + _BLOCK]
        regret_a, regret_b = _regrets(grid, ia[:, None], np.arange(nb + 1), *params)
        np.maximum(regret_a, regret_b, out=regret_a)
        pick = regret_a.argmin(axis=1)
        best[ia] = regret_a[np.arange(ia.size), pick]
        best_ib[ia] = pick

    k = int(np.argmin(best))
    if not best[k] < np.inf:
        return 0, 0, np.inf
    return k, int(best_ib[k]), float(best[k])
