"""The grid oracle's joint two-region scan, in numpy.

Each player's payoff is strictly concave along its own grid axis, so its
best-response value for every opponent cell is the maximum over a few
cells around the peak that a Newton solve of the payoff's first-order
condition finds, instead of a joint pass. The scan finds b's peak for
each row of a first. a's best-response values are then formed only over
the span of b's windows around those peaks, the columns the regret pass
reads. One pass over the window cells forms the two regional gains once
and reads from them b's best-response values and both players' regrets.
The regret at b's best-response cell of each of a's rows seeds an upper
bound on the smallest max-regret. b's regret is convex along its own
axis, so in a row whose window around that best response rises above
the bound at both edges no other cell can reach it; every other row is
scanned whole, after a's values over the remaining columns. This is the
grid oracle's one kernel; fleetcontest.KERNEL_BACKEND names it "python".
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


def _certified(window, peak, n, tol):
    """Whether each column's window maximum is the maximum of its column.

    window holds the payoffs at peak - _WINDOW .. peak + _WINDOW, clipped
    to the grid 0 .. n, along its first axis. Concavity makes the window's
    maximum global when the payoff rises by more than twice the rounding
    bound tol into the window's left edge and falls by that much out of
    its right edge; a grid end needs no such step. A certified peak lies
    within the window's half-width of the exact maximizer of the payoff.
    """
    return (((peak - _WINDOW <= 0) | (window[1] > window[0] + 2.0 * tol))
            & ((peak + _WINDOW >= n) | (window[-2] > window[-1] + 2.0 * tol)))


def _column_maxima(own, rem, other, rem_other, *params):
    """Largest payoff over the whole own grid axis for each opponent cell,
    _BLOCK own cells at a time."""
    best = np.full(other.size, -np.inf)
    for lo in range(0, own.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        u = _payoff(own[rows, None], rem[rows, None], other, rem_other, *params)
        np.maximum(best, u.max(axis=0), out=best)
    return best


def _best_response_values(own, rem, other, rem_other, tol, *params):
    """Largest payoff over the own grid axis, for each opponent cell.

    _peaks finds each column's peak from the payoff's first-order
    condition. The exact maximum over a window around the peak absorbs
    the rounding of the peak and of the payoffs near it; columns whose
    window _certified does not certify get a full scan. Either way a
    column's value is the exact maximum of its computed payoffs, so it
    does not depend on the peak, nor on which other columns share the
    call.
    """
    n = own.size - 1
    peak = _peaks(own, rem, other, rem_other, *params)
    index = np.clip(peak + np.arange(-_WINDOW, _WINDOW + 1)[:, None], 0, n)
    window = _payoff(own[index], rem[index], other, rem_other, *params)
    best = window.max(axis=0)
    cols = np.flatnonzero(~_certified(window, peak, n, tol))
    if cols.size:
        best[cols] = _column_maxima(own, rem, other[cols], rem_other[cols], *params)
    return best


def _payoffs(grid, ia, ib, bm1, bm2, bc1, bc2, e1, e2):
    """Both players' payoffs at the cells (ia, ib), index arrays that broadcast.

    The two regional gains are formed once for both payoffs. Every cell's
    payoffs come from the same floating-point operations in the same
    order as _payoff's, wherever the cell is visited, so equal cells give
    equal bits.
    """
    za, rem_a, zb, rem_b = grid
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

    u_a = own_a * gain1
    u_a += left_a * gain2
    # b's payoff, reusing the gain buffers
    gain1 *= own_b
    gain2 *= left_b
    gain1 += gain2
    return u_a, gain1


def two_region_scan(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb):
    """Return (ia, ib, eps) minimizing the larger unilateral grid regret.

    na and nb are cell counts per player, so the joint grid has
    (na + 1) * (nb + 1) points. Player a's region-1 mass at index ia is
    ia * xa / na. Ties resolve to the first point in row-major (ia, ib)
    order. The inputs obey GameSpec's checks (beta_m > 0, beta_c >= 0,
    epsilon > 0, fleets > 0), which make each payoff concave along its
    own axis.

    The scan runs in three steps. First _peaks finds b's peak for each
    row of a. Then one pass over the window cells around those peaks
    forms both payoffs from one pair of regional gains; their maxima
    give b's best-response values where _certified certifies them, and
    every other row of a gets a full scan along b's axis. a's
    best-response values are formed only over the span of b's windows,
    or over every column if some row's peak of b is not certified. Last,
    both regrets over the windows follow from those values.

    The smallest max-regret over the cells where b best responds to a
    row of a, eps0, bounds the result from above. In each row b's regret
    is convex along b's axis, so when b's peak is certified and the
    regret at each edge of the window around it exceeds eps0 by more
    than four rounding bounds (or the edge is a grid end), no cell
    beyond the window can reach eps0. Every other row is scanned whole,
    _BLOCK rows at a time, after a's remaining best-response values are
    formed, so the result is that of the full scan bit for bit. A NaN at
    a window's edge does not rise above the bound, so its row is scanned
    whole; argmin finds a NaN first, so a NaN regret in any visited cell
    makes the scan return (0, 0, inf), as it does when no regret is
    finite.
    """
    params = (bm1, bm2, bc1, bc2, e1, e2)
    za = np.arange(na + 1) * (xa / na)
    zb = np.arange(nb + 1) * (xb / nb)
    rem_a = xa - za
    rem_b = xb - zb
    grid = (za, rem_a, zb, rem_b)

    # A bound on the rounding error of one payoff: every term it sums is
    # at most fleet * (beta_m / epsilon + |beta_c|) in size.
    scale = max(xa, xb) * (bm1 / e1 + bm2 / e2 + abs(bc1) + abs(bc2))
    tol = 64.0 * np.finfo(float).eps * scale

    # Row _WINDOW of the windows holds b's peaks, the cells that seed the
    # bound; column k is row k of a.
    rows = np.arange(na + 1)
    peak = _peaks(zb, rem_b, za, rem_a, *params)
    index = np.clip(peak + np.arange(-_WINDOW, _WINDOW + 1)[:, None], 0, nb)
    u_a, u_b = _payoffs(grid, rows, index, *params)

    br_b = u_b.max(axis=0)
    certified = _certified(u_b, peak, nb, tol)
    whole = np.flatnonzero(~certified)
    if whole.size:
        br_b[whole] = _column_maxima(zb, rem_b, za[whole], rem_a[whole], *params)
    # A row whose peak of b is not certified is scanned whole, and reads
    # a's values in every column.
    span = slice(0, nb + 1) if whole.size else slice(index[0].min(), index[-1].max() + 1)
    br_a = np.empty(nb + 1)
    br_a[span] = _best_response_values(za, rem_a, zb[span], rem_b[span], tol, *params)

    regret_a = np.subtract(br_a[index], u_a, out=u_a)
    regret_b = np.subtract(br_b, u_b, out=u_b)
    worst = np.maximum(regret_a, regret_b)
    bound = float(worst[_WINDOW].min()) + 4.0 * tol
    certified &= (((peak - _WINDOW <= 0) | (regret_b[0] > bound))
                  & ((peak + _WINDOW >= nb) | (regret_b[-1] > bound)))
    # Each row's smallest regret; a window row's cell is found only if the
    # row is returned. min gives argmin's value up to the sign of a zero,
    # which the argmin over the rows does not tell apart.
    best = worst.min(axis=0)
    best_ib = np.zeros(na + 1, dtype=np.intp)

    whole = np.flatnonzero(~certified)
    if whole.size and span.stop - span.start <= nb:
        rest = np.r_[:span.start, span.stop:nb + 1]
        br_a[rest] = _best_response_values(za, rem_a, zb[rest], rem_b[rest], tol, *params)
    cols = np.arange(nb + 1)
    for lo in range(0, whole.size, _BLOCK):
        ia = whole[lo:lo + _BLOCK]
        u_a, u_b = _payoffs(grid, ia[:, None], cols, *params)
        larger = np.subtract(br_a, u_a, out=u_a)
        np.maximum(larger, np.subtract(br_b[ia, None], u_b, out=u_b), out=larger)
        pick = larger.argmin(axis=1)
        best[ia] = larger[np.arange(ia.size), pick]
        best_ib[ia] = pick

    k = int(np.argmin(best))
    if not best[k] < np.inf:
        return 0, 0, np.inf
    if certified[k]:
        pick = int(worst[:, k].argmin())
        return k, int(index[pick, k]), float(worst[pick, k])
    return k, int(best_ib[k]), float(best[k])
