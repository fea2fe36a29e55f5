"""Joint two-region grid scan.

Each player's payoff is strictly concave along its own grid axis, so its
best-response value for every opponent cell comes from a binary search
instead of a joint pass. One fused pass over blocks of player a's rows
then computes the regrets, so memory stays bounded on large grids.
"""

import numpy as np

_BLOCK = 16

#: Half-width of the window searched exhaustively around each binary-search peak.
_WINDOW = 2


def _payoff(own, rem, other, rem_other, bm1, bm2, bc1, bc2, e1, e2):
    d1 = (own + other) + e1
    d2 = (rem + rem_other) + e2
    return own * (bm1 / d1 - bc1) + rem * (bm2 / d2 - bc2)


def _best_response_values(own, rem, other, rem_other, tol, block, *params):
    """Largest payoff over the own grid axis, for each opponent cell.

    A binary search on the sign of the forward difference finds each
    peak, and the exact maximum over a window around it absorbs rounding
    near the peak. Concavity makes that maximum global when the payoff
    rises by more than twice the rounding bound tol into the window's
    left edge and falls by that much out of its right edge; columns
    where this does not hold get a full scan.
    """
    n = own.size - 1

    def at(index):
        return _payoff(own[index], rem[index], other, rem_other, *params)

    peak = np.zeros(other.size, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = np.minimum(peak + step, n)
        peak = np.where(at(cand) > at(cand - 1), cand, peak)
        step >>= 1

    offsets = np.arange(-_WINDOW, _WINDOW + 1)[:, None]
    window = at(np.clip(peak + offsets, 0, n))
    best = window.max(axis=0)
    certified = (peak - _WINDOW <= 0) | (window[1] > window[0] + 2.0 * tol)
    certified &= (peak + _WINDOW >= n) | (window[-2] > window[-1] + 2.0 * tol)
    cols = np.flatnonzero(~certified)
    if cols.size:
        best[cols] = -np.inf
        for lo in range(0, n + 1, block):
            rows = slice(lo, lo + block)
            u = _payoff(own[rows, None], rem[rows, None], other[cols], rem_other[cols], *params)
            best[cols] = np.maximum(best[cols], u.max(axis=0))
    return best


def two_region_scan(bm1, bm2, bc1, bc2, e1, e2, xa, xb, na, nb, block=_BLOCK):
    """Return (ia, ib, eps) minimizing the larger unilateral grid regret.

    na and nb are cell counts per player, so the joint grid has
    (na + 1) * (nb + 1) points. Player a's region-1 mass at index ia is
    ia * xa / na. Ties resolve to the first point in row-major (ia, ib)
    order. block is the number of a's rows per regret block. The inputs
    obey GameSpec's checks (beta_m > 0, beta_c >= 0, epsilon > 0, fleets
    > 0), which make each payoff concave along its own axis.
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
    br_a = _best_response_values(za, rem_a, zb, rem_b, tol, block, *params)
    br_b = _best_response_values(zb, rem_b, za, rem_a, tol, block, *params)

    buffers = np.empty((4, min(block, na + 1), nb + 1))
    best_eps = np.inf
    best_ia = 0
    best_ib = 0
    for lo in range(0, na + 1, block):
        hi = min(lo + block, na + 1)
        za_blk = za[lo:hi, None]
        ra_blk = rem_a[lo:hi, None]
        gain1, gain2, reg, t = buffers[:, :hi - lo]

        np.add(za_blk, zb, out=gain1)
        gain1 += e1
        np.divide(bm1, gain1, out=gain1)
        gain1 -= bc1
        np.add(ra_blk, rem_b, out=gain2)
        gain2 += e2
        np.divide(bm2, gain2, out=gain2)
        gain2 -= bc2

        # a's regret: br_a - (za * gain1 + rem_a * gain2)
        np.multiply(za_blk, gain1, out=reg)
        np.multiply(ra_blk, gain2, out=t)
        reg += t
        np.subtract(br_a, reg, out=reg)
        # b's regret: br_b - (zb * gain1 + rem_b * gain2), reusing the gain buffers
        gain1 *= zb
        gain2 *= rem_b
        gain1 += gain2
        np.subtract(br_b[lo:hi, None], gain1, out=gain1)
        np.maximum(reg, gain1, out=reg)

        flat = int(np.argmin(reg))
        value = float(reg.flat[flat])
        if value < best_eps:
            best_eps = value
            best_ia = lo + flat // (nb + 1)
            best_ib = flat % (nb + 1)
    return best_ia, best_ib, best_eps
