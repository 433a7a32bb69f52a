"""Gauss7/Kronrod15 nodes and weights on [-1, 1], computed with mpmath.

The Gauss nodes are the roots of the Legendre polynomial P_7 and the
added Kronrod nodes those of the Stieltjes polynomial E_8, the monic
even octic orthogonal to x^k P_7(x) for k = 0..7.  Its coefficients
solve a rational linear system, so they are exact fractions.  The
Gauss weights are 2 / ((1 - x^2) P_7'(x)^2); the Kronrod weights make
the 15-point rule exact on x^0, x^2, ..., x^14 (odd powers are exact
by symmetry).

    python tools/gk15_table.py

prints the three tables as Python literals, rounded to double, in the
order of opineq.kernels: XK and WK from -1 to 1, WG on the Gauss nodes.
"""

from fractions import Fraction

import mpmath

DPS = 30


def _legendre7():
    """Coefficients of P_7, lowest power first, as exact fractions."""
    # Bonnet: (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, 7):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


def _moment(j):
    """int_{-1}^{1} x^j dx."""
    return Fraction(0) if j % 2 else Fraction(2, j + 1)


def _stieltjes8(p7):
    """Coefficients of the monic even E_8, lowest power first."""
    # E_8 = x^8 + sum_{i<4} c_i x^(2i); P_7 E_8 is odd times even, so the
    # conditions with odd k are the only ones left: k = 1, 3, 5, 7
    def inner(power, k):
        return sum(c * _moment(i + power + k) for i, c in enumerate(p7))

    rows = [[inner(2 * i, k) for i in range(4)] for k in (1, 3, 5, 7)]
    rhs = [-inner(8, k) for k in (1, 3, 5, 7)]
    # Gauss-Jordan elimination in exact arithmetic
    for col in range(4):
        piv = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    coef = [Fraction(0)] * 9
    for i in range(4):
        coef[2 * i] = rhs[i] / rows[i][i]
    coef[8] = Fraction(1)
    return coef


def _roots(coef):
    """Real roots, ascending, of the polynomial with these coefficients."""
    return sorted(mpmath.re(r) for r in mpmath.polyroots(
        [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coef)],
        maxsteps=200, extraprec=2 * DPS))


def gk15():
    """(xk, wk, wg) as lists of mpf at DPS digits: xk and wk from -1 to 1,
    wg on the Gauss nodes xk[1::2]."""
    with mpmath.workdps(DPS):
        p7 = _legendre7()
        xg = _roots(p7)
        xk = sorted(xg + _roots(_stieltjes8(p7)))
        dp7 = [i * c for i, c in enumerate(p7)][1:]

        def dpoly(x):
            return sum(mpmath.mpf(c.numerator) / c.denominator * x ** i
                       for i, c in enumerate(dp7))

        wg = [2 / ((1 - x * x) * dpoly(x) ** 2) for x in xg]
        # symmetric weights: unknowns on the 8 nodes x >= 0, one equation
        # per even power 0, 2, ..., 14
        half = xk[7:]
        mat = mpmath.matrix(8, 8)
        rhs = mpmath.matrix(8, 1)
        for r in range(8):
            rhs[r] = mpmath.mpf(2) / (2 * r + 1)
            for i, x in enumerate(half):
                mat[r, i] = (1 if i == 0 else 2) * x ** (2 * r)
        w = mpmath.lu_solve(mat, rhs)
        wk = [w[i] for i in range(7, 0, -1)] + [w[i] for i in range(8)]
        return xk, wk, wg


def main():
    xk, wk, wg = gk15()
    for name, vals in (("XK", xk), ("WK", wk), ("WG", wg)):
        print("%s = np.array([" % name)
        for v in vals:
            print("    %r," % float(v))
        print("])")


if __name__ == "__main__":
    main()
