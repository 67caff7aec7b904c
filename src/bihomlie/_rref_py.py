"""Reduced row echelon form over exact rationals, fraction-free.

Every row is scaled to a primitive integer vector, Gauss-Jordan runs with
the cross-multiplication update  row <- piv*row - row[pcol]*lead  in plain
integer arithmetic, each updated row is divided by the gcd of its entries
to keep them small, and each pivot row is divided by its pivot only at the
very end.  One gcd sweep per row update thus replaces the one gcd per
operation that Fraction arithmetic pays.

The pivot rule is the first nonzero entry in column order, and RREF is
unique for a given matrix, so the output is the canonical RREF whatever
the route to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _primitive(row: Sequence[Fraction]) -> list[int]:
    """The row times its common denominator, divided by its content."""
    pairs = [x.as_integer_ratio() for x in row]
    den = lcm(*(d for _, d in pairs))
    ints = [n * (den // d) for n, d in pairs]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rref(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Return (R, pivots) where R is the RREF of `rows`.

    `pivots` lists the pivot column of each nonzero row of R, in order.
    The input is not modified.

    >>> from fractions import Fraction as F
    >>> R, p = rref([[F(2), F(4)], [F(1), F(2)]])
    >>> R, p
    ([[Fraction(1, 1), Fraction(2, 1)], [Fraction(0, 1), Fraction(0, 1)]], [0])
    """
    m = [_primitive(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prow = 0
    for pcol in range(ncols):
        if prow == nrows:
            break
        hit = -1
        for i in range(prow, nrows):
            if m[i][pcol]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != prow:
            m[prow], m[hit] = m[hit], m[prow]
        lead = m[prow]
        piv = lead[pcol]
        for i in range(nrows):
            if i == prow:
                continue
            row = m[i]
            f = row[pcol]
            if not f:
                continue
            new = [piv * a - f * b for a, b in zip(row, lead)]
            g = gcd(*new)
            if g > 1:
                new = [v // g for v in new]
            m[i] = new
        pivots.append(pcol)
        prow += 1

    zero = Fraction(0)
    out = []
    for i in range(nrows):
        if i < prow:
            lead = m[i]
            piv = lead[pivots[i]]
            out.append([Fraction(v, piv) if v else zero for v in lead])
        else:
            out.append([zero] * ncols)
    return out, pivots
