"""Dense linear-algebra oracles for the tests.

The library decides span membership and rank with ``linalg.EchelonBasis``
and solves no dense system.  These are the slow, plainly correct versions
the tests hold it against: every answer comes from one RREF of a dense
matrix, augmented for the solves.

>>> from bihomlie.linalg import vec
>>> solve_many(Matrix([[1, 0], [0, 0]]), [vec([5, 0]), vec([0, 1])])
[(Fraction(5, 1), Fraction(0, 1)), None]
>>> in_span([vec([1, 1])], vec([2, 2])), in_span([], vec([0, 1]))
(True, False)
>>> dense_rank(Matrix([[1, 2], [2, 4]]))
1
"""

from fractions import Fraction
from typing import Optional, Sequence

from bihomlie.linalg import Matrix, Vec, is_zero_vec


def solve_many(m: Matrix, bs: Sequence[Vec]) -> list[Optional[Vec]]:
    """One exact solution of m·x = b for each b, or None where the system
    is inconsistent, from one RREF of m augmented by all the b."""
    for b in bs:
        if len(b) != m.nrows:
            raise ValueError("shape mismatch")
    aug = Matrix(
        [list(m.rows[i]) + [b[i] for b in bs] for i in range(m.nrows)]
    )
    reduced, pivots = aug.rref()
    out: list[Optional[Vec]] = []
    for k in range(len(bs)):
        col = m.ncols + k
        x = [Fraction(0)] * m.ncols
        for r, pc in enumerate(pivots):
            if pc < m.ncols:
                x[pc] = reduced[r][col]
        # a row whose m-block is zero but whose entry in this column is
        # not makes system k inconsistent
        consistent = not any(
            reduced[r][col] and not any(reduced[r][: m.ncols])
            for r in range(aug.nrows)
        )
        out.append(tuple(x) if consistent else None)
    return out


def dense_rank(m: Matrix) -> int:
    """The rank of m as the pivot count of its RREF."""
    return len(m.rref()[1])


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    """Whether v lies in the span of ``vectors`` (exact)."""
    if is_zero_vec(v):
        return True
    if not vectors:
        return False
    return solve_many(Matrix.from_cols(list(vectors)), [v])[0] is not None


def spans_equal(a: Sequence[Vec], b: Sequence[Vec]) -> bool:
    """Mutual containment of two spans (exact, basis-independent)."""
    return all(in_span(a, v) for v in b) and all(in_span(b, u) for u in a)
