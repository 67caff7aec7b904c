"""Exact dense linear algebra over the rationals.

Everything downstream (axiom checks, derivation solvers, cochain bases)
funnels into reduced row echelon form, computed by the one fraction-free
kernel in bihomlie._rref_py.  It is plain Python and needs no build step.
``BACKEND`` names that kernel; it is the constant ``"pure"``.

Scalars are fractions.Fraction throughout; vectors are plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._rref_py import rref as _rref

BACKEND = "pure"

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(
        x if isinstance(x, Fraction) else Fraction(x) for x in entries
    )


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return not any(u)


class Matrix:
    """Immutable dense matrix of Fractions.

    >>> m = Matrix([[1, 2], [3, 4]])
    >>> m.rank()
    2
    >>> m * m.invert() == Matrix.identity(2)
    True
    """

    __slots__ = ("rows", "nrows", "ncols", "_cols")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        self.rows: tuple[Vec, ...] = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        self._cols: Optional[tuple[Vec, ...]] = None
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        m = cls([[ZERO] * ncols for _ in range(nrows)])
        m.ncols = ncols  # with no rows there is no row to read it from
        return m

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        ent = [Fraction(x) for x in entries]
        n = len(ent)
        return cls(
            [[ent[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_cols(cls, cols: Sequence[Vec]) -> "Matrix":
        if not cols:
            return cls([])
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def __getitem__(self, i: int) -> Vec:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [vadd(a, b) for a, b in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [vsub(a, b) for a, b in zip(self.rows, other.rows)]
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # row i of the product is the sum of a_ik * (row k of other) over
        # the nonzero a_ik, which skips the zeros of both factors
        out = []
        for row in self.rows:
            acc = [ZERO] * other.ncols
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(other.rows[k]):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return Matrix(out)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([[c * x for x in row] for row in self.rows])

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector, summed over the nonzero entries of v."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        support = [(j, c) for j, c in enumerate(v) if c]
        return tuple(
            sum((row[j] * c for j, c in support), ZERO) for row in self.rows
        )

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)) if self.rows else [])

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self == Matrix.identity(self.nrows)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[Vec, ...]:
        """All columns, i.e. the images of the basis vectors; cached."""
        if self._cols is None:
            self._cols = tuple(zip(*self.rows)) if self.rows else ()
        return self._cols

    def rref(self) -> tuple["Matrix", list[int]]:
        reduced, pivots = _rref(self.rows)
        return Matrix(reduced), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vec]:
        """Basis of the right null space, deterministic across backends.

        One basis vector per free column, in ascending column order: the
        free coordinate is 1 and pivot coordinates are read off the RREF.
        An empty matrix (0 rows) has the full standard basis as kernel.
        """
        if self.nrows == 0:
            return [
                tuple(ONE if i == j else ZERO for i in range(self.ncols))
                for j in range(self.ncols)
            ]
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            v = [ZERO] * self.ncols
            v[fc] = ONE
            for k, pc in enumerate(pivots):
                v[pc] = -reduced[k][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Vec) -> Optional[Vec]:
        """One exact solution of self·x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("shape mismatch")
        sols = self.solve_many([b])
        return sols[0]

    def solve_many(self, bs: Sequence[Vec]) -> list[Optional[Vec]]:
        """Solve self·x = b for several right-hand sides with one RREF."""
        for b in bs:
            if len(b) != self.nrows:
                raise ValueError("shape mismatch")
        aug = Matrix(
            [
                list(self.rows[i]) + [b[i] for b in bs]
                for i in range(self.nrows)
            ]
        )
        reduced, pivots = aug.rref()
        out: list[Optional[Vec]] = []
        for k in range(len(bs)):
            col = self.ncols + k
            x = [ZERO] * self.ncols
            for r, pc in enumerate(pivots):
                if pc < self.ncols:
                    x[pc] = reduced[r][col]
            # a row whose A-block is zero but whose entry in this RHS
            # column is not makes system k inconsistent.
            consistent = True
            for r in range(aug.nrows):
                if reduced[r][col] and not any(
                    reduced[r][j] for j in range(self.ncols)
                ):
                    consistent = False
                    break
            out.append(tuple(x) if consistent else None)
        return out

    def invert(self) -> "Matrix":
        """Exact inverse; raises ValueError on non-square or singular input."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = Matrix(
            [
                list(self.rows[i])
                + [ONE if i == j else ZERO for j in range(n)]
                for i in range(n)
            ]
        )
        reduced, pivots = aug.rref()
        if pivots[:n] != list(range(n)) or len(pivots) != n:
            raise ValueError("singular matrix")
        return Matrix([row[n:] for row in reduced.rows])

    def power(self, k: int) -> "Matrix":
        """Integer matrix power; negative k inverts first (may raise)."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        base = self if k >= 0 else self.invert()
        out = Matrix.identity(self.nrows)
        for _ in range(abs(k)):
            out = out * base
        return out


def rank(m: Matrix) -> int:
    return m.rank()


def kernel_basis(m: Matrix) -> list[Vec]:
    return m.kernel_basis()


def solve(m: Matrix, b: Vec) -> Optional[Vec]:
    return m.solve(b)


def invert(m: Matrix) -> Matrix:
    return m.invert()


def span_rank(vectors: Sequence[Vec]) -> int:
    """Rank of the span of the given vectors."""
    if not vectors:
        return 0
    return Matrix(list(vectors)).rank()


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    """Whether v lies in the span of `vectors` (exact)."""
    if is_zero_vec(v):
        return True
    if not vectors:
        return False
    return Matrix.from_cols(list(vectors)).solve(v) is not None


def spans_equal(a: Sequence[Vec], b: Sequence[Vec]) -> bool:
    """Mutual containment of two spans (exact, basis-independent)."""
    return all(in_span(a, v) for v in b) and all(in_span(b, u) for u in a)
