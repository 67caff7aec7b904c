"""Exact linear algebra over the rationals, dense matrices and sparse systems.

Everything downstream (axiom checks, derivation solvers, cochain bases)
funnels into reduced row echelon form, computed by the one fraction-free
kernel in bihomlie._rref_py.  It is plain Python and needs no build step.
``BACKEND`` names that kernel; it is the constant ``"pure"``.

Linear systems come as sparse rows {column: value}; ``kernel_by_blocks``
splits their columns into the independent blocks the rows link and reduces
each block on its own, which gives the same basis as ``kernel_basis`` of
the dense matrix.  Vector and matrix arithmetic skips zero entries.

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
    return tuple((a + b if a else b) if b else a for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple((a - b if a else -b) if b else a for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    if not c:
        return (ZERO,) * len(u)
    if c == 1:
        return tuple(u)
    return tuple(c * a if a else ZERO for a in u)


def add_scaled(acc: list, c: Fraction, v: Vec) -> None:
    """acc += c * v in place, over the nonzero entries of v."""
    for k, x in enumerate(v):
        if x:
            p = c * x
            acc[k] = acc[k] + p if acc[k] else p


def is_zero_vec(u: Vec) -> bool:
    return not any(u)


class Matrix:
    """Immutable dense matrix of Fractions.

    ``ncols`` gives the width of a matrix without rows; with rows it must
    match them.  The shape is part of the value: a 0 x 3 matrix is not the
    0 x 0 one.

    >>> m = Matrix([[1, 2], [3, 4]])
    >>> m.rank()
    2
    >>> m * m.invert() == Matrix.identity(2)
    True
    """

    __slots__ = ("rows", "nrows", "ncols", "_cols")

    def __init__(
        self, rows: Iterable[Iterable], ncols: Optional[int] = None
    ) -> None:
        self.rows: tuple[Vec, ...] = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        self._cols: Optional[tuple[Vec, ...]] = None
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and ncols != self.ncols:
            raise ValueError("rows do not have ncols entries")
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
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols)

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
        return cls(
            [[c[i] for c in cols] for i in range(len(cols[0]))], len(cols)
        )

    def __getitem__(self, i: int) -> Vec:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [vadd(a, b) for a, b in zip(self.rows, other.rows)], self.ncols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [vsub(a, b) for a, b in zip(self.rows, other.rows)], self.ncols
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
        return Matrix(out, other.ncols)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([vscale(c, row) for row in self.rows], self.ncols)

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector: the columns at the nonzero entries
        of v, scaled and summed over their own nonzero entries."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        cols = self.columns()
        acc = [ZERO] * self.nrows
        for j, c in enumerate(v):
            if c:
                add_scaled(acc, c, cols[j])
        return tuple(acc)

    def transpose(self) -> "Matrix":
        return Matrix(self.columns(), self.nrows)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self == Matrix.identity(self.nrows)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[Vec, ...]:
        """All columns, i.e. the images of the basis vectors; cached."""
        if self._cols is None:
            self._cols = (
                tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
            )
        return self._cols

    def rref(self) -> tuple["Matrix", list[int]]:
        reduced, pivots = _rref(self.rows)
        return Matrix(reduced, self.ncols), pivots

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


def kernel_by_blocks(
    rows: Iterable[dict[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    """Kernel basis of sparse rows {column: value} over ``ncols`` columns,
    as sparse vectors {column: nonzero value} in ascending free-column
    order: the basis ``kernel_basis`` gives for the dense matrix, vector
    for vector.  Zero values are ignored.

    A row with one nonzero entry forces its column to zero: that column is
    a pivot, and it is struck from the other rows, which can leave new
    one-entry rows.  The remaining columns are linked when some row has
    both nonzero; the row space is the direct sum of its restrictions to
    the linked blocks, so the RREF of the whole matrix is the union of the
    blocks' RREFs, and each block is reduced on its own.  A column no row
    touches is free with a unit vector.  These steps keep the kernel, and
    the basis depends on the kernel alone: the vector of free column f is
    the kernel vector that is 1 at f and 0 at every other free column, and
    f is its last nonzero column.
    """
    live = [
        r for r in ({c: x for c, x in row.items() if x} for row in rows) if r
    ]
    forced_zero: set[int] = set()
    forced = {next(iter(r)) for r in live if len(r) == 1}
    while forced:
        forced_zero |= forced
        live = [
            r
            for r in (
                {c: x for c, x in row.items() if c not in forced}
                if forced.intersection(row)
                else row
                for row in live
            )
            if r
        ]
        forced = {next(iter(r)) for r in live if len(r) == 1}

    parent = list(range(ncols))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in live:
        first, *rest = row
        first = root(first)
        for c in rest:
            rc = root(c)
            if rc != first:
                parent[rc] = first
    block_rows: dict[int, list[dict[int, Fraction]]] = {}
    for row in live:
        block_rows.setdefault(root(next(iter(row))), []).append(row)
    block_cols: dict[int, list[int]] = {}
    for c in range(ncols):
        if c not in forced_zero:
            block_cols.setdefault(root(c), []).append(c)

    kernel: list[tuple[int, dict[int, Fraction]]] = []
    for b, cols in block_cols.items():
        brows = block_rows.get(b)
        if brows is None:
            kernel.append((cols[0], {cols[0]: ONE}))
            continue
        dense = Matrix([[row.get(c, ZERO) for c in cols] for row in brows])
        for v in dense.kernel_basis():
            coords = {cols[i]: x for i, x in enumerate(v) if x}
            kernel.append((max(coords), coords))
    kernel.sort(key=lambda item: item[0])
    return [coords for _, coords in kernel]


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
