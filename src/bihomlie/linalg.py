"""Exact linear algebra over the rationals, dense matrices and sparse systems.

Everything downstream (axiom checks, derivation solvers, cochain bases)
funnels into one exact elimination step, the fraction-free update of
sparse integer vectors ``_eliminate``, in plain Python with no build
step.  Two drivers share it.  ``EchelonBasis`` keeps primitive integer
echelon rows: it decides span membership, counts ``Matrix.rank``, and
its reduced row echelon form readout is ``Matrix.rref``, from which
``invert`` reads.  ``BACKEND`` names that kernel; it is the constant
``"pure"``.

Linear systems come as sparse rows {column: value}, values Fractions or
ints; ``kernel_by_blocks`` strikes the columns they force to zero and
solves the rest by one null-space update: it starts from the unit
vectors on those columns and updates them, row by row, so that every
vector is orthogonal to every row seen, and a row orthogonal to all of
them costs its dots alone, taken only with the vectors that have an
entry on its columns.  The library solves no dense system A x = b (the
tests keep one as an oracle).

Both readouts of the elimination are integer: a kernel vector is the
primitive {column: int} the update holds, positive at its free column f,
and its Gauss-Jordan vector is v / v[f]; an ``EchelonBasis.rref`` row is
primitive with a positive pivot entry.  The readers build their integer
forms off these, and ``Matrix.kernel_basis``, whose API returns
Fractions, is the one place a kernel is divided.

Sums of basis images read term tables: ``Matrix.column_terms()`` caches the
nonzero entries (u, x) of every column, and ``add_terms`` adds a scaled
term list into an accumulator, so no loop visits a zero entry of an image,
and ``sum_terms`` sums integer term lists over the terms they hold.
``first_off_block`` scans the same terms for an entry outside the degree
blocks a graded map must respect.

Scalars are fractions.Fraction at the API, and vectors are plain tuples.
Inside, the sums run in integers: the rows and vectors of the solve, and
the integer copies of term tables
(``scale_to_ints``) that the axiom scans, the solvers and the cochain
complex sum.  A ``Matrix`` holds one integer form, its column terms over
one scale (``Matrix.int_column_terms``), and its ``Fraction`` views, the
rows, columns and column terms, are cached on first read.  The public
constructor converts every entry, checks the shape and scales the
entries to that form; the matrices the library builds go through the one
internal constructor ``Matrix._of``, which takes the form as it is: the
dense operations, RREF output, action matrices, solver solutions and
coboundary matrices.

Scalars are bounded here, at both ends.  Every public entry point that
takes a scalar (``vec``, ``Matrix``, ``Matrix.diagonal``,
``Matrix.scale``, and the cochain and endomorphism constructors and
scalings built on them) reads a string through ``to_fraction``, so one of
more than ``MAX_SCALAR_DIGITS`` digits is refused before it is evaluated;
``write_scalar`` refuses to write one over the bound.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm


BACKEND = "pure"

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# The most digits, and the largest |exponent|, of a written scalar, as in
# int('...'): Fraction('1e10000000') took 13.4 s (2-vCPU x86-64 VM).
MAX_SCALAR_DIGITS = 4300

# Fraction's string syntax, without surrounding whitespace; compiled on
# first use (by re's cache), since compiling it took 0.5 ms of the import
_SCALAR = (
    r"([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)"
    r"|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)"
)


def read_scalar(tok: str) -> Fraction | None:
    """The rational ``tok`` writes in Fraction's syntax, or None if it is
    not that syntax or has a zero denominator.  ValueError, before any power
    of ten is built, for over MAX_SCALAR_DIGITS digits or exponent."""
    m = re.fullmatch(_SCALAR, tok)
    if m is None:
        return None
    sign, num, den, dec, exp = m.groups("")
    bound = MAX_SCALAR_DIGITS
    if sum(map(str.isdigit, tok)) > bound or abs(int(exp or 0)) > bound:
        raise ValueError(
            f"scalar has more than {bound} digits or an exponent above {bound}"
        )
    if den and not int(den):
        return None
    dec = dec.replace("_", "")
    whole = int(num + dec or 0)
    value = Fraction(whole, int(den)) if den else Fraction(whole)
    shift = int(exp or 0) - len(dec)
    if shift:
        value *= Fraction(10) ** shift
    return -value if sign == "-" else value


def to_fraction(value: int | Fraction | str) -> Fraction:
    """Fraction(value), a string read by :func:`read_scalar` once stripped
    of the whitespace Fraction allows around it: so a string over the
    bound is refused with ValueError at once, and one that writes no
    rational with the error Fraction gives it."""
    if not isinstance(value, str):
        return Fraction(value)
    tok = value.strip()
    got = read_scalar(tok)
    # a token read_scalar does not read, Fraction refuses
    return Fraction(tok) if got is None else got


def write_scalar(x: Fraction, item: str) -> str:
    """str(x), or ValueError naming ``item`` when x has more than
    MAX_SCALAR_DIGITS digits, more than :func:`read_scalar` reads back.
    str() itself refuses a numerator or denominator over the
    interpreter's limit on int digits, the same 4300 by default, with a
    hint to raise that limit; that is the same refusal, made here."""
    try:
        text = str(x)
    except ValueError:  # the interpreter's own limit on int digits
        text = None
    if text is None or (
        len(text) > MAX_SCALAR_DIGITS
        and sum(map(str.isdigit, text)) > MAX_SCALAR_DIGITS
    ):
        raise ValueError(
            f"{item} has more than {MAX_SCALAR_DIGITS} digits, more than a "
            ".alg scalar may have"
        )
    return text


def vec(entries: Iterable) -> Vec:
    return tuple(
        x if isinstance(x, Fraction) else to_fraction(x) for x in entries
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


# the nonzero entries (k, x) of a vector, in ascending k
Terms = tuple[tuple[int, Fraction], ...]


def terms_of(v: Vec) -> Terms:
    """The nonzero entries (k, x) of v, in ascending k."""
    return tuple([(k, x) for k, x in enumerate(v) if x])


# the nonzero entries (k, n) of a vector scaled to integers
IntTerms = tuple[tuple[int, int], ...]


def scale_to_ints(term_lists: Sequence[Terms]) -> tuple[int, list[IntTerms]]:
    """(L, lists): L the lcm of the denominators of every term of
    ``term_lists`` (1 when there is none), and each term list with every
    x read as the integer x*L."""
    # lcm of a list and tuples of lists, not of generators: a tuple built
    # from a generator is resized down, and once freed it sits on the free
    # list of its new length, so repeated calls would fill CPython's tuple
    # free lists; a tuple of a list is also built at half the cost
    den = lcm(*[x.denominator for terms in term_lists for _, x in terms])
    return den, [
        tuple([(k, x.numerator * (den // x.denominator)) for k, x in terms])
        for terms in term_lists
    ]


def add_terms(acc: list, c: Fraction, terms: Terms) -> None:
    """acc += c * v in place, for the vector v with nonzero ``terms``; the
    same for an integer accumulator, integer c and ``IntTerms``."""
    if c == 1:
        for k, x in terms:
            y = acc[k]
            acc[k] = y + x if y else x
        return
    for k, x in terms:
        p = c * x
        y = acc[k]
        acc[k] = y + p if y else p


def sum_terms(parts: Sequence[tuple[int, IntTerms]]) -> IntTerms:
    """The nonzero terms, ascending, of the sum of c ts over the (c, ts)
    of ``parts``, in a dict over the terms that reach it; one nonempty
    part is scaled as it is, or kept for c = 1."""
    parts = [part for part in parts if part[1]]
    if len(parts) == 1:
        ((c, ts),) = parts
        return ts if c == 1 else tuple([(k, c * x) for k, x in ts])
    acc: dict[int, int] = {}
    for c, ts in parts:
        for k, x in ts:
            acc[k] = acc.get(k, 0) + c * x
    return tuple(sorted([kx for kx in acc.items() if kx[1]]))


def int_diagonal(cols: Sequence[IntTerms]) -> dict[int, int]:
    """{j: x} over the columns j of an integer column form with no entry
    off row j: x is the entry at row j, 0 for a zero column."""
    return {
        j: col[0][1] if col else 0
        for j, col in enumerate(cols)
        if [u for u, _ in col] in ([], [j])
    }


def is_zero_vec(u: Vec) -> bool:
    return not any(u)


class Matrix:
    """Immutable dense matrix of Fractions, held in one integer form.

    A matrix stores its shape and (L, C), the form
    :meth:`int_column_terms` returns: C[j] holds the integer terms (u, x)
    of column j in ascending row u, zeros left out, each entry x / L over
    one positive common scale L, not always the least.  ``rows``,
    :meth:`columns` and :meth:`column_terms` are read-only Fraction views
    of that form, each built on its first read and cached.

    ``ncols`` gives the width of a matrix without rows; with rows it must
    match them.  The shape is part of the value: a 0 x 3 matrix is not the
    0 x 0 one.

    >>> m = Matrix([[1, 2], [3, 4]])
    >>> m.rank()
    2
    >>> m * m.invert() == Matrix.identity(2)
    True
    """

    __slots__ = ("nrows", "ncols", "_ints", "_rows", "_cols", "_terms")

    def __init__(
        self, rows: Iterable[Iterable], ncols: int | None = None
    ) -> None:
        rows = tuple(
            tuple(
                x if isinstance(x, Fraction) else to_fraction(x) for x in row
            )
            for row in rows
        )
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and ncols != self.ncols:
            raise ValueError("rows do not have ncols entries")
        for row in rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")
        cols = zip(*rows) if rows else ((),) * self.ncols
        scale, ints = scale_to_ints([terms_of(col) for col in cols])
        self._ints = (scale, tuple(ints))
        self._rows = self._cols = self._terms = None

    @classmethod
    def _of(
        cls, scale: int, cols: Sequence[IntTerms], nrows: int
    ) -> "Matrix":
        """The ``nrows``-row matrix whose column j is cols[j] / ``scale``:
        the integer entries (u, x) of the column in ascending row u, zeros
        left out, over the positive ``scale``.  The one internal
        constructor: unlike the public one it neither converts nor checks
        an entry."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = len(cols)
        m._ints = (scale, tuple(map(tuple, cols)))
        m._rows = m._cols = m._terms = None
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(1, [((i, 1),) for i in range(n)], n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of(1, [()] * ncols, nrows)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        ent = [to_fraction(x) for x in entries]
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

    @property
    def rows(self) -> tuple[Vec, ...]:
        """The rows, tuples of Fractions: a view of :meth:`columns`."""
        if self._rows is None:
            cols = self.columns()
            self._rows = tuple(zip(*cols)) if cols else ((),) * self.nrows
        return self._rows

    def __getitem__(self, i: int) -> Vec:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        # scales are not canonical: compare the Fraction view
        return (
            isinstance(other, Matrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.column_terms() == other.column_terms()
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.column_terms()))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, over the lcm of the two scales."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        (la, acols), (lb, bcols) = self._ints, other._ints
        scale = lcm(la, lb)
        fa, fb = scale // la, sign * (scale // lb)
        out = [sum_terms([(fa, a), (fb, b)]) for a, b in zip(acols, bcols)]
        return Matrix._of(scale, out, self.nrows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # column j of the product sums x * (column t of self) over the
        # terms (t, x) of column j of other, over the product of the scales
        (la, acols), (lb, bcols) = self._ints, other._ints
        out = [sum_terms([(x, acols[t]) for t, x in col]) for col in bcols]
        return Matrix._of(la * lb, out, self.nrows)

    def scale(self, c) -> "Matrix":
        c = to_fraction(c)
        scale, cols = self._ints
        p = c.numerator
        if not p:
            cols = [()] * self.ncols
        elif p != 1:
            cols = [[(u, p * x) for u, x in col] for col in cols]
        return Matrix._of(scale * c.denominator, cols, self.nrows)

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector: the columns at the nonzero entries
        of v, scaled and summed over their ``column_terms``."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        terms = self.column_terms()
        acc = [ZERO] * self.nrows
        for j, c in enumerate(v):
            if c:
                add_terms(acc, c, terms[j])
        return tuple(acc)

    def transpose(self) -> "Matrix":
        scale, cols = self._ints
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.nrows)]
        for j, col in enumerate(cols):
            for u, x in col:
                rows[u].append((j, x))
        return Matrix._of(scale, rows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self._ints[1])

    def column(self, j: int) -> Vec:
        return self.columns()[j]

    def columns(self) -> tuple[Vec, ...]:
        """All columns, i.e. the images of the basis vectors: a view of
        :meth:`column_terms`, cached."""
        if self._cols is None:
            cols = []
            for terms in self.column_terms():
                col = [ZERO] * self.nrows
                for u, x in terms:
                    col[u] = x
                cols.append(tuple(col))
            self._cols = tuple(cols)
        return self._cols

    def column_terms(self) -> tuple[Terms, ...]:
        """The nonzero entries (u, x) of every column, in ascending row u;
        one (possibly empty) term list per column, the Fractions of
        :meth:`int_column_terms`, cached."""
        if self._terms is None:
            scale, cols = self._ints
            self._terms = tuple(
                tuple([(u, Fraction(x, scale)) for u, x in col])
                for col in cols
            )
        return self._terms

    def int_column_terms(self) -> tuple[int, tuple[IntTerms, ...]]:
        """The form (L, C) the matrix holds: C[j] holds the integer terms
        (u, x) of column j, each entry x / L, L a positive common scale of
        the whole matrix.  The public constructor takes L the lcm of the
        denominators (see :func:`scale_to_ints`); a matrix the library
        builds may sit over a larger one."""
        return self._ints

    def rref(self) -> tuple["Matrix", list[int]]:
        """(R, pivots): the reduced row echelon form R, with the zero rows
        last, and the pivot column of each nonzero row of R, read off one
        :class:`EchelonBasis` over the integer rows: R sits over the lcm
        L of the pivot entries of its integer rows, each row times L over
        its pivot entry."""
        span = EchelonBasis()
        for terms in self.transpose().int_column_terms()[1]:
            span.add_sparse(terms)
        reduced = span.rref()
        scale = lcm(*[row[pivot] for pivot, row in reduced])
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
        for i, (pivot, row) in enumerate(reduced):
            for c, x in row.items():
                cols[c].append((i, x * scale // row[pivot]))
        return Matrix._of(scale, cols, self.nrows), [p for p, _ in reduced]

    def rank(self) -> int:
        """The number of independent columns, counted by one
        :class:`EchelonBasis` pass over the integer form of the columns,
        :meth:`int_column_terms`, so it builds no Fraction.

        The pass takes the columns last to first.  In a coboundary matrix
        the image of a later basis cochain sits at later codomain slots,
        so this keeps the stored echelon rows short: on the degree-0 d_3
        of the twisted gl(2|2), 1128 x 404, it takes a sixth of the time
        of a first-to-last pass.
        """
        span = EchelonBasis()
        return sum(
            span.add_sparse(terms)
            for terms in reversed(self.int_column_terms()[1])
        )

    def kernel_basis(self) -> list[Vec]:
        """Basis of the right null space, one vector per free column in
        ascending column order: each integer vector v of
        :func:`kernel_by_blocks` over the integer rows of the matrix, read
        densely as v / v[f], f its free column.  A matrix without rows has
        the full standard basis as kernel.
        """
        rows = map(dict, self.transpose().int_column_terms()[1])
        return [
            tuple(Fraction(v.get(c, 0), d) for c in range(self.ncols))
            for v in kernel_by_blocks(rows, self.ncols)
            for d in [v[next(reversed(v))]]
        ]

    def invert(self) -> "Matrix":
        """Exact inverse; raises ValueError on non-square or singular input."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        # [self | 1] reduces to [1 | self^-1] exactly when self is regular
        scale, cols = self._ints
        unit = tuple(((i, scale),) for i in range(n))
        reduced, pivots = Matrix._of(scale, cols + unit, n).rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        scale, cols = reduced.int_column_terms()
        return Matrix._of(scale, cols[n:], n)

    def power(self, k: int) -> "Matrix":
        """Integer matrix power; negative k inverts first (may raise)."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        if k == 0:
            return Matrix.identity(self.nrows)
        base = self if k > 0 else self.invert()
        # square and multiply: out collects base**(2**b) for each bit b of |k|
        out = None
        k = abs(k)
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out


def kernel_by_blocks(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[dict[int, int]]:
    """Kernel basis of sparse rows {column: value} over ``ncols`` columns,
    values Fractions or ints, as primitive integer vectors {column: int}
    in ascending free-column order, each in ascending column and positive
    at its free column f, its last: v / v[f] is the vector a Gauss-Jordan
    reduction of the dense matrix gives, vector for vector.  Zero values
    are ignored.

    The forced columns are struck (:func:`_strike_forced`), and the rest
    are solved by one null-space update from the integer unit vectors on
    them: each row left (a Fraction row through :func:`_primitive`) takes
    its sparse dot with every current kernel vector that has an entry on
    one of its columns, found through a column -> vectors index.  A row
    orthogonal to all of them lies in the row space and costs nothing
    more; otherwise the first vector with a nonzero dot is dropped, and
    every other one with a nonzero dot takes the step :func:`_eliminate`
    against it, which zeroes its dot.  A step changes the vector only at
    the columns of the dropped one, so only those columns are re-indexed.

    The vectors are kept in ascending free column f, the column whose
    unit vector each started as, and a row meets them in that order.  A
    step subtracts from the vector of f a multiple of that of a smaller
    free column, which stops being free, so f stays its last nonzero
    column and it stays zero at the other free columns: divided by its
    entry at f it is the kernel vector 1 at f and 0 at every other free
    column, which the kernel alone fixes.  Each step divides the vector by
    the gcd of its entries, so it is primitive, and it is negated where
    its entry at f is negative.  A vector with no entry on a row's columns
    has a zero dot with it and is not changed by it.
    """
    forced, live = _strike_forced(rows)
    # free column f -> its vector, in ascending f; column c -> the free
    # columns whose vector has an entry at c
    vectors: dict[int, dict[int, int]] = {
        f: {f: 1} for f in range(ncols) if f not in forced
    }
    holders: dict[int, set[int]] = {f: {f} for f in vectors} if live else {}
    for row in live:
        if not all(type(x) is int for x in row.values()):
            row = _primitive(row.items())
        first = None
        for f in sorted(set().union(*[holders[c] for c in row])):
            v = vectors[f]
            d = 0
            for c, x in row.items():
                y = v.get(c)
                if y:
                    d += x * y
            if not d:
                continue
            if first is None:
                first, d0, v0 = f, d, v
                continue
            _eliminate(v, d, d0, v0)
            for c in v0:
                if c in v:
                    holders[c].add(f)
                else:
                    holders[c].discard(f)
        if first is not None:
            del vectors[first]
            for c in v0:
                holders[c].discard(first)
    return [
        {c: v[c] if v[f] > 0 else -v[c] for c in sorted(v)}
        for f, v in vectors.items()
    ]


def first_off_block(
    m: Matrix, row_degrees: Sequence, col_targets: Sequence
) -> tuple[int, int] | None:
    """The row-major first, that is the least, nonzero entry (r, c) of m
    whose row degree ``row_degrees[r]`` is not ``col_targets[c]``, the
    degree column c must map into, read off :meth:`Matrix.int_column_terms`;
    None when every entry keeps to its block."""
    return min(
        (
            (r, c)
            for c, col in enumerate(m.int_column_terms()[1])
            for r, _ in col
            if row_degrees[r] != col_targets[c]
        ),
        default=None,
    )


def _strike_forced(
    rows: Iterable[dict[int, Fraction | int]],
) -> tuple[set[int], list[dict[int, Fraction | int]]]:
    """The columns that one-entry rows force to zero, and the nonzero rows
    left once those columns are struck, in their given order.  The cochain
    spaces decide the slots that a row of one entry forces before they
    build a system (see ``cohomology._intertwining_rows``), so from them
    it sees only the rows that couple slots; the derivation solvers hand
    it their commuting rows whole.

    One worklist pass over a column -> rows index: striking a forced
    column touches only the rows that hold it, and a row it leaves with
    one entry puts that entry's column on the worklist.  On return no row
    has exactly one entry and none holds a forced column.
    """
    live = [{c: x for c, x in row.items() if x} for row in rows]
    holders: dict[int, list[dict[int, Fraction | int]]] = {}
    for row in live:
        for c in row:
            holders.setdefault(c, []).append(row)
    work = [next(iter(row)) for row in live if len(row) == 1]
    forced: set[int] = set()
    while work:
        c = work.pop()
        if c in forced:
            continue
        forced.add(c)
        for row in holders[c]:
            del row[c]
            if len(row) == 1:
                work.append(next(iter(row)))
    return forced, [row for row in live if row]


class EchelonBasis:
    """The span of the vectors added so far, as sparse primitive integer
    echelon rows: the span driver of the library's one elimination step,
    :func:`_eliminate`, which :func:`kernel_by_blocks` shares.

    A vector comes in scaled by the lcm of its denominators and divided by
    the gcd of its entries; a vector of ints is only divided.  Each stored
    row {column: int} is nonzero at its pivot column, its first nonzero
    one, and zero at the pivots of the rows stored before it.  So one pass
    in insertion order reduces a vector, by the fraction-free update
    rem <- q*rem - y*row,  where y/q in lowest terms is the entry of rem
    at the row's pivot over the row's own, and one gcd over the entries of
    rem after each update to keep them small: the remainder is zero at
    every pivot, and it is empty exactly when the vector lies in the span.
    Membership is exact.  :meth:`rref` reads the reduced row echelon form
    of the span off the stored rows, in integers.

    >>> span = EchelonBasis()
    >>> [span.add(vec(v)) for v in ([1, 2, 0], [2, 4, 0], [0, 1, 1], [0] * 3)]
    [True, False, True, False]
    >>> vec([1, 0, -2]) in span, vec([0, 0, 1]) in span
    (True, False)
    >>> span.rref()
    [(0, {0: 1, 2: -2}), (1, {1: 1, 2: 1})]
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: list[tuple[int, dict[int, int]]] = []

    def _remainder(self, rem: dict[int, int]) -> dict[int, int]:
        """Reduce the sparse integer vector ``rem`` in place by the stored
        rows; the result is ``rem`` up to a nonzero factor, less a
        combination of the rows."""
        for pivot, row in self._rows:
            x = rem.get(pivot)
            if x:
                _eliminate(rem, x, row[pivot], row)
        return rem

    def __contains__(self, v: Vec) -> bool:
        return not self._remainder(_primitive(enumerate(v)))

    def add(self, v: Vec) -> bool:
        """Store the remainder of v if it is nonzero; True when v was
        outside the span."""
        return self.add_sparse(enumerate(v))

    def add_sparse(self, terms: Iterable[tuple[int, Fraction | int]]) -> bool:
        """:meth:`add` for the vector whose nonzero entries are the
        (column, value) pairs ``terms``, as in ``Matrix.column_terms``; the
        values are Fractions or ints."""
        rem = self._remainder(_primitive(terms))
        if not rem:
            return False
        self._rows.append((min(rem), rem))
        return True

    def rref(self) -> list[tuple[int, dict[int, int]]]:
        """The reduced row echelon form of the span, as (pivot, row) with
        row a primitive {column: int}, positive at its pivot, in ascending
        pivot: divided by its pivot entry it is the row of the reduced
        form.

        The stored rows are back-substituted last to first: the last row is
        zero at every other pivot already, and a row cleared by the rows
        after it, each reduced and zero at its pivot, stays zero at the
        other pivots.  A row is negated where its pivot entry is negative.
        The stored rows are left alone.
        """
        done: list[tuple[int, dict[int, int]]] = []
        for pivot, row in reversed(self._rows):
            row = dict(row)
            for p, other in done:
                x = row.get(p)
                if x:
                    _eliminate(row, x, other[p], other)
            done.append((pivot, row))
        done.sort(key=lambda item: item[0])
        return [
            (pivot, row if row[pivot] > 0 else {c: -x for c, x in row.items()})
            for pivot, row in done
        ]


def _primitive(terms: Iterable[tuple[int, Fraction | int]]) -> dict[int, int]:
    """The nonzero (column, value) ``terms`` times the lcm of their
    denominators, divided by the gcd of the results: {column: int}.  Int
    values have denominator 1, so when every value is an int, as in the
    columns of :meth:`Matrix.rank`, they are only divided by their gcd."""
    ints = {c: x for c, x in terms if x}
    if not {int}.issuperset(map(type, ints.values())):
        pairs = [(c, x.as_integer_ratio()) for c, x in ints.items()]
        den = lcm(*[d for _, (_, d) in pairs])
        ints = {c: n * (den // d) for c, (n, d) in pairs}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _eliminate(
    rem: dict[int, int], x: int, p: int, row: dict[int, int]
) -> None:
    """rem <- q*rem - y*row in place, where x/p = y/q in lowest terms, so
    the entry x of rem at the pivot p of row goes; then rem is divided by
    the gcd of its entries."""
    g = gcd(x, p)
    q, y = p // g, x // g
    if q != 1:
        for c in rem:
            rem[c] *= q
    for c, z in row.items():
        v = rem.get(c, 0) - y * z
        if v:
            rem[c] = v
        else:
            del rem[c]
    g = gcd(*rem.values())
    if g > 1:
        for c in rem:
            rem[c] //= g
