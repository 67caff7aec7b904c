"""Exact solvers for twisted derivations, centroids and their relatives.

Each kind of space is one twisted identity

    value([x, y]) = [left(x), m(y)] + s eps(g, x)[m(x), right(y)],

m = alpha^k beta^l, on one to three stacked endomorphisms of one degree
that commute with the structure maps.  Its row in ``_KINDS`` names the
unknown in each slot (or none) and the sign s; the kind's solver and its
membership predicate both read that row.

The commutation depends only on the algebra, the degree and whether beta
is constrained, so it is solved once per such triple and cached on the
algebra: the entries of the degree block it forces to zero are struck,
and the commuting rows that survive are kept over the live entries.  The
solvers assemble the conditions as sparse rows over the live entries
only, reading the nonzero terms of the product and twisted product
tables; take their exact kernel (linalg.kernel_by_blocks); and
re-substitute every basis member into the defining identities before
returning (a wrong answer here would poison everything downstream, so
the few extra multiplications are cheap insurance).  The re-verification
is an evaluation of the identities on the member, independent of the
assembled rows, by the evaluators the axiom suites share
(``algebra._bracket_defect``, and ``algebra._commutator`` for a
structure map that is not diagonal): it sums the member's integer terms
against a pre-image index of the product table and the nonempty cells of
the twisted tables, so it costs what the member's support reaches, and
checks a diagonal map on the support alone (:func:`_commutes_with_maps`).

The solve, the inner derivations and the re-verification sum integers.
The commuting and Leibniz rows are built over the integer tables and the
integer columns of alpha and beta (``ColourAlgebra.int_table``,
``Matrix.int_column_terms``), each row brought to one scale, and
``kernel_by_blocks`` takes them as they are.  Its kernel vectors are
primitive integer vectors v, and each member is v / v[f] (f the free
column) built in the integer form of a ``Matrix``: each unknown's column
terms and v[f] divided by their gcd, the least scale of that unknown.
The inner derivations solve their fixed vectors on the same path and
build each generator over v[f] off the integer twisted table.  A check scales
the maps of one solution tuple to the lcm of their scales, since a
condition mixes them, and only the defect of a failing pair is divided
back into Fractions.

The product D1 . D2 + eps(d1, d2) D2 . D1 turns homogeneous endomorphisms
into a colour analogue of a special Jordan algebra; check_jordan_axioms
verifies its defining identities on a finite family in the ambient
endomorphism algebra, so the family need not be closed under the product
(derivation spaces rarely are; see jordan_closure).  It builds once each
composite and product the four-variable identity reads, and each term of
the identity, whose integer columns it adds to the three 4-tuples that
hold it; an item fails at its least tuple with a nonzero sum
(``algebra._least_sum``).  A member enters a span by its integer entry
terms (:func:`_entry_terms`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm

from .algebra import (
    AxiomReport,
    CheckItem,
    ColourAlgebra,
    IntTable,
    Witness,
    _bracket_defect,
    _add_at,
    _commutator,
    _degree_shift,
    _least_sum,
    _twisted_cells,
    memoized,
)
from .grading import Bicharacter, FrozenRecord, GroupElement
from .linalg import (
    EchelonBasis,
    Matrix,
    Vec,
    _strike_forced,
    first_off_block,
    int_diagonal,
    kernel_by_blocks,
    write_scalar,
)


class HomEndo:
    """Homogeneous endomorphism: a matrix shifting degrees by a fixed step."""

    __slots__ = ("matrix", "degree")

    def __init__(self, matrix: Matrix, degree: GroupElement) -> None:
        if matrix.nrows != matrix.ncols:
            raise ValueError("endomorphism matrix must be square")
        self.matrix = matrix
        self.degree = tuple(degree)

    def apply(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    def scale(self, c) -> "HomEndo":
        return HomEndo(self.matrix.scale(c), self.degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomEndo):
            return NotImplemented
        return self.matrix == other.matrix and self.degree == other.degree

    def __hash__(self) -> int:
        return hash((self.matrix, self.degree))

    def __repr__(self) -> str:
        return f"HomEndo(degree={self.degree}, dim={self.matrix.nrows})"


def is_homogeneous_endo(
    a: ColourAlgebra, matrix: Matrix, gamma: GroupElement
) -> bool:
    """True when every nonzero entry maps block d into block d+gamma."""
    image = _degree_shift(a, tuple(gamma))[0]
    return first_off_block(matrix, a.basis.degrees, image) is None


class SolverResult(FrozenRecord):
    """Basis of one solution space, with the parameters that cut it out.

    ``basis`` holds HomEndo members for the one-unknown kinds and tuples of
    HomEndo for the pair/triple systems; ``dimension`` is its length (the
    dimension of the full stacked solution space).
    """

    __slots__ = ("kind", "k", "l", "gamma", "basis", "dimension")

    def __init__(
        self,
        kind: str,
        k: int,
        l: int,
        gamma: GroupElement | None,
        basis: tuple,
        dimension: int,
    ) -> None:
        self._fill(kind, k, l, gamma, basis, dimension)

    def component_basis(self, idx: int = 0) -> list[HomEndo]:
        """Independent spanning subset of one tuple slot's projections."""
        span = EchelonBasis()
        endos = (e[idx] if isinstance(e, tuple) else e for e in self.basis)
        return [d for d in endos if span.add_sparse(_entry_terms(d.matrix))]

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "k": self.k,
            "l": self.l,
            "dimension": self.dimension,
        }
        if self.gamma is not None:
            out["degree"] = list(self.gamma)
        return out


def _entry_terms(m: Matrix) -> list[tuple[int, int]]:
    """The integer terms of m keyed u * n + j for entry (u, j), n its
    number of columns: the row-major entries of m times its scale."""
    n = m.ncols
    return [
        (u * n + j, x)
        for j, col in enumerate(m.int_column_terms()[1])
        for u, x in col
    ]


def _block_slots(
    a: ColourAlgebra, gamma: GroupElement
) -> list[tuple[int, int]]:
    image = _degree_shift(a, gamma)[0]
    return [
        (u, t)
        for u in range(a.dim)
        for t in range(a.dim)
        if a.degree(u) == image[t]
    ]


@memoized
def _commutation(
    a: ColourAlgebra, gamma: GroupElement, with_beta: bool
) -> tuple[tuple[tuple[int, int], ...], tuple[dict[int, int], ...]]:
    """The commutation pattern of one degree-gamma unknown D, gamma
    reduced: the entries (u, t) that D M = M D leaves live, for M = alpha
    and, when ``with_beta``, M = beta, in slot order; and the commuting
    rows that survive, over the positions of those entries.

    The rows over all slots of the degree block are struck once
    (linalg._strike_forced): an entry they force to zero is zero in every
    solution of every system that includes them, so no solver needs its
    column.  Cached on the algebra per (gamma, with_beta).
    """
    n = a.dim
    slots = _block_slots(a, gamma)
    cols: list[list[int | None]] = [[None] * n for _ in range(n)]
    for idx, (u, t) in enumerate(slots):
        cols[u][t] = idx
    rows = _commuting_rows(a, cols, a.alpha)
    if with_beta:
        rows += _commuting_rows(a, cols, a.beta)
    forced, rows = _strike_forced(rows)
    live = [idx for idx in range(len(slots)) if idx not in forced]
    pos = {idx: p for p, idx in enumerate(live)}
    return (
        tuple(slots[idx] for idx in live),
        tuple({pos[c]: x for c, x in row.items()} for row in rows),
    )


def _solve_blocks(
    a: ColourAlgebra,
    k: int,
    l: int,
    gamma: GroupElement,
    nmaps: int,
    conditions: Sequence[tuple],
    *,
    with_beta: bool = True,
) -> list[tuple[Matrix, ...]]:
    """Kernel of a linear system in ``nmaps`` stacked degree-gamma unknowns,
    gamma reduced.

    Every unknown commutes with alpha (and with beta unless ``with_beta``
    is false); each entry of ``conditions`` is the argument tuple
    (value, left, right[, right_sign]) of one set of :func:`_leibniz_rows`.
    The commutation is solved once per degree by :func:`_commutation`:
    each unknown gets a column for each live entry of its pattern and a
    copy of the surviving commuting rows, and ``by_col[m][t]`` lists the
    live entries (u, column) of column t of unknown m.  Entries outside
    the degree-block pattern and entries the commutation forces to zero
    have no column, and the Leibniz rows drop their terms.  The rows are
    sparse, with integer values, and the kernel is solved by
    :func:`kernel_by_blocks`; its coordinates map back to the entries in
    column order, so the basis is the one of the full system over every
    slot.  Each member is built in integer form from its column terms,
    read off the same integer coordinates, so no check of it scans its
    n^2 entries.  A negative power of a singular map raises ValueError before
    any pattern is cached.
    """
    twisted = [a.int_table("twisted_terms", k, l, r) for r in (True, False)]
    live, commuting = _commutation(a, gamma, with_beta)
    if not live:
        return []
    n = a.dim
    size = len(live)
    by_col: list[list[list[tuple[int, int]]]] = []
    rows = []
    for m in range(nmaps):
        base = m * size
        # the live entries are in slot order, so each column lists its
        # entries in ascending u
        cols_m: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for p, (u, t) in enumerate(live):
            cols_m[t].append((u, base + p))
        by_col.append(cols_m)
        # kernel_by_blocks copies the rows it takes, so the cached rows of
        # the first unknown go in as they are
        rows += (
            commuting if not base
            else ({base + c: x for c, x in row.items()} for row in commuting)
        )
    for cond in conditions:
        rows += _leibniz_rows(a, by_col, gamma, *twisted, *cond)

    out = []
    for coords in kernel_by_blocks(rows, nmaps * size):
        # the live entries are in slot order, (u, t) ascending, so every
        # column t gets its terms (u, x) in ascending u
        terms: list[list[list]] = [[[] for _ in range(n)] for _ in range(nmaps)]
        for c, x in coords.items():
            m, p = divmod(c, size)
            u, t = live[p]
            terms[m][t].append((u, x))
        # each unknown is its terms over d, the entry at the free column,
        # brought to its least scale by their gcd
        d = coords[next(reversed(coords))]
        member = []
        for cols in terms:
            g = gcd(d, *[x for col in cols for _, x in col])
            ints = [[(u, x // g) for u, x in col] for col in cols]
            member.append(Matrix._of(d // g, ints, n))
        out.append(tuple(member))
    return out


def _twisted(a: ColourAlgebra, k: int, l: int) -> tuple[IntTable, IntTable]:
    """The nonempty cells of [e_t, M e_j] at [t][j] by row t and of
    [M e_i, e_t] at [i][t] by column t, M = alpha^k beta^l, as
    ``_bracket_defect`` reads them.  A singular M^-1 raises ValueError."""
    return _twisted_cells(a, k, l, True), _twisted_cells(a, k, l, False)


def _add(row: dict, pos: int | None, c: int) -> None:
    if pos is not None:
        row[pos] = row[pos] + c if pos in row else c


def _commuting_rows(
    a: ColourAlgebra, cols: list[list[int | None]], M: Matrix
) -> list[dict[int, int]]:
    """Rows of  D M - M D = 0, entry (u, j) each, for the unknown D whose
    entry (u, t) is column cols[u][t]: sum_t D_ut M_tj - M_ut D_tj, read
    off the integer form of the columns of M, so every row is scaled by
    its scale.  Rows without terms are left out."""
    n = a.dim
    entries = [
        (t, j, x)
        for j, col in enumerate(M.int_column_terms()[1])
        for t, x in col
    ]
    # the nonzero entries (t, M_ut) of each row u of M, in ascending t
    by_row: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, c, x in entries:
        by_row[r].append((c, x))
    out = []
    for u in range(n):
        by_j: list[dict[int, int]] = [{} for _ in range(n)]
        for t, j, x in entries:
            _add(by_j[j], cols[u][t], x)
        for t, x in by_row[u]:
            nx = -x
            for j in range(n):
                _add(by_j[j], cols[t][j], nx)
        out += (row for row in by_j if row)
    return out


def _leibniz_rows(
    a: ColourAlgebra,
    by_col: list[list[list[tuple[int, int]]]],
    gamma: GroupElement,
    left_table: IntTable,
    right_table: IntTable,
    value_unknown: int | None,
    left_unknown: int | None,
    right_unknown: int | None,
    right_sign: int = 1,
) -> list[dict[int, int]]:
    """Rows of  [D_l(x), M(y)] + s*eps(g,x)[M(x), D_r(y)] - D_v([x,y]),
    M = alpha^k beta^l, set to zero over all basis pairs and coordinates,
    with any of the three slots optional and s = right_sign flipping the
    twisted term for cross conditions.  ``by_col[m][k]`` lists the live
    entries (t, column) of column k of unknown m, as :func:`_solve_blocks`
    numbers them.

    Coordinate u of the pair (i, j) is the row
        sum_t D_l[t][i] [e_t, M e_j]_u
              + s eps(g, e_i) D_r[t][j] [M e_i, e_t]_u - D_v[u][t] [e_i, e_j]_t,
    built from the nonzero terms of the integer copies of the product table
    and of the twisted tables of :func:`_twisted`, each times the factor
    that brings its scale to the lcm of the three: every row is the row
    over the Fraction tables times that lcm, so it has the same kernel.
    The rows of one pair are keyed by u in one dict, and the row of u is
    made when the first term reaches it: a coordinate no term reaches has
    no row, and a pair no term reaches costs only its scans of empty
    cells.  (The sign makes the twisted terms, the most numerous, enter
    unnegated.)
    """
    n = a.dim
    signs = _degree_shift(a, gamma)[1]
    (left_scale, left), (right_scale, right) = left_table, right_table
    product_scale, terms = a.int_table("product_terms")
    scale = lcm(product_scale, left_scale, right_scale)
    if value_unknown is not None:
        value_factor = -(scale // product_scale)
        value_cols = by_col[value_unknown]
    if left_unknown is not None:
        left_factor = scale // left_scale
        left_cols = by_col[left_unknown]
    if right_unknown is not None:
        right_cols = by_col[right_unknown]
    out = []
    for i in range(n):
        if left_unknown is not None:
            # the rows [e_t, M e_j] of the live entries of column i of D_l
            left_i = [(pos, left[t]) for t, pos in left_cols[i]]
        if right_unknown is not None:
            # s eps(g, e_i) [M e_i, e_t] for every t, at the common scale
            w = right_sign * signs[i] * (scale // right_scale)
            right_i = [[(u, w * c) for u, c in cell] for cell in right[i]]
        for j in range(n):
            by_u: dict[int, dict[int, int]] = {}
            if value_unknown is not None:
                for t, c in terms[i][j]:
                    nc = value_factor * c
                    for u, pos in value_cols[t]:
                        row = by_u.get(u)
                        if row is None:
                            row = by_u[u] = {}
                        row[pos] = row.get(pos, 0) + nc
            if left_unknown is not None:
                for pos, table_row in left_i:
                    for u, c in table_row[j]:
                        row = by_u.get(u)
                        if row is None:
                            row = by_u[u] = {}
                        row[pos] = row.get(pos, 0) + left_factor * c
            if right_unknown is not None:
                for t, pos in right_cols[j]:
                    for u, c in right_i[t]:
                        row = by_u.get(u)
                        if row is None:
                            row = by_u[u] = {}
                        row[pos] = row.get(pos, 0) + c
            out += by_u.values()
    return out


@memoized
def _diagonal(a: ColourAlgebra, name: str) -> tuple[int, ...] | None:
    """The integer diagonal of the structure map ``name`` if every column
    is on it (``linalg.int_diagonal``), else None; cached."""
    cols = getattr(a, name).int_column_terms()[1]
    diag = tuple(int_diagonal(cols).values())
    return diag if len(diag) == len(cols) else None


def _commutes_with_maps(
    a: ColourAlgebra, m: Matrix, with_beta: bool = True
) -> bool:
    """m M = M m for M = alpha (and beta).  A diagonal M commutes with m
    iff M_uu = M_jj at each nonzero entry (u, j) of m, as (m M - M m)_uj =
    m_uj (M_jj - M_uu); any other M is read by :func:`_commutator`."""
    for name in ("alpha", "beta") if with_beta else ("alpha",):
        diag = _diagonal(a, name)
        if diag is None:
            if _commutator(m, getattr(a, name)) is not None:
                return False
        elif any(
            diag[u] != diag[j]
            for j, col in enumerate(m.int_column_terms()[1])
            for u, _ in col
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# the kinds: their membership predicates (also the post-solve verifiers)
# and their solvers


# One row per kind (see the module docstring): the number of unknowns and
# the conditions, each the unknowns in the slots (value, left, right[, s])
# of one identity, None for an absent term.
_KINDS: dict[str, tuple[int, tuple[tuple, ...]]] = {
    "derivation": (1, ((0, 0, 0),)),
    "quasi_derivation": (2, ((1, 0, 0),)),
    "generalized_derivation": (3, ((2, 0, 1),)),
    "centroid": (1, ((0, 0, None), (0, None, 0))),
    "quasi_centroid": (1, ((None, 0, 0, -1),)),
}


def _satisfies(
    a: ColourAlgebra,
    kind: str,
    k: int,
    l: int,
    *endos: HomEndo,
    with_beta: bool = True,
) -> bool:
    """Whether ``endos``, the unknowns of ``kind`` in order, share one
    degree, are homogeneous of it, commute with alpha (and with beta when
    ``with_beta``) and satisfy every condition of the kind's row."""
    gamma = endos[0].degree
    if any(e.degree != gamma for e in endos):
        return False
    tw = _twisted(a, k, l)
    # the matrix of each unknown by slot index; pick(None) is None
    pick = dict(enumerate(e.matrix for e in endos)).get
    return all(
        is_homogeneous_endo(a, e.matrix, gamma)
        and _commutes_with_maps(a, e.matrix, with_beta)
        for e in endos
    ) and all(
        _bracket_defect(a, gamma, tw, *map(pick, cond[:3]), *cond[3:]) is None
        for cond in _KINDS[kind][1]
    )


def _solve(
    a: ColourAlgebra,
    kind: str,
    k: int,
    l: int,
    gamma: GroupElement,
    verify: Callable[..., bool],
    strict: bool | None = None,
) -> SolverResult:
    """The basis of ``kind`` at degree gamma, assembled from its row by
    :func:`_solve_blocks`; every member is re-verified by ``verify``, the
    kind's public predicate, before it is returned.  ``strict`` is None for
    the kinds without that option, and true drops the beta commutation."""
    nmaps, conditions = _KINDS[kind]
    g = a.basis.group.reduce(gamma)
    opts = {} if strict is None else {"strict": strict}
    sols = _solve_blocks(a, k, l, g, nmaps, conditions, with_beta=not strict)
    basis = [tuple(HomEndo(m, g) for m in mats) for mats in sols]
    for members in basis:
        _reverify(verify(a, k, l, *members, **opts))
    basis = tuple(m[0] if nmaps == 1 else m for m in basis)
    return SolverResult(kind, k, l, g, basis, len(basis))


def _reverify(ok: bool) -> None:
    if not ok:
        raise RuntimeError(
            "solver returned a basis member that fails its own defining "
            "identities; this is a bug, not bad input"
        )


def is_derivation(a: ColourAlgebra, k: int, l: int, d: HomEndo) -> bool:
    return _satisfies(a, "derivation", k, l, d)


def is_quasi_derivation_pair(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, d1: HomEndo
) -> bool:
    return _satisfies(a, "quasi_derivation", k, l, d, d1)


def is_generalized_triple(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, d1: HomEndo, d2: HomEndo
) -> bool:
    return _satisfies(a, "generalized_derivation", k, l, d, d1, d2)


def is_centroid_member(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, *, strict: bool = False
) -> bool:
    return _satisfies(a, "centroid", k, l, d, with_beta=not strict)


def is_quasi_centroid_member(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, *, strict: bool = False
) -> bool:
    return _satisfies(a, "quasi_centroid", k, l, d, with_beta=not strict)


def derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Twisted-Leibniz solutions of one degree:

        D([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D(y)],   m = alpha^k beta^l,

    with D commuting with alpha and beta.  Negative k or l use exact
    inverses and require regular maps.
    """
    return _solve(a, "derivation", k, l, gamma, is_derivation)


def inner_derivation_space(
    a: ColourAlgebra, k: int, l: int
) -> SolverResult:
    """Span of the maps y -> [m(y), x] over x fixed by both structure maps.

    Each fixed homogeneous x contributes one generator of degree deg(x);
    the result is an independent subset of these, across all degrees
    (gamma is None in the result).  The fixed vectors of one degree are
    the kernel (:func:`kernel_by_blocks`) of the integer rows of alpha - 1
    and beta - 1 over its columns, each map's column scale subtracted on
    the diagonal.  Column j of the generator of x = v / v[f], v a
    kernel vector and f its free column, is the sum of v_i [m e_j, e_i]
    over v[f], summed in integers over ``int_table("twisted_terms", k,
    l)``, and the generator joins the span by those terms.
    """
    scale, table = a.int_table("twisted_terms", k, l)
    n = a.dim
    maps = [m.int_column_terms() for m in (a.alpha, a.beta)]
    basis: list[HomEndo] = []
    span = EchelonBasis()
    for gdeg in sorted(set(a.basis.degrees)):
        block = [i for i in range(n) if a.degree(i) == gdeg]
        rows: list[dict[int, int]] = []
        for map_scale, cols in maps:
            by_row: list[dict[int, int]] = [{} for _ in range(n)]
            for p, i in enumerate(block):
                by_row[i][p] = -map_scale
                for r, x in cols[i]:
                    by_row[r][p] = by_row[r].get(p, 0) + x
            rows += by_row
        for coords in kernel_by_blocks(rows, len(block)):
            sums: list[dict[int, int]] = [{} for _ in range(n)]
            for p, x in coords.items():
                for col, cells in zip(sums, table):
                    for u, c in cells[block[p]]:
                        col[u] = col.get(u, 0) + x * c
            terms = [sorted((u, y) for u, y in d.items() if y) for d in sums]
            mat = Matrix._of(coords[next(reversed(coords))] * scale, terms, n)
            if span.add_sparse(_entry_terms(mat)):
                basis.append(HomEndo(mat, gdeg))
    return SolverResult("inner", k, l, None, tuple(basis), len(basis))


def quasi_derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Pairs (D, D1), both commuting with alpha and beta, with

        D1([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D(y)].
    """
    return _solve(a, "quasi_derivation", k, l, gamma, is_quasi_derivation_pair)


def generalized_derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Triples (D, D1, D2), all commuting with alpha and beta, with

        D2([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D1(y)].
    """
    return _solve(
        a, "generalized_derivation", k, l, gamma, is_generalized_triple
    )


def centroid_space(
    a: ColourAlgebra,
    k: int,
    l: int,
    gamma: GroupElement,
    *,
    strict: bool = False,
) -> SolverResult:
    """Maps whose twisted Leibniz terms each equal the bracket image:

        D([x, y]) = [D(x), m(y)]  and  D([x, y]) = eps(g, x)[m(x), D(y)].

    By default D must commute with both structure maps; ``strict=True``
    drops the beta condition, for the convention that constrains D
    against alpha only.
    """
    return _solve(a, "centroid", k, l, gamma, is_centroid_member, strict)


def quasi_centroid_space(
    a: ColourAlgebra,
    k: int,
    l: int,
    gamma: GroupElement,
    *,
    strict: bool = False,
) -> SolverResult:
    """Maps with the cross condition alone:

        [D(x), m(y)] = eps(g, x)[m(x), D(y)].
    """
    return _solve(
        a, "quasi_centroid", k, l, gamma, is_quasi_centroid_member, strict
    )


# ---------------------------------------------------------------------------
# the product on homogeneous endomorphisms


def jordan_product(
    d1: HomEndo, d2: HomEndo, eps: Bicharacter, *, sign: int = 1
) -> HomEndo:
    """D1 . D2 + eps(d1, d2) D2 . D1, of degree d1 + d2.

    ``sign=-1`` gives the commutator variant (the colour bracket); it is
    kept selectable because one corollary defines the product that way.
    """
    if d1.matrix.ncols != d2.matrix.ncols:
        raise ValueError("endomorphisms act on different spaces")
    w = Fraction(sign) * eps.eval(d1.degree, d2.degree)
    mat = d1.matrix * d2.matrix + (d2.matrix * d1.matrix).scale(w)
    return HomEndo(mat, eps.group.add(d1.degree, d2.degree))


def _endo_witness(
    space_names: Sequence[str], idx: tuple[int, ...], col: Vec
) -> Witness:
    """The witness of the first nonzero defect column ``col`` at the tuple
    ``idx``; ValueError naming the tuple for an entry too large to write
    (see :func:`~bihomlie.linalg.write_scalar`)."""
    names = tuple(space_names[i] for i in idx)
    item = f"an entry of the defect column at ({', '.join(names)})"
    desc = ", ".join(write_scalar(x, item) for x in col)
    return Witness(idx, names, col, f"column ({desc})")


def jordan_closure(
    space: Sequence[HomEndo], eps: Bicharacter, *, sign: int = 1
) -> list[HomEndo]:
    """Close a family under the product, returning a spanning subset.

    Iterates products of current members and keeps those that grow the
    span; terminates because everything lives inside a fixed matrix space.
    """
    span = EchelonBasis()
    members = [d for d in space if span.add_sparse(_entry_terms(d.matrix))]
    frontier = list(members)
    while frontier:
        fresh = []
        for d1 in members:
            for d2 in frontier:
                for prod in (
                    jordan_product(d1, d2, eps, sign=sign),
                    jordan_product(d2, d1, eps, sign=sign),
                ):
                    if span.add_sparse(_entry_terms(prod.matrix)):
                        fresh.append(prod)
        members.extend(fresh)
        frontier = fresh
    return members


def check_jordan_axioms(
    space: Sequence[HomEndo],
    eps: Bicharacter,
    alphaOp: Matrix,
    betaOp: Matrix,
    *,
    sign: int = 1,
) -> AxiomReport:
    """Verify the colour Jordan identities of the product on a family.

    The structure maps act on endomorphisms by postcomposition.  Checks:
    the two maps commute; the product is colour-commutative in the
    twisted sense mu(beta D1, alpha D2) = eps(d1,d2) mu(beta D2, alpha D1);
    and the four-variable identity

        sum_cyc eps(w, x+z) as(mu(beta^2 x, alphabeta y), alpha^2beta z, alpha^3 w) = 0

    where as(u, v, w) = mu(alpha u, mu(v, w)) - mu(mu(u, v), beta w) and
    the cycle runs over (x, y, w) with z fixed (with identity structure
    maps this is the classical linearized Jordan identity, and it holds
    on derivation spaces).  Closure of the family under the product is
    reported as an advisory item (evaluation does not need it).

    Each composite of a member with the structure maps is built once, and
    so is every product of fewer than four members:
    U[x][y] = mu(beta^2 x, alphabeta y), alpha U[x][y],
    V[z][w] = mu(alpha^2beta z, alpha^3 w) and P[x][y][z] =
    mu(U[x][y], alpha^2beta z).  One term of the cycle is then
    eps(w, x+z)(mu(alpha U[x][y], V[z][w]) - mu(P[x][y][z], beta alpha^3 w)),
    two products, built once.  Each item's witness is its first failing tuple.
    """
    space = list(space)
    n = len(space)
    names = [f"D{i}" for i in range(n)]
    degrees = [d.degree for d in space]
    group = eps.group

    def mu(x: HomEndo, y: HomEndo) -> HomEndo:
        return jordan_product(x, y, eps, sign=sign)

    def then(m: Matrix, ds: Sequence[HomEndo]) -> list[HomEndo]:
        return [HomEndo(m * d.matrix, d.degree) for d in ds]

    def scale_of(ds: Iterable[HomEndo]) -> int:
        return lcm(*[d.matrix.int_column_terms()[0] for d in ds])

    def add(sums: dict, keys: list, m: Matrix, scale: int) -> None:
        """Add f m, column c at key + (c,), for each (key, f) of ``keys``."""
        own, cols = m.int_column_terms()
        for key, f in keys:
            for c, col in enumerate(cols):
                _add_at(sums, (*key, c), f * (scale // own), col)

    def item(name: str, sums: dict, scale: int) -> CheckItem:
        bad = _least_sum(sums, alphaOp.nrows, scale)
        witness = bad and _endo_witness(names, bad[0][:-1], bad[1])
        return CheckItem(name, not bad, witness)

    # the first product that grows the span leaves it
    note = ""
    span = EchelonBasis()
    for d in space:
        span.add_sparse(_entry_terms(d.matrix))
    for i, j in iproduct(range(n), repeat=2):
        if span.add_sparse(_entry_terms(mu(space[i], space[j]).matrix)):
            note = f"product of {names[i]} and {names[j]} leaves the span"
            break

    # C[i][j] = mu(beta D_i, alpha D_j), and -eps(d_j, d_i) C[i][j] at (j, i)
    alpha_d = then(alphaOp, space)
    C = [[mu(b, a) for a in alpha_d] for b in then(betaOp, space)]
    c_scale = scale_of(c for row in C for c in row)
    commutative: dict[tuple, dict] = {}
    for i, j in iproduct(range(n), repeat=2):
        keys = [((i, j), 1), ((j, i), -eps.eval(degrees[j], degrees[i]))]
        add(commutative, keys, C[i][j].matrix, c_scale)

    ab = alphaOp * betaOp
    a3_d = then(alphaOp * alphaOp * alphaOp, space)
    a2b_d = then(alphaOp * ab, space)
    ba3_d = then(betaOp, a3_d)
    U = [
        [mu(b2x, aby) for aby in then(ab, space)]
        for b2x in then(betaOp * betaOp, space)
    ]
    alpha_U = [then(alphaOp, row) for row in U]
    V = [[mu(z, w) for w in a3_d] for z in a2b_d]
    P = [[[mu(u, z) for z in a2b_d] for u in row] for row in U]
    # a multiple of the scale of every term
    scale = lcm(
        scale_of(u for row in alpha_U for u in row)
        * scale_of(v for row in V for v in row),
        scale_of(p for rows in P for row in rows for p in row)
        * scale_of(ba3_d),
    )
    jordan: dict[tuple, dict] = {}
    for x, y, z, w in iproduct(range(n), repeat=4):
        pref = eps.eval(degrees[w], group.add(degrees[x], degrees[z]))
        term = (
            mu(alpha_U[x][y], V[z][w]).matrix
            - mu(P[x][y][z], ba3_d[w]).matrix
        ).scale(pref)
        # the tuples whose (x, y, w) cycle holds this term, z fixed
        cycle = ((x, y, z, w), (w, x, z, y), (y, w, z, x))
        add(jordan, [(key, 1) for key in cycle], term, scale)

    comm = _commutator(alphaOp, betaOp, by_column=True)
    witness = comm and _endo_witness(names, (), comm[2])
    return AxiomReport(
        [
            CheckItem("structure_maps_commute", not comm, witness),
            CheckItem(
                "closed_under_product", not note, advisory=True, note=note
            ),
            item("colour_commutative", commutative, c_scale),
            item("jordan_identity", jordan, scale),
        ]
    )
