"""Exact solvers for twisted derivations, centroids and their relatives.

Every space here is cut out of the homogeneous endomorphisms of a colour
algebra by linear conditions: a twisted Leibniz law, a centroid law, or a
cross condition, always together with commutation against the two structure
maps.  The solvers assemble the conditions as sparse rows over the entries
of one degree block, reading the nonzero terms of the product and twisted
product tables; split the entries into the independent blocks those rows
link and take the exact kernel of each (linalg.kernel_by_blocks); and
re-substitute every basis member into the defining identities before
returning (a wrong answer here would poison everything downstream, so the
few extra multiplications are cheap insurance).

The product D1 . D2 + eps(d1, d2) D2 . D1 turns homogeneous endomorphisms
into a colour analogue of a special Jordan algebra; check_jordan_axioms
verifies its defining identities on a finite family, evaluating all
compositions in the ambient endomorphism algebra, so the family itself
does not have to be closed under the product (derivation spaces rarely
are; see jordan_closure).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .algebra import AxiomReport, CheckItem, ColourAlgebra, Witness
from .grading import Bicharacter, GroupElement
from .linalg import (
    Matrix,
    Vec,
    add_scaled,
    in_span,
    is_zero_vec,
    kernel_by_blocks,
    vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

CYCLING_CONVENTIONS = ("xyw", "xzw")
DEFAULT_CYCLING = "xyw"


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
    group = a.basis.group
    g = group.reduce(gamma)
    degrees = a.basis.degrees
    image = [group.add(d, g) for d in degrees]  # the degree of D(e_t)
    return all(
        not x or degrees[u] == image[t]
        for u, row in enumerate(matrix.rows)
        for t, x in enumerate(row)
    )


@dataclass(frozen=True)
class SolverResult:
    """Basis of one solution space, with the parameters that cut it out.

    ``basis`` holds HomEndo members for the one-unknown kinds and tuples of
    HomEndo for the pair/triple systems; ``dimension`` is its length (the
    dimension of the full stacked solution space).
    """

    kind: str
    k: int
    l: int
    gamma: Optional[GroupElement]
    basis: tuple
    dimension: int

    def component_basis(self, idx: int = 0) -> list[HomEndo]:
        """Independent spanning subset of one tuple slot's projections."""
        members = []
        flats: list[Vec] = []
        for entry in self.basis:
            endo = entry[idx] if isinstance(entry, tuple) else entry
            flat = _flatten(endo.matrix)
            if is_zero_vec(flat) or in_span(flats, flat):
                continue
            flats.append(flat)
            members.append(endo)
        return members

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


def _flatten(m: Matrix) -> Vec:
    return vec(x for row in m.rows for x in row)


def _block_slots(
    a: ColourAlgebra, gamma: GroupElement
) -> list[tuple[int, int]]:
    g = a.basis.group.reduce(gamma)
    return [
        (u, t)
        for u in range(a.dim)
        for t in range(a.dim)
        if a.degree(u) == a.basis.group.add(a.degree(t), g)
    ]


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
    """Kernel of a linear system in ``nmaps`` stacked degree-gamma unknowns.

    Every unknown commutes with alpha (and with beta unless ``with_beta``
    is false); each entry of ``conditions`` is the argument tuple
    (value, left, right[, right_sign]) of one set of :func:`_leibniz_rows`.
    Entry (u, t) of unknown m is column ``cols[m][u][t]``; entries outside
    the degree-block pattern are identically zero, have no column, and
    their terms are dropped.  The rows are sparse and the kernel is solved
    per linked block of columns by :func:`kernel_by_blocks`.
    """
    twisted = [_table_terms(table) for table in _twisted(a, k, l)]
    slots = _block_slots(a, gamma)
    if not slots:
        return []
    n = a.dim
    cols: list[list[list[Optional[int]]]] = [
        [[None] * n for _ in range(n)] for _ in range(nmaps)
    ]
    for m in range(nmaps):
        for idx, (u, t) in enumerate(slots):
            cols[m][u][t] = m * len(slots) + idx

    rows = []
    for m in range(nmaps):
        rows += _commuting_rows(a, cols[m], a.alpha)
        if with_beta:
            rows += _commuting_rows(a, cols[m], a.beta)
    for cond in conditions:
        rows += _leibniz_rows(a, cols, gamma, *twisted, *cond)

    out = []
    for coords in kernel_by_blocks(rows, nmaps * len(slots)):
        entries = [[[_ZERO] * n for _ in range(n)] for _ in range(nmaps)]
        for c, x in coords.items():
            m, idx = divmod(c, len(slots))
            u, t = slots[idx]
            entries[m][u][t] = x
        out.append(tuple(Matrix(e) for e in entries))
    return out


def _twisted(
    a: ColourAlgebra, k: int, l: int
) -> tuple[tuple[tuple[Vec, ...], ...], ...]:
    """The twisted product tables [e_t, M e_j] at [t][j] and [M e_i, e_t]
    at [i][t], M = alpha^k beta^l, cached on the algebra.  A negative
    power of a singular map raises ValueError."""
    return a.twisted_products(k, l, right=True), a.twisted_products(k, l)


def _table_terms(table) -> list[list[list[tuple[int, Fraction]]]]:
    """The nonzero terms (u, c) of every vector of a table of vectors."""
    return [
        [[(u, c) for u, c in enumerate(v) if c] for v in row] for row in table
    ]


def _add(row: dict, pos: Optional[int], c: Fraction) -> None:
    if pos is not None:
        row[pos] = row[pos] + c if pos in row else c


def _commuting_rows(
    a: ColourAlgebra, cols: list[list[Optional[int]]], M: Matrix
) -> list[dict[int, Fraction]]:
    """Rows of  D M - M D = 0, entry (u, j) each, for the unknown D whose
    entry (u, t) is column cols[u][t]: sum_t D_ut M_tj - M_ut D_tj."""
    n = a.dim
    entries = [
        (t, j, x)
        for t, row in enumerate(M.rows)
        for j, x in enumerate(row)
        if x
    ]
    out = []
    for u in range(n):
        by_j: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for t, j, x in entries:
            _add(by_j[j], cols[u][t], x)
        for t, x in enumerate(M.rows[u]):
            if x:
                for j in range(n):
                    _add(by_j[j], cols[t][j], -x)
        out += by_j
    return out


def _leibniz_rows(
    a: ColourAlgebra,
    cols: list[list[list[Optional[int]]]],
    gamma: GroupElement,
    left_table: list,
    right_table: list,
    value_unknown: Optional[int],
    left_unknown: Optional[int],
    right_unknown: Optional[int],
    right_sign: Fraction = _ONE,
) -> list[dict[int, Fraction]]:
    """Rows of  D_v([x,y]) - [D_l(x), M(y)] - s*eps(g,x)[M(x), D_r(y)],
    M = alpha^k beta^l, set to zero over all basis pairs and coordinates,
    with any of the three slots optional and s = right_sign flipping the
    twisted term for cross conditions.

    Coordinate u of the pair (i, j) is the row
        sum_t D_v[u][t] [e_i, e_j]_t - D_l[t][i] [e_t, M e_j]_u
              - s eps(g, e_i) D_r[t][j] [M e_i, e_t]_u,
    built from the nonzero terms of the product table and of the twisted
    tables of :func:`_twisted`, given as terms (see :func:`_table_terms`).
    """
    n = a.dim
    g = a.basis.group.reduce(gamma)
    terms = a.product_terms()
    if value_unknown is not None:
        # for each t, the rows u with their column of D_v[u][t]
        dv = cols[value_unknown]
        value_cols = [
            [(u, dv[u][t]) for u in range(n) if dv[u][t] is not None]
            for t in range(n)
        ]
    out = []
    for i in range(n):
        w = right_sign * Fraction(a.eps.eval(g, a.degree(i)))
        for j in range(n):
            by_u: list[dict[int, Fraction]] = [{} for _ in range(n)]
            if value_unknown is not None:
                for t, c in terms[i][j]:
                    for u, pos in value_cols[t]:
                        _add(by_u[u], pos, c)
            if left_unknown is not None:
                for t in range(n):
                    pos = cols[left_unknown][t][i]
                    if pos is not None:
                        for u, c in left_table[t][j]:
                            _add(by_u[u], pos, -c)
            if right_unknown is not None:
                for t in range(n):
                    pos = cols[right_unknown][t][j]
                    if pos is not None:
                        for u, c in right_table[i][t]:
                            _add(by_u[u], pos, -(w * c))
            out += by_u
    return out


def _bracket_defect(
    a: ColourAlgebra,
    gamma: GroupElement,
    twisted: tuple,
    d_value: Optional[Matrix],
    d_left: Optional[Matrix],
    d_right: Optional[Matrix],
    right_sign: Fraction = _ONE,
) -> Optional[tuple[int, int, Vec]]:
    """First basis pair violating
    value([x,y]) = [left(x), M y] + s*eps(g,x)[M x, right(y)].

    Each side is a sum over nonzero entries: the columns of d_value over
    the terms of [e_i, e_j], and the ``twisted`` tables of
    :func:`_twisted`, [e_t, M e_j] over column i of d_left and
    [M e_i, e_t] over column j of d_right.
    """
    n = a.dim
    g = a.basis.group.reduce(gamma)
    terms = a.product_terms()
    left, right = twisted
    vcols = d_value.columns() if d_value is not None else None
    lcols = d_left.columns() if d_left is not None else None
    rcols = d_right.columns() if d_right is not None else None
    for i in range(n):
        w = right_sign * Fraction(a.eps.eval(g, a.degree(i)))
        for j in range(n):
            acc = [_ZERO] * n
            if vcols is not None:
                for t, c in terms[i][j]:
                    add_scaled(acc, c, vcols[t])
            if lcols is not None:
                for t, x in enumerate(lcols[i]):
                    if x:
                        add_scaled(acc, -x, left[t][j])
            if rcols is not None:
                for t, x in enumerate(rcols[j]):
                    if x:
                        add_scaled(acc, -(w * x), right[i][t])
            if any(acc):
                return i, j, tuple(acc)
    return None


def _commutes_with_maps(
    a: ColourAlgebra, m: Matrix, with_beta: bool = True
) -> bool:
    """m M = M m for M = alpha (and beta), column by column:
    sum_t M_tj m(e_t) = sum_t m_tj M(e_t)."""
    mcols = m.columns()
    for M in (a.alpha, a.beta) if with_beta else (a.alpha,):
        Mcols = M.columns()
        for j in range(a.dim):
            acc = [_ZERO] * a.dim
            for t, x in enumerate(Mcols[j]):
                if x:
                    add_scaled(acc, x, mcols[t])
            for t, x in enumerate(mcols[j]):
                if x:
                    add_scaled(acc, -x, Mcols[t])
            if any(acc):
                return False
    return True


# ---------------------------------------------------------------------------
# membership predicates (also the post-solve verifiers)


def is_derivation(a: ColourAlgebra, k: int, l: int, d: HomEndo) -> bool:
    tw = _twisted(a, k, l)
    return (
        is_homogeneous_endo(a, d.matrix, d.degree)
        and _commutes_with_maps(a, d.matrix)
        and _bracket_defect(a, d.degree, tw, d.matrix, d.matrix, d.matrix)
        is None
    )


def is_quasi_derivation_pair(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, d1: HomEndo
) -> bool:
    if d.degree != d1.degree:
        return False
    tw = _twisted(a, k, l)
    return (
        is_homogeneous_endo(a, d.matrix, d.degree)
        and is_homogeneous_endo(a, d1.matrix, d1.degree)
        and _commutes_with_maps(a, d.matrix)
        and _commutes_with_maps(a, d1.matrix)
        and _bracket_defect(a, d.degree, tw, d1.matrix, d.matrix, d.matrix)
        is None
    )


def is_generalized_triple(
    a: ColourAlgebra,
    k: int,
    l: int,
    d: HomEndo,
    d1: HomEndo,
    d2: HomEndo,
) -> bool:
    if not (d.degree == d1.degree == d2.degree):
        return False
    tw = _twisted(a, k, l)
    return (
        all(
            is_homogeneous_endo(a, e.matrix, e.degree)
            and _commutes_with_maps(a, e.matrix)
            for e in (d, d1, d2)
        )
        and _bracket_defect(a, d.degree, tw, d2.matrix, d.matrix, d1.matrix)
        is None
    )


def is_centroid_member(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, *, strict: bool = False
) -> bool:
    tw = _twisted(a, k, l)
    return (
        is_homogeneous_endo(a, d.matrix, d.degree)
        and _commutes_with_maps(a, d.matrix, with_beta=not strict)
        and _bracket_defect(a, d.degree, tw, d.matrix, d.matrix, None)
        is None
        and _bracket_defect(a, d.degree, tw, d.matrix, None, d.matrix)
        is None
    )


def is_quasi_centroid_member(
    a: ColourAlgebra, k: int, l: int, d: HomEndo, *, strict: bool = False
) -> bool:
    tw = _twisted(a, k, l)
    return (
        is_homogeneous_endo(a, d.matrix, d.degree)
        and _commutes_with_maps(a, d.matrix, with_beta=not strict)
        and _bracket_defect(
            a, d.degree, tw, None, d.matrix, d.matrix, right_sign=-_ONE
        )
        is None
    )


def _reverify(ok: bool) -> None:
    if not ok:
        raise RuntimeError(
            "solver returned a basis member that fails its own defining "
            "identities; this is a bug, not bad input"
        )


# ---------------------------------------------------------------------------
# solvers


def derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Twisted-Leibniz solutions of one degree:

        D([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D(y)],   m = alpha^k beta^l,

    with D commuting with alpha and beta.  Negative k or l use exact
    inverses and require regular maps.
    """
    g = a.basis.group.reduce(gamma)
    sols = _solve_blocks(a, k, l, g, 1, [(0, 0, 0)])
    basis = tuple(HomEndo(mats[0], g) for mats in sols)
    for d in basis:
        _reverify(is_derivation(a, k, l, d))
    return SolverResult("derivation", k, l, g, basis, len(basis))


def inner_derivation_space(
    a: ColourAlgebra, k: int, l: int
) -> SolverResult:
    """Span of the maps y -> [m(y), x] over x fixed by both structure maps.

    Each fixed homogeneous x contributes one generator of degree deg(x);
    the result is an independent subset of these, across all degrees
    (gamma is None in the result).
    """
    m = a.ab_power(k, l)
    group = a.basis.group
    ida = Matrix.identity(a.dim)
    stacked = Matrix(
        list((a.alpha - ida).rows) + list((a.beta - ida).rows)
    )
    basis: list[HomEndo] = []
    flats: list[Vec] = []
    degrees_seen = sorted(set(a.basis.degrees))
    for gdeg in degrees_seen:
        block = [i for i in range(a.dim) if a.degree(i) == gdeg]
        cols = [stacked.column(i) for i in block]
        sub = Matrix.from_cols(cols)
        for kv in sub.kernel_basis():
            x = [_ZERO] * a.dim
            for pos, i in enumerate(block):
                x[i] = kv[pos]
            xv = vec(x)
            mat = Matrix.from_cols(
                [a.product_eval(mj, xv) for mj in m.columns()]
            )
            flat = _flatten(mat)
            if is_zero_vec(flat) or in_span(flats, flat):
                continue
            flats.append(flat)
            basis.append(HomEndo(mat, gdeg))
    return SolverResult(
        "inner", k, l, None, tuple(basis), len(basis)
    )


def quasi_derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Pairs (D, D1), both commuting with alpha and beta, with

        D1([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D(y)].
    """
    g = a.basis.group.reduce(gamma)
    sols = _solve_blocks(a, k, l, g, 2, [(1, 0, 0)])
    basis = tuple(
        (HomEndo(mats[0], g), HomEndo(mats[1], g)) for mats in sols
    )
    for d, d1 in basis:
        _reverify(is_quasi_derivation_pair(a, k, l, d, d1))
    return SolverResult("quasi_derivation", k, l, g, basis, len(basis))


def generalized_derivation_space(
    a: ColourAlgebra, k: int, l: int, gamma: GroupElement
) -> SolverResult:
    """Triples (D, D1, D2), all commuting with alpha and beta, with

        D2([x, y]) = [D(x), m(y)] + eps(g, x)[m(x), D1(y)].
    """
    g = a.basis.group.reduce(gamma)
    sols = _solve_blocks(a, k, l, g, 3, [(2, 0, 1)])
    basis = tuple(
        (HomEndo(mats[0], g), HomEndo(mats[1], g), HomEndo(mats[2], g))
        for mats in sols
    )
    for d, d1, d2 in basis:
        _reverify(is_generalized_triple(a, k, l, d, d1, d2))
    return SolverResult(
        "generalized_derivation", k, l, g, basis, len(basis)
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
    g = a.basis.group.reduce(gamma)
    sols = _solve_blocks(
        a, k, l, g, 1, [(0, 0, None), (0, None, 0)], with_beta=not strict
    )
    basis = tuple(HomEndo(mats[0], g) for mats in sols)
    for d in basis:
        _reverify(is_centroid_member(a, k, l, d, strict=strict))
    return SolverResult("centroid", k, l, g, basis, len(basis))


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
    g = a.basis.group.reduce(gamma)
    sols = _solve_blocks(
        a, k, l, g, 1, [(None, 0, 0, -_ONE)], with_beta=not strict
    )
    basis = tuple(HomEndo(mats[0], g) for mats in sols)
    for d in basis:
        _reverify(is_quasi_centroid_member(a, k, l, d, strict=strict))
    return SolverResult("quasi_centroid", k, l, g, basis, len(basis))


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


def colour_bracket(d1: HomEndo, d2: HomEndo, eps: Bicharacter) -> HomEndo:
    """D1 . D2 - eps(d1, d2) D2 . D1."""
    return jordan_product(d1, d2, eps, sign=-1)


def _compose(m: Matrix, d: HomEndo) -> HomEndo:
    return HomEndo(m * d.matrix, d.degree)


def _endo_witness(
    space_names: Sequence[str], idx: tuple[int, ...], diff: Matrix
) -> Witness:
    col = next(
        diff.column(c)
        for c in range(diff.ncols)
        if not is_zero_vec(diff.column(c))
    )
    desc = ", ".join(str(x) for x in col)
    return Witness(
        idx, tuple(space_names[i] for i in idx), col, f"column ({desc})"
    )


def jordan_closure(
    space: Sequence[HomEndo], eps: Bicharacter, *, sign: int = 1
) -> list[HomEndo]:
    """Close a family under the product, returning a spanning subset.

    Iterates products of current members and keeps those that grow the
    span; terminates because everything lives inside a fixed matrix space.
    """
    members = []
    flats: list[Vec] = []
    for d in space:
        flat = _flatten(d.matrix)
        if not is_zero_vec(flat) and not in_span(flats, flat):
            flats.append(flat)
            members.append(d)
    frontier = list(members)
    while frontier:
        fresh = []
        for d1 in members:
            for d2 in frontier:
                for prod in (
                    jordan_product(d1, d2, eps, sign=sign),
                    jordan_product(d2, d1, eps, sign=sign),
                ):
                    flat = _flatten(prod.matrix)
                    if not is_zero_vec(flat) and not in_span(flats, flat):
                        flats.append(flat)
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
    cycling: str = DEFAULT_CYCLING,
    sign: int = 1,
    require_closed: bool = False,
) -> AxiomReport:
    """Verify the colour Jordan identities of the product on a family.

    The structure maps act on endomorphisms by postcomposition.  Checks:
    the two maps commute; the product is colour-commutative in the
    twisted sense mu(beta D1, alpha D2) = eps(d1,d2) mu(beta D2, alpha D1);
    and the four-variable identity

        sum_cyc eps(w, x+z) as(mu(beta^2 x, alphabeta y), alpha^2beta z, alpha^3 w) = 0

    where as(u, v, w) = mu(alpha u, mu(v, w)) - mu(mu(u, v), beta w) and
    the cycle runs over (x, y, w) with z fixed by default (with identity
    structure maps this is the classical linearized Jordan identity, and
    it is the variant that holds on derivation spaces); ``cycling="xzw"``
    rotates (x, z, w) with y fixed instead.  Closure of the family under
    the product is reported as an advisory item (evaluation does not need
    it); ``require_closed=True`` turns a closure failure into an error.
    """
    if cycling not in CYCLING_CONVENTIONS:
        raise ValueError(
            f"unknown cycling convention {cycling!r}; "
            f"expected one of {CYCLING_CONVENTIONS}"
        )
    space = list(space)
    names = [f"D{i}" for i in range(len(space))]
    group = eps.group
    items: list[CheckItem] = []

    comm = alphaOp * betaOp - betaOp * alphaOp
    items.append(
        CheckItem(
            "structure_maps_commute",
            comm.is_zero(),
            None
            if comm.is_zero()
            else _endo_witness(names, (), comm),
        )
    )

    def mu(x: HomEndo, y: HomEndo) -> HomEndo:
        return jordan_product(x, y, eps, sign=sign)

    closed = True
    closure_note = ""
    space_flats = [_flatten(d.matrix) for d in space]
    for i, d1 in enumerate(space):
        for j, d2 in enumerate(space):
            flat = _flatten(mu(d1, d2).matrix)
            if not is_zero_vec(flat) and not in_span(space_flats, flat):
                closed = False
                closure_note = (
                    f"product of {names[i]} and {names[j]} leaves the span"
                )
                break
        if not closed:
            break
    if require_closed and not closed:
        raise ValueError(f"family is not closed under the product: "
                         f"{closure_note}")
    items.append(
        CheckItem(
            "closed_under_product",
            closed,
            advisory=True,
            note=closure_note,
        )
    )

    cc = CheckItem("colour_commutative", True)
    for i, d1 in enumerate(space):
        if not cc.passed:
            break
        for j, d2 in enumerate(space):
            lhs = mu(_compose(betaOp, d1), _compose(alphaOp, d2))
            rhs = mu(_compose(betaOp, d2), _compose(alphaOp, d1)).scale(
                eps.eval(d1.degree, d2.degree)
            )
            diff = lhs.matrix - rhs.matrix
            if not diff.is_zero():
                cc = CheckItem(
                    "colour_commutative",
                    False,
                    _endo_witness(names, (i, j), diff),
                )
                break
    items.append(cc)

    def assoc(u: HomEndo, v: HomEndo, w: HomEndo) -> Matrix:
        return (
            mu(_compose(alphaOp, u), mu(v, w)).matrix
            - mu(mu(u, v), _compose(betaOp, w)).matrix
        )

    b2 = betaOp * betaOp
    ab = alphaOp * betaOp
    a2b = alphaOp * ab
    a3 = alphaOp * alphaOp * alphaOp

    def term(x: HomEndo, y: HomEndo, z: HomEndo, w: HomEndo) -> Matrix:
        u = mu(_compose(b2, x), _compose(ab, y))
        pref = eps.eval(w.degree, group.add(x.degree, z.degree))
        return assoc(u, _compose(a2b, z), _compose(a3, w)).scale(pref)

    ji = CheckItem("jordan_identity", True)
    n = len(space)
    for idx in iproduct(range(n), repeat=4):
        x, y, z, w = (space[i] for i in idx)
        if cycling == "xzw":
            total = (
                term(x, y, z, w) + term(z, y, w, x) + term(w, y, x, z)
            )
        else:
            total = (
                term(x, y, z, w) + term(y, w, z, x) + term(w, x, z, y)
            )
        if not total.is_zero():
            ji = CheckItem(
                "jordan_identity",
                False,
                _endo_witness(names, idx, total),
            )
            break
    items.append(ji)
    return AxiomReport(items)
