"""Dense oracles for the tests.

The library decides span membership, rank and RREF with
``linalg.EchelonBasis`` and solves no dense system.  These are the slow,
plainly correct versions the tests hold it against: every answer comes
from ``fraction_rref``, a textbook Gauss-Jordan in Fraction arithmetic
that shares no code with the library, on a dense matrix, augmented for
the solves.

The derivation predicates read term tables; ``bracket_defect``,
``commutes_with_maps`` and ``is_homogeneous`` evaluate the same identities
on dense columns and dense twisted product tables, testing every entry.
``dense_twisted`` builds those tables from the dense structure-constant
cells ``a.product`` and powers of alpha and beta taken by repeated
products, not from the library's term tables.

The cochain complex reads per-arity tables: ``slots_oracle``,
``realized_gammas_oracle`` and ``pullbacks_oracle`` recompute them by the
per-tuple scans they replaced, tuple by tuple against every V index.

``kernel_oracle`` reads a kernel basis off ``fraction_rref``, for the
sparse block kernel of the library.

>>> from bihomlie.linalg import vec
>>> solve_many(Matrix([[1, 0], [0, 0]]), [vec([5, 0]), vec([0, 1])])
[(Fraction(5, 1), Fraction(0, 1)), None]
>>> in_span([vec([1, 1])], vec([2, 2])), in_span([], vec([0, 1]))
(True, False)
>>> dense_rank(Matrix([[1, 2], [2, 4]]))
1
>>> fraction_rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
([[Fraction(1, 1), Fraction(2, 1)], [Fraction(0, 1), Fraction(0, 1)]], [0])
"""

from fractions import Fraction
from typing import Optional, Sequence

from itertools import product as iproduct

from bihomlie.algebra import ColourAlgebra
from bihomlie.cohomology import canonical_index_tuples, reduce_index_tuple
from bihomlie.linalg import Matrix, Vec, is_zero_vec


def fraction_rref(rows):
    """(R, pivots): the RREF of ``rows`` as lists, zero rows last, and the
    pivot column of each nonzero row, by textbook Gauss-Jordan in Fraction
    arithmetic with the first nonzero entry as pivot; the input is left
    alone."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    prow = 0
    for pcol in range(ncols):
        if prow == nrows:
            break
        hit = next((i for i in range(prow, nrows) if m[i][pcol]), -1)
        if hit < 0:
            continue
        m[prow], m[hit] = m[hit], m[prow]
        inv = Fraction(1) / m[prow][pcol]
        m[prow] = [x * inv for x in m[prow]]
        lead = m[prow]
        for i in range(nrows):
            f = m[i][pcol]
            if i != prow and f:
                m[i] = [a - f * b for a, b in zip(m[i], lead)]
        pivots.append(pcol)
        prow += 1
    return m, pivots


def kernel_oracle(rows, ncols: int) -> list[Vec]:
    """The kernel basis of the sparse rows {column: value} over ``ncols``
    columns, one vector per free column in ascending order: 1 at the free
    column, minus the RREF entries of ``fraction_rref`` at the pivots."""
    dense = [
        [Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows
    ]
    reduced, pivots = fraction_rref(dense)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve_many(m: Matrix, bs: Sequence[Vec]) -> list[Optional[Vec]]:
    """One exact solution of m·x = b for each b, or None where the system
    is inconsistent, from one RREF of m augmented by all the b."""
    for b in bs:
        if len(b) != m.nrows:
            raise ValueError("shape mismatch")
    aug = [list(m.rows[i]) + [b[i] for b in bs] for i in range(m.nrows)]
    reduced, pivots = fraction_rref(aug)
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
            for r in range(m.nrows)
        )
        out.append(tuple(x) if consistent else None)
    return out


def dense_rank(m: Matrix) -> int:
    """The rank of m as the pivot count of its RREF."""
    return len(fraction_rref(m.rows)[1])


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


def add_scaled(acc: list, c: Fraction, v: Vec) -> None:
    """acc += c * v in place, over the nonzero entries of v."""
    for k, x in enumerate(v):
        if x:
            p = c * x
            acc[k] = acc[k] + p if acc[k] else p


def dense_power(m: Matrix, k: int) -> Matrix:
    """m**k by |k| repeated products, from the inverse that
    ``fraction_rref`` reads off [m | I] when k is negative."""
    n = m.nrows
    if k < 0:
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, pivots = fraction_rref(
            [list(row) + e for row, e in zip(m.rows, eye)]
        )
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        m = Matrix([row[n:] for row in reduced])
    out = Matrix.identity(n)
    for _ in range(abs(k)):
        out = out * m
    return out


def dense_twisted(a: ColourAlgebra, k: int, l: int) -> tuple:
    """The dense twisted product tables [e_t, M e_j] at [t][j] and
    [M e_i, e_t] at [i][t], M = alpha^k beta^l, summed from the dense
    structure-constant cells a.product and the dense entries of M."""
    n = a.dim
    m = dense_power(a.alpha, k) * dense_power(a.beta, l)

    def combination(pairs) -> Vec:
        acc = [Fraction(0)] * n
        for c, v in pairs:
            if c:
                add_scaled(acc, c, v)
        return tuple(acc)

    right = tuple(
        tuple(
            combination((m[u][j], a.product[i][u]) for u in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    left = tuple(
        tuple(
            combination((m[u][i], a.product[u][j]) for u in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return right, left


def bracket_defect(
    a: ColourAlgebra,
    gamma,
    twisted: tuple,
    d_value: Optional[Matrix],
    d_left: Optional[Matrix],
    d_right: Optional[Matrix],
    right_sign: Fraction = Fraction(1),
) -> Optional[tuple[int, int, Vec]]:
    """First basis pair (i, j) violating
    value([x,y]) = [left(x), M y] + s*eps(g,x)[M x, right(y)],
    with its defect, on dense columns and the dense tables of
    :func:`dense_twisted`."""
    n = a.dim
    g = a.basis.group.reduce(gamma)
    left, right = twisted
    vcols = d_value.columns() if d_value is not None else None
    lcols = d_left.columns() if d_left is not None else None
    rcols = d_right.columns() if d_right is not None else None
    for i in range(n):
        w = right_sign * Fraction(a.eps.eval(g, a.degree(i)))
        for j in range(n):
            acc = [Fraction(0)] * n
            if vcols is not None:
                for t, c in enumerate(a.product[i][j]):
                    if c:
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


def commutes_with_maps(
    a: ColourAlgebra, m: Matrix, with_beta: bool = True
) -> bool:
    """m M = M m for M = alpha (and beta), on dense columns."""
    mcols = m.columns()
    for M in (a.alpha, a.beta) if with_beta else (a.alpha,):
        Mcols = M.columns()
        for j in range(a.dim):
            acc = [Fraction(0)] * a.dim
            for t, x in enumerate(Mcols[j]):
                if x:
                    add_scaled(acc, x, mcols[t])
            for t, x in enumerate(mcols[j]):
                if x:
                    add_scaled(acc, -x, Mcols[t])
            if any(acc):
                return False
    return True


def is_homogeneous(a: ColourAlgebra, matrix: Matrix, gamma) -> bool:
    """Every entry of the matrix, zero or not, tested against the degree
    block pattern."""
    group = a.basis.group
    g = group.reduce(gamma)
    degrees = a.basis.degrees
    image = [group.add(d, g) for d in degrees]
    return all(
        not x or degrees[u] == image[t]
        for u, row in enumerate(matrix.rows)
        for t, x in enumerate(row)
    )


def _tuple_degree(a: ColourAlgebra, T) -> tuple:
    return a.basis.group.sum(a.degree(i) for i in T)


def slots_oracle(rep, n: int, gamma) -> list:
    """The slots (T, w) of degree-gamma n-cochains: every canonical tuple T,
    in lexicographic order, with every V index w of degree gamma + deg T."""
    a = rep.algebra
    group = a.basis.group
    g = group.reduce(gamma)
    out = []
    for T in canonical_index_tuples(a, n):
        target = group.add(g, _tuple_degree(a, T))
        for w, e in enumerate(rep.space.degrees):
            if e == target:
                out.append((T, w))
    return out


def realized_gammas_oracle(rep, n: int) -> list:
    """The degrees e - deg T over every canonical n-tuple T and every V
    index of degree e, sorted."""
    a = rep.algebra
    seen = set()
    for T in canonical_index_tuples(a, n):
        d = _tuple_degree(a, T)
        for e in rep.space.degrees:
            seen.add(a.basis.group.sub(e, d))
    return sorted(seen)


def pullbacks_oracle(a: ColourAlgebra, T) -> tuple:
    """For m = alpha, then beta: {X: c} with f(m e_{T_1}, ..., m e_{T_n})
    = sum of c f(X) over canonical X, from the dense columns of m."""
    out = []
    for m in (a.alpha, a.beta):
        acc: dict = {}
        supports = [
            [(u, m[u][t]) for u in range(a.dim) if m[u][t]] for t in T
        ]
        for combo in iproduct(*supports):
            sign, canon = reduce_index_tuple(a, tuple(u for u, _ in combo))
            if canon is None:
                continue
            coeff = sign
            for _, c in combo:
                coeff *= c
            acc[canon] = acc.get(canon, Fraction(0)) + coeff
        out.append({X: c for X, c in acc.items() if c})
    return tuple(out)
