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
products, not from the library's term tables.  ``morphism_failures``
scans the identity m[x, y] = [m x, m y] the same way, on every basis
pair, for the integer scan by which ``yau_twist`` refuses a map.

``reach_oracle`` is the search by which the coboundary once found the
terms a unit cochain reaches: every tuple that sorts a bracket preimage
pair with beta-preimages of the other entries, then every pair (s, t) of
it whose argument supports can be ordered to cover the tuple, by a
backtracking search.  The library enumerates those terms straight from
the preimage indexes instead.

``reduce_index_tuple`` is the library's sort of an index tuple into
canonical order with its sign, as a Fraction factor, for the oracles that
evaluate cochains term by term.

The cochain complex reads per-arity tables: ``slots_oracle``,
``realized_gammas_oracle`` and ``pullbacks_oracle`` recompute them by the
per-tuple scans they replaced, tuple by tuple against every V index.

``kernel_oracle`` reads a kernel basis off ``fraction_rref``, for the
sparse kernel of the library.  ``echelon_block_kernel`` is that kernel's
earlier driver: it splits the columns left after the strike into the
blocks the rows link (``_linked_blocks``, which the library no longer
has) and reads an ``EchelonBasis`` per block off its RREF, kept to hold
the one null-space update over all the columns against.  Both return
Gauss-Jordan vectors, 1 at the free column; the library's kernel vectors
and RREF rows are primitive integer vectors, and ``divided`` is the one
view that divides such a vector by its entry at its free column or
pivot, to compare them.

``twisted_products`` is the dense Fraction view of a twisted integer
table, ``ColourAlgebra.int_table("twisted_terms", ...)``, for the tests
that hold the table against ``dense_twisted``.  ``twisted_table_oracle``
sums such a table from integer cells as the library once did, with one
dense accumulator per cell, where the library sums only the terms that
reach a cell and scales or keeps whole rows for one-term images.  ``yau_twist_product_oracle``
and ``commutator_table_oracle`` are the dense product tables that
``yau_twist`` and ``commutator_algebra`` once built by n^2
``product_eval`` calls, for the tests of their integer sums, and
``rescaled_product_oracle`` the dense table the multiplier twists once
rescaled cell by cell.

The cochain complex sums integers and reads tables; ``eval_oracle``,
``act_oracle`` and ``coboundary_oracle`` evaluate the coboundary term by
term in Fractions, on basis vectors with dense action matrices.
``coboundary_oracle`` also keeps the sign convention the library dropped,
``"full"``, which breaks d∘d = 0, so that finding stays testable.
``cochain_basis_oracle`` solves every intertwining constraint as one dense
RREF, ``coboundary_matrix_oracle`` solves the images of its basis against
the next one with ``solve_many``, and ``cochain_in_space_oracle`` checks
membership by dense evaluation on the columns of alpha and beta.

``check_jordan_axioms_oracle`` is the Jordan check that composes and
multiplies afresh in every term of every 4-tuple, with both cyclings of
the identity; the library builds each composite and product once and
checks the (x, y, w) cycle only.  ``commutator_jacobiator_oracle``
evaluates the commutator bracket of a product densely, where the library
reads the Jacobiator of ``primed_bracket``.

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
from math import gcd
from typing import Iterable, Optional, Sequence

from itertools import product as iproduct

from bihomlie.algebra import AxiomReport, CheckItem, ColourAlgebra
from bihomlie.cohomology import (
    Cochain,
    _is_canonical,
    _reach_rows,
    _slots,
    _sort_sign,
    apply_coboundary,
    canonical_index_tuples,
)
from bihomlie.derivations import HomEndo, _endo_witness, jordan_product
from bihomlie.linalg import (
    EchelonBasis,
    Matrix,
    Vec,
    _primitive,
    _strike_forced,
    is_zero_vec,
    vadd,
    vscale,
    vzero,
)

F = Fraction


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


def _linked_blocks(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[tuple[list[int], list[dict[int, Fraction | int]]]]:
    """The columns below ``ncols`` that no one-entry row forces to zero,
    split into the blocks that the remaining rows link, as (columns, rows)
    in ascending columns and the rows in their given order.

    Two columns are linked when some row has both nonzero once the forced
    columns are struck; the row space is the direct sum of its
    restrictions to the blocks.  A column no row touches is a block of its
    own, with no rows.
    """
    forced_zero, live = _strike_forced(rows)

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
    block_rows: dict[int, list[dict[int, Fraction | int]]] = {}
    for row in live:
        block_rows.setdefault(root(next(iter(row))), []).append(row)
    block_cols: dict[int, list[int]] = {}
    for c in range(ncols):
        if c not in forced_zero:
            block_cols.setdefault(root(c), []).append(c)
    return [(cols, block_rows.get(b, [])) for b, cols in block_cols.items()]


def divided(v: dict[int, int], k: int | None = None) -> dict[int, Fraction]:
    """v / v[k] for an integer vector v {column: int}, k its last column
    unless given: the Gauss-Jordan view of a ``kernel_by_blocks`` vector
    (k its free column) or of an ``EchelonBasis.rref`` row (k its pivot)."""
    d = v[max(v) if k is None else k]
    return {c: Fraction(x, d) for c, x in v.items()}


def echelon_block_kernel(rows, ncols: int) -> list[dict[int, Fraction]]:
    """The kernel of ``kernel_by_blocks`` as its earlier driver read it:
    each linked block of ``_linked_blocks`` reduced in one
    ``EchelonBasis`` over its primitive rows, less the rows that repeat an
    earlier one up to sign, and the vector of each free column f read off
    that span's RREF, -R[p][f] at the pivot p of each row R[p] (divided
    by its pivot entry) in ascending p, then 1 at f; in ascending f over
    all blocks."""
    kernel = []
    for cols, block in _linked_blocks(rows, ncols):
        span = EchelonBasis()
        seen = set()
        for row in block:
            prim = _primitive(row.items())
            key = tuple(sorted(prim.items()))
            if key[0][1] < 0:
                key = tuple((c, -x) for c, x in key)
            if key not in seen:
                seen.add(key)
                span.add_sparse(prim.items())
        reduced = span.rref()
        vectors = {c: {} for c in cols}
        for p, _ in reduced:
            del vectors[p]
        for p, row in reduced:
            for c, x in divided(row, p).items():
                if c != p:
                    vectors[c][p] = -x
        for f, v in vectors.items():
            v[f] = Fraction(1)
            kernel.append((f, v))
    kernel.sort(key=lambda item: item[0])
    return [v for _, v in kernel]


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


def twisted_products(
    a: ColourAlgebra, ka: int, kb: int, *, right: bool = False
) -> tuple[tuple[Vec, ...], ...]:
    """[alpha**ka beta**kb (e_i), e_j] at [i][j], or with ``right`` the
    map on the right factor, [e_i, alpha**ka beta**kb (e_j)]: the dense
    Fraction view of ``a.int_table("twisted_terms", ka, kb, right)``."""
    scale, table = a.int_table("twisted_terms", ka, kb, right)
    return tuple(Matrix._of(scale, row, a.dim).columns() for row in table)


def twisted_table_oracle(table, images, right: bool) -> tuple:
    """The integer table (L, T) of [m x_i, y_j] at [i][j] (with ``right``,
    of [x_i, m y_j]) from the integer table ``table`` of [x_i, y_j] and
    the integer column terms ``images`` of m, as ``_twisted_table`` once
    summed it: every cell a dense [0] * n accumulator over the image's
    terms, then the scale and every entry divided by their gcd."""
    product_scale, terms = table
    map_scale, cols = images
    n = len(terms)

    def cell(parts) -> tuple:
        acc = [0] * n
        for c, ts in parts:
            for k, x in ts:
                acc[k] += c * x
        return tuple((k, x) for k, x in enumerate(acc) if x)

    if right:
        cells = [
            [cell((y, row[u]) for u, y in im) for im in cols] for row in terms
        ]
    else:
        cells = [
            [cell((x, terms[u][j]) for u, x in im) for j in range(n)]
            for im in cols
        ]
    scale = product_scale * map_scale
    g = gcd(scale, *[x for row in cells for ts in row for _, x in ts])
    return scale // g, tuple(
        tuple(tuple((k, x // g) for k, x in ts) for ts in row) for row in cells
    )


def morphism_failures(a: ColourAlgebra, m: Matrix) -> list[tuple[int, int]]:
    """Every basis pair (i, j) with m[e_i, e_j] != [m e_i, m e_j], in the
    lexicographic order of a dense scan: m times the dense cell
    a.product[i][j] against the bracket of the dense columns m e_i and
    m e_j, summed over every pair of their entries."""
    n = a.dim
    cols = m.columns()
    out = []
    for i, j in iproduct(range(n), repeat=2):
        acc = [Fraction(0)] * n
        for t, c in enumerate(a.product[i][j]):
            if c:
                add_scaled(acc, c, cols[t])
        for u, x in enumerate(cols[i]):
            for v, y in enumerate(cols[j]):
                if x and y:
                    add_scaled(acc, -x * y, a.product[u][v])
        if any(acc):
            out.append((i, j))
    return out


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


def reduce_index_tuple(a: ColourAlgebra, idx) -> tuple:
    """(factor, canonical): the index tuple sorted into canonical order,
    with factor the product of -eps over the adjacent swaps used, as a
    Fraction, or (0, None) when the tuple repeats an index whose degree
    has eps(d, d) = +1 and the value is forced to vanish."""
    sign, canon = _sort_sign(a.eps_table(), idx)
    return F(sign), canon


def _tuple_degree(a: ColourAlgebra, T) -> tuple:
    return a.basis.group.sum(a.degree(i) for i in T)


def _reachable_tuples(a: ColourAlgebra, T, beta_pre, bracket_pre) -> list:
    """The canonical (n+1)-tuples X at which the coboundary of a cochain
    supported on the n-tuple T can be nonzero, in lexicographic order: T
    with one index inserted, for the action term, and every sorted pair
    x_s <= x_t whose bracket reaches one entry of T together with one
    beta-preimage of each other entry, for the bracket term."""
    eps = a.eps_table()
    found = {tuple(sorted(T + (x,))) for x in range(a.dim)}
    for q, u in enumerate(T):
        pairs = [(i, j) for i, j in bracket_pre[u] if i <= j]
        if not pairs:
            continue
        rest = [beta_pre[v] for v in T[:q] + T[q + 1 :]]
        for others in iproduct(*rest):
            for pair in pairs:
                found.add(tuple(sorted(others + pair)))
    return sorted(X for X in found if _is_canonical(eps, X))


def _covers(supports, need: dict) -> bool:
    """Can the multiset ``need`` (entry -> count) be ordered so that its
    q-th entry lies in supports[q], for every q?  A backtracking search
    over the entries left; ``need`` is restored before it returns."""
    if not supports:
        return True
    first = supports[0]
    for u, left in need.items():
        if left and u in first:
            need[u] = left - 1
            found = _covers(supports[1:], need)
            need[u] = left
            if found:
                return True
    return False


def reach_oracle(rep, n: int, T) -> tuple:
    """The terms ((X, s, acts), ...) by which a cochain supported on T
    enters the coboundary, as ``cohomology._reach`` gives them, found by
    searching every reachable tuple X and every pair (s, t) of it whose
    supports, the nonzero indexes of its rows, cover T (``_covers``), each
    covered pair evaluated with ``Cochain.eval`` on the rows of
    ``_reach_rows``."""
    a = rep.algebra
    if n:
        (_, bracket, bracket_pre), (_, beta, beta_pre) = _reach_rows(rep)
        bracket_supp, beta_supp = (
            {key: frozenset(k for k, x in enumerate(row) if x)
             for key, row in rows.items()}
            for rows in (bracket, beta)
        )
    else:
        beta_pre = bracket_pre = ()
    eps = a.eps_table()
    unit = Cochain(n, a.basis.group.zero(), {T: (1,)}, 1)
    used = set(T)
    need: dict = {}
    for u in T:
        need[u] = need.get(u, 0) + 1
    out = []
    for X in _reachable_tuples(a, T, beta_pre, bracket_pre):
        scalar = 0
        for t in range(1, n + 1):
            xt = X[t]
            for s in range(t):
                if used.isdisjoint(bracket_supp[X[s], xt]):
                    continue
                supports = [
                    bracket_supp[X[s], xt] if p == s else beta_supp[X[p]]
                    for p in range(n + 1)
                    if p != t
                ]
                if not _covers(supports, need):
                    continue
                w = -1 if t % 2 else 1
                for p in range(s + 1, t):
                    w *= eps[X[p]][xt]
                args = [
                    bracket[X[s], xt] if p == s else beta[X[p]]
                    for p in range(n + 1)
                    if p != t
                ]
                c = unit.eval(rep, args)[0]
                if c:
                    scalar += w * c
        acts = []
        for s in range(n + 1):
            if X[:s] + X[s + 1 :] != T:
                continue
            xs = X[s]
            w = -1 if s % 2 else 1
            for p in range(s):
                w *= eps[X[p]][xs]
            acts.append((w, xs))
        if scalar or acts:
            out.append((X, scalar, tuple(acts)))
    return tuple(out)


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


def eval_oracle(rep, f, args):
    """Multilinear evaluation, one sign reduction per support combination."""
    out = vzero(f.dimV)
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in args]
    for combo in iproduct(*supports):
        coeff = F(1)
        for _, c in combo:
            coeff *= c
        sign, canon = reduce_index_tuple(rep.algebra, tuple(i for i, _ in combo))
        if canon is not None and canon in f.values:
            out = vadd(out, vscale(coeff * sign, f.values[canon]))
    return out


def act_oracle(rep, x, v):
    """rho(x) v with rho(x) summed as a dense matrix."""
    m = Matrix.zero(rep.dimV, rep.dimV)
    for c, rho in zip(x, rep.rho):
        if c:
            m = m + rho.scale(c)
    return m.apply(v)


def coboundary_oracle(rep, r, f, prefactor="segment"):
    """The coboundary evaluated term by term on basis vectors, with dense
    action matrices and mat-vecs: the slow path the tables replaced.

    The bracket term that removes x_t carries eps(<segment>, x_t), where
    <segment> is x_{s+1}+...+x_{t-1} under ``"segment"``, the library's
    one convention, and x_0+...+x_{t-1} under ``"full"``, a variant under
    which the square of the coboundary is nonzero already on osp(1|2)."""
    a = rep.algebra
    eps = a.eps
    n = f.n
    gamma = a.basis.group.reduce(f.degree)
    # a 0-cochain has no bracket term, so alpha need not be invertible
    inv_ab = a.ab_power(-1, 1) if n else None
    act = a.ab_power(1, r + n - 1)
    out_vals = {}
    for X in canonical_index_tuples(a, n + 1):
        degs = [a.degree(i) for i in X]
        total = vzero(rep.dimV)
        for t in range(1, n + 1):
            for s in range(t):
                seg = degs[s + 1 : t] if prefactor == "segment" else degs[:t]
                w = eps.eval_many(seg, degs[t])
                args = []
                for p in range(n + 1):
                    if p == t:
                        continue
                    if p == s:
                        args.append(
                            a.product_eval(
                                inv_ab.apply(a.basis_vec(X[s])),
                                a.basis_vec(X[t]),
                            )
                        )
                    else:
                        args.append(a.beta.apply(a.basis_vec(X[p])))
                term = eval_oracle(rep, f, args)
                total = vadd(total, vscale(F((-1) ** t * w), term))
        for s in range(n + 1):
            w = eps.eval_many([gamma] + degs[:s], degs[s])
            rest = [a.basis_vec(X[p]) for p in range(n + 1) if p != s]
            fv = eval_oracle(rep, f, rest)
            if is_zero_vec(fv):
                continue
            term = act_oracle(rep, act.apply(a.basis_vec(X[s])), fv)
            total = vadd(total, vscale(F((-1) ** s * w), term))
        if not is_zero_vec(total):
            out_vals[X] = total
    return Cochain(n + 1, gamma, out_vals, rep.dimV)


def cochain_basis_oracle(rep, n, gamma):
    """The dense assembly the block solve replaced: every intertwining
    constraint as a row over all slots, reduced in one RREF."""
    if n < 0:
        return []
    a = rep.algebra
    g = a.basis.group.reduce(gamma)
    slots = _slots(rep, n, g)
    if not slots:
        return []
    col_of = {slot: k for k, slot in enumerate(slots)}
    rows = []
    for T in sorted({T for T, _ in slots}):
        for amap, vmap in ((a.alpha, rep.alphaV), (a.beta, rep.betaV)):
            lhs = {}
            supports = [
                [(u, amap[u][t]) for u in range(a.dim) if amap[u][t]]
                for t in T
            ]
            for combo in iproduct(*supports):
                coeff = F(1)
                for _, c in combo:
                    coeff *= c
                sign, canon = reduce_index_tuple(a, tuple(u for u, _ in combo))
                if canon is None:
                    continue
                for w in range(rep.dimV):
                    if (canon, w) in col_of:
                        prev = lhs.get((canon, w), F(0))
                        lhs[canon, w] = prev + coeff * sign
            for rrow in range(rep.dimV):
                coeffs = [F(0)] * len(slots)
                touched = False
                for slot, c in lhs.items():
                    if slot[1] == rrow and c:
                        coeffs[col_of[slot]] += c
                        touched = True
                for w in range(rep.dimV):
                    if (T, w) in col_of and vmap[rrow][w]:
                        coeffs[col_of[T, w]] -= vmap[rrow][w]
                        touched = True
                if touched:
                    rows.append(coeffs)
    if rows:
        kernel = Matrix(rows).kernel_basis()
    else:
        kernel = Matrix.identity(len(slots)).rows
    out = []
    for coords in kernel:
        vals = {}
        for (T, w), c in zip(slots, coords):
            if c:
                vals.setdefault(T, [F(0)] * rep.dimV)[w] = c
        out.append(Cochain(n, g, vals, rep.dimV))
    return out


def coboundary_matrix_oracle(rep, n, r, gamma):
    """Images of the oracle basis solved against the oracle codomain
    basis with ``solve_many``."""
    dom = cochain_basis_oracle(rep, n, gamma)
    cod = cochain_basis_oracle(rep, n + 1, gamma)
    if not dom:
        return Matrix.zero(len(cod), 0)
    images = [
        apply_coboundary(rep, r, f, validate=False) for f in dom
    ]
    if not cod:
        assert all(img.is_zero() for img in images)
        return Matrix.zero(0, len(dom))
    slots = _slots(rep, n + 1, gamma)

    def coords(f):
        return tuple(f.value(T)[w] for T, w in slots)

    basis_mat = Matrix.from_cols([coords(gc) for gc in cod])
    sols = solve_many(basis_mat, [coords(img) for img in images])
    assert None not in sols
    return Matrix.from_cols(sols)


def cochain_in_space_oracle(rep, f):
    """The membership test that checks both intertwinings on every
    canonical tuple by dense evaluation of f on the columns of alpha and
    beta, not by the pull-back terms the library reads."""
    a = rep.algebra
    if f.dimV != rep.dimV:
        return False, "value dimension differs from the module"
    g = a.basis.group.reduce(f.degree)
    for T, val in f.values.items():
        if not all(0 <= i < a.dim for i in T):
            return False, f"stored tuple {T} leaves the basis 0..{a.dim - 1}"
        target = a.basis.group.add(g, a.basis.group.sum(a.degree(i) for i in T))
        for w, c in enumerate(val):
            if c and rep.space.degrees[w] != target:
                return False, f"value on {T} leaves the degree-{target} block"
        sign, canon = reduce_index_tuple(a, T)
        if canon != T or sign != 1:
            return False, f"stored tuple {T} is not canonical"
    for T in canonical_index_tuples(a, f.n):
        for amap, vmap, name in (
            (a.alpha, rep.alphaV, "alpha"),
            (a.beta, rep.betaV, "beta"),
        ):
            got = eval_oracle(rep, f, [amap.column(t) for t in T])
            if got != vmap.apply(f.value(T)):
                return False, f"{name} intertwining fails on tuple {T}"
    return True, ""


def check_jordan_axioms_oracle(
    space, eps, alphaOp, betaOp, *, cycling="xyw", sign=1
):
    """The Jordan check as it was before its products were built once:
    every term of every 4-tuple composes and multiplies its members
    afresh, and closure is decided by ``in_span`` on the flattened
    matrices.  ``cycling="xzw"`` rotates (x, z, w) with y fixed instead of
    (x, y, w) with z fixed; the library checks only the latter, and the
    former fails on the osp(1|2) derivations."""
    space = list(space)
    names = [f"D{i}" for i in range(len(space))]
    group = eps.group
    items = []

    def flat(d):
        return tuple(x for row in d.matrix.rows for x in row)

    def compose(m, d):
        return HomEndo(m * d.matrix, d.degree)

    def mu(x, y):
        return jordan_product(x, y, eps, sign=sign)

    comm = alphaOp * betaOp - betaOp * alphaOp
    items.append(
        CheckItem(
            "structure_maps_commute",
            comm.is_zero(),
            None if comm.is_zero() else _endo_witness(names, (), comm),
        )
    )

    flats = [flat(d) for d in space]
    note = next(
        (
            f"product of {names[i]} and {names[j]} leaves the span"
            for i, d1 in enumerate(space)
            for j, d2 in enumerate(space)
            if not in_span(flats, flat(mu(d1, d2)))
        ),
        "",
    )
    items.append(
        CheckItem("closed_under_product", not note, advisory=True, note=note)
    )

    cc = CheckItem("colour_commutative", True)
    for (i, d1), (j, d2) in iproduct(enumerate(space), repeat=2):
        lhs = mu(compose(betaOp, d1), compose(alphaOp, d2))
        rhs = mu(compose(betaOp, d2), compose(alphaOp, d1)).scale(
            eps.eval(d1.degree, d2.degree)
        )
        diff = lhs.matrix - rhs.matrix
        if not diff.is_zero():
            cc = CheckItem(
                "colour_commutative", False, _endo_witness(names, (i, j), diff)
            )
            break
    items.append(cc)

    def assoc(u, v, w):
        return (
            mu(compose(alphaOp, u), mu(v, w)).matrix
            - mu(mu(u, v), compose(betaOp, w)).matrix
        )

    b2 = betaOp * betaOp
    ab = alphaOp * betaOp
    a2b = alphaOp * ab
    a3 = alphaOp * alphaOp * alphaOp

    def term(x, y, z, w):
        u = mu(compose(b2, x), compose(ab, y))
        pref = eps.eval(w.degree, group.add(x.degree, z.degree))
        return assoc(u, compose(a2b, z), compose(a3, w)).scale(pref)

    ji = CheckItem("jordan_identity", True)
    for idx in iproduct(range(len(space)), repeat=4):
        x, y, z, w = (space[i] for i in idx)
        if cycling == "xzw":
            total = term(x, y, z, w) + term(z, y, w, x) + term(w, y, x, z)
        else:
            total = term(x, y, z, w) + term(y, w, z, x) + term(w, x, z, y)
        if not total.is_zero():
            ji = CheckItem(
                "jordan_identity", False, _endo_witness(names, idx, total)
            )
            break
    items.append(ji)
    return AxiomReport(items)


def commutator_jacobiator_oracle(a: ColourAlgebra, i: int, j: int, k: int):
    """The twisted Jacobi defect of the commutator bracket
    [x, y] = xy - eps(x, y)(alpha^-1 beta(y))(beta^-1 alpha(x)), each
    bracket evaluated densely from ``product_eval`` on the cyclic sum
    eps(z, x)[beta^2(x), [beta(y), alpha(z)]] over the basis triple.  The
    outer bracket signs the inner one by the single degree deg y + deg z,
    which is its degree only when the product is even."""
    grp = a.basis.group
    alpha, beta = a.alpha.columns(), a.beta.columns()
    beta2 = dense_power(a.beta, 2).columns()
    ainvb = dense_power(a.alpha, -1) * a.beta
    binva = dense_power(a.beta, -1) * a.alpha

    def bracket(u, v, du, dv):
        e = F(a.eps.eval(du, dv))
        return vadd(
            a.product_eval(u, v),
            vscale(-e, a.product_eval(ainvb.apply(v), binva.apply(u))),
        )

    total = vzero(a.dim)
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        dx, dy, dz = a.degree(x), a.degree(y), a.degree(z)
        inner = bracket(beta[y], alpha[z], dy, dz)
        outer = bracket(beta2[x], inner, dx, grp.add(dy, dz))
        total = vadd(total, vscale(F(a.eps.eval(dz, dx)), outer))
    return total


def yau_twist_product_oracle(a: ColourAlgebra, a2: Matrix, b2: Matrix):
    """The product table of ``yau_twist(a, a2, b2)``, [a2 e_i, b2 e_j] at
    [i][j], by n^2 dense ``product_eval`` calls on the columns of the two
    maps: the dense build the integer sum replaced."""
    return [[a.product_eval(x, y) for y in b2.columns()] for x in a2.columns()]


def rescaled_product_oracle(a: ColourAlgebra, s):
    """The product table of ``sigma_twist(a, s)`` and ``delta_twist(a, s)``,
    s(deg e_i, deg e_j) e_i e_j at [i][j], from the dense cells
    ``a.product``: the dense build the integer rescaling replaced."""
    return [
        [
            vscale(s.value(a.degree(i), a.degree(j)), a.product[i][j])
            for j in range(a.dim)
        ]
        for i in range(a.dim)
    ]


def commutator_table_oracle(a: ColourAlgebra):
    """The product table of ``commutator_algebra(a)``, e_i e_j - eps(i, j)
    (alpha^-1 beta e_j)(alpha beta^-1 e_i) at [i][j], from the dense cells
    ``a.product`` and n^2 dense ``product_eval`` calls on the columns of
    the maps, their inverses read off ``fraction_rref``."""
    ainv_b = (dense_power(a.alpha, -1) * a.beta).columns()
    a_binv = (a.alpha * dense_power(a.beta, -1)).columns()
    return [
        [
            vadd(
                a.product[i][j],
                vscale(
                    Fraction(-a.eps_ij(i, j)),
                    a.product_eval(ainv_b[j], a_binv[i]),
                ),
            )
            for j in range(a.dim)
        ]
        for i in range(a.dim)
    ]
