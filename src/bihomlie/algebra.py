"""Colour algebras with two structure maps, and their axiom checkers.

A ColourAlgebra bundles a graded basis, a bicharacter, a structure-constant
table for one bilinear product, and two linear maps alpha, beta.  Whether
the product is a Lie bracket, an associative product, or neither is decided
by the check functions, not assumed: every axiom is verified on basis tuples
(bilinearity makes that sufficient) and failures carry a reproducible
witness, the lexicographically first failing tuple with its defect vector.

Verdict naming:
  product_even, alpha_even, beta_even, maps_commute,
  alpha_multiplicative, beta_multiplicative   (shared)
  bihom_skewsymmetry, bihom_jacobi            (Lie suite)
  bihom_associative, colour_commutative       (associative suite)
  regular                                     (invertibility flag)

Multiplicativity and regularity are reported but advisory: they do not
decide `AxiomReport.passed`.  Constructions that need them state so and
check the specific items themselves.

The scans sum integers over ``ColourAlgebra.int_table``: the structure
constants, the integer form the algebra holds; one table per twisted
product, summed from the structure constants and the map's integer
columns; and the skew brackets [beta(e_i), alpha(e_j)], read off dense
products.  Tables and scans sum only the terms that reach a cell or a
basis tuple, and a scan fails at the least tuple whose sum is nonzero.

Each identity shape has one evaluator, shared with the other modules:
:func:`_bracket_defect` for value([x, y]) = [left(x), M y] + s eps(g,
x)[M x, right(y)], read by the multiplicativity items and the membership
predicates of ``derivations``; and :func:`_commutator` for m M - M m',
read by ``maps_commute``, those predicates, the twist gates of
``constructions`` and the module checks of ``cohomology``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from .grading import Bicharacter, FrozenRecord, GradedBasis, GroupElement
from .linalg import (  # the scalar bound and readers, re-exported here
    MAX_SCALAR_DIGITS,
    IntTerms,
    Matrix,
    Vec,
    add_terms,
    first_off_block,
    read_scalar,
    scale_to_ints,
    sum_terms,
    terms_of,
    to_fraction,
    vec,
    write_scalar,
)

ZERO = Fraction(0)

# the integer copy of a term table: (L, table times L), L the lcm of its
# denominators
IntTable = tuple[int, tuple[tuple[IntTerms, ...], ...]]

# The largest dimension that corpus names and the .alg parser accept.  Both
# build the product's integer form alone, with n^2 cells, but the axiom
# suites scan n^3 basis triples: check_lie_axioms on zero_100 took about
# 1.2 s (2-vCPU x86-64 VM), and the cost grows as n^3.
MAX_DIM = 100


def memoized(build: Callable) -> Callable:
    """``build(owner, *key)``, kept in ``owner._memo`` under
    ``(build.__name__, *key)``: built on the first call and stored only
    when it returns, so a raise stores nothing.  The derived tables of an
    algebra or a module each live there, and their keys are plain data,
    so an owner with a warm memo still pickles."""
    name = build.__name__

    @wraps(build)
    def cached(owner, *key):
        memo, k = owner._memo, (name, *key)
        try:
            return memo[k]
        except KeyError:
            pass
        value = memo[k] = build(owner, *key)
        return value

    return cached


def format_element(basis: GradedBasis, v: Vec) -> str:
    """Pretty coordinate vector: "2 X + -1/3 H", or "0".  ValueError
    naming the basis vector for a coefficient of more than
    MAX_SCALAR_DIGITS digits (see :func:`~bihomlie.linalg.write_scalar`)."""
    parts = [
        f"{write_scalar(c, f'the coefficient of {name}')} {name}"
        for c, name in zip(v, basis.names)
        if c
    ]
    return " + ".join(parts) if parts else "0"


class Witness(FrozenRecord):
    """First failing tuple of a check, with the nonzero defect."""

    __slots__ = ("indices", "names", "defect", "defect_str")

    def __init__(
        self,
        indices: tuple[int, ...],
        names: tuple[str, ...],
        defect: Vec,
        defect_str: str,
    ) -> None:
        self._fill(indices, names, defect, defect_str)

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "names": list(self.names),
            "defect": self.defect_str,
        }


class CheckItem(FrozenRecord):
    __slots__ = ("name", "passed", "witness", "advisory", "note")

    def __init__(
        self,
        name: str,
        passed: bool,
        witness: Witness | None = None,
        advisory: bool = False,
        note: str = "",
    ) -> None:
        self._fill(name, passed, witness, advisory, note)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.advisory:
            out["advisory"] = True
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


class AxiomReport(FrozenRecord):
    """The items of an axiom suite; unlike the other records it is mutable,
    since the suites append to ``items``, and so unhashable."""

    __slots__ = ("items",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, items: list[CheckItem] | None = None) -> None:
        self.items = [] if items is None else items

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items if not it.advisory)

    @property
    def all_passed(self) -> bool:
        return all(it.passed for it in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def failures(self) -> list[CheckItem]:
        return [it for it in self.items if not it.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "items": [it.to_dict() for it in self.items],
        }


class ColourAlgebra:
    """Graded basis + bicharacter + product table + two structure maps.

    The product is held in one integer form, the table (L, T) that
    ``int_table("product_terms")`` returns: T[i][j] holds the nonzero
    terms (k, x) of e_i e_j in ascending k, each coefficient x / L, and L
    is the lcm of the denominators of the whole table, so equal products
    have equal forms.  ``product`` is a read-only Fraction view of it,
    product[i][j] the coordinate vector of e_i e_j, built on first read
    and cached.  The public constructor converts and checks a dense table
    once and scales it to that form; the parser and the constructions
    build the form in integers and go through the one internal
    constructor :meth:`_of`, which takes it as it is.  alpha and beta act
    on coordinates as matrices.  kind is a file-format tag ("lie",
    "associative" or "generic") with no semantic weight here.
    """

    __slots__ = (
        "basis",
        "eps",
        "alpha",
        "beta",
        "kind",
        "_terms",
        "_memo",
    )

    def __init__(
        self,
        basis: GradedBasis,
        eps: Bicharacter,
        product: Iterable[Iterable[Iterable]],
        alpha: Matrix,
        beta: Matrix,
        kind: str = "generic",
    ) -> None:
        if eps.group != basis.group:
            raise ValueError("bicharacter and basis use different groups")
        n = len(basis)
        table = tuple(tuple(vec(cell) for cell in row) for row in product)
        if len(table) != n or any(
            len(row) != n or any(len(cell) != n for cell in row)
            for row in table
        ):
            raise ValueError("product table must be n x n x n")
        if alpha.nrows != n or alpha.ncols != n:
            raise ValueError("alpha has wrong shape")
        if beta.nrows != n or beta.ncols != n:
            raise ValueError("beta has wrong shape")
        if kind not in ("lie", "associative", "generic"):
            raise ValueError(f"unknown kind {kind!r}")
        self._init(basis, eps, _int_form(table), alpha, beta, kind)
        self._memo["product",] = table  # the view is the table it converted

    @classmethod
    def _of(
        cls,
        basis: GradedBasis,
        eps: Bicharacter,
        terms: IntTable,
        alpha: Matrix,
        beta: Matrix,
        kind: str,
    ) -> "ColourAlgebra":
        """The algebra whose product has the integer form ``terms``, the
        (L, T) of ``int_table("product_terms")`` with L the least scale
        (see :func:`_least`).  The one internal constructor: unlike the
        public one it neither converts nor checks anything."""
        a = cls.__new__(cls)
        a._init(basis, eps, terms, alpha, beta, kind)
        return a

    def _init(self, basis, eps, terms, alpha, beta, kind) -> None:
        self.basis = basis
        self.eps = eps
        self._terms: IntTable = terms
        self.alpha = alpha
        self.beta = beta
        self.kind = kind
        self._memo: dict[tuple, object] = {}

    # -- basic accessors ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    @memoized
    def product(self) -> tuple[tuple[Vec, ...], ...]:
        """product[i][j], the coordinates of e_i e_j: a Fraction view of the
        integer form, built on first read and cached."""
        # row i read as the matrix whose column j is the cell [i][j]
        scale, table = self._terms
        return tuple(Matrix._of(scale, r, self.dim).columns() for r in table)

    def basis_vec(self, i: int) -> Vec:
        return tuple(
            Fraction(1) if j == i else ZERO for j in range(self.dim)
        )

    def degree(self, i: int) -> GroupElement:
        return self.basis.degrees[i]

    def eps_ij(self, i: int, j: int) -> int:
        return self.eps_table()[i][j]

    @memoized
    def eps_table(self) -> tuple[tuple[int, ...], ...]:
        """eps(e_i, e_j) for all pairs of basis indices; cached."""
        degs, ev = self.basis.degrees, self.eps.eval
        return tuple(tuple(ev(di, dj) for dj in degs) for di in degs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColourAlgebra)
            and self.basis == other.basis
            and self.eps == other.eps
            and self._terms == other._terms
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.eps, self._terms, self.alpha, self.beta))

    def __repr__(self) -> str:
        return (
            f"ColourAlgebra({list(self.basis.names)}, kind={self.kind!r}, "
            f"dim={self.dim})"
        )

    # -- evaluation ---------------------------------------------------------

    def product_eval(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the structure constants, summed over the
        supports of x and y and the nonzero terms of their cells in
        ``int_table("product_terms")``, then divided by its scale once."""
        scale, terms = self.int_table("product_terms")
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        # Fraction zeros, so that int coordinates sum to Fractions too
        acc = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = terms[i]
            for j, yj in ys:
                cell = row[j]
                if cell:
                    c = xi * yj
                    for k, ck in cell:
                        acc[k] += c * ck
        if scale == 1:
            return tuple(acc)
        return tuple([v / scale if v else v for v in acc])

    bracket = product_eval

    @memoized
    def map_power(self, which: str, k: int) -> Matrix:
        """alpha**k or beta**k, cached; negative k needs invertibility."""
        return (self.alpha if which == "alpha" else self.beta).power(k)

    @memoized
    def ab_power(self, ka: int, kb: int) -> Matrix:
        """alpha**ka composed with beta**kb, cached like map_power: its
        ``columns()`` are the images of the basis vectors."""
        if not kb:
            return self.map_power("alpha", ka)
        if not ka:
            return self.map_power("beta", kb)
        return self.map_power("alpha", ka) * self.map_power("beta", kb)

    def int_table(
        self, name: str, ka: int = 0, kb: int = 0, right: bool = False
    ) -> IntTable:
        """The integer table (L, T) of "product_terms", the structure
        constants, "skew_terms", [beta(e_i), alpha(e_j)] at [i][j], or
        "twisted_terms", [alpha**ka beta**kb (e_i), e_j] at [i][j] (with
        ``right``, [e_i, alpha**ka beta**kb (e_j)]): T[i][j] holds the
        nonzero terms (k, c*L) of cell [i][j], L the lcm of the table's
        denominators.  The structure constants are the form the algebra
        holds; the others are cached, one table per product.  A twisted
        table is summed in integers (see :func:`_twisted_table`), the skew
        table is read off dense Fraction products."""
        if name == "product_terms":
            return self._terms
        if name == "twisted_terms":
            return self._twisted_terms(ka, kb, right)
        if name == "skew_terms":
            return self._skew_terms()
        raise ValueError(f"unknown term table {name!r}")

    @memoized
    def _twisted_terms(self, ka: int, kb: int, right: bool) -> IntTable:
        images = self.ab_power(ka, kb).int_column_terms()
        return _twisted_table(self._terms, images, right)

    @memoized
    def _skew_terms(self) -> IntTable:
        f, alpha = self.product_eval, self.alpha.columns()
        rows = [[f(b, x) for x in alpha] for b in self.beta.columns()]
        return _int_form(rows)

    def is_regular(self) -> bool:
        try:
            self.map_power("alpha", -1)
            self.map_power("beta", -1)
        except ValueError:
            return False
        return True

    def with_product(
        self, product, kind: str | None = None,
        eps: Bicharacter | None = None,
        alpha: Matrix | None = None,
        beta: Matrix | None = None,
    ) -> "ColourAlgebra":
        return ColourAlgebra(
            self.basis,
            self.eps if eps is None else eps,
            product,
            self.alpha if alpha is None else alpha,
            self.beta if beta is None else beta,
            self.kind if kind is None else kind,
        )

    def fmt(self, v: Vec) -> str:
        return format_element(self.basis, v)


def _int_form(table: Sequence[Sequence[Vec]]) -> IntTable:
    """The integer table (L, T) of the dense table of Fraction cells
    ``table``: L the lcm of their denominators (see :func:`scale_to_ints`)
    and T[i][j] the nonzero terms (k, x*L) of cell [i][j]."""
    den, cells = scale_to_ints([terms_of(v) for row in table for v in row])
    it = iter(cells)
    return den, tuple(tuple(next(it) for _ in row) for row in table)


def _twisted_table(
    table: IntTable, images: tuple[int, Sequence[IntTerms]], right: bool
) -> IntTable:
    """The integer table (L, T) of [m x_i, y_j] at [i][j], or with
    ``right`` of [x_i, m y_j], for the map m with m.int_column_terms() =
    ``images`` and the integer table ``table`` of [x_i, y_j]: for the
    structure constants, x and y are the basis.  Each cell sums the
    terms that reach it (:func:`~bihomlie.linalg.sum_terms`) over the
    product of the two scales, brought down to the least scale by
    :func:`_least`; where every image has one term (u, c), the cells of
    row u (with ``right``, column u) are scaled as they are, or kept for
    c = 1, so identity and diagonal maps cost one pass over the table.
    """
    product_scale, terms = table
    map_scale, cols = images
    n = len(terms)
    if all(len(im) == 1 for im in cols):
        units = [im[0] for im in cols]
        if right:
            table = [
                [
                    ts if c == 1 else tuple([(k, c * x) for k, x in ts])
                    for u, c in units
                    for ts in [row[u]]
                ]
                for row in terms
            ]
        else:
            table = [
                terms[u]
                if c == 1
                else [tuple([(k, c * x) for k, x in ts]) for ts in terms[u]]
                for u, c in units
            ]
    elif right:
        table = [
            [sum_terms([(y, row[u]) for u, y in im]) for im in cols]
            for row in terms
        ]
    else:
        table = [
            [sum_terms([(x, terms[u][j]) for u, x in im]) for j in range(n)]
            for im in cols
        ]
    return _least(product_scale * map_scale, table)


def _least(scale: int, table: Sequence[Sequence[IntTerms]]) -> IntTable:
    """The integer table (L, T) of the cells ``table`` over ``scale``:
    both divided by the gcd of the scale and every entry, so that L is the
    lcm of the table's denominators, the scale ``ColourAlgebra._of``
    takes.  Cells are kept as they are when that gcd is 1."""
    # gcd of a list, not of a generator: see scale_to_ints
    g = gcd(scale, *[x for row in table for ts in row for _, x in ts])
    if g == 1:
        return scale, tuple(map(tuple, table))
    return scale // g, tuple(
        tuple(tuple([(k, x // g) for k, x in ts]) for ts in row)
        for row in table
    )


# -- the shared evaluators: one per identity shape --------------------------


@memoized
def _degree_shift(
    a: ColourAlgebra, gamma: GroupElement
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a degree-gamma map D, gamma a tuple: deg(e_t) + gamma, the
    degree of D(e_t), and eps(gamma, deg(e_t)), for every basis index t;
    computed once per degree and cached on the algebra."""
    group = a.basis.group
    g = group.reduce(gamma)
    degrees = a.basis.degrees
    return (
        tuple(group.add(d, g) for d in degrees),
        tuple(a.eps.eval(g, d) for d in degrees),
    )


def _add_at(sums: dict, key: object, f: int, terms: IntTerms) -> None:
    """Add f times the integer ``terms`` into the {u: int} of ``key`` in
    ``sums``, made when the first term reaches that key."""
    acc = sums.get(key)
    if acc is None:
        acc = sums[key] = {}
    for u, x in terms:
        acc[u] = acc.get(u, 0) + f * x


def _least_sum(sums: dict, n: int, den: int) -> tuple | None:
    """(key, that sum over ``den`` as n Fractions) for the least key of
    ``sums`` whose {u: int} of :func:`_add_at` is nonzero, else None: a
    key no term reaches has sum zero, so a scan of every key agrees."""
    bad = [key for key, acc in sums.items() if any(acc.values())]
    if not bad:
        return None
    key = min(bad)
    return key, tuple(Fraction(sums[key].get(u, 0), den) for u in range(n))


@memoized
def _preimage(a: ColourAlgebra) -> tuple[tuple[tuple[int, int], ...], ...]:
    """At t, the (i * n + j, c) of every term (t, c) of a product cell
    [i][j], in ascending i * n + j; cached on the algebra."""
    by_t: list[list[tuple[int, int]]] = [[] for _ in range(a.dim)]
    for pair, cell in enumerate(c for row in a._terms[1] for c in row):
        for t, c in cell:
            by_t[t].append((pair, c))
    return tuple(map(tuple, by_t))


def _cells(table: IntTable, by_row: bool) -> IntTable:
    """(L, C) for the table (L, T): C[t] the nonempty cells (j, T[t][j]) of
    row t, or without ``by_row`` the (i, T[i][t]) of column t."""
    scale, cells = table
    return scale, tuple(
        tuple([(i, c) for i, c in enumerate(line) if c])
        for line in (cells if by_row else zip(*cells))
    )


@memoized
def _twisted_cells(a: ColourAlgebra, k: int, l: int, right: bool) -> IntTable:
    """:func:`_cells` of ``int_table("twisted_terms", k, l, right)``, by row
    for ``right``, as :func:`_bracket_defect` reads it; cached."""
    return _cells(a.int_table("twisted_terms", k, l, right), right)


def _bracket_defect(
    a: ColourAlgebra,
    gamma: GroupElement,
    twisted: tuple[IntTable, IntTable],
    d_value: Matrix | None,
    d_left: Matrix | None,
    d_right: Matrix | None,
    right_sign: int = 1,
) -> tuple[int, int, Vec] | None:
    """First basis pair violating
    value([x,y]) = [left(x), M y] + s*eps(g,x)[M x, right(y)].

    The membership predicates of ``derivations`` read it, and so do the
    multiplicativity items, with value = right = M and no left term.

    Each side is a sum over the terms the maps' supports reach: the
    column terms of d_value over the pre-image index of the product table
    (:func:`_preimage`), and the nonempty cells of the ``twisted`` tables
    of :func:`_twisted_cells`, row t of [e_t, M e_j] over column i of
    d_left and column t of [M e_i, e_t] over column j of d_right.  The
    sums are integers, over the integer form of each map
    (``Matrix.int_column_terms``): each term of a map times a table is
    multiplied by the factor that brings the map's scale to the lcm of the
    given maps' scales, since one pair mixes them, and the table's scale
    to the lcm of the three tables' scales.  They go into one integer per
    key (i * n + j) * n + u, coordinate u of the pair (i, j); unless all
    are zero, the failure is the least pair with a nonzero sum, its
    column divided by the product of the two lcms.
    """
    n = a.dim
    signs = _degree_shift(a, gamma)[1]
    (left_scale, left), (right_scale, right) = twisted
    product_scale = a._terms[0]
    scale = lcm(product_scale, left_scale, right_scale)
    copies = [
        None if m is None else m.int_column_terms()
        for m in (d_value, d_left, d_right)
    ]
    maps_scale = lcm(*(copy[0] for copy in copies if copy is not None))

    def factor(copy: tuple, table_scale: int) -> int:
        return (maps_scale // copy[0]) * (scale // table_scale)

    # the factor of each term: d_value for the product, -d_left, and
    # -s*eps(g, x)*d_right for the sign eps(g, x) of the basis element x
    vcopy, lcopy, rcopy = copies
    sums: dict[int, int] = {}
    get = sums.get
    if vcopy is not None:
        fv, preimage = factor(vcopy, product_scale), _preimage(a)
        for t, col in enumerate(vcopy[1]):
            if col:
                for pair, c in preimage[t]:
                    f, base = fv * c, pair * n
                    for u, x in col:
                        key = base + u
                        sums[key] = get(key, 0) + f * x
    if lcopy is not None:
        fl = -factor(lcopy, left_scale)
        for i, col in enumerate(lcopy[1]):
            for t, x in col:
                f = fl * x
                for j, cell in left[t]:
                    base = (i * n + j) * n
                    for u, c in cell:
                        key = base + u
                        sums[key] = get(key, 0) + f * c
    if rcopy is not None:
        fr = -right_sign * factor(rcopy, right_scale)
        for j, col in enumerate(rcopy[1]):
            for t, x in col:
                f = fr * x
                for i, cell in right[t]:
                    fi, base = f * signs[i], (i * n + j) * n
                    for u, c in cell:
                        key = base + u
                        sums[key] = get(key, 0) + fi * c
    if not any(sums.values()):
        return None
    pair = min(key for key, x in sums.items() if x) // n
    den = maps_scale * scale
    column = tuple(Fraction(get(pair * n + u, 0), den) for u in range(n))
    return (*divmod(pair, n), column)


def _product_sum(
    parts: Iterable[tuple], nrows: int, by_column: bool = False
) -> tuple[int, int, list[int]] | None:
    """The least nonzero entry (r, c), row-major (``by_column``: column-
    major), of the sum of f X Y over the (f, X, Y) of ``parts``, matrices
    as integer column terms, with column c of the sum, or None: entry
    (u, j) sums f Y_tj X_ut over the terms that reach it."""
    acc: dict[tuple[int, int], int] = {}
    for f, first, second in parts:
        for j, col in enumerate(second):
            for t, x in col:
                g = f * x
                for u, y in first[t]:
                    key = (u, j)
                    acc[key] = acc.get(key, 0) + g * y
    if not any(acc.values()):
        return None
    bad = [key for key, x in acc.items() if x]
    r, c = min(bad, key=(lambda key: key[::-1]) if by_column else None)
    return r, c, [acc.get((u, c), 0) for u in range(nrows)]


def _commutator(
    m: Matrix, M: Matrix, other: Matrix | None = None, by_column: bool = False
) -> tuple[int, int, Vec] | None:
    """The least nonzero entry (r, c) of m M - M other (other = m by
    default) and its column c as Fractions, or None: a
    :func:`_product_sum` over the scale of M times the lcm of those of m
    and other."""
    m_scale, mcols = m.int_column_terms()
    M_scale, Mcols = M.int_column_terms()
    o_scale, ocols = (m if other is None else other).int_column_terms()
    scale = lcm(m_scale, o_scale)
    parts = (scale // m_scale, mcols, Mcols), (-scale // o_scale, Mcols, ocols)
    bad = _product_sum(parts, m.nrows, by_column)
    if bad is None:
        return None
    return (*bad[:2], tuple(Fraction(x, M_scale * scale) for x in bad[2]))


def jacobiator(a: ColourAlgebra, i: int, j: int, k: int) -> Vec:
    """Cyclic BiHom-Jacobi defect on basis indices (i, j, k): the sum over
    cyclic (x,y,z) of eps(z,x) [beta^2(x), [beta(y), alpha(z)]].

    A Fraction readout of :func:`_jacobi_defect`, whose terms the
    bihom_jacobi scan sums over the triples they reach.
    """
    scale, defect = _jacobi_defect(a)
    return tuple(Fraction(x, scale) for x in defect(i, j, k))


def _jacobi_defect(
    a: ColourAlgebra,
) -> tuple[int, Callable[[int, int, int], list[int]]]:
    """(scale, defect): defect(i, j, k) is the BiHom-Jacobi defect of
    :func:`jacobiator` times ``scale``, summed in integers.

    The inner bracket [b(e_y), a(e_z)] is read from the integer skew table,
    then [bb(x), w] = sum_u w_u [bb(e_x), e_u] from the integer table of
    the twisted products.  Each term is a product of one coefficient of
    each table, so the scale is the product of the two tables' scales.
    """
    eps = a.eps_table()
    inner_scale, inner_table = a.int_table("skew_terms")
    outer_scale, outer_table = a.int_table("twisted_terms", 0, 2)
    n = a.dim

    def defect(i: int, j: int, k: int) -> list[int]:
        acc = [0] * n
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            sign = eps[z][x]
            outer = outer_table[x]
            for u, c in inner_table[y][z]:
                add_terms(acc, sign * c, outer[u])
        return acc

    return inner_scale * outer_scale, defect


# -- check plumbing ---------------------------------------------------------


def _pair_witness(a: ColourAlgebra, idx: tuple[int, ...], defect: Vec) -> Witness:
    """The witness at ``idx``; ValueError naming the tuple for a defect
    too large to write (see :func:`format_element`)."""
    names = tuple(a.basis.names[i] for i in idx)
    try:
        text = a.fmt(defect)
    except ValueError as e:
        raise ValueError(f"the defect at ({', '.join(names)}): {e}") from None
    return Witness(indices=idx, names=names, defect=defect, defect_str=text)


def _check_sums(
    a: ColourAlgebra, name: str, sums: dict, scale: int, advisory=False
) -> CheckItem:
    """The item of a scan whose defects times ``scale`` are summed by
    :func:`_add_at` over the terms that reach each basis tuple: it fails
    at the least tuple with a nonzero sum (:func:`_least_sum`)."""
    bad = _least_sum(sums, a.dim, scale)
    witness = None if bad is None else _pair_witness(a, *bad)
    return CheckItem(name, bad is None, witness, advisory)


def _swap_sums(a: ColourAlgebra, table: IntTable, sign: int) -> dict:
    """The sums of T[i][j] + sign eps(i, j) T[j][i] at (i, j), for the
    cells T of ``table``, over the nonzero cells."""
    eps = a.eps_table()
    sums: dict = {}
    for i, row in enumerate(table[1]):
        for j, cell in enumerate(row):
            if cell:
                _add_at(sums, (i, j), 1, cell)
                _add_at(sums, (j, i), sign * eps[j][i], cell)
    return sums


def _check_product_even(a: ColourAlgebra) -> CheckItem:
    """Every term k of every cell [e_i, e_j], read off the term indices of
    ``int_table("product_terms")``, has degree deg(i) + deg(j); the sum
    is formed once per pair of degrees.  The first failing pair is
    witnessed by its cell."""
    degrees = a.basis.degrees
    add = a.basis.group.add
    sums: dict[tuple[GroupElement, GroupElement], GroupElement] = {}
    for i, row in enumerate(a.int_table("product_terms")[1]):
        di = degrees[i]
        for j, cell in enumerate(row):
            if not cell:
                continue
            key = (di, degrees[j])
            want = sums.get(key)
            if want is None:
                want = sums[key] = add(*key)
            if any(degrees[k] != want for k, _ in cell):
                return CheckItem(
                    "product_even",
                    False,
                    _pair_witness(a, (i, j), a.product[i][j]),
                    note="degree of product differs from sum of degrees",
                )
    return CheckItem("product_even", True)


def _check_map_even(a: ColourAlgebra, name: str, m: Matrix) -> CheckItem:
    bad = first_off_block(m, a.basis.degrees, a.basis.degrees)
    if bad is None:
        return CheckItem(f"{name}_even", True)
    r, c = bad
    defect = tuple(m[r][c] if k == r else ZERO for k in range(a.dim))
    return CheckItem(
        f"{name}_even",
        False,
        _pair_witness(a, bad, defect),
        note="matrix entry connects different degrees",
    )


def _check_maps_commute(a: ColourAlgebra) -> CheckItem:
    bad = _commutator(a.alpha, a.beta)
    if bad is None:
        return CheckItem("maps_commute", True)
    return CheckItem(
        "maps_commute",
        False,
        _pair_witness(a, bad[:2], bad[2]),
        note="alpha.beta - beta.alpha is nonzero",
    )


def _check_multiplicative(
    a: ColourAlgebra, name: str, m: Matrix | None = None
) -> CheckItem:
    """m[e_i, e_j] = [m e_i, m e_j] for an even map m, by default the
    structure map ``name``: the identity of :func:`_bracket_defect` at
    degree 0 with value = right = m and no left term, over the integer
    table T = [m e_i, e_t] (that of any other m from
    :func:`_twisted_table`)."""
    if m is None:
        m = getattr(a, name)
        twist = (1, 0) if name == "alpha" else (0, 1)
        cells = _twisted_cells(a, *twist, False)
    else:
        table = _twisted_table(a._terms, m.int_column_terms(), False)
        cells = _cells(table, False)
    bad = _bracket_defect(a, a.basis.group.zero(), (cells,) * 2, m, None, m)
    witness = None if bad is None else _pair_witness(a, bad[:2], bad[2])
    return CheckItem(f"{name}_multiplicative", bad is None, witness, True)


def _check_regular(a: ColourAlgebra) -> CheckItem:
    ok = a.is_regular()
    return CheckItem(
        "regular",
        ok,
        None,
        advisory=True,
        note="" if ok else "alpha or beta is not invertible",
    )


def _structural(a: ColourAlgebra) -> list[CheckItem]:
    """The items every suite opens with: evenness of the product and of
    both maps, commuting maps, and (advisory) multiplicativity of each."""
    return [
        _check_product_even(a),
        _check_map_even(a, "alpha", a.alpha),
        _check_map_even(a, "beta", a.beta),
        _check_maps_commute(a),
        _check_multiplicative(a, "alpha"),
        _check_multiplicative(a, "beta"),
    ]


def check_lie_axioms(a: ColourAlgebra) -> AxiomReport:
    """Full BiHom-Lie colour suite on all basis tuples.

    Core verdicts: evenness of product and maps, commutation of the maps,
    BiHom-skewsymmetry [b(x),a(y)] = -eps(x,y)[b(y),a(x)], and the
    eps-BiHom-Jacobi condition.  Multiplicativity of each map and
    regularity are reported alongside as advisory verdicts.
    """
    rep = AxiomReport(_structural(a))
    skew = a.int_table("skew_terms")
    rep.items.append(
        _check_sums(a, "bihom_skewsymmetry", _swap_sums(a, skew, 1), skew[0])
    )
    # the defect of _jacobi_defect sums the rotations (x, y, z) of a
    # triple: each term goes to the least rotation, thrice to (i, i, i)
    eps, n = a.eps_table(), a.dim
    outer_scale, outer_table = a.int_table("twisted_terms", 0, 2)
    sums: dict = {}
    for y, row in enumerate(skew[1]):
        for z, cell in enumerate(row):
            if not cell:
                continue
            # the least rotation by the order of x, y and z
            if y <= z:
                keys = [(x, y, z) if x <= y else (y, z, x) for x in range(n)]
            else:
                keys = [(x, y, z) if x < z else (z, x, y) for x in range(n)]
            for x, outer in enumerate(outer_table):
                f = eps[z][x] * (3 if x == y == z else 1)
                for u, c in cell:
                    if outer[u]:
                        _add_at(sums, keys[x], f * c, outer[u])
    jacobi_scale = skew[0] * outer_scale
    rep.items.append(_check_sums(a, "bihom_jacobi", sums, jacobi_scale))
    rep.items.append(_check_regular(a))
    return rep


def associator(a: ColourAlgebra, x: Vec, y: Vec, z: Vec) -> Vec:
    """alpha(x)(y z) - (x y) beta(z) on general vectors, by four
    ``product_eval`` calls; the scans sum its terms in integers on basis
    triples (:func:`_associator_sums`)."""
    left = a.product_eval(a.alpha.apply(x), a.product_eval(y, z))
    right = a.product_eval(a.product_eval(x, y), a.beta.apply(z))
    return tuple([u - v for u, v in zip(left, right)])


def _associator_sums(a: ColourAlgebra, maps=()) -> tuple[int, dict]:
    """(L, sums): L times as(m1 e_i, m2 e_j, m3 e_k), the {u: int} of
    :func:`_add_at` at each triple a term reaches, for the slot maps (m1,
    m2, m3) ``maps``, identity maps by default: a product-table term times
    a cell of the twisted tables by alpha and by beta, then pulled back
    through each slot map, the sum at t in slot s to r times m[t][r]."""
    product_scale, terms = a.int_table("product_terms")
    left_scale, left = a.int_table("twisted_terms", 1, 0)
    right_scale, right = a.int_table("twisted_terms", 0, 1, True)
    scale = lcm(left_scale, right_scale)
    fl, fr = scale // left_scale, -(scale // right_scale)
    # alpha(e_i)(e_j e_k) from the cell (j, k), (e_i e_j) beta(e_k) from (i, j)
    sums: dict = {}
    for p, row in enumerate(terms):
        for q, cell in enumerate(row):
            for u, c in cell:
                for i, left_i in enumerate(left):
                    if left_i[u]:
                        _add_at(sums, (i, p, q), fl * c, left_i[u])
                for k, ts in enumerate(right[u]):
                    if ts:
                        _add_at(sums, (p, q, k), fr * c, ts)
    scale *= product_scale
    for s, m in enumerate(maps):
        map_scale, rows = m.transpose().int_column_terms()
        pulled: dict = {}
        for key, acc in sums.items():
            for r, x in rows[key[s]]:
                _add_at(pulled, (*key[:s], r, *key[s + 1:]), x, acc.items())
        sums, scale = pulled, scale * map_scale
    return scale, sums


def check_associative_axioms(a: ColourAlgebra) -> AxiomReport:
    """BiHom-associativity suite, on the associator table of
    :func:`_associator_sums`; colour-commutativity is a separate flag."""
    rep = AxiomReport(_structural(a))
    scale, sums = _associator_sums(a)
    assoc = _check_sums(a, "bihom_associative", sums, scale)
    sums = _swap_sums(a, a.int_table("product_terms"), -1)
    comm = _check_sums(a, "colour_commutative", sums, a._terms[0], True)
    rep.items += [assoc, comm, _check_regular(a)]
    return rep


def check_bihom_axioms(a: ColourAlgebra) -> AxiomReport:
    """The structural items and regularity: no product law is imposed."""
    return AxiomReport(_structural(a) + [_check_regular(a)])


# the axiom suites by name, for require_passing and the command line
SUITES = {
    "lie": check_lie_axioms,
    "associative": check_associative_axioms,
    "bihom": check_bihom_axioms,
}


def require_passing(
    a: ColourAlgebra,
    suite: str,
    *,
    need_multiplicative: bool = False,
    need_regular: bool = False,
    context: str = "",
) -> AxiomReport:
    """Gate helper: run a suite of ``SUITES`` and raise if required
    verdicts fail."""
    if suite not in SUITES:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown axiom suite {suite!r}; expected {known}")
    rep = SUITES[suite](a)
    bad = [it.name for it in rep.items if not it.passed and not it.advisory]
    if need_multiplicative:
        bad += [
            it.name
            for it in rep.items
            if it.name.endswith("_multiplicative") and not it.passed
        ]
    if need_regular and not rep.item("regular").passed:
        bad.append("regular")
    if bad:
        where = f" in {context}" if context else ""
        raise ValueError(
            f"input algebra fails {', '.join(sorted(set(bad)))}{where}"
        )
    return rep
