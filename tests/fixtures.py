"""Algebras shared by several test modules.

The test modules build their algebras inside the tests, so a fault in the
library fails tests instead of stopping collection; these are the names
and builders they share.
"""

from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

from bihomlie.alg_io import parse_algebra
from bihomlie.algebra import MAX_DIM, ColourAlgebra
from bihomlie.cohomology import Representation, adjoint_rep
from bihomlie.constructions import (
    build_osp12,
    commutator_algebra,
    mat2_assoc,
    osp12_classical,
    yau_twist,
    z2z2_colour_example,
)
from bihomlie.grading import (
    GradedBasis,
    GradingGroup,
    format_degree,
    super_bicharacter,
)
from bihomlie.linalg import Matrix
from bihomlie.multipliers import MultiplierTable

DATA = Path(__file__).resolve().parent.parent / "src" / "bihomlie" / "data"

# the names of lie_corpus(), whose algebras are built inside the tests
LIE_CORPUS = (
    "zero_3",
    "osp12_classical",
    "osp12_twist(2,3)",
    "z2z2_colour_example",
    "commutator(mat2_assoc)",
)


def memo_keys(owner, name: str) -> list[tuple]:
    """The keys, in order, under which the algebra or module ``owner``
    memoizes the builder called ``name``, each without that name."""
    return [key[1:] for key in owner._memo if key[0] == name]


def gl_units(parity: tuple[int, ...]) -> ColourAlgebra:
    """The Z2-graded k x k matrix units under multiplication, with identity
    maps; E_ij has degree parity[i] + parity[j]."""
    k = len(parity)
    units = [(i, j) for i in range(k) for j in range(k)]
    basis = GradedBasis(
        GradingGroup(0, (2,)),
        tuple(f"E{i + 1}{j + 1}" for i, j in units),
        tuple(((parity[i] + parity[j]) % 2,) for i, j in units),
    )
    product = [
        [
            [Fraction(int(j == m and (i, l) == u)) for u in units]
            for m, l in units
        ]
        for i, j in units
    ]
    return ColourAlgebra(
        basis,
        super_bicharacter(),
        product,
        Matrix.identity(k * k),
        Matrix.identity(k * k),
        kind="associative",
    )


def gl_twist(parity: tuple[int, ...], da, db) -> ColourAlgebra:
    """gl(m|n): the commutator algebra of :func:`gl_units`, Yau-twisted by
    the diagonal conjugations x -> D x D^-1 with D = diag(da), diag(db)."""
    k = len(parity)
    units = [(i, j) for i in range(k) for j in range(k)]

    def conjugation(d):
        return Matrix.diagonal([Fraction(d[i], d[j]) for i, j in units])

    return yau_twist(
        commutator_algebra(gl_units(parity)),
        conjugation(da),
        conjugation(db),
    )


def gl21_units() -> ColourAlgebra:
    """The Z2-graded 3x3 matrix units (E11, E12, E21, E22 even)."""
    return gl_units((0, 0, 1))


def gl21_twist() -> ColourAlgebra:
    """gl(2|1) Yau-twisted by the diagonal conjugations with (1, 2, 3) and
    (1, 5, 7)."""
    return gl_twist((0, 0, 1), (1, 2, 3), (1, 5, 7))


def gl22_twist() -> ColourAlgebra:
    """gl(2|2) Yau-twisted by the diagonal conjugations with (1, 2, 3, 5)
    and (1, 7, 11, 13)."""
    return gl_twist((0, 0, 1, 1), (1, 2, 3, 5), (1, 7, 11, 13))


def matrix_conjugation(g, ginv) -> Matrix:
    """x -> g x g^-1 on k x k matrices, in the basis E11, E12, ..., Ekk."""
    units = [(i, j) for i in range(len(g)) for j in range(len(g))]
    cols = [
        [g[k][i] * ginv[j][l] for k, l in units] for i, j in units
    ]
    return Matrix.from_cols(cols)


def gl2_conjugation_twist() -> ColourAlgebra:
    """gl(2) twisted by conjugation with [[1,1],[0,1]] and its square:
    structure maps with several nonzero entries per column."""
    alpha = matrix_conjugation([[1, 1], [0, 1]], [[1, -1], [0, 1]])
    beta = matrix_conjugation([[1, 2], [0, 1]], [[1, -2], [0, 1]])
    return yau_twist(commutator_algebra(mat2_assoc()), alpha, beta)


def gl2_one_sided_twist(side: int) -> ColourAlgebra:
    """gl(2) twisted by conjugation with [[1,1],[0,1]] as alpha (side 0)
    or beta (side 1) and the identity as the other map: the alpha- and
    beta-preimages of a tuple differ."""
    maps = [Matrix.identity(4)] * 2
    maps[side] = matrix_conjugation([[1, 1], [0, 1]], [[1, -1], [0, 1]])
    return yau_twist(commutator_algebra(mat2_assoc()), *maps)


def gl21_unipotent_twist() -> ColourAlgebra:
    """gl(2|1) twisted by conjugation with the even unipotent matrices
    1 + E12 and 1 + 2 E12: a nine-dimensional algebra whose beta columns
    have several nonzero entries."""
    def unipotent(c):
        return [[1, c, 0], [0, 1, 0], [0, 0, 1]]

    return yau_twist(
        commutator_algebra(gl21_units()),
        matrix_conjugation(unipotent(1), unipotent(-1)),
        matrix_conjugation(unipotent(2), unipotent(-2)),
    )


def gl21_noncommuting_twist() -> ColourAlgebra:
    """:func:`gl21_twist` with beta replaced by conjugation with the even
    unipotent matrix 1 + E12: an even map that does not commute with
    alpha, so the structure maps fail ``maps_commute``."""
    a = gl21_twist()
    g, ginv = ([[1, c, 0], [0, 1, 0], [0, 0, 1]] for c in (1, -1))
    beta = matrix_conjugation(g, ginv)
    return a.with_product(a.product, beta=beta)


def fraction_twist(parity: tuple[int, ...], g) -> ColourAlgebra:
    """gl(m|n) as the commutator of :func:`gl_units`, twisted by conjugation
    with the even matrix g and with g squared."""
    gm = Matrix(g)
    g2 = gm * gm
    return yau_twist(
        commutator_algebra(gl_units(parity)),
        matrix_conjugation(gm.rows, gm.invert().rows),
        matrix_conjugation(g2.rows, g2.invert().rows),
    )


def gl11_fraction_twist() -> ColourAlgebra:
    """gl(1|1) twisted by diag(1, 3/7) and its square: structure constants
    and diagonal maps with the prime denominators 3 and 7."""
    return fraction_twist((0, 1), [[1, 0], [0, Fraction(3, 7)]])


def gl2_fraction_twist() -> ColourAlgebra:
    """gl(2) twisted by [[2/5, 1/3], [0, 1]] and its square: structure maps
    with several nonzero entries per column, and denominators 2, 3 and 5
    in the maps and the structure constants."""
    return fraction_twist((0, 0), [[Fraction(2, 5), Fraction(1, 3)], [0, 1]])


def gl21_fraction_twist() -> ColourAlgebra:
    """gl(2|1) twisted by the even block matrix [[2/5, 1/3], [0, 1]] + [3/7]
    and its square: like :func:`gl2_fraction_twist`, with odd elements."""
    third = Fraction(1, 3)
    return fraction_twist(
        (0, 0, 1),
        [[Fraction(2, 5), third, 0], [0, 1, 0], [0, 0, Fraction(3, 7)]],
    )


def random_superalgebra(rng, shape: str) -> ColourAlgebra:
    """A Z2-graded algebra of dimension 2 to 5 with a random graded
    product table (denominators 1, 2, 3) and even structure maps of one
    ``shape``: "diagonal", with eigenvalues drawn from a few values, zero
    and repeated ones among them; "near", such a diagonal with one term
    moved off the diagonal or added beside it; "even", random even maps
    with several terms per column; or "weighted", the invertible,
    commuting, multiplicative maps diag(2**h) and diag((-3)**h) for random
    weights h in {-1, 0, 1}, over a product that keeps only the terms
    e_i e_j -> e_k with h_k = h_i + h_j."""
    n = rng.randint(2, 5)
    # e0 and e1 even, so that an even map has an off-diagonal slot
    degrees = [0, 0] + [rng.randrange(2) for _ in range(n - 2)]
    weights = (
        [rng.randint(-1, 1) for _ in range(n)] if shape == "weighted" else None
    )
    group = GradingGroup(0, (2,))
    basis = GradedBasis(
        group, tuple(f"e{i}" for i in range(n)), tuple((d,) for d in degrees)
    )
    product = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        for k in range(n):
            even = degrees[k] == (degrees[i] + degrees[j]) % 2
            if weights is not None:
                even = even and weights[k] == weights[i] + weights[j]
            if even and rng.random() < 0.4:
                product[i][j][k] = Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )

    def even_map():
        rows = [[Fraction(0)] * n for _ in range(n)]
        if shape == "even":
            for u, t in iproduct(range(n), repeat=2):
                if degrees[u] == degrees[t] and rng.random() < 0.5:
                    rows[u][t] = Fraction(
                        rng.randint(-2, 3), rng.randint(1, 2)
                    )
            return Matrix(rows)
        for u in range(n):
            rows[u][u] = Fraction(
                rng.choice((0, 1, 1, 2, -3)), rng.choice((1, 2))
            )
        if shape == "near":
            u, t = rng.choice(
                [(u, t) for u, t in iproduct(range(n), repeat=2)
                 if u != t and degrees[u] == degrees[t]]
            )
            if rng.random() < 0.5:
                rows[t][t] = Fraction(0)
            rows[u][t] = Fraction(rng.choice((1, -2, 3)))
        return Matrix(rows)

    if weights is None:
        alpha = even_map()
        beta = even_map()
    else:
        alpha = Matrix.diagonal([Fraction(2) ** h for h in weights])
        beta = Matrix.diagonal([Fraction(-3) ** h for h in weights])
    return ColourAlgebra(basis, super_bicharacter(), product, alpha, beta)


def moved_constant(rng, a: ColourAlgebra) -> ColourAlgebra:
    """``a`` with one nonzero structure constant, drawn from ``rng``, moved
    by a small fraction: the support stays, so diagonal maps stay
    multiplicative."""
    cells = [
        (i, j, k)
        for i, row in enumerate(a.product)
        for j, cell in enumerate(row)
        for k, x in enumerate(cell)
        if x
    ]
    if not cells:
        return a
    i, j, k = rng.choice(cells)
    prod = [[list(cell) for cell in row] for row in a.product]
    prod[i][j][k] += Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))
    return a.with_product(prod)


def conjugated(rng, a: ColourAlgebra) -> ColourAlgebra:
    """``a`` in the basis g e_i, g = 1 plus random entries below the
    diagonal between basis elements of one degree: an isomorphic algebra
    whose maps g^-1 m g are not diagonal where ``a``'s are."""
    n, degrees = a.dim, a.basis.degrees
    rows = [[Fraction(int(u == t)) for t in range(n)] for u in range(n)]
    for u, t in iproduct(range(n), repeat=2):
        if u > t and degrees[u] == degrees[t] and rng.random() < 0.6:
            rows[u][t] = Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 2)))
    g = Matrix(rows)
    ginv = g.invert()
    cols = g.columns()
    prod = [
        [ginv.apply(a.product_eval(cols[i], cols[j])) for j in range(n)]
        for i in range(n)
    ]
    return a.with_product(
        prod, alpha=ginv * a.alpha * g, beta=ginv * a.beta * g
    )


def shipped_osp12_twist() -> ColourAlgebra:
    with open(DATA / "osp12_twist_2_3.alg", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


# name -> builder of an adjoint module of a twisted algebra
TWISTED = {
    "osp12_twist_ad01": lambda: adjoint_rep(build_osp12(2, 3), 0, 1),
    "osp12_twist_ad10": lambda: adjoint_rep(build_osp12(2, 3), 1, 0),
    "osp12_twist_2_3.alg": lambda: adjoint_rep(shipped_osp12_twist(), 0, 1),
    "gl2_conjugation_twist": lambda: adjoint_rep(gl2_conjugation_twist(), -1, 2),
    "z2z2_colour": lambda: adjoint_rep(z2z2_colour_example(), 0, 1),
}


def _beta_is_alpha(rep: Representation) -> Representation:
    """rep with beta_V := alpha_V: even, but the beta intertwining fails,
    so coboundary images leave the cochain space."""
    return Representation(
        rep.algebra, rep.space, rep.rho, rep.alphaV, rep.alphaV
    )


def _e41(c) -> Representation:
    """osp(1|2) acting by c E41 (H -> c F) for every basis vector: not
    even, so images leave the degree-0 slots."""
    a = osp12_classical()
    e41 = Matrix(
        [
            [Fraction(c) * int((p, q) == (3, 0)) for q in range(a.dim)]
            for p in range(a.dim)
        ]
    )
    return Representation(a, a.basis, [e41] * a.dim, a.alpha, a.beta)


def _scaled(rep: Representation, c) -> Representation:
    """rep with every action matrix scaled by c: the maps still
    intertwine, but bracket compatibility fails, so d(d f) need not
    vanish."""
    rho = [m.scale(c) for m in rep.rho]
    return Representation(rep.algebra, rep.space, rho, rep.alphaV, rep.betaV)


# name -> (builder of a module that fails its axioms, the r it is queried at)
BROKEN_MODULES = {
    "beta_is_alpha/osp12_twist_ad01": (
        lambda: _beta_is_alpha(TWISTED["osp12_twist_ad01"]()),
        1,
    ),
    "beta_is_alpha/gl2_conjugation_twist": (
        lambda: _beta_is_alpha(TWISTED["gl2_conjugation_twist"]()),
        1,
    ),
    "beta_is_alpha/gl21_fraction_twist": (
        lambda: _beta_is_alpha(adjoint_rep(gl21_fraction_twist(), 0, 1)),
        1,
    ),
    "e41/osp12_classical": (lambda: _e41(1), 0),
    "e41x-2/3/osp12_classical": (lambda: _e41(Fraction(-2, 3)), 0),
    "scaled2/osp12_classical": (
        lambda: _scaled(adjoint_rep(osp12_classical(), 0, 1), 2),
        1,
    ),
    "scaled-2/3/osp12_classical": (
        lambda: _scaled(
            adjoint_rep(osp12_classical(), 0, 1), Fraction(-2, 3)
        ),
        1,
    ),
    "scaled-2/3/gl21_fraction_twist": (
        lambda: _scaled(
            adjoint_rep(gl21_fraction_twist(), 0, 1), Fraction(-2, 3)
        ),
        1,
    ),
}


def conj(c) -> Matrix:
    """Conjugation by diag(1, c) on the matrix-unit basis."""
    return Matrix.diagonal([1, Fraction(1, c), Fraction(c), 1])


def conj_mat2() -> ColourAlgebra:
    """Matrix product with two distinct commuting automorphisms.

    Multiplicative, even, invertible, commuting, but NOT BiHom-associative:
    only good for identities that need morphism maps, not the product law.
    """
    a = mat2_assoc()
    return a.with_product(a.product, alpha=conj(2), beta=conj(3))


def twisted_mat2() -> ColourAlgebra:
    """x*y = alpha(x) beta(y): BiHom-associative with nontrivial maps."""
    a = mat2_assoc()
    al, be = conj(2), conj(3)
    prod = [
        [
            a.product_eval(al.apply(a.basis_vec(i)), be.apply(a.basis_vec(j)))
            for j in range(4)
        ]
        for i in range(4)
    ]
    return a.with_product(prod, alpha=al, beta=be)


def typo_osp() -> ColourAlgebra:
    """twist(2,3) with {F,F} inflated to 4/3 Y; breaks Jacobi only."""
    tw = build_osp12(2, 3)
    i, y = tw.basis.index("F"), tw.basis.index("Y")
    prod = [[list(cell) for cell in row] for row in tw.product]
    prod[i][i][y] = Fraction(4, 3)
    return tw.with_product(prod)


def table_from_rule(group, degrees, rule):
    """Entries on degrees and their pairwise sums, from a value function."""
    closed = {group.reduce(d) for d in degrees}
    for g in list(closed):
        for h in list(closed):
            closed.add(group.add(g, h))
    return MultiplierTable(
        group, {(g, h): rule(g, h) for g in closed for h in closed}
    )


def constant_multiplier(a: ColourAlgebra) -> str:
    """The text of the multiplier 2 on every pair of degrees that ``a``'s
    degrees, their sums and zero give: symmetric, a cocycle, and delta 1."""
    group = a.basis.group
    degrees = set(a.basis.degrees) | {group.zero()}
    degrees |= {group.add(g, h) for g in degrees for h in degrees}
    return "".join(
        f"{format_degree(g)} {format_degree(h)} 2\n"
        for g in sorted(degrees)
        for h in sorted(degrees)
    )


# -- malformed input ----------------------------------------------------------

# the small file the malformed inputs below edit, as in tests/test_io_cli.py
MINIMAL = """\
version 1
[group]
Z2
[bicharacter]
e1 e1 -1
[basis]
x 0
f 1
[product]
f f -> 2 x
[kind]
lie
"""

_BICHARACTER = "version 1\n[group]\nZ2\n[bicharacter]\n"
_OVERSIZED = {
    "huge-exponent": "1e999999999",
    "tiny-exponent": "1.5e-999999999",
    "5000-digits": "7" * 5000,
}

# case -> (reader, text): every malformed input of tests/test_io_cli.py that
# a reader refuses with a ParseError; the reader is "algebra"
# (parse_algebra), "map" (parse_linear_map over the basis of MINIMAL) or
# "multiplier" (parse_multiplier over Z2)
MALFORMED = {
    "no-version": ("algebra", "[group]\nZ2\n"),
    "unknown-vector": (
        "algebra", MINIMAL.replace("f f -> 2 x", "f f -> 2 q")
    ),
    "empty": ("algebra", "# nothing here\n"),
    "unknown-section": ("algebra", "version 1\n[brackets]\n"),
    "duplicate-section": ("algebra", MINIMAL + "[basis]\n"),
    "content-before-section": ("algebra", "version 1\nZ2\n"),
    "no-group": ("algebra", "version 1\n[basis]\nx 0\n"),
    "two-group-lines": (
        "algebra", "version 1\n[group]\nZ2\nZ2\n[basis]\nx 0\n"
    ),
    "no-basis": ("algebra", "version 1\n[group]\nZ2\n"),
    "ambiguous-name": ("algebra", "version 1\n[group]\nZ2\n[basis]\n2 0\n"),
    "duplicate-name": (
        "algebra", "version 1\n[group]\nZ2\n[basis]\nx 0\nx 1\n"
    ),
    "degree-components": (
        "algebra", "version 1\n[group]\nZ2\n[basis]\nx 0 0\n"
    ),
    "bicharacter-fields": ("algebra", _BICHARACTER + "e1 -1\n"),
    "bicharacter-generator": ("algebra", _BICHARACTER + "x1 e1 -1\n"),
    "bicharacter-range": ("algebra", _BICHARACTER + "e1 e2 -1\n"),
    "bicharacter-value": ("algebra", _BICHARACTER + "e1 e1 2\n"),
    "bicharacter-invalid": (
        "algebra",
        "version 1\n[group]\nZ x Z\n[bicharacter]\ne1 e2 -1\n"
        "[basis]\nx 0 0\n",
    ),
    "product-arrow": ("algebra", MINIMAL.replace("f f -> 2 x", "f f 2 x")),
    "product-left": ("algebra", MINIMAL.replace("f f -> 2 x", "f -> 2 x")),
    "product-duplicate": (
        "algebra", MINIMAL.replace("f f -> 2 x", "f f -> x\nf f -> 2 x")
    ),
    "product-coefficient": ("algebra", MINIMAL.replace("2 x", "two x")),
    "product-term": ("algebra", MINIMAL.replace("2 x", "2 x x")),
    "product-zero-denominator": ("algebra", MINIMAL.replace("2 x", "1/0 x")),
    "product-odd": (
        "algebra", MINIMAL.replace("f f -> 2 x", "f f -> 2 f")
    ),
    "alpha-odd": ("algebra", MINIMAL + "[alpha]\nx -> f\n"),
    "beta-odd-twice": ("algebra", MINIMAL + "[beta]\nx -> f\nf -> x\n"),
    "alpha-arrow": ("algebra", MINIMAL + "[alpha]\nx x\n"),
    "alpha-left": ("algebra", MINIMAL + "[alpha]\nx f -> x\n"),
    "alpha-duplicate": ("algebra", MINIMAL + "[alpha]\nx -> x\nx -> 2 x\n"),
    "kind-unknown": ("algebra", MINIMAL.replace("lie", "group")),
    "kind-two-lines": ("algebra", MINIMAL + "associative\n"),
    "dimension": (
        "algebra",
        "version 1\n[group]\nZ2\n[basis]\n"
        + "".join(f"e{i} 0\n" for i in range(MAX_DIM + 1)),
    ),
    "multiplier-fields": ("multiplier", "0 0\n"),
    "multiplier-value": ("multiplier", "0 0 x\n"),
    "multiplier-duplicate": ("multiplier", "0 0 1\n0 0 2\n"),
    "multiplier-zero": ("multiplier", "0 0 0\n"),
}
# an oversized scalar at each site that reads one (test_io_cli.SCALAR_SITES)
MALFORMED.update(
    (f"{site}-{size}", (reader, text.format(tok)))
    for size, tok in _OVERSIZED.items()
    for site, reader, text in (
        ("product", "algebra", MINIMAL.replace("2 x", "{} x")),
        ("alpha", "algebra", MINIMAL + "[alpha]\nx -> {} x\n"),
        ("beta", "algebra", MINIMAL + "[beta]\nf -> {} f\n"),
        ("map", "map", "x -> x\nf -> {} f\n"),
        ("basis-name", "algebra", "version 1\n[group]\nZ2\n[basis]\n{} 0\n"),
        ("multiplier", "multiplier", "0 0 {}\n"),
    )
)
