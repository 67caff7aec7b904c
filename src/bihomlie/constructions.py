"""Algebra-producing constructions and the built-in example corpus.

Two general constructions live here: the commutator bracket of a
BiHom-associative colour algebra, and twisting a bracket by a pair of
commuting even morphisms (composition method).  Every hypothesis is
validated before anything is built; the functions never trust the caller.
Both sum the new product in integers from the structure constants and the
maps' integer columns and build the algebra with ``ColourAlgebra._of``.

The built-in corpus of :func:`corpus` holds the paper's worked examples:
osp(1|2), the 2x2 matrix units and the Z2 x Z2 colour algebra are read
from their shipped ``data/*.alg`` files, the one copy of their tables;
``zero_<n>`` and the scaling twists of osp(1|2) are built here.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm

from .alg_io import parse_algebra
from .algebra import (
    MAX_DIM,
    ColourAlgebra,
    IntTable,
    _check_map_even,
    _check_multiplicative,
    _commutator,
    _least,
    _twisted_table,
    read_scalar,
    require_passing,
    to_fraction,
)
from .grading import GradedBasis, GradingGroup, trivial_bicharacter
from .linalg import Matrix, sum_terms

Scalar = int | Fraction | str


def _require_even(a: ColourAlgebra, m: Matrix, what: str) -> None:
    item = _check_map_even(a, what, m)
    if not item.passed:
        r, c = item.witness.names
        raise ValueError(
            f"{what} is not even: entry ({r}, {c}) connects different degrees"
        )


def _require_morphism(a: ColourAlgebra, m: Matrix, what: str) -> None:
    """Raise unless m[x, y] = [m x, m y] on every basis pair, naming the
    first failing pair of :func:`_check_multiplicative`'s scan."""
    item = _check_multiplicative(a, what, m)
    if not item.passed:
        x, y = item.witness.names
        raise ValueError(
            f"{what} is not a product morphism; first failure at ({x}, {y})"
        )


def _require_commuting(pairs: list[tuple[str, Matrix, str, Matrix]]) -> None:
    for na, ma, nb, mb in pairs:
        if _commutator(ma, mb) is not None:
            raise ValueError(f"{na} and {nb} do not commute")


def yau_twist(a: ColourAlgebra, a2: Matrix, b2: Matrix) -> ColourAlgebra:
    """Twist a passing bracket by two even morphisms.

    New product {x, y} = [a2(x), b2(y)], new maps alpha∘a2 and beta∘b2.
    Requires: `a` passes the Lie suite with multiplicative maps; a2 and b2
    are even morphisms of the product; alpha, beta, a2, b2 pairwise commute.
    a2 = b2 = identity returns an equal algebra.  The product is summed in
    integers from the structure constants and the maps' integer columns
    (:func:`~bihomlie.algebra._twisted_table`, once per side).
    """
    for what, m in (("first twist map", a2), ("second twist map", b2)):
        if (m.nrows, m.ncols) != (a.dim, a.dim):
            raise ValueError(
                f"{what} is {m.nrows} x {m.ncols}, but the algebra has "
                f"dimension {a.dim}"
            )
    require_passing(
        a, "lie", need_multiplicative=True, context="yau_twist"
    )
    _require_even(a, a2, "first twist map")
    _require_even(a, b2, "second twist map")
    _require_morphism(a, a2, "first twist map")
    _require_morphism(a, b2, "second twist map")
    _require_commuting(
        [
            ("alpha", a.alpha, "first twist map", a2),
            ("alpha", a.alpha, "second twist map", b2),
            ("beta", a.beta, "first twist map", a2),
            ("beta", a.beta, "second twist map", b2),
            ("first twist map", a2, "second twist map", b2),
        ]
    )
    left = _twisted_table(
        a.int_table("product_terms"), a2.int_column_terms(), False
    )
    product = _twisted_table(left, b2.int_column_terms(), True)
    return ColourAlgebra._of(
        a.basis, a.eps, product, a.alpha * a2, a.beta * b2, "lie"
    )


def commutator_algebra(a: ColourAlgebra) -> ColourAlgebra:
    """[x, y] = xy - eps(x,y) (alpha^-1 beta (y))(alpha beta^-1 (x)).

    Requires a BiHom-associative colour algebra with invertible maps; the
    result is a BiHom-Lie colour algebra with the same maps.
    """
    require_passing(
        a,
        "associative",
        need_multiplicative=True,
        need_regular=True,
        context="commutator_algebra",
    )
    return ColourAlgebra._of(
        a.basis, a.eps, commutator_table(a), a.alpha, a.beta, "lie"
    )


def commutator_table(a: ColourAlgebra) -> IntTable:
    """The integer table (L, T) of [e_i, e_j] = e_i e_j - eps(i,j)
    (alpha^-1 beta e_j)(alpha beta^-1 e_i) at [i][j], the form
    ``ColourAlgebra._of`` takes; the maps must be invertible.

    The swapped products [alpha^-1 beta e_j, alpha beta^-1 e_i] are summed
    in integers, the table of [alpha^-1 beta e_j, e_t] twisted on the
    right by alpha beta^-1 (:func:`~bihomlie.algebra._twisted_table`);
    both sides are brought to the lcm of their scales, and each cell sums
    only the terms that reach it (:func:`~bihomlie.linalg.sum_terms`)."""
    scale, terms = a.int_table("product_terms")
    swapped_scale, swapped = _twisted_table(
        a.int_table("twisted_terms", -1, 1),
        a.ab_power(1, -1).int_column_terms(),
        True,
    )
    common = lcm(scale, swapped_scale)
    fp, fs = common // scale, common // swapped_scale
    eps = a.eps_table()
    table = [
        [
            sum_terms([(fp, cell), (-eps[i][j] * fs, swapped[j][i])])
            for j, cell in enumerate(row)
        ]
        for i, row in enumerate(terms)
    ]
    return _least(common, table)


# -- the corpus -------------------------------------------------------------


def zero_algebra(n: int) -> ColourAlgebra:
    """n-dimensional abelian algebra: zero product, identity maps."""
    group = GradingGroup(0, ())
    basis = GradedBasis(
        group, tuple(f"e{i+1}" for i in range(n)), ((),) * n
    )
    return ColourAlgebra._of(
        basis,
        trivial_bicharacter(group),
        (1, (((),) * n,) * n),
        Matrix.identity(n),
        Matrix.identity(n),
        "lie",
    )


def _shipped(stem: str) -> ColourAlgebra:
    """The algebra of the shipped file ``data/<stem>.alg``."""
    path = os.path.join(os.path.dirname(__file__), "data", stem + ".alg")
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def osp12_classical() -> ColourAlgebra:
    """The five-dimensional orthosymplectic Lie superalgebra over Q, read
    from the shipped ``osp12_classical.alg``.

    Basis H, X, Y (even), F, G (odd); realized by supermatrices with
    H = diag(1,0,-1), X = E13, Y = E31, F = E21+E32, G = E12-E23, from
    which the file's table is read off.  Identity structure maps.
    """
    return _shipped("osp12_classical")


def osp12_scaling_map(t: Scalar) -> Matrix:
    """diag action H -> H, X -> t^2 X, Y -> t^-2 Y, F -> t^-1 F, G -> t G;
    a string t is read by :func:`~bihomlie.algebra.to_fraction`."""
    t = to_fraction(t)
    if not t:
        raise ValueError("scaling parameter must be nonzero")
    return Matrix.diagonal([1, t * t, 1 / (t * t), 1 / t, t])


def build_osp12(lam: Scalar, kappa: Scalar) -> ColourAlgebra:
    """Twist of the classical algebra by the two scaling morphisms.

    {x, y} = [a_lam(x), b_kappa(y)] with structure maps a_lam, b_kappa.
    A string parameter is read by :func:`~bihomlie.algebra.to_fraction`.
    """
    lam = to_fraction(lam)
    kappa = to_fraction(kappa)
    if not lam or not kappa:
        raise ValueError("twist parameters must be nonzero")
    return yau_twist(
        osp12_classical(), osp12_scaling_map(lam), osp12_scaling_map(kappa)
    )


def mat2_assoc() -> ColourAlgebra:
    """2x2 matrix units under matrix multiplication, trivially graded,
    read from the shipped ``mat2_assoc.alg``."""
    return _shipped("mat2_assoc")


def z2z2_colour_example() -> ColourAlgebra:
    """A colour (non-super) example graded by Z2 x Z2, read from the
    shipped ``z2z2_colour.alg``.

    eps((a1,a2),(b1,b2)) = (-1)^(a1 b2 + a2 b1); the three nonzero degrees
    pair to -1 with each other, so the symmetric table [a,b]=[b,a]=c (cyclic)
    is eps-skewsymmetric; identity maps.
    """
    return _shipped("z2z2_colour")


def corpus(name: str) -> ColourAlgebra:
    """Look up a built-in algebra by its stable CLI-visible name.

    Accepted: zero_<n> (n a canonical decimal, 1 <= n <= MAX_DIM),
    osp12_classical, osp12_twist(<lam>,<kappa>) (bare osp12_twist means
    (2,3)), mat2_assoc, z2z2_colour_example.
    """
    name = name.strip()
    if name.startswith("zero_"):
        try:
            n = int(name[5:])
        except ValueError:
            n = 0
        if str(n) != name[5:]:
            raise KeyError(f"unknown corpus algebra {name!r}")
        if not 1 <= n <= MAX_DIM:
            raise KeyError(
                f"unknown corpus algebra {name!r}; zero_<n> needs "
                f"1 <= n <= {MAX_DIM}"
            )
        return zero_algebra(n)
    if name == "osp12_classical":
        return osp12_classical()
    if name == "osp12_twist":
        return build_osp12(2, 3)
    if name.startswith("osp12_twist(") and name.endswith(")"):
        inner = name[len("osp12_twist(") : -1]
        try:
            params = [read_scalar(p.strip()) for p in inner.split(",")]
        except ValueError:
            params = []
        if len(params) != 2 or None in params:
            raise KeyError(f"unknown corpus algebra {name!r}")
        return build_osp12(*params)
    if name == "mat2_assoc":
        return mat2_assoc()
    if name == "z2z2_colour_example":
        return z2z2_colour_example()
    raise KeyError(f"unknown corpus algebra {name!r}")


CORPUS_NAMES = (
    "zero_3",
    "osp12_classical",
    "osp12_twist(2,3)",
    "mat2_assoc",
    "z2z2_colour_example",
)


def lie_corpus() -> list[tuple[str, ColourAlgebra]]:
    """The Lie-kind test family: every corpus bracket algebra.

    mat2_assoc enters through its commutator algebra; the associative
    product itself has no adjoint action.
    """
    return [
        ("zero_3", zero_algebra(3)),
        ("osp12_classical", osp12_classical()),
        ("osp12_twist(2,3)", build_osp12(2, 3)),
        ("z2z2_colour_example", z2z2_colour_example()),
        ("commutator(mat2_assoc)", commutator_algebra(mat2_assoc())),
    ]
