"""Lie-admissibility of a general graded product with two structure maps.

Everything here asks one question in different strengths: does the
commutator built from a product mu satisfy the twisted Jacobi identity?
The cyclic sum S, the signed sums over subgroups of S3, flexibility and
the primed bracket are the standard instruments for answering it.  The
G-sums and flexibility scan one integer associator table
(``algebra._associator_sums``); ``signed_perm_sum``, ``cyclic_S`` and
``commutator_jacobiator`` evaluate one triple.  The commutator is
written once, as the product of :func:`primed_bracket`
(``constructions.commutator_table``); the commutator Jacobiator and the
commutator form of S read it there.

Convention note.  In the signed permutation sums, each of the three
argument slots owns a fixed twist (alpha^-1 beta^2 on the first, beta on
the second, alpha on the third) and the permutation moves the arguments
between slots; the maps never travel with the arguments.  The travelling
variant fails the equivalence with the commutator Jacobi test as soon as
alpha and beta differ, which is checked in the test suite against the
jacobiator computed independently.

Throughout, the structure maps must be invertible; the checks also demand
even, commuting, multiplicative maps before evaluating (the identities
this module rests on silently break without them).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .algebra import (
    AxiomReport,
    ColourAlgebra,
    _add_at,
    _associator_sums,
    _check_sums,
    associator,
    jacobiator,
    memoized,
    require_passing,
)
from .constructions import commutator_table
from .grading import Bicharacter, GroupElement, homogeneous_degree
from .linalg import Matrix, Vec, vadd, vscale, vzero


class Permutation3:
    """An element of S3 as the image tuple (p(1), p(2), p(3)).

    Acting on an argument tuple puts x_{p(s)} into slot s.  The adjacent
    transpositions generating S3 are SWAP12 and SWAP23; `steps` is a fixed
    decomposition of the permutation into those, used both for the sign
    and for the graded degree.
    """

    __slots__ = ("image", "steps")

    _DECOMP = {
        (1, 2, 3): (),
        (2, 1, 3): (0,),
        (1, 3, 2): (1,),
        (2, 3, 1): (0, 1),
        (3, 1, 2): (1, 0),
        (3, 2, 1): (0, 1, 0),
    }

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        if sorted(image) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1,2,3): {image!r}")
        self.image = image
        self.steps = self._DECOMP[image]

    @property
    def sign(self) -> int:
        return -1 if len(self.steps) % 2 else 1

    def apply(self, triple: tuple) -> tuple:
        return tuple(triple[s - 1] for s in self.image)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation3) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation3({self.image})"


IDENTITY = Permutation3((1, 2, 3))
SWAP12 = Permutation3((2, 1, 3))
SWAP23 = Permutation3((1, 3, 2))
SWAP13 = Permutation3((3, 2, 1))
CYCLE_LEFT = Permutation3((2, 3, 1))   # (x,y,z) -> (y,z,x)
CYCLE_RIGHT = Permutation3((3, 1, 2))  # (x,y,z) -> (z,x,y)

S3 = (IDENTITY, SWAP12, SWAP23, CYCLE_LEFT, CYCLE_RIGHT, SWAP13)

SUBGROUPS: dict[str, tuple[Permutation3, ...]] = {
    "G1": (IDENTITY,),
    "G2": (IDENTITY, SWAP12),
    "G3": (IDENTITY, SWAP23),
    "G4": (IDENTITY, SWAP13),
    "G5": (IDENTITY, CYCLE_LEFT, CYCLE_RIGHT),
    "G6": S3,
}

def perm_degree(
    eps: Bicharacter, p: Permutation3, degrees: tuple[GroupElement, ...]
) -> Fraction:
    """Graded degree |p| of a permutation acting on homogeneous degrees.

    Built one adjacent swap at a time: a swap of neighbouring entries
    (u, v) contributes eps(u, v) evaluated on the tuple as permuted so
    far.  The identity has degree 1.
    """
    cur = [eps.group.reduce(d) for d in degrees]
    if len(cur) != 3:
        raise ValueError("perm_degree expects a degree triple")
    w = 1
    for s in p.steps:
        w *= eps.eval(cur[s], cur[s + 1])
        cur[s], cur[s + 1] = cur[s + 1], cur[s]
    return Fraction(w)


def _slot_maps(a: ColourAlgebra) -> tuple[Matrix, Matrix, Matrix]:
    return a.ab_power(-1, 2), a.beta, a.alpha


def signed_perm_sum(
    a: ColourAlgebra,
    members: Iterable[Permutation3],
    i: int,
    j: int,
    k: int,
) -> Vec:
    """sum over members of sgn(p) |p| as(m1 x_{p(1)}, m2 x_{p(2)}, m3 x_{p(3)})

    on the basis triple (i, j, k), with slot maps m1 = alpha^-1 beta^2,
    m2 = beta, m3 = alpha.
    """
    m = _slot_maps(a)
    xs = (a.basis_vec(i), a.basis_vec(j), a.basis_vec(k))
    degs = (a.degree(i), a.degree(j), a.degree(k))
    total = vzero(a.dim)
    for p in members:
        w = Fraction(p.sign) * perm_degree(a.eps, p, degs)
        px = p.apply(xs)
        term = associator(a, m[0].apply(px[0]), m[1].apply(px[1]), m[2].apply(px[2]))
        total = vadd(total, vscale(w, term))
    return total


def commutator_jacobiator(a: ColourAlgebra, i: int, j: int, k: int) -> Vec:
    """Twisted Jacobi defect of the commutator bracket of a's product.

    The bracket is [x,y] = xy - eps(x,y)(alpha^-1 beta(y))(beta^-1 alpha(x)),
    the product of :func:`primed_bracket`, and the defect is its
    :func:`~bihomlie.algebra.jacobiator`, the cyclic sum
    eps(z,x)[beta^2(x), [beta(y), alpha(z)]] evaluated on the basis triple.
    The product itself need satisfy no law; the maps must be invertible.
    The outer bracket is bilinear in the inner one: on a product that is
    not even the inner bracket need not be homogeneous, and each of its
    components is signed by its own degree, not all by deg y + deg z.
    """
    return jacobiator(primed_bracket(a), i, j, k)


def cyclic_S(a: ColourAlgebra, x: Vec, y: Vec, z: Vec) -> Vec:
    """Cyclic associator sum S on homogeneous elements.

    Two expressions are evaluated: the cyclic sum of
    eps(z,x) as(alpha^-1 beta^2(x), beta(y), alpha(z)), and the same sum
    with each associator replaced by the commutator
    eps(z,x)[beta^2(x), beta(y) alpha(z)], the bracket read from
    :func:`primed_bracket`.  For even, commuting, multiplicative,
    invertible maps the two agree identically; they are both computed
    every time and any disagreement raises RuntimeError (it would mean the
    identity this module is built on does not apply, e.g.
    non-multiplicative maps slipped through).
    """
    grp = a.basis.group
    triples = []
    for v in (x, y, z):
        ok, d = homogeneous_degree(a.basis, v)
        if not ok:
            raise ValueError("cyclic_S needs homogeneous arguments")
        triples.append((v, d if d is not None else grp.zero()))

    m1, m2, m3 = _slot_maps(a)
    b2 = a.map_power("beta", 2)
    bracket = primed_bracket(a).product_eval
    via_as = vzero(a.dim)
    via_comm = vzero(a.dim)
    order = (0, 1, 2)
    for r in range(3):
        (u, du), (v, dv), (w, dw) = (
            triples[order[r]],
            triples[order[(r + 1) % 3]],
            triples[order[(r + 2) % 3]],
        )
        e = Fraction(a.eps.eval(dw, du))
        via_as = vadd(
            via_as,
            vscale(
                e, associator(a, m1.apply(u), m2.apply(v), m3.apply(w))
            ),
        )
        inner = a.product_eval(m2.apply(v), m3.apply(w))
        via_comm = vadd(via_comm, vscale(e, bracket(b2.apply(u), inner)))
    if via_as != via_comm:
        raise RuntimeError(
            "cyclic associator sum and its commutator form disagree; "
            "the structure maps are not even commuting multiplicative "
            "bijections"
        )
    return via_as


def check_g_associative(a: ColourAlgebra, g: str) -> AxiomReport:
    """Signed permutation sum over one of the six subgroups, all triples.

    Passing G6 is equivalent to the commutator bracket satisfying the
    twisted Jacobi identity; passing any smaller subgroup implies passing
    G6 (left-coset decomposition).  The verdict item is named after the
    subgroup id.  The cell t of the associator table over the slot maps
    goes to the triple each member p puts into the slots t, sgn(p) |p| times.
    """
    if g not in SUBGROUPS:
        raise ValueError(f"unknown subgroup id {g!r}; expected G1..G6")
    require_passing(
        a,
        "bihom",
        need_multiplicative=True,
        need_regular=True,
        context=f"check_g_associative({g})",
    )
    scale, cells = _associator_sums(a, _slot_maps(a))
    # sgn(p) |p| by the member's place and the degrees of the triple
    sums, weights = {}, {}
    for t, acc in cells.items():
        for m, p in enumerate(SUBGROUPS[g]):
            # the triple whose argument p puts into the slots t
            idx = tuple([t[p.image.index(s)] for s in (1, 2, 3)])
            key = (m, *[a.basis.degrees[i] for i in idx])
            if key not in weights:
                weights[key] = p.sign * int(perm_degree(a.eps, p, key[1:]))
            _add_at(sums, idx, weights[key], acc.items())
    name = f"{g.lower()}_bihom_associative"
    return AxiomReport([_check_sums(a, name, sums, scale)])


def check_flexible(a: ColourAlgebra) -> AxiomReport:
    """as(x, y, x) = 0 on every basis pair; witness is the first failure."""
    scale, cells = _associator_sums(a)
    sums = {(i, j): acc for (i, j, k), acc in cells.items() if k == i}
    return AxiomReport([_check_sums(a, "flexible", sums, scale)])


@memoized
def primed_bracket(a: ColourAlgebra) -> ColourAlgebra:
    """[x,y]' = [x,y] - eps(x,y)[alpha^-1 beta(y), alpha beta^-1(x)].

    On an algebra whose product already satisfies the twisted
    skewsymmetry this doubles the product; in general it symmetrizes it
    into a skewsymmetric one.  Maps must be invertible.  Cached on the
    algebra, so a scan over its triples builds one bracket.
    """
    return ColourAlgebra._of(
        a.basis, a.eps, commutator_table(a), a.alpha, a.beta, a.kind
    )
