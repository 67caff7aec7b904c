"""The reached-term scans of flexibility, the G-sums and the Jordan check
against the tuple-by-tuple oracles they replaced.

``check_flexible`` and ``check_g_associative`` read one integer
associator table; ``dense_oracles.check_tuples`` scans every basis tuple
through the per-tuple evaluators ``associator`` and ``signed_perm_sum``.
``check_jordan_axioms`` sums each term of its cycle once into every tuple
it enters; ``check_jordan_axioms_oracle`` composes and multiplies afresh
at every tuple.  The inputs are seeded random graded algebras with
invertible, even, commuting, multiplicative maps, the same algebras in a
basis that makes the maps non-diagonal, and copies with one structure
constant moved, so that failures are sparse and not always at the first
tuple.
"""

from fractions import Fraction
from itertools import product as iproduct
from random import Random

from bihomlie import algebra as alg
from bihomlie.admissibility import (
    SUBGROUPS,
    check_flexible,
    check_g_associative,
    signed_perm_sum,
)
from bihomlie.algebra import ColourAlgebra, associator, require_passing
from bihomlie.constructions import build_osp12, z2z2_colour_example
from bihomlie.derivations import (
    HomEndo,
    centroid_space,
    check_jordan_axioms,
    derivation_space,
    jordan_product,
    quasi_centroid_space,
)
from bihomlie.grading import GradedBasis, GradingGroup, super_bicharacter
from bihomlie.linalg import Matrix, int_diagonal
from dense_oracles import check_jordan_axioms_oracle, check_tuples
from fixtures import (
    conj_mat2,
    conjugated,
    gl11_fraction_twist,
    moved_constant,
    random_superalgebra,
    twisted_mat2,
)

F = Fraction


def flexible_oracle(a):
    return check_tuples(
        a,
        "flexible",
        2,
        lambda i, j: associator(
            a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(i)
        ),
    )


def g_associative_oracle(a, g):
    members = SUBGROUPS[g]
    return check_tuples(
        a,
        f"{g.lower()}_bihom_associative",
        3,
        lambda i, j, k: signed_perm_sum(a, members, i, j, k),
    )


def gated_algebras():
    """Seeded weighted algebras and fixtures with diagonal maps, each with
    a copy with one constant moved, and both in a conjugated basis: every
    one passes the gate of ``check_g_associative``."""
    rng = Random(42)
    bases = [random_superalgebra(rng, "weighted") for _ in range(12)]
    bases += [
        twisted_mat2(),
        conj_mat2(),
        build_osp12(2, 3),
        z2z2_colour_example(),
        gl11_fraction_twist(),
    ]
    out = []
    for a in bases:
        moved = moved_constant(rng, a)
        out += [a, moved, conjugated(rng, a), conjugated(rng, moved)]
    return out


def test_g_sums_and_flexibility_match_the_tuple_scans():
    seen = set()
    for a in gated_algebras():
        require_passing(a, "bihom", need_multiplicative=True, need_regular=True)
        assert check_flexible(a).items == [flexible_oracle(a)]
        for g in SUBGROUPS:
            got = check_g_associative(a, g).items
            assert got == [g_associative_oracle(a, g)], g
            seen.add((g, got[0].passed))
        cols = a.alpha.int_column_terms()[1]
        seen.add(("diagonal", len(int_diagonal(cols)) == a.dim))
    assert seen == {
        (what, verdict)
        for what in (*SUBGROUPS, "diagonal")
        for verdict in (False, True)
    }


def test_flexibility_matches_the_tuple_scan_on_maps_the_gate_refuses():
    # flexibility has no gate: singular, non-commuting and non-diagonal maps
    rng = Random(43)
    seen = set()
    for case in range(60):
        a = random_superalgebra(rng, ("diagonal", "near", "even")[case % 3])
        for b in (a, moved_constant(rng, a)):
            got = check_flexible(b).items
            assert got == [flexible_oracle(b)]
            seen.add(got[0].passed)
    assert seen == {False, True}


def three_units(product_terms) -> ColourAlgebra:
    """e0, e1, e2, all even, identity maps, e_i e_j = x e_k for each
    (i, j, k, x) of ``product_terms``."""
    group = GradingGroup(0, (2,))
    basis = GradedBasis(group, ("e0", "e1", "e2"), ((0,),) * 3)
    product = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, x in product_terms:
        product[i][j][k] = F(x)
    one = Matrix.identity(3)
    return ColourAlgebra(basis, super_bicharacter(), product, one, one)


def test_the_least_failing_triple_is_reached_only_by_a_later_cell():
    # e1 e0 = e2 and e2 e0 = e2: the associator cells are (1, 0, 0) and
    # (2, 0, 0), and in G2 the swap takes the cell (1, 0, 0) to the
    # triple (0, 1, 0), whose own cell is zero
    a = three_units([(1, 0, 2, 1), (2, 0, 2, 1)])
    cells = alg._associator_sums(a)[1]
    assert not any(cells.get((0, 1, 0), {}).values())
    assert any(cells[(1, 0, 0)].values())
    item = check_g_associative(a, "G2").items[0]
    assert item == g_associative_oracle(a, "G2")
    assert item.witness.indices == (0, 1, 0)
    assert item.witness.defect == (F(0), F(0), F(1))


# -- the Jordan check ---------------------------------------------------------


def random_family(rng, a, size):
    """``size`` random maps of one random degree, entries with
    denominators 1, 2 and 5 on a random part of the degree block."""
    gamma = rng.randrange(2)
    degrees = [d[0] for d in a.basis.degrees]
    family = []
    for _ in range(size):
        rows = [[F(0)] * a.dim for _ in range(a.dim)]
        for u, t in iproduct(range(a.dim), repeat=2):
            if degrees[u] == (degrees[t] + gamma) % 2 and rng.random() < 0.5:
                rows[u][t] = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        family.append(HomEndo(Matrix(rows), (gamma,)))
    return family


def jordan_cases():
    """(algebra, family): random families on random algebras of every
    shape, and the derivation, centroid and quasi-centroid families at
    k = l = 0 of weighted algebras, twisted fixtures and their conjugates."""
    rng = Random(44)
    for case in range(16):
        shape = ("diagonal", "near", "even", "weighted")[case % 4]
        a = random_superalgebra(rng, shape)
        yield a, random_family(rng, a, rng.randint(1, 3))
    for a in (
        random_superalgebra(rng, "weighted"),
        twisted_mat2(),
        build_osp12(2, 3),
        conjugated(rng, build_osp12(2, 3)),
    ):
        zero = a.basis.group.zero()
        for solver in (derivation_space, centroid_space, quasi_centroid_space):
            yield a, solver(a, 0, 0, zero).basis[:3]


def test_jordan_items_match_the_dense_oracle():
    seen = set()
    for a, family in jordan_cases():
        one = Matrix.identity(a.dim)
        for maps in ((a.alpha, a.beta), (one, one)):
            for sign in (1, -1):
                got = check_jordan_axioms(family, a.eps, *maps, sign=sign)
                want = check_jordan_axioms_oracle(
                    family, a.eps, *maps, sign=sign
                )
                assert got == want
                seen |= {(it.name, it.passed) for it in got.items}
    assert seen == {
        (name, verdict)
        for name in (
            "structure_maps_commute",
            "closed_under_product",
            "colour_commutative",
            "jordan_identity",
        )
        for verdict in (False, True)
    }


def test_the_least_failing_4_tuple_is_reached_only_by_later_terms():
    # with sign -1 the product is the commutator, so U[0][0] =
    # [beta^2 D0, alpha beta D0] = 0 for the diagonal D0 and the term of
    # every (0, 0, z, w) vanishes: the defect at (0, 0, 0, 1) is the sum
    # of the terms of the later tuples (0, 1, 0, 0) and (1, 0, 0, 0)
    eps = super_bicharacter()
    alpha, beta = Matrix.diagonal([1, 2]), Matrix.diagonal([1, 3])
    family = [
        HomEndo(Matrix([[1, 0], [0, 0]]), (0,)),
        HomEndo(Matrix([[0, 1], [1, 0]]), (0,)),
    ]
    d0 = family[0].matrix
    u00 = jordan_product(
        HomEndo(beta * beta * d0, (0,)),
        HomEndo(alpha * beta * d0, (0,)),
        eps,
        sign=-1,
    )
    assert u00.matrix.is_zero()
    got = check_jordan_axioms(family, eps, alpha, beta, sign=-1)
    assert got == check_jordan_axioms_oracle(family, eps, alpha, beta, sign=-1)
    witness = got.item("jordan_identity").witness
    assert witness.indices == (0, 0, 0, 1)
    assert witness.defect_str == "column (0, -3)"
