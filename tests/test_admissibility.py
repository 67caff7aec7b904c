"""Permutation machinery, G-sums, flexibility, and the primed bracket.

The signed permutation sums here are re-derived by hand, term by term,
with the closed-form degree weights written out explicitly.  Any
divergence between those expansions and the library's generic loop is a
convention slip, which is precisely the class of bug this module invites.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from bihomlie import admissibility
from bihomlie.admissibility import (
    CYCLE_LEFT,
    CYCLE_RIGHT,
    IDENTITY,
    S3,
    SUBGROUPS,
    SWAP12,
    SWAP13,
    SWAP23,
    Permutation3,
    check_flexible,
    check_g_associative,
    commutator_jacobiator,
    cyclic_S,
    perm_degree,
    primed_bracket,
    signed_perm_sum,
)
from bihomlie.algebra import associator, check_associative_axioms
from bihomlie.constructions import (
    CORPUS_NAMES,
    build_osp12,
    corpus,
    mat2_assoc,
    osp12_classical,
    z2z2_colour_example,
    zero_algebra,
)
from bihomlie.grading import Bicharacter, parse_group, super_bicharacter
from bihomlie.linalg import Matrix, is_zero_vec, vscale

from dense_oracles import commutator_jacobiator_oracle
from fixtures import (
    conj_mat2,
    gl2_conjugation_twist,
    gl2_fraction_twist,
    twisted_mat2,
    typo_osp,
)

F = Fraction


def triples(a):
    return iproduct(range(a.dim), repeat=3)


# -- permutations and their graded degrees ------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation3((1, 1, 2))


def test_signs_and_action():
    assert IDENTITY.sign == 1
    assert SWAP12.sign == SWAP23.sign == SWAP13.sign == -1
    assert CYCLE_LEFT.sign == CYCLE_RIGHT.sign == 1
    assert CYCLE_LEFT.apply(("x", "y", "z")) == ("y", "z", "x")
    assert SWAP13.apply((1, 2, 3)) == (3, 2, 1)


def test_subgroup_table():
    assert SUBGROUPS["G4"] == (IDENTITY, SWAP13)
    assert set(SUBGROUPS["G5"]) == {IDENTITY, CYCLE_LEFT, CYCLE_RIGHT}
    assert set(SUBGROUPS["G6"]) == set(S3)


def test_perm_degree_spot_values():
    sup = super_bicharacter()
    odd, even = (1,), (0,)
    assert perm_degree(sup, IDENTITY, (odd, odd, even)) == 1
    assert perm_degree(sup, SWAP12, (odd, odd, even)) == -1
    assert perm_degree(sup, SWAP13, (odd, odd, odd)) == -1


def test_perm_degree_needs_a_triple():
    with pytest.raises(ValueError, match="triple"):
        perm_degree(super_bicharacter(), IDENTITY, ((0,), (1,)))


# closed-form degree of each permutation on the original degrees
DEGREE_ROWS = [
    (IDENTITY, lambda e, x, y, z: 1),
    (SWAP12, lambda e, x, y, z: e(x, y)),
    (SWAP23, lambda e, x, y, z: e(y, z)),
    (CYCLE_RIGHT, lambda e, x, y, z: e(y, z) * e(x, z)),
    (CYCLE_LEFT, lambda e, x, y, z: e(x, y) * e(x, z)),
    (SWAP13, lambda e, x, y, z: e(y, z) * e(x, z) * e(x, y)),
]


@pytest.mark.parametrize(
    "eps,degrees",
    [
        (super_bicharacter(), [(0,), (1,)]),
        (
            Bicharacter(parse_group("Z2 x Z2"), [[1, -1], [-1, 1]]),
            [(0, 0), (1, 0), (0, 1), (1, 1)],
        ),
    ],
    ids=["super", "z2z2"],
)
def test_composition_rule_reproduces_degree_table(eps, degrees):
    for p, formula in DEGREE_ROWS:
        for trip in iproduct(degrees, repeat=3):
            assert perm_degree(eps, p, trip) == formula(eps.eval, *trip)


# -- hand-expanded G-sums ------------------------------------------------------

HAND_MEMBERS = {
    "G1": ("id",),
    "G2": ("id", "s1"),
    "G3": ("id", "s2"),
    "G4": ("id", "s121"),
    "G5": ("id", "s2s1", "s1s2"),
    "G6": ("id", "s1", "s2", "s1s2", "s2s1", "s121"),
}


def hand_terms(a, i, j, k):
    """The six slot-anchored summands, one literal expression each."""

    def e(u, v):
        return F(a.eps.eval(u, v))

    dx, dy, dz = a.degree(i), a.degree(j), a.degree(k)
    m1 = a.map_power("alpha", -1) * a.beta * a.beta
    m2, m3 = a.beta, a.alpha
    x, y, z = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)

    def term(u, v, w):
        return associator(a, m1.apply(u), m2.apply(v), m3.apply(w))

    return {
        "id": (F(1), term(x, y, z)),
        "s1": (-e(dx, dy), term(y, x, z)),
        "s2": (-e(dy, dz), term(x, z, y)),
        "s1s2": (e(dy, dz) * e(dx, dz), term(z, x, y)),
        "s2s1": (e(dx, dy) * e(dx, dz), term(y, z, x)),
        "s121": (-e(dy, dz) * e(dx, dz) * e(dx, dy), term(z, y, x)),
    }


@pytest.mark.parametrize("g", sorted(HAND_MEMBERS))
def test_signed_sum_matches_hand_expansion(g):
    for a in (build_osp12(2, 3), twisted_mat2(), typo_osp()):
        for i, j, k in triples(a):
            parts = hand_terms(a, i, j, k)
            total = [F(0)] * a.dim
            for key in HAND_MEMBERS[g]:
                w, v = parts[key]
                for t, c in enumerate(v):
                    total[t] += w * c
            assert tuple(total) == signed_perm_sum(
                a, SUBGROUPS[g], i, j, k
            ), (g, i, j, k)


# -- G-associativity verdicts --------------------------------------------------


def g_verdicts(a):
    return {
        g: check_g_associative(a, g).passed for g in SUBGROUPS
    }


def commutator_jacobi_holds(a):
    return all(
        is_zero_vec(commutator_jacobiator(a, i, j, k)) for i, j, k in triples(a)
    )


def test_g1_passes_on_bihom_associative_algebras():
    assert check_g_associative(mat2_assoc(), "G1").passed
    assert check_g_associative(twisted_mat2(), "G1").passed


def test_g6_passes_on_a_bracket_algebra():
    assert check_g_associative(build_osp12(2, 3), "G6").passed


def test_g6_fails_with_witness_on_broken_table():
    report = check_g_associative(typo_osp(), "G6")
    item = report.item("g6_bihom_associative")
    assert not item.passed
    assert item.witness is not None


@pytest.mark.parametrize(
    "make",
    [mat2_assoc, twisted_mat2, lambda: build_osp12(2, 3), typo_osp],
    ids=["mat2", "twisted_mat2", "osp_twist", "typo_osp"],
)
def test_subgroup_pass_implies_full_pass(make):
    a = make()
    v = g_verdicts(a)
    for g in ("G1", "G2", "G3", "G4", "G5"):
        if v[g]:
            assert v["G6"], f"{g} passed but G6 failed"


@pytest.mark.parametrize(
    "make",
    [mat2_assoc, twisted_mat2, lambda: build_osp12(2, 3), typo_osp],
    ids=["mat2", "twisted_mat2", "osp_twist", "typo_osp"],
)
def test_g6_equals_commutator_jacobi_verdict(make):
    a = make()
    assert check_g_associative(a, "G6").passed == commutator_jacobi_holds(a)


def test_full_sum_is_the_prefactored_commutator_jacobiator():
    # the S3 sum equals eps(z,x) times the cyclic commutator defect,
    # exactly, triple by triple; the broken table exercises nonzero values
    for a in (build_osp12(2, 3), typo_osp()):
        for i, j, k in triples(a):
            e = F(a.eps.eval(a.degree(k), a.degree(i)))
            lhs = vscale(e, signed_perm_sum(a, S3, i, j, k))
            assert lhs == commutator_jacobiator(a, i, j, k)


JACOBIATOR_ALGEBRAS = {
    **{name: (lambda name=name: corpus(name)) for name in CORPUS_NAMES},
    "conj_mat2": conj_mat2,
    "twisted_mat2": twisted_mat2,
    "typo_osp": typo_osp,
    "gl2_conjugation_twist": gl2_conjugation_twist,
    "gl2_fraction_twist": gl2_fraction_twist,
}


@pytest.mark.parametrize("name", sorted(JACOBIATOR_ALGEBRAS))
def test_commutator_jacobiator_matches_the_dense_oracle(name):
    # the Jacobiator of the primed bracket is the dense commutator defect
    a = JACOBIATOR_ALGEBRAS[name]()
    for i, j, k in triples(a):
        assert commutator_jacobiator(a, i, j, k) == (
            commutator_jacobiator_oracle(a, i, j, k)
        )


def test_a_triple_scan_builds_one_commutator_table(monkeypatch):
    # both commutator forms read the primed bracket cached on the algebra,
    # so a scan over every triple builds the commutator table once
    calls = []
    table = admissibility.commutator_table

    def counting_table(a):
        calls.append(a)
        return table(a)

    monkeypatch.setattr(admissibility, "commutator_table", counting_table)
    a = build_osp12(2, 3)
    for i, j, k in triples(a):
        commutator_jacobiator(a, i, j, k)
        cyclic_S(a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k))
    assert calls == [a]
    assert primed_bracket(a) is primed_bracket(a)


def test_unknown_subgroup_id():
    with pytest.raises(ValueError, match="G1..G6"):
        check_g_associative(mat2_assoc(), "G7")


def test_singular_maps_are_refused():
    a = zero_algebra(2)
    bad = a.with_product(a.product, alpha=Matrix.zero(2, 2))
    with pytest.raises(ValueError, match="regular"):
        check_g_associative(bad, "G1")


# -- cyclic S ------------------------------------------------------------------


def test_cyclic_S_vanishes_on_associative_products():
    for a in (mat2_assoc(), twisted_mat2()):
        for i, j, k in triples(a):
            v = cyclic_S(a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k))
            assert is_zero_vec(v)


def test_cyclic_S_two_formulas_agree_under_morphism_maps():
    # conj_mat2 is not BiHom-associative, so S is generally nonzero; the
    # call itself certifies the associator and commutator forms coincide
    a = conj_mat2()
    seen_nonzero = False
    for i, j, k in triples(a):
        v = cyclic_S(a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k))
        seen_nonzero = seen_nonzero or not is_zero_vec(v)
    assert seen_nonzero


def test_cyclic_S_needs_homogeneous_arguments():
    a = z2z2_colour_example()
    mixed = (F(1), F(1), F(0))
    with pytest.raises(ValueError, match="homogeneous"):
        cyclic_S(a, mixed, a.basis_vec(0), a.basis_vec(1))


def s_symmetry_holds(a):
    def e(u, v):
        return F(a.eps.eval(u, v))

    for i, j, k in triples(a):
        x, y, z = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
        dx, dy, dz = a.degree(i), a.degree(j), a.degree(k)
        lhs = cyclic_S(a, x, y, z)
        w = e(dx, dy) * e(dy, dz) * e(dz, dx)
        if lhs != vscale(w, cyclic_S(a, x, z, y)):
            return False
    return True


def test_s_symmetry_tracks_admissibility():
    assert s_symmetry_holds(build_osp12(2, 3))
    assert not s_symmetry_holds(typo_osp())


# -- flexibility and the primed bracket ----------------------------------------


def test_flexible_verdicts():
    assert check_flexible(mat2_assoc()).passed
    assert check_flexible(zero_algebra(4)).passed


def test_osp_bracket_is_not_flexible():
    item = check_flexible(osp12_classical()).item("flexible")
    assert not item.passed
    assert item.witness.names == ("F", "H")
    assert item.witness.defect_str == "-4 Y"


def test_primed_bracket_doubles_a_passing_bracket():
    for a in (build_osp12(2, 3), z2z2_colour_example()):
        doubled = primed_bracket(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert doubled.product[i][j] == vscale(
                    F(2), a.product[i][j]
                )


def test_primed_bracket_of_zero_is_zero():
    p = primed_bracket(zero_algebra(3))
    assert all(
        is_zero_vec(p.product[i][j]) for i in range(3) for j in range(3)
    )


def test_fixture_sanity():
    # the twisted matrix product really is BiHom-associative...
    assert check_associative_axioms(twisted_mat2()).passed
    # ...and plain matrix units with morphism maps really are not
    report = check_associative_axioms(conj_mat2())
    assert not report.item("bihom_associative").passed
