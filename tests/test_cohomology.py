"""Representations, cochain spaces, and the parametrized coboundary."""

import copy
import pickle
import re
from fractions import Fraction
from itertools import product as iproduct
from random import Random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bihomlie import cohomology
from bihomlie.cohomology import (
    Cochain,
    Representation,
    adjoint_rep,
    apply_coboundary,
    canonical_index_tuples,
    coboundary_matrix,
    cochain_basis,
    cochain_in_space,
    cohomology_dims,
    dual_rep,
    _arity,
    _intertwining_rows,
    _pullbacks,
    _reach_rows,
    _slot_counts,
    _slots,
    MAX_SLOTS,
    realized_gammas,
    validate_representation,
)
from bihomlie.algebra import ColourAlgebra
from bihomlie.constructions import (
    build_osp12,
    lie_corpus,
    osp12_classical,
    z2z2_colour_example,
    zero_algebra,
)
from bihomlie.derivations import derivation_space
from bihomlie.grading import GradedBasis, parse_group
from bihomlie.linalg import (
    Matrix,
    kernel_by_blocks,
    vec,
    vscale,
    vsub,
)
from dense_oracles import (
    coboundary_matrix_oracle,
    echelon_block_kernel,
    coboundary_oracle,
    cochain_basis_oracle,
    cochain_in_space_oracle,
    dense_rank,
    dense_twisted,
    divided,
    eval_oracle,
    kernel_oracle,
    pullbacks_oracle,
    reach_oracle,
    realized_gammas_oracle,
    reduce_index_tuple,
    slots_oracle,
    spans_equal,
)
from fixtures import (
    BROKEN_MODULES,
    LIE_CORPUS,
    TWISTED,
    gl2_conjugation_twist,
    gl11_fraction_twist,
    gl21_fraction_twist,
    gl21_twist,
    gl2_one_sided_twist,
    gl21_unipotent_twist,
    gl22_twist,
    gl_twist,
    memo_keys,
    shipped_osp12_twist,
)

F = Fraction
# a slotted class without __getstate__ pickles from protocol 2 on
PICKLE_PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def twist_rep(s=0, l=1):
    return adjoint_rep(build_osp12(2, 3), s, l)


# -- representations ----------------------------------------------------------


def test_adjoint_zero_exponents_is_the_bracket():
    a = osp12_classical()
    rep = adjoint_rep(a, 0, 0)
    for i in range(a.dim):
        for j in range(a.dim):
            assert rep.rho[i].column(j) == a.product[i][j]


def test_twisted_adjoint_action_value():
    tw = build_osp12(2, 3)
    rep = adjoint_rep(tw, 1, 0)
    x, y, h = tw.basis.index("X"), tw.basis.index("Y"), tw.basis.index("H")
    v = rep.act(tw.basis_vec(x), tw.basis_vec(y))
    # alpha(X) = 4X and {X,Y} = 4/9 H
    assert v[h] == F(16, 9) and sum(1 for c in v if c) == 1


@pytest.mark.parametrize("s,l", [(0, 1), (1, 0), (1, 1), (-1, 2)])
def test_adjoint_is_a_representation(s, l):
    assert validate_representation(twist_rep(s, l)).passed


def test_zero_action_is_a_representation():
    a = osp12_classical()
    z = Matrix.zero(a.dim, a.dim)
    rep = Representation(a, a.basis, [z] * a.dim, a.alpha, a.beta)
    assert validate_representation(rep).passed


def _rebuilt(rep, rho=None, alphaV=None, betaV=None):
    return Representation(
        rep.algebra,
        rep.space,
        rep.rho if rho is None else rho,
        rep.alphaV if alphaV is None else alphaV,
        rep.betaV if betaV is None else betaV,
    )


def _scaled_action_report():
    rep = twist_rep()
    rho = list(rep.rho)
    rho[0] = rho[0].scale(2)
    return validate_representation(_rebuilt(rep, rho=rho))


def _odd_swap_report():
    # beta_V exchanging the odd F and G is even, but does not commute
    # with the non-scalar alpha_V
    rep = twist_rep()
    f, g = rep.space.index("F"), rep.space.index("G")
    swap = Matrix(
        [
            [int(p == q not in (f, g) or {p, q} == {f, g}) for q in range(5)]
            for p in range(5)
        ]
    )
    return validate_representation(_rebuilt(rep, betaV=swap))


@pytest.mark.parametrize(
    "report,name,indices,names,defect,note",
    [
        (
            _scaled_action_report,
            "module_condition",
            (0, 1, 0),
            ("H", "X", "H"),
            "1296 X",
            "bracket compatibility fails on this pair",
        ),
        (
            lambda: dual_rep(adjoint_rep(build_osp12(2, 3), 0, 0))[1],
            "dual_module_condition",
            (0, 1, 2),
            ("H", "X", "Y"),
            "640/81 H",
            "transposed action does not close; candidate is not a "
            "representation",
        ),
        (
            lambda: validate_representation(
                _rebuilt(twist_rep(), betaV=twist_rep().alphaV)
            ),
            "beta_intertwine",
            (1, 0),
            ("X", "H"),
            "-360 X",
            "",
        ),
        (
            _odd_swap_report,
            "module_maps_commute",
            (),
            (),
            "3/2 G",
            "alpha_V and beta_V do not commute",
        ),
    ],
    ids=[
        "module_condition",
        "dual_module_condition",
        "beta_intertwine",
        "module_maps_commute",
    ],
)
def test_broken_modules_report_the_full_witness(
    report, name, indices, names, defect, note
):
    item = report().item(name)
    assert not item.passed and item.note == note
    w = item.witness
    assert (w.indices, w.names, w.defect_str) == (indices, names, defect)
    # the defect vector is the one its text spells out
    want = [F(0)] * 5
    coeff, basis_name = defect.split()
    want["HXYFG".index(basis_name)] = F(coeff)
    assert w.defect == tuple(want)


def test_representation_shape_errors():
    a = osp12_classical()
    z = Matrix.zero(a.dim, a.dim)
    with pytest.raises(ValueError, match="one action matrix"):
        Representation(a, a.basis, [z] * 3, a.alpha, a.beta)
    with pytest.raises(ValueError, match="square"):
        Representation(a, a.basis, [Matrix.zero(3, 5)] * 5, a.alpha, a.beta)
    other = GradedBasis(parse_group("Z"), ("v",), ((0,),))
    with pytest.raises(ValueError, match="different group"):
        Representation(a, other, [Matrix.zero(1, 1)] * 5, Matrix.identity(1), Matrix.identity(1))


def test_dual_candidate_verdicts_are_reported_not_assumed():
    # zero bracket: transposing costs nothing, candidate is genuine
    zrep = adjoint_rep(zero_algebra(3), 0, 0)
    cand, report = dual_rep(zrep)
    assert report.item("dual_module_condition").passed
    assert validate_representation(cand).passed

    # classical osp: the displayed closure condition holds, yet the
    # candidate still fails the module axioms on an odd pair
    crep = adjoint_rep(osp12_classical(), 0, 0)
    cand, report = dual_rep(crep)
    assert report.item("dual_module_condition").passed
    assert not validate_representation(cand).passed

    # twisted: both verdicts negative
    cand, report = dual_rep(adjoint_rep(build_osp12(2, 3), 0, 0))
    assert not report.item("dual_module_condition").passed
    assert not validate_representation(cand).passed


def test_dual_space_negates_degrees_and_names():
    cand, _ = dual_rep(twist_rep())
    assert cand.space.names[0] == "H*"
    assert cand.space.degrees == cand.algebra.basis.degrees  # Z2 self-dual


# -- canonical tuples and cochains ---------------------------------------------


def test_reduce_index_tuple_signs():
    a = osp12_classical()
    assert reduce_index_tuple(a, (1, 0)) == (F(-1), (0, 1))
    assert reduce_index_tuple(a, (3, 3)) == (F(1), (3, 3))
    assert reduce_index_tuple(a, (0, 0)) == (F(0), None)
    # odd-odd swap picks up -eps = +1
    assert reduce_index_tuple(a, (4, 3)) == (F(1), (3, 4))


def test_reduce_is_idempotent_on_canonical():
    a = osp12_classical()
    for T in canonical_index_tuples(a, 3):
        assert reduce_index_tuple(a, T) == (F(1), T)


def test_canonical_tuple_counts():
    a = osp12_classical()
    assert len(canonical_index_tuples(a, 1)) == 5
    # 10 strictly increasing pairs plus the two odd diagonals (F,F), (G,G)
    assert len(canonical_index_tuples(a, 2)) == 12
    assert canonical_index_tuples(a, -1) == []
    # every ordered pair reduces into the canonical list or vanishes
    canon = set(canonical_index_tuples(a, 2))
    for ij in iproduct(range(5), repeat=2):
        sign, T = reduce_index_tuple(a, ij)
        assert (T is None and sign == 0) or (T in canon and sign in (1, -1))


def test_cochain_validation():
    with pytest.raises(ValueError, match="arity"):
        Cochain(2, (0,), {(1,): (F(1),)}, 1)
    with pytest.raises(ValueError, match="dimension"):
        Cochain(1, (0,), {(1,): (F(1), F(0))}, 1)
    f = Cochain(1, (0,), {(1,): (F(1),)}, 1)
    with pytest.raises(ValueError, match="arguments"):
        f.eval(adjoint_rep(zero_algebra(1), 0, 0), [])


def test_cochain_eval_uses_the_sign_reduction():
    a = osp12_classical()
    rep = adjoint_rep(a, 0, 1)
    x, y = a.basis.index("X"), a.basis.index("Y")
    f = Cochain(2, (0,), {(x, y): a.basis_vec(0)}, a.dim)
    assert f.eval(rep, [a.basis_vec(x), a.basis_vec(y)]) == a.basis_vec(0)
    # swapped even arguments flip the sign
    assert f.eval(rep, [a.basis_vec(y), a.basis_vec(x)]) == vscale(
        F(-1), a.basis_vec(0)
    )
    # repeated even argument vanishes
    assert not any(f.eval(rep, [a.basis_vec(x), a.basis_vec(x)]))


# modules whose beta columns have several nonzero entries
NONDIAGONAL_MODULES = {
    "gl21_fraction_twist": lambda: adjoint_rep(gl21_fraction_twist(), 0, 1),
    "gl21_unipotent_twist": lambda: adjoint_rep(gl21_unipotent_twist(), 0, 1),
}


def _fraction_arguments(a, n, rng):
    """n coordinate vectors of the algebra, each with two to four nonzero
    Fraction entries."""
    out = []
    for _ in range(n):
        v = [F(0)] * a.dim
        for i in rng.sample(range(a.dim), rng.randint(2, 4)):
            v[i] = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7)))
        out.append(tuple(v))
    return out


@pytest.mark.parametrize("name", sorted(NONDIAGONAL_MODULES))
def test_eval_matches_the_oracle_on_fraction_vectors(name):
    # the integer sum of Cochain.eval against the term-by-term Fraction
    # oracle, on arguments with several nonzero entries: random vectors,
    # and the columns of beta, which is not diagonal on these modules
    rep = NONDIAGONAL_MODULES[name]()
    a = rep.algebra
    beta = a.beta.columns()
    assert any(sum(1 for x in col if x) > 1 for col in beta)
    rng = Random(f"eval/{name}")
    nonzero = 0
    for n in (1, 2):
        tuples = canonical_index_tuples(a, n)
        for g in realized_gammas(rep, n):
            cochains = cochain_basis(rep, n, g)[:2]
            cochains.append(_sparse_cochain(rep, n, g, rng))
            for f in cochains:
                for args in (
                    _fraction_arguments(a, n, rng),
                    [beta[i] for i in rng.choice(tuples)],
                ):
                    got = f.eval(rep, args)
                    assert got == eval_oracle(rep, f, args)
                    assert all(type(x) is Fraction for x in got)
                    nonzero += any(got)
    assert nonzero


def test_eval_on_int_arguments_is_exact_and_holds_no_float():
    # int arguments on a cochain over D > 1 give the oracle's Fractions;
    # over D = 1 they give ints
    rep = NONDIAGONAL_MODULES["gl21_fraction_twist"]()
    a = rep.algebra
    rng = Random("eval/ints")
    tuples = canonical_index_tuples(a, 2)
    f = Cochain(
        2,
        (0,),
        {
            T: [
                F(rng.randint(-5, 5), rng.choice((3, 7, 10)))
                for _ in range(rep.dimV)
            ]
            for T in rng.sample(tuples, 6)
        },
        rep.dimV,
    )
    den = f.int_values()[0]
    assert den > 1
    whole = f.scale(den)
    assert whole.int_values()[0] == 1
    fractional = 0
    for _ in range(20):
        T = rng.choice(list(f.values))
        # random int vectors, plus e_u in the argument at u's position
        # of a stored tuple, so some value is read
        args = [
            tuple(
                (rng.randint(-3, 3) if rng.random() < 0.5 else 0) + (i == u)
                for i in range(a.dim)
            )
            for u in T
        ]
        got = f.eval(rep, args)
        assert got == eval_oracle(rep, f, [vec(v) for v in args])
        assert all(type(x) is Fraction for x in got)
        fractional += any(x.denominator > 1 for x in got)
        got = whole.eval(rep, args)
        assert got == eval_oracle(rep, whole, [vec(v) for v in args])
        assert all(type(x) is int for x in got)
    assert fractional


def test_eval_gives_ints_only_when_every_entry_is_an_int():
    # over D = 1, int arguments give ints; one Fraction entry, even a
    # zero one, gives Fractions of the same values
    rep = adjoint_rep(gl21_twist(), 0, 1)
    a = rep.algebra
    rng = Random("eval/types")
    tuples = canonical_index_tuples(a, 2)
    f = Cochain(
        2,
        (0,),
        {
            T: [rng.randint(-4, 4) for _ in range(rep.dimV)]
            for T in rng.sample(tuples, 8)
        },
        rep.dimV,
    )
    assert f.int_values()[0] == 1
    nonzero = 0
    for T in f.values:
        args = [
            tuple(rng.randint(-2, 2) + (i == u) for i in range(a.dim))
            for u in T
        ]
        got = f.eval(rep, args)
        assert all(type(x) is int for x in got)
        nonzero += any(got)
        for c in (F(0), F(2)):
            u = rng.randrange(a.dim)
            mixed = [args[0][:u] + (c,) + args[0][u + 1 :], args[1]]
            want = eval_oracle(rep, f, [vec(v) for v in mixed])
            assert f.eval(rep, mixed) == want
            assert all(type(x) is Fraction for x in f.eval(rep, mixed))
    assert nonzero


def test_cochain_basis_spot_dimensions():
    # fixed vectors of the twist maps: only H survives at degree 0
    basis0 = cochain_basis(twist_rep(), 0, (0,))
    assert len(basis0) == 1
    assert basis0[0].value(()) == build_osp12(2, 3).basis_vec(0)
    assert cochain_basis(twist_rep(), 0, (1,)) == []

    # identity maps impose nothing: alternating 2-maps on dim 2 into dim 2
    zrep = adjoint_rep(zero_algebra(2), 0, 0)
    assert len(cochain_basis(zrep, 2, ())) == 2
    assert cochain_basis(zrep, -1, ()) == []


def test_cochain_membership_reasons():
    rep = twist_rep()
    a = rep.algebra
    ok, _ = cochain_in_space(rep, cochain_basis(rep, 1, (0,))[0])
    assert ok
    bad_degree = Cochain(1, (0,), {(0,): a.basis_vec(3)}, a.dim)
    ok, why = cochain_in_space(rep, bad_degree)
    assert not ok and "block" in why
    noncanon = Cochain(2, (0,), {(1, 0): a.basis_vec(0)}, a.dim)
    ok, why = cochain_in_space(rep, noncanon)
    assert not ok and "canonical" in why
    # right block, wrong intertwining: X and Y sit in opposite
    # eigenspaces of the scaling maps
    skewed = Cochain(1, (0,), {(1,): a.basis_vec(2)}, a.dim)
    ok, why = cochain_in_space(rep, skewed)
    assert not ok and "intertwining" in why


# -- the coboundary -------------------------------------------------------------


def _eval_tuple(rep, f, idx):
    a = rep.algebra
    return f.eval(rep, [a.basis_vec(i) for i in idx])


def arity1_display(rep, f, i, j):
    """delta_1^1 written out literally, term by term."""
    a = rep.algebra
    g = f.degree
    dx, dy = a.degree(i), a.degree(j)
    x, y = a.basis_vec(i), a.basis_vec(j)
    ab = a.ab_power(1, 1)
    t1 = vscale(
        F(a.eps.eval(g, dx)), rep.act(ab.apply(x), f.eval(rep, [y]))
    )
    t2 = vscale(
        F(a.eps.eval_many([g, dx], dy)),
        rep.act(ab.apply(y), f.eval(rep, [x])),
    )
    t3 = f.eval(rep, [a.product_eval(a.ab_power(-1, 1).apply(x), y)])
    return vsub(vsub(t1, t2), t3)


def arity2_display(rep, f, i, j, k):
    """delta_1^2 written out literally, term by term."""
    a = rep.algebra
    g = f.degree
    dx, dy, dz = a.degree(i), a.degree(j), a.degree(k)
    x, y, z = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
    ab2 = a.ab_power(1, 2)
    invab = a.ab_power(-1, 1)
    e = a.eps.eval
    em = a.eps.eval_many
    out = vscale(F(e(g, dx)), rep.act(ab2.apply(x), f.eval(rep, [y, z])))
    out = vsub(
        out,
        vscale(
            F(em([g, dx], dy)), rep.act(ab2.apply(y), f.eval(rep, [x, z]))
        ),
    )
    out = vadd_(
        out,
        vscale(
            F(em([g, dx, dy], dz)),
            rep.act(ab2.apply(z), f.eval(rep, [x, y])),
        ),
    )
    out = vsub(
        out,
        f.eval(rep, [a.product_eval(invab.apply(x), y), a.beta.apply(z)]),
    )
    out = vadd_(
        out,
        vscale(
            F(e(dy, dz)),
            f.eval(rep, [a.product_eval(invab.apply(x), z), a.beta.apply(y)]),
        ),
    )
    out = vadd_(
        out,
        f.eval(rep, [a.beta.apply(x), a.product_eval(invab.apply(y), z)]),
    )
    return out


def vadd_(u, v):
    return tuple(a + b for a, b in zip(u, v))


@pytest.mark.parametrize(
    "make", [osp12_classical, lambda: build_osp12(2, 3)], ids=["classical", "twist"]
)
def test_arity1_display_matches_the_general_formula(make):
    rep = adjoint_rep(make(), 0, 1)
    a = rep.algebra
    for g in realized_gammas(rep, 1):
        for f in cochain_basis(rep, 1, g):
            df = apply_coboundary(rep, 1, f)
            for i, j in iproduct(range(a.dim), repeat=2):
                assert _eval_tuple(rep, df, (i, j)) == arity1_display(
                    rep, f, i, j
                )


@pytest.mark.parametrize(
    "make", [osp12_classical, lambda: build_osp12(2, 3)], ids=["classical", "twist"]
)
def test_arity2_display_matches_the_general_formula(make):
    rep = adjoint_rep(make(), 0, 1)
    a = rep.algebra
    for f in cochain_basis(rep, 2, (0,)):
        df = apply_coboundary(rep, 1, f)
        for i, j, k in iproduct(range(a.dim), repeat=3):
            assert _eval_tuple(rep, df, (i, j, k)) == arity2_display(
                rep, f, i, j, k
            )


def test_coboundary_of_zero_cochain():
    rep = twist_rep()
    z = Cochain(1, (0,), {}, rep.dimV)
    assert apply_coboundary(rep, 1, z).is_zero()


def test_coboundary_rejects_nonmembers():
    rep = twist_rep()
    a = rep.algebra
    outside = Cochain(1, (0,), {(1,): a.basis_vec(2)}, a.dim)
    with pytest.raises(ValueError, match="outside the domain"):
        apply_coboundary(rep, 1, outside)


@pytest.mark.parametrize(
    "query", ["apply_coboundary", "coboundary_matrix", "cohomology_dims"]
)
def test_coboundary_queries_take_no_sign_convention(query):
    # the library has one coboundary; a caller that still names a
    # convention is refused by the signature, even with the default's name
    rep = twist_rep()
    f = cochain_basis(rep, 1, (0,))[0]
    args = {
        "apply_coboundary": (rep, 1, f),
        "coboundary_matrix": (rep, 1, 1, (0,)),
        "cohomology_dims": (rep, 1, 1, (0,)),
    }[query]
    with pytest.raises(TypeError, match="prefactor"):
        getattr(cohomology, query)(*args, prefactor="segment")
    assert not memo_keys(rep, "_rank_of")


def test_coboundary_output_stays_in_the_cochain_space():
    # degree is preserved and both intertwinings keep holding
    for g in ((0,), (1,)):
        rep = twist_rep()
        for f in cochain_basis(rep, 1, g):
            df = apply_coboundary(rep, 0, f)
            assert df.degree == tuple(g)
            ok, why = cochain_in_space(rep, df)
            assert ok, why


def _dense_cochain(rep, n, gamma, seed):
    """Values on every canonical tuple: not in the cochain space."""
    rng = Random(seed)
    return Cochain(
        n,
        gamma,
        {
            T: [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rep.dimV)]
            for T in canonical_index_tuples(rep.algebra, n)
        },
        rep.dimV,
    )


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(TWISTED))
def test_table_driven_coboundary_matches_the_oracle(name, r):
    rep = TWISTED[name]()
    assert validate_representation(rep).passed
    checked = 0
    for n in (0, 1, 2):
        for g in realized_gammas(rep, n):
            cochains = cochain_basis(rep, n, g) + [_dense_cochain(rep, n, g, n)]
            for f in cochains:
                got = apply_coboundary(rep, r, f, validate=False)
                want = coboundary_oracle(rep, r, f)
                assert got == want
                assert list(got.values) == list(want.values)
                checked += not got.is_zero()
    assert checked


ORACLE_MODULES = {
    **TWISTED,
    **{
        f"{name}_ad{s}{l}": (
            lambda name=name, s=s, l=l: adjoint_rep(
                dict(lie_corpus())[name], s, l
            )
        )
        for name in LIE_CORPUS
        for s, l in ((0, 1), (1, 0))
    },
    "gl21_twist": lambda: adjoint_rep(gl21_twist(), 0, 1),
}


# the modules of the oracle tests and two whose structure maps and
# constants have fractional entries
INTEGER_MODULES = {
    **ORACLE_MODULES,
    "gl21_fraction_twist": lambda: adjoint_rep(gl21_fraction_twist(), 0, 1),
    "osp12_twist_2_3.alg_ad10": (
        lambda: adjoint_rep(shipped_osp12_twist(), 1, 0)
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_MODULES))
def test_block_solved_bases_and_read_off_matrices_match_the_oracles(name):
    rep = INTEGER_MODULES[name]()
    for n in range(4):
        for g in realized_gammas(rep, n):
            # equal cochains in the same order
            assert cochain_basis(rep, n, g) == cochain_basis_oracle(rep, n, g)
            if n == 3:
                continue
            for r in (0, 1):
                got = coboundary_matrix(rep, n, r, g)
                want = coboundary_matrix_oracle(rep, n, r, g)
                assert got == want
                assert (got.nrows, got.ncols) == (want.nrows, want.ncols)


TABLE_MODULES = {
    **ORACLE_MODULES,
    "gl21_unipotent_twist": lambda: adjoint_rep(gl21_unipotent_twist(), 0, 1),
}


COUNT_MODULES = {
    **TABLE_MODULES,
    "gl21_fraction_twist": INTEGER_MODULES["gl21_fraction_twist"],
}


@pytest.mark.parametrize("name", sorted(COUNT_MODULES))
def test_slot_counts_equal_the_enumerated_slots(name):
    # the canonical n-tuples of each degree, counted without enumerating
    # them and summed over the degrees of V, give the slots _slots lists
    # at every degree the scan over every tuple and V index realizes
    rep = COUNT_MODULES[name]()
    for n in range(5):
        gammas = realized_gammas_oracle(rep, n)
        assert sorted(_slot_counts(rep, n)) == gammas
        for g in gammas:
            assert _slot_counts(rep, n)[g] == len(_slots(rep, n, g))


def test_the_library_refuses_a_cochain_space_over_the_slot_budget():
    # on zero_40 C^2 has 780 * 40 slots and C^3 9880 * 40: the coboundary
    # of a 2-cochain and the 3-cochain basis are refused before the
    # 3-tuples are enumerated, and a refusal stores nothing
    rep = adjoint_rep(zero_algebra(40), 0, 1)
    want = "the 3-cochains of degree () have 395200 slots, more than the "
    want += f"limit of {MAX_SLOTS}"
    f = Cochain(2, (), {(0, 1): [1] + [0] * 39}, 40)
    with pytest.raises(ValueError) as err:
        apply_coboundary(rep, 0, f, validate=False)
    assert str(err.value) == want
    with pytest.raises(ValueError) as err:
        cochain_basis(rep, 3, ())
    assert str(err.value) == want
    assert memo_keys(rep, "_arity") == []
    assert memo_keys(rep, "_coboundary") == memo_keys(rep, "_space") == []
    assert len(cochain_basis(rep, 2, ())) == 780 * 40


@pytest.mark.parametrize("name", sorted(TABLE_MODULES))
def test_per_arity_tables_match_the_per_tuple_scans(name):
    # the degree-grouped tuples give the slots and degrees of the scans
    # over every tuple and V index, for reduced and unreduced gamma, and
    # the shared pull-backs those of the dense columns
    rep = TABLE_MODULES[name]()
    group = rep.algebra.basis.group
    shift = tuple([0] * group.free_rank + list(group.torsion))
    for n in range(5):
        gammas = realized_gammas(rep, n)
        assert gammas == realized_gammas_oracle(rep, n)
        for g in sorted(set(gammas + realized_gammas(rep, n + 1))):
            want = slots_oracle(rep, n, g)
            assert _slots(rep, n, g) == want
            assert _slots(rep, n, tuple(map(sum, zip(g, shift)))) == want
        if n < 3:
            a = rep.algebra
            for T in canonical_index_tuples(a, n):
                got = _pullbacks(a, _arity(rep, n), T)
                # integer terms over the map's column scale to the n-th
                scales = _arity(rep, n).pullback_scales
                assert scales == tuple(
                    m.int_column_terms()[0] ** n for m in (a.alpha, a.beta)
                )
                assert all(
                    type(c) is int and c for terms in got for _, c in terms
                )
                assert tuple(
                    {X: F(c, scale) for X, c in terms}
                    for terms, scale in zip(got, scales)
                ) == pullbacks_oracle(a, T)


def test_multi_term_pullbacks_are_exercised():
    # the two modules named for their structure maps do have tuples whose
    # pull-back has several terms
    for rep in (
        adjoint_rep(gl2_conjugation_twist(), -1, 2),
        adjoint_rep(gl21_unipotent_twist(), 0, 1),
    ):
        a = rep.algebra
        assert any(
            len(terms) > 1
            for T in canonical_index_tuples(a, 2)
            for terms in _pullbacks(a, _arity(rep, 2), T)
        )


# -- slots decided by one comparison ------------------------------------------


def _every_intertwining_row(rep, n, gamma):
    """The degree-gamma slots and every intertwining row over them, one
    per tuple T with a slot, map m and V index, as sparse {column: Fraction}
    rows, from the dense pull-backs of ``pullbacks_oracle`` and the dense
    columns of m_V: the system with no slot decided, as the dense oracle
    builds it but kept sparse, for spaces too large for its dense solve."""
    a = rep.algebra
    slots = _slots(rep, n, gamma)
    col = {slot: k for k, slot in enumerate(slots)}
    rows = []
    for T in sorted({T for T, _ in slots}):
        for pull, vmap in zip(pullbacks_oracle(a, T), (rep.alphaV, rep.betaV)):
            by_w: dict = {}
            for X, c in pull.items():
                for w in range(rep.dimV):
                    if (X, w) in col:
                        row = by_w.setdefault(w, {})
                        row[col[X, w]] = row.get(col[X, w], 0) + c
            for w in range(rep.dimV):
                if (T, w) in col:
                    for u, x in enumerate(vmap.column(w)):
                        if x:
                            row = by_w.setdefault(u, {})
                            row[col[T, w]] = row.get(col[T, w], 0) - x
            rows += by_w.values()
    return slots, rows


def crossed_module():
    """The zero bracket on two elements with alpha = diag(1, 2) and beta
    the identity, on three vectors with zero action, beta_V the identity
    and alpha_V = [[2, 1, 0], [0, 1, 0], [0, 0, 3]]: alpha_V is diagonal
    on column 0, but column 1 reaches row 0, so a slot of V index 0 is
    not decided alone where alpha gives it a factor other than 2."""
    a = zero_algebra(2).with_product(
        zero_algebra(2).product,
        alpha=Matrix.diagonal([1, 2]),
        beta=Matrix.identity(2),
    )
    return Representation(
        a,
        zero_algebra(3).basis,
        [Matrix.zero(3, 3)] * 2,
        Matrix([[2, 1, 0], [0, 1, 0], [0, 0, 3]]),
        Matrix.identity(3),
    )


DECIDED_MODULES = {
    "gl22_twist": lambda: adjoint_rep(gl22_twist(), 0, 1),
    "gl21_unipotent_twist": lambda: adjoint_rep(gl21_unipotent_twist(), 0, 1),
    "crossed_module": crossed_module,
}


@pytest.mark.parametrize(
    "name, n",
    [("gl22_twist", n) for n in (0, 1, 2)]
    + [
        (name, n)
        for name in ("crossed_module", "gl21_unipotent_twist")
        for n in range(4)
    ],
)
def test_decided_slots_give_the_dense_oracle_basis(name, n):
    # every structure map acts diagonally on gl22_twist, so no row reaches
    # the kernel; on the unipotent twist some indices are diagonal and
    # some are not, and on the crossed module a diagonal column of
    # alpha_V shares its row.  The corpus twists are checked the same way
    # above.  (gl22 at n = 3 has 5504 slots per degree: the dense solve
    # took 55 s, so its basis is checked against every row below.)
    rep = DECIDED_MODULES[name]()
    for g in realized_gammas(rep, n):
        assert cochain_basis(rep, n, g) == cochain_basis_oracle(rep, n, g)


def test_gl22_c3_basis_is_the_kernel_of_every_row():
    rep = adjoint_rep(gl22_twist(), 0, 1)
    for g in realized_gammas(rep, 3):
        slots, rows = _every_intertwining_row(rep, 3, g)
        want = []
        for v in kernel_by_blocks(rows, len(slots)):
            vals: dict = {}
            for k, x in divided(v).items():
                T, w = slots[k]
                vals.setdefault(T, [F(0)] * rep.dimV)[w] = x
            want.append(Cochain(3, g, vals, rep.dimV))
        got = cochain_basis(rep, 3, g)
        assert got == want
        # and no row is left for the kernel
        slot_of = {slot: k for k, slot in enumerate(slots)}
        assert not any(
            rows for *_, rows in _intertwining_rows(rep, 3, slot_of)
        )
    assert len(cochain_basis(rep, 3, (0,))) == GL22_PINS[3][0]


# diagonal twists: gl(2|1) and gl(2|2) by two conjugations, and gl(2) with
# one structure map the identity, so that only the other forces a slot
FORCING_MODULES = {
    "gl21_twist": (lambda: adjoint_rep(gl21_twist(), 0, 1), {"alpha"}),
    "gl22_twist": (lambda: adjoint_rep(gl22_twist(), 0, 1), {"alpha"}),
    "gl2_alpha_diagonal": (
        lambda: adjoint_rep(gl_twist((0, 0), (1, 3), (1, 1)), 0, 1),
        {"alpha"},
    ),
    "gl2_beta_diagonal": (
        lambda: adjoint_rep(gl_twist((0, 0), (1, 1), (1, 3)), 0, 1),
        {"beta"},
    ),
    "osp12_beta_scaling": (
        lambda: adjoint_rep(build_osp12(1, 3), 0, 1),
        {"beta"},
    ),
}


@pytest.mark.parametrize("name", sorted(FORCING_MODULES))
def test_a_slot_forced_by_one_comparison_is_refused_by_its_map(name):
    # a cochain with one value, at a slot that the diagonal decision
    # forces, fails at its own tuple: by alpha when alpha forces the
    # slot, by beta when only beta does, as the dense scan has it
    make, names = FORCING_MODULES[name]
    rep = make()
    rng = Random(f"forced/{name}")
    seen = set()
    for n in (1, 2):
        for g in realized_gammas(rep, n):
            slots = _slots(rep, n, g)
            col = {slot: k for k, slot in enumerate(slots)}
            first: dict = {}
            for T, m, forced, rows in _intertwining_rows(rep, n, col):
                assert not rows
                for k in forced:
                    first.setdefault(k, (T, m))
            for k in rng.sample(sorted(first), min(3, len(first))):
                T, w = slots[k]
                value = [F(0)] * rep.dimV
                value[w] = F(rng.choice((-2, 1, 3)), rng.choice((1, 5)))
                f = Cochain(n, g, {T: value}, rep.dimV)
                want = (False, f"{first[k][1]} intertwining fails on tuple {T}")
                assert first[k][0] == T
                assert cochain_in_space(rep, f) == want
                assert cochain_in_space_oracle(rep, f) == want
                seen.add(first[k][1])
    assert seen == names


# the modules of NONDIAGONAL_MODULES, each built once on first draw
MIXED_MODULES: dict = {}


@st.composite
def _intertwining_systems(draw):
    """Rows drawn from the intertwining system of an arity-1 or arity-2
    cochain space on a module with diagonal and non-diagonal indices: each
    slot the diagonal decision forces as a one-entry row, and the rows
    that couple slots as built, with repeats; over every slot's column."""
    name = draw(st.sampled_from(sorted(NONDIAGONAL_MODULES)))
    if name not in MIXED_MODULES:
        MIXED_MODULES[name] = NONDIAGONAL_MODULES[name]()
    rep = MIXED_MODULES[name]
    n = draw(st.integers(min_value=1, max_value=2))
    g = draw(st.sampled_from(realized_gammas(rep, n)))
    col = {slot: k for k, slot in enumerate(_slots(rep, n, g))}
    pool = []
    for _, _, forced, rows in _intertwining_rows(rep, n, col):
        pool += [{k: 1} for k in forced] + rows
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return [dict(row) for row in rows], len(col)


@seed(2024)
@settings(max_examples=60, deadline=None)
@given(_intertwining_systems())
def test_kernel_of_intertwining_rows_equals_both_oracles(system):
    rows, ncols = system
    got = [divided(v) for v in kernel_by_blocks(rows, ncols)]
    assert got == echelon_block_kernel(rows, ncols)
    dense = [tuple(v.get(c, F(0)) for c in range(ncols)) for v in got]
    assert dense == kernel_oracle(rows, ncols)


def _sparse_cochain(rep, n, gamma, rng):
    """A cochain on 1-4 random canonical tuples, preferring one that repeats
    an odd index where such tuples exist.  Each value has one or two
    coordinates, mostly on the degree-gamma slots of its tuple and
    otherwise anywhere, so the cochain is seldom in the cochain space."""
    tuples = canonical_index_tuples(rep.algebra, n)
    support = rng.sample(tuples, rng.randint(1, min(4, len(tuples))))
    repeats = [T for T in tuples if len(set(T)) < len(T)]
    if repeats and rng.random() < 0.5:
        support[0] = rng.choice(repeats)
    slots = set(_slots(rep, n, gamma))
    values = {}
    for T in support:
        on = [w for w in range(rep.dimV) if (T, w) in slots]
        v = [F(0)] * rep.dimV
        for _ in range(rng.randint(1, 2)):
            w = (
                rng.choice(on)
                if on and rng.random() < 0.75
                else rng.randrange(rep.dimV)
            )
            v[w] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
        values[T] = v
    return Cochain(n, gamma, values, rep.dimV)


SPARSE_MODULES = {
    **TWISTED,
    "gl21_twist": ORACLE_MODULES["gl21_twist"],
    "gl21_unipotent_twist": TABLE_MODULES["gl21_unipotent_twist"],
}


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(SPARSE_MODULES))
def test_support_driven_coboundary_matches_the_oracle(name, r):
    rep = SPARSE_MODULES[name]()
    rng = Random(f"{name}/{r}")
    nonmember = nonzero = False
    for n in range(4):
        if not canonical_index_tuples(rep.algebra, n):
            continue
        for g in realized_gammas(rep, n):
            for _ in range(3):
                f = _sparse_cochain(rep, n, g, rng)
                got = apply_coboundary(rep, r, f, validate=False)
                want = coboundary_oracle(rep, r, f)
                assert got == want
                assert list(got.values) == list(want.values)
                nonmember = nonmember or not cochain_in_space(rep, f)[0]
                nonzero = nonzero or not got.is_zero()
    # non-members were drawn, and some image is nonzero
    assert nonmember and nonzero


# pairwise coprime denominators, none dividing a denominator of a module
LARGE_DENOMINATORS = (10007, 10009, 65537, 2**31 - 1, 2**61 - 1)


def _large_denominator_cochains(rep, n, gamma, rng):
    """A combination of up to three basis cochains and a cochain on 1-3
    random canonical tuples, each value a random numerator over one of
    ``LARGE_DENOMINATORS`` (the second is seldom in the cochain space)."""

    def large():
        numerator = rng.randint(-(10**6), 10**6) or 1
        return F(numerator, rng.choice(LARGE_DENOMINATORS))

    out = []
    basis = cochain_basis(rep, n, gamma)
    if basis:
        f = basis[0].scale(0)
        for fb in rng.sample(basis, min(3, len(basis))):
            f = f.add(fb.scale(large()))
        out.append(f)
    tuples = canonical_index_tuples(rep.algebra, n)
    if tuples:
        values = {}
        for T in rng.sample(tuples, rng.randint(1, min(3, len(tuples)))):
            v = [F(0)] * rep.dimV
            for w in rng.sample(range(rep.dimV), rng.randint(1, 2)):
                v[w] = large()
            values[T] = v
        out.append(Cochain(n, gamma, values, rep.dimV))
    return out


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(INTEGER_MODULES))
def test_integer_sums_match_the_oracle_on_large_denominators(name, r):
    # the coboundary summed in integers over one lcm equals the
    # term-by-term Fraction oracle, dict order included, on values whose
    # denominators share no factor with each other or with the module
    rep = INTEGER_MODULES[name]()
    rng = Random(f"large/{name}/segment")
    nonzero = 0
    for n in range(3):
        for g in realized_gammas(rep, n):
            for f in _large_denominator_cochains(rep, n, g, rng):
                got = apply_coboundary(rep, r, f, validate=False)
                want = coboundary_oracle(rep, r, f)
                assert got == want
                assert list(got.values) == list(want.values)
                nonzero += any(
                    x.denominator in LARGE_DENOMINATORS
                    for val in got.values.values()
                    for x in val
                )
    # every image is zero only on the zero algebra, whose action is zero
    assert nonzero or all(m.is_zero() for m in rep.rho)


# Library-built cochains and coboundary matrices against objects the
# public constructors build from the oracles' Fraction entries: every
# reader must see the same values, in the same order, whichever form
# the object was built in and whichever reader comes first.
FORM_MODULES = {
    "gl11_fraction_twist": lambda: adjoint_rep(gl11_fraction_twist(), 0, 1),
    "gl21_fraction_twist": INTEGER_MODULES["gl21_fraction_twist"],
    "osp12_twist_2_3.alg_ad10": INTEGER_MODULES["osp12_twist_2_3.alg_ad10"],
}


def _same_cochain(got, want):
    """got reads like want through every public reader of a cochain; the
    copies are taken first, while got may still hold its values unbuilt."""
    copies = [pickle.loads(pickle.dumps(got, p)) for p in PICKLE_PROTOCOLS]
    copies.append(copy.deepcopy(got))
    for f in [got] + copies:
        assert type(f) is Cochain
        assert list(f.values.items()) == list(want.values.items())
        assert all(
            type(x) is Fraction for val in f.values.values() for x in val
        )
        assert (f.n, f.degree, f.dimV) == (want.n, want.degree, want.dimV)
        assert f == want and want == f and not f != want
        assert hash(f) == hash(want)
        assert repr(f) == repr(want)
        assert f.is_zero() == want.is_zero()
        for T in want.values:
            assert f.value(T) == want.value(T)
    c = F(-3, 10007)
    for left, right in (
        (got.scale(c), want.scale(c)),
        (got.add(want), want.add(want)),
    ):
        assert left == right
        assert list(left.values.items()) == list(right.values.items())


def _eager(f):
    """The cochain of f's values through the public constructor."""
    return Cochain(
        f.n, f.degree, {T: list(v) for T, v in f.values.items()}, f.dimV
    )


NUMBERED_MODULES = {**SPARSE_MODULES, **FORM_MODULES}


@pytest.mark.parametrize("name", sorted(NUMBERED_MODULES))
def test_unit_images_are_numbered_in_lexicographic_slot_order(name):
    # every unit image of arity n <= 2 is flat: its slot numbers strictly
    # increase, each decodes to (X, k) with X a canonical (n+1)-tuple and
    # k < dimV, and the decoded slots are in lexicographic order
    rep = NUMBERED_MODULES[name]()
    dimV = rep.dimV
    images = 0
    for n in range(3):
        codomain = canonical_index_tuples(rep.algebra, n + 1)
        for g in realized_gammas(rep, n):
            for r in (0, 1):
                cob = cohomology._Coboundary(rep, n, r, g)
                for T, w in _slots(rep, n, g):
                    image = cob.image(rep, T, w)
                    numbers = [s for s, _ in image]
                    assert all(u < v for u, v in zip(numbers, numbers[1:]))
                    decoded = []
                    for s in numbers:
                        p, k = divmod(s, dimV)
                        assert 0 <= p < len(codomain) and 0 <= k < dimV
                        decoded.append((codomain[p], k))
                    assert decoded == sorted(decoded)
                    images += bool(image)
    assert images


@pytest.mark.parametrize("name", sorted(FORM_MODULES))
def test_library_cochains_read_like_constructed_ones(name):
    rep = FORM_MODULES[name]()
    rng = Random(f"forms/{name}")
    top = 2 if rep.algebra.dim < 5 else 1
    checked = 0
    for n in range(top + 1):
        for g in realized_gammas(rep, n):
            # the basis, first read while fresh, against the oracle's
            basis = cochain_basis(rep, n, g)
            want_basis = cochain_basis_oracle(rep, n, g)
            assert len(basis) == len(want_basis)
            for got, want in zip(basis, want_basis):
                _same_cochain(got, want)
            cochains = basis[:3] + _large_denominator_cochains(rep, n, g, rng)
            for f in cochains:
                for r in (0, 1):
                    want = coboundary_oracle(rep, r, f)
                    for source in (f, _eager(f)):
                        got = apply_coboundary(rep, r, source, validate=False)
                        _same_cochain(got, want)
                    # the image of an image: a library cochain as input
                    again = apply_coboundary(rep, r, got, validate=False)
                    _same_cochain(again, coboundary_oracle(rep, r, want))
                    checked += not got.is_zero()
    assert checked


MATRIX_READERS = (
    lambda m: m.rows,
    lambda m: m.columns(),
    lambda m: m.column_terms(),
    # the integer copy over its scale: a common one, not always the least
    lambda m: tuple(
        tuple((u, Fraction(x, m.int_column_terms()[0])) for u, x in col)
        for col in m.int_column_terms()[1]
    ),
    lambda m: m.rank(),
    lambda m: (m.nrows, m.ncols),
    hash,
    repr,
    lambda m: pickle.loads(pickle.dumps(m)).rows,
    lambda m: copy.deepcopy(m).column_terms(),
)


@pytest.mark.parametrize("name", sorted(FORM_MODULES))
def test_coboundary_matrices_read_like_constructed_ones(name):
    rep = FORM_MODULES[name]()
    fractional = 0
    for n in range(2):
        for g in realized_gammas(rep, n):
            for r in (0, 1):
                oracle = coboundary_matrix_oracle(rep, n, r, g)
                want = Matrix(oracle.rows, oracle.ncols)
                assert want == oracle
                # each reader first, on a matrix of its own
                for read in MATRIX_READERS:
                    got = coboundary_matrix(rep, n, r, g)
                    assert read(got) == read(want)
                got = coboundary_matrix(rep, n, r, g)
                assert got == want and want == got
                assert got.rank() == dense_rank(oracle)
                assert all(
                    type(x) is Fraction for row in got.rows for x in row
                )
                fractional += any(
                    x.denominator > 1 for row in got.rows for x in row
                )
    assert fractional


def _perturbed(rep, f, rng):
    """f plus a random value at one degree-gamma slot: canonical and in
    the right blocks, but seldom intertwining."""
    T, w = rng.choice(_slots(rep, f.n, f.degree))
    v = list(f.value(T))
    v[w] += F(rng.choice((-2, -1, 1, 3)))
    return Cochain(f.n, f.degree, {**f.values, T: v}, f.dimV)


def nilpotent_module():
    """The zero bracket on three elements with alpha = beta the shift
    e3 -> e2 -> e1 -> 0, on itself with zero action and identity maps: no
    pull-back term reaches a tuple holding e3, so a value there is read
    only by the check of its own tuple."""
    shift = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    a = zero_algebra(3).with_product(
        zero_algebra(3).product, alpha=shift, beta=shift
    )
    return Representation(
        a, a.basis, [Matrix.zero(3, 3)] * 3, Matrix.identity(3), Matrix.identity(3)
    )


MEMBERSHIP_MODULES = {
    "nilpotent_maps": nilpotent_module,
    **SPARSE_MODULES,
    **{
        f"gl2_{name}_only_twist": (
            lambda side=side: adjoint_rep(gl2_one_sided_twist(side), 0, 1)
        )
        for side, name in enumerate(("alpha", "beta"))
    },
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MODULES))
def test_membership_matches_the_dense_scan(name):
    rep = MEMBERSHIP_MODULES[name]()
    rng = Random(name)
    seen = {True: 0, False: 0}
    for n in range(4):
        for g in realized_gammas(rep, n):
            basis = cochain_basis(rep, n, g)
            cases = [Cochain(n, g, {}, rep.dimV)] + basis[:3]
            if basis:
                cases.append(_perturbed(rep, rng.choice(basis), rng))
            if _slots(rep, n, g):
                cases.append(_perturbed(rep, cases[0], rng))
            if canonical_index_tuples(rep.algebra, n):
                cases.append(_sparse_cochain(rep, n, g, rng))
            for f in cases:
                got = cochain_in_space(rep, f)
                assert got == cochain_in_space_oracle(rep, f)
                seen[got[0]] += 1
    # members and non-members were both drawn
    assert seen[True] and seen[False]


# modules with a pull-back term that names another tuple
CROSSING_MODULES = {
    **{
        name: MEMBERSHIP_MODULES[name]
        for name in (
            "gl2_conjugation_twist",
            "gl2_alpha_only_twist",
            "gl2_beta_only_twist",
        )
    },
    **NONDIAGONAL_MODULES,
}


@pytest.mark.parametrize("name", sorted(CROSSING_MODULES))
def test_membership_visits_the_tuples_the_index_names(name):
    # On modules where some pull-back term names another tuple, and on
    # basis cochains (members), perturbed ones and cochains with one value
    # (mostly not), the verdict and reason agree with the dense scan of
    # every tuple, and some cochains fail at a tuple outside their support.
    rep = CROSSING_MODULES[name]()
    a = rep.algebra
    rng = Random(f"pulled/{name}")
    seen = {True: 0, False: 0}
    elsewhere = crossing = 0
    for n in range(3):
        arity = _arity(rep, n)
        want: dict = {}
        for T in canonical_index_tuples(a, n):
            for pull in _pullbacks(a, arity, T):
                for X, _ in pull:
                    if T not in want.setdefault(X, []):
                        want[X].append(T)
        crossing += any(ts != [X] for X, ts in want.items())
        for g in realized_gammas(rep, n):
            basis = cochain_basis(rep, n, g)
            cases = basis[:2]
            if basis:
                cases.append(_perturbed(rep, rng.choice(basis), rng))
            slots = _slots(rep, n, g)
            for T, w in rng.sample(slots, min(4, len(slots))):
                v = [F(0)] * rep.dimV
                v[w] = F(rng.choice((-2, 1, 3)), rng.choice((1, 5)))
                cases.append(Cochain(n, g, {T: v}, rep.dimV))
            for f in cases:
                got = cochain_in_space(rep, f)
                assert got == cochain_in_space_oracle(rep, f)
                seen[got[0]] += 1
                elsewhere += not got[0] and not any(
                    got[1].endswith(str(T)) for T in f.values
                )
    assert seen[True] and seen[False] and crossing and elsewhere


def _combination(basis, rng):
    """A random combination of up to three basis cochains."""
    f = basis[0].scale(0)
    for fb in rng.sample(basis, min(3, len(basis))):
        f = f.add(fb.scale(F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))))
    return f


@pytest.mark.parametrize("name", sorted(SPARSE_MODULES))
def test_memoized_complex_matches_fresh_modules_and_the_oracle(name):
    # One shared module answers an interleaved run of queries over the
    # arities, every r and degree.  Each answer must equal that
    # of a fresh module on the same algebra, and the coboundary of the last
    # cochain of each query the oracle's, dict order included.  On the
    # nine-dimensional modules the arity stops at 1, where a fresh module
    # solves its bases in milliseconds rather than a second.
    shared = SPARSE_MODULES[name]()
    rng = Random(f"memo/{name}")
    queries = [
        (kind, n, r, g)
        for kind in ("apply", "matrix", "dims")
        for n in range(2 if shared.algebra.dim > 5 else 4)
        for g in realized_gammas(shared, n)
        for r in (0, 1, 2)
    ]
    rng.shuffle(queries)
    for kind, n, r, g in queries:
        fresh = Representation(
            shared.algebra, shared.space, shared.rho, shared.alphaV, shared.betaV
        )
        if kind != "apply":
            query = coboundary_matrix if kind == "matrix" else cohomology_dims
            assert query(shared, n, r, g) == query(fresh, n, r, g)
        else:
            basis = cochain_basis(shared, n, g)
            cochains = [_sparse_cochain(shared, n, g, rng)]
            if basis:
                cochains += [rng.choice(basis), _combination(basis, rng)]
            for f in cochains:
                got = apply_coboundary(shared, r, f, validate=False)
                want = apply_coboundary(fresh, r, f, validate=False)
                assert got == want
                assert list(got.values) == list(want.values)
            want = coboundary_oracle(shared, r, f)
            assert got == want
            assert list(got.values) == list(want.values)


@pytest.mark.parametrize("first", [(1, 2), (2, 1)])
@pytest.mark.parametrize("name", sorted(TWISTED))
def test_coboundaries_sharing_an_action_power_match_the_oracle(name, first):
    # (n, r) = (1, 2) and (2, 1) both act through rho(alpha beta^2(e_x)),
    # so on one module the second coboundary reads the action columns
    # the first stored.  In either order each image equals the oracle's,
    # and a fresh module's, dict order included.
    make = TWISTED[name]
    shared = make()
    rng = Random(f"power/{name}/{first}")
    for n, r in (first, first[::-1]):
        for g in realized_gammas(shared, n):
            cochains = cochain_basis(shared, n, g)[:3]
            cochains.append(_sparse_cochain(shared, n, g, rng))
            for f in cochains:
                want = coboundary_oracle(shared, r, f)
                for rep in (shared, make()):
                    got = apply_coboundary(rep, r, f, validate=False)
                    assert got == want
                    assert list(got.values) == list(want.values)
    assert memo_keys(shared, "_action_columns") == [(2,)]


def test_cochain_basis_returns_a_fresh_list_of_the_memo():
    rep = twist_rep()
    first = cochain_basis(rep, 1, (0,))
    want = list(first)
    first.clear()
    again = cochain_basis(rep, 1, (0,))
    assert again == want == cochain_basis(twist_rep(), 1, (0,))
    again.append(again[0])
    assert cochain_basis(rep, 1, [2]) == want


GL22_PINS = {
    1: (28, 4, 3, 1),
    2: (120, 24, 24, 0),
    3: (404, 98, 96, 2),
    4: (1128, 308, 306, 2),
}


def test_gl22_cohomology_on_a_shared_and_on_fresh_modules():
    # degree 0 of ad_{0,1} with r = 1; the shared module answers each
    # arity twice, the second time from its memo
    a = gl22_twist()
    shared = adjoint_rep(a, 0, 1)
    for n, want in GL22_PINS.items():
        for rep in (adjoint_rep(a, 0, 1), shared, shared):
            res = cohomology_dims(rep, n, 1, (0,))
            got = (
                res.dim_cochains,
                res.dim_cocycles,
                res.dim_coboundaries,
                res.dim_h,
            )
            assert got == want


def test_sweep_computes_each_coboundary_rank_once(monkeypatch):
    # H^n and H^{n+1} share the rank of d_n: a sweep over n = 0..3 reduces
    # d_0, ..., d_3 once each, and a repeated sweep reduces nothing
    made = []
    rank = Matrix.rank

    def counting_rank(mat):
        made.append(mat)
        return rank(mat)

    monkeypatch.setattr(Matrix, "rank", counting_rank)
    rep = twist_rep(0, 1)
    first = [cohomology_dims(rep, n, 1, (0,)) for n in range(4)]
    assert len(made) == 4
    assert [cohomology_dims(rep, n, 1, (0,)) for n in range(4)] == first
    assert len(made) == 4
    fresh = twist_rep(0, 1)
    for n, res in enumerate(first):
        mat = coboundary_matrix(fresh, n, 1, (0,))
        # the sparse columns handed to the matrix are its column terms
        assert mat.column_terms() == Matrix(mat.rows, mat.ncols).column_terms()
        assert res.dim_cocycles == mat.ncols - dense_rank(mat)
        if n:
            prev = coboundary_matrix(fresh, n - 1, 1, (0,))
            assert res.dim_coboundaries == dense_rank(prev)


def test_repeated_queries_read_the_memo_and_build_no_matrix(monkeypatch):
    # H^n reads the rank of d_{n-1} that H^{n-1} stored: a sweep over
    # n = 0..3 builds d_0, ..., d_3 once each (4 builds, not 7), and a
    # repeated sweep builds none
    built = []
    build = cohomology.coboundary_matrix

    def counting_build(rep, n, *args, **kwargs):
        built.append(n)
        return build(rep, n, *args, **kwargs)

    monkeypatch.setattr(cohomology, "coboundary_matrix", counting_build)
    rep = twist_rep(0, 1)
    first = [cohomology_dims(rep, n, 1, (0,)) for n in range(4)]
    assert built == [0, 1, 2, 3]
    assert [cohomology_dims(rep, n, 1, (0,)) for n in range(4)] == first
    assert built == [0, 1, 2, 3]
    for n, res in enumerate(first):
        assert cohomology_dims(twist_rep(0, 1), n, 1, (0,)) == res


@pytest.mark.parametrize("s, l", [(0, 1), (1, 0), (-1, 1), (2, -1)])
@pytest.mark.parametrize("make", [gl11_fraction_twist, gl21_fraction_twist])
def test_adjoint_action_is_the_dense_twisted_cells(make, s, l):
    a = make()
    _, left = dense_twisted(a, s, l)
    rho = adjoint_rep(a, s, l).rho
    # rho(e_i) e_j = [alpha^s beta^l(e_i), e_j]
    assert rho == tuple(Matrix.from_cols(cells) for cells in left)


@pytest.mark.parametrize(
    "make",
    [gl11_fraction_twist, gl21_fraction_twist, gl21_unipotent_twist,
     gl2_conjugation_twist],
)
def test_reach_rows_index_the_dense_cells(make):
    a = make()
    n = a.dim
    _, left = dense_twisted(a, -1, 1)
    bracket = {(i, j): left[i][j] for i in range(n) for j in range(n)}
    beta = dict(enumerate(a.beta.columns()))
    for (scale, rows, pre), dense in zip(
        _reach_rows(adjoint_rep(a, 0, 1)), (bracket, beta)
    ):
        assert rows == {
            key: tuple(c * scale for c in v) for key, v in dense.items()
        }
        assert all(type(c) is int for row in rows.values() for c in row)
        assert pre == tuple(
            tuple(key for key, v in dense.items() if v[u]) for u in range(n)
        )


def test_rho_of_sums_the_scaled_actions():
    # the sum of rho(e_i) scaled by x_i, matrix by matrix, for integer
    # and fractional coefficients, and the cached action tables
    rng = Random(7)
    for rep in (twist_rep(), TWISTED["gl2_conjugation_twist"]()):
        dim = rep.algebra.dim
        xs = [rep.algebra.basis_vec(i) for i in range(dim)]
        xs.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
        xs.append(
            tuple(
                F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                for _ in range(dim)
            )
        )
        for x in xs:
            want = Matrix.zero(rep.dimV, rep.dimV)
            for c, m in zip(x, rep.rho):
                if c:
                    want = want + m.scale(c)
            assert rep.rho_of(x) == want
        for k in (0, 1, 2):
            cols = rep.algebra.ab_power(1, k).columns()
            assert rep.action_table(k) == tuple(rep.rho_of(c) for c in cols)


def test_singular_alpha_refuses_the_bracket_term_only():
    # alpha keeps only H, so d of the 0-cochain X is [H, X] at H
    a = osp12_classical()
    alpha = Matrix.diagonal([1, 0, 0, 0, 0])
    rep = adjoint_rep(
        ColourAlgebra(a.basis, a.eps, a.product, alpha, a.beta), 0, 1
    )
    v = rep.algebra.basis_vec(1)
    f0 = Cochain(0, (0,), {(): v}, rep.dimV)
    d0 = apply_coboundary(rep, 1, f0, validate=False)
    assert not d0.is_zero()
    assert d0 == coboundary_oracle(rep, 1, f0)
    # at n = 1 the bracket needs alpha^-1: the same error as the oracle's
    f1 = Cochain(1, (0,), {(0,): v}, rep.dimV)
    with pytest.raises(ValueError) as want:
        coboundary_oracle(rep, 1, f1)
    with pytest.raises(ValueError) as got:
        apply_coboundary(rep, 1, f1, validate=False)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "make,n,gamma",
    [(z2z2_colour_example, 2, (0, 0)), (lambda: zero_algebra(3), 3, ())],
    ids=["z2z2_colour", "zero_3"],
)
def test_zero_codomain_keeps_the_domain_width(make, n, gamma):
    rep = adjoint_rep(make(), 0, 1)
    dom = cochain_basis(rep, n, gamma)
    assert dom and not cochain_basis(rep, n + 1, gamma)
    mat = coboundary_matrix(rep, n, 1, gamma)
    assert (mat.nrows, mat.ncols) == (0, len(dom))
    assert len(mat.kernel_basis()) == len(dom)
    assert cohomology_dims(rep, n, 1, gamma).dim_cocycles == len(dom)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_image_outside_the_codomain_space_raises(n):
    # beta_V := alpha_V keeps the module even but breaks the beta
    # intertwining, so images stay on the degree-0 slots yet leave the
    # cochain space there
    rep = twist_rep(0, 1)
    bad = Representation(
        rep.algebra, rep.space, rep.rho, rep.alphaV, rep.alphaV
    )
    report = validate_representation(bad)
    assert report.item("rho_even").passed
    assert report.item("betaV_even").passed
    assert not report.item("beta_intertwine").passed
    want = (
        "coboundary image of basis cochain 0 does not lie in the codomain "
        "cochain space"
    )
    with pytest.raises(RuntimeError) as err:
        coboundary_matrix(bad, n, 1, (0,))
    assert str(err.value) == want


def test_image_outside_the_codomain_space_names_a_later_cochain():
    # the same beta_V := alpha_V break on the conjugation twist of gl(2):
    # the images of basis cochains 0 and 1 stay in the codomain space, the
    # image of 2 does not
    rep = adjoint_rep(gl2_conjugation_twist(), -1, 2)
    bad = Representation(
        rep.algebra, rep.space, rep.rho, rep.alphaV, rep.alphaV
    )
    with pytest.raises(RuntimeError) as err:
        coboundary_matrix(bad, 1, 1, ())
    assert str(err.value) == (
        "coboundary image of basis cochain 2 does not lie in the codomain "
        "cochain space"
    )


def test_image_off_the_slots_raises_with_the_slot():
    # rho = E41 for every basis vector sends H to F: not even, so the
    # image of a degree-0 cochain has F-coordinates on even tuples
    a = osp12_classical()
    e41 = Matrix(
        [[int((p, q) == (3, 0)) for q in range(a.dim)] for p in range(a.dim)]
    )
    rep = Representation(a, a.basis, [e41] * a.dim, a.alpha, a.beta)
    assert not validate_representation(rep).item("rho_even").passed
    want = r"basis cochain 0 .*coordinate F = 1 on \(H\)"
    with pytest.raises(RuntimeError, match=want):
        coboundary_matrix(rep, 0, 0, (0,))
    # a failed build stores no rank, so a repeated query fails again
    for _ in range(2):
        with pytest.raises(RuntimeError, match="outside the degree"):
            cohomology_dims(rep, 0, 0, (0,))
    assert not memo_keys(rep, "_rank_of")


def _scaled(rep, c):
    """rep with every action matrix scaled by c: the module maps still
    intertwine, so the coboundary keeps to the cochain spaces, but bracket
    compatibility, linear in rho on one side and quadratic on the other,
    fails for c other than 0 and 1 on a nonzero action, and d(d f) need
    not vanish."""
    rho = [m.scale(c) for m in rep.rho]
    return Representation(rep.algebra, rep.space, rho, rep.alphaV, rep.betaV)


def _square_error(n, k, witness):
    return (
        "coboundary image escapes the cocycle space: the square of the "
        f"coboundary is nonzero at (n={n}, r=1, degree=(0,)): on basis "
        f"cochain {k} of arity {n - 1} it is {witness}"
    )


def test_nonzero_square_names_the_cochain_tuple_and_value():
    # the adjoint action of osp(1|2) doubled fails only the module
    # condition, and the square of its coboundary is nonzero
    rep = _scaled(adjoint_rep(osp12_classical(), 0, 1), 2)
    report = validate_representation(rep)
    assert [it.name for it in report.items if not it.passed] == [
        "module_condition"
    ]
    want = _square_error(2, 0, "-2 G on (H, X, F)")
    with pytest.raises(RuntimeError) as err:
        cohomology_dims(rep, 2, 1, (0,))
    assert str(err.value) == want
    # both ranks were stored before the re-check ran, and the re-check
    # runs on every call: a repeated query gives the same witness
    assert {(1, 1, (0,)), (2, 1, (0,))} <= set(memo_keys(rep, "_rank_of"))
    with pytest.raises(RuntimeError) as err:
        cohomology_dims(rep, 2, 1, (0,))
    assert str(err.value) == want
    with pytest.raises(RuntimeError) as err:
        cohomology_dims(rep, 1, 1, (0,))
    assert str(err.value) == _square_error(1, 0, "-8 X on (H, X)")
    # the same witness from a module whose memo already holds every
    # matrix of the complex
    warm = _scaled(adjoint_rep(osp12_classical(), 0, 1), 2)
    cohomology_dims(warm, 0, 1, (0,))
    for n in range(3):
        coboundary_matrix(warm, n, 1, (0,))
    with pytest.raises(RuntimeError) as err:
        cohomology_dims(warm, 2, 1, (0,))
    assert str(err.value) == want
    # the witness is the first nonzero tuple of the oracle's d(d(f))
    f = cochain_basis(rep, 1, (0,))[0]
    again = coboundary_oracle(rep, 1, coboundary_oracle(rep, 1, f))
    names = rep.algebra.basis.names
    first = next(iter(again.values))
    assert tuple(names[i] for i in first) == ("H", "X", "F")
    assert again.values[first] == (0, 0, 0, 0, -2)


def test_internal_errors_keep_their_text_on_fractional_values():
    # the value in each message is the exact Fraction of the image, not
    # an integer over some scale: an action scaled by -2/3 on the module
    # of the off-slot test and on two adjoint modules, one of a twist
    # with fractional structure constants
    a = osp12_classical()
    e41 = Matrix(
        [
            [F(-2, 3) * int((p, q) == (3, 0)) for q in range(a.dim)]
            for p in range(a.dim)
        ]
    )
    off = Representation(a, a.basis, [e41] * a.dim, a.alpha, a.beta)
    slot = (
        "coboundary image of basis cochain 0 has coordinate F = {} on "
        "({}), outside the degree-(0,) slots of the codomain"
    )
    for query, n, want in (
        (coboundary_matrix, 0, slot.format("-2/3", "H")),
        (cohomology_dims, 0, slot.format("-2/3", "H")),
        (coboundary_matrix, 1, slot.format("2/3", "H, X")),
    ):
        with pytest.raises(RuntimeError) as err:
            query(off, n, 0, (0,))
        assert str(err.value) == want
    osp = _scaled(adjoint_rep(osp12_classical(), 0, 1), F(-2, 3))
    gl21 = _scaled(adjoint_rep(gl21_fraction_twist(), 0, 1), F(-2, 3))
    for rep, n, witness in (
        (osp, 1, "-40/9 X on (H, X)"),
        (gl21, 1, "128/15625 E12 on (E11, E12)"),
        (gl21, 2, "-512/390625 E12 on (E11, E12, E21)"),
    ):
        with pytest.raises(RuntimeError) as err:
            cohomology_dims(rep, n, 1, (0,))
        assert str(err.value) == _square_error(n, 0, witness)
    # beta_V := alpha_V on the same twist: images leave the cochain space
    rep = adjoint_rep(gl21_fraction_twist(), 0, 1)
    bad = Representation(
        rep.algebra, rep.space, rep.rho, rep.alphaV, rep.alphaV
    )
    for n in (0, 1, 2):
        with pytest.raises(RuntimeError) as err:
            cohomology_dims(bad, n, 1, (0,))
        assert str(err.value) == (
            "coboundary image of basis cochain 0 does not lie in the "
            "codomain cochain space"
        )


@pytest.mark.parametrize("r", [0, 1, 2])
def test_square_of_coboundary_vanishes(r):
    rep = twist_rep()
    for g in realized_gammas(rep, 1):
        m1 = coboundary_matrix(rep, 1, r, g)
        m2 = coboundary_matrix(rep, 2, r, g)
        assert (m2 * m1).is_zero()


def test_alternate_prefactor_breaks_the_square():
    # the variant sign eps(x_0 + ... + x_{t-1}, x_t), kept only in the
    # oracle, fails d.d = 0 already with identity maps, which is what
    # froze the library's one convention
    rep = adjoint_rep(osp12_classical(), 0, 1)
    f = cochain_basis(rep, 1, (0,))[0]
    mid = coboundary_oracle(rep, 1, f, "full")
    again = coboundary_oracle(rep, 1, mid, "full")
    names = rep.algebra.basis.names
    first = next(iter(again.values))
    assert tuple(names[i] for i in first) == ("H", "F", "F")
    assert again.values[first] == (0, 0, 8, 0, 0)
    # under the library's convention it vanishes
    again = coboundary_oracle(rep, 1, coboundary_oracle(rep, 1, f))
    assert again.is_zero()


# -- kernels, spans, dimensions --------------------------------------------------


def _cochain_as_endo_flat(rep, f):
    a = rep.algebra
    cols = [f.value((i,)) for i in range(a.dim)]
    return tuple(c for col in zip(*cols) for c in col)


@pytest.mark.parametrize("r", [0, 1])
def test_kernel_of_delta1_is_a_twisted_derivation_space(r):
    # ad_{0,1} with parameter r matches alpha^2 beta^r derivations
    tw = build_osp12(2, 3)
    rep = adjoint_rep(tw, 0, 1)
    for g in realized_gammas(rep, 1):
        dom = cochain_basis(rep, 1, g)
        mat = coboundary_matrix(rep, 1, r, g)
        coords = mat.kernel_basis() if dom else []
        kernel_flats = []
        for co in coords:
            f = dom[0].scale(0)
            for c, fb in zip(co, dom):
                f = f.add(fb.scale(c))
            kernel_flats.append(_cochain_as_endo_flat(rep, f))
        ds = derivation_space(tw, 2, r, g)
        der_flats = [
            tuple(c for row in h.matrix.rows for c in row)
            for h in ds.basis
        ]
        # HomEndo flattens by rows; cochain columns need the same layout
        kernel_flats = [
            tuple(
                flat[col * tw.dim + row]
                for row in range(tw.dim)
                for col in range(tw.dim)
            )
            for flat in kernel_flats
        ]
        assert len(kernel_flats) == ds.dimension
        if ds.dimension:
            assert spans_equal(kernel_flats, der_flats)


def test_h0_of_zero_algebra_counts_everything():
    res = cohomology_dims(adjoint_rep(zero_algebra(3), 0, 0), 0, 0, ())
    assert (res.dim_cochains, res.dim_cocycles, res.dim_h) == (3, 3, 3)


def test_h0_of_twist_is_trivial():
    res = cohomology_dims(twist_rep(), 0, 1, (0,))
    assert res.dim_cochains == 1  # H is fixed by both maps
    assert res.dim_h == 0  # but ad(H) != 0 kills it


def test_h1_dimension_balances_derivations_minus_inner():
    rep = adjoint_rep(osp12_classical(), 0, 1)
    res = cohomology_dims(rep, 1, 1, (0,))
    assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (3, 3, 0)
    assert res.dim_cocycles == derivation_space(
        osp12_classical(), 2, 1, (0,)
    ).dimension


def test_negative_arity_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        cohomology_dims(twist_rep(), -1, 0, (0,))


@pytest.mark.parametrize("validate", [True, False])
def test_apply_coboundary_refuses_a_negative_arity(validate):
    rep = adjoint_rep(osp12_classical(), 0, 1)
    f = Cochain(-1, (0,), {}, rep.dimV)
    with pytest.raises(ValueError, match="cochain arity must be nonnegative"):
        apply_coboundary(rep, 1, f, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
def test_apply_coboundary_refuses_another_value_dimension(validate):
    # the slot numbers of a value of another dimension would name other
    # slots of the module, so such a cochain is refused, unvalidated too
    rep = adjoint_rep(osp12_classical(), 0, 1)
    for dimV in (rep.dimV - 1, rep.dimV + 1):
        f = Cochain(1, (0,), {(0,): (1,) + (0,) * (dimV - 1)}, dimV)
        with pytest.raises(ValueError) as err:
            apply_coboundary(rep, 1, f, validate=validate)
        assert str(err.value) == (
            "cochain is outside the domain space: value dimension differs "
            "from the module"
        )


@pytest.mark.parametrize("index", ["dim", 99, -1])
def test_a_stored_index_outside_the_basis_is_refused_by_name(index):
    # -1 must not wrap round to the last basis vector, nor dim or 99 raise
    # IndexError from the degree lookup
    rep = adjoint_rep(osp12_classical(), 0, 1)
    dim = rep.algebra.dim
    if index == "dim":
        index = dim
    f = Cochain(1, (0,), {(index,): (1,) + (0,) * (dim - 1)}, rep.dimV)
    reason = f"stored tuple ({index},) leaves the basis 0..{dim - 1}"
    assert cochain_in_space(rep, f) == (False, reason)
    with pytest.raises(ValueError, match=re.escape(reason)):
        apply_coboundary(rep, 1, f)


@pytest.mark.parametrize("index", [5, 99, -1])
def test_an_unvalidated_coboundary_refuses_a_stored_index_outside_the_basis(
    index,
):
    # refused on the unit-image memo miss before any table is read: not an
    # IndexError from the reach tables, nor a KeyError for -1; the oracle
    # gives the same reason
    rep = adjoint_rep(osp12_classical(), 0, 1)
    f = Cochain(1, (0,), {(index,): (1, 0, 0, 0, 0)}, rep.dimV)
    reason = f"stored tuple ({index},) leaves the basis 0..4"
    assert cochain_in_space_oracle(rep, f) == (False, reason)
    with pytest.raises(ValueError) as err:
        apply_coboundary(rep, 1, f, validate=False)
    assert str(err.value) == f"cochain is outside the domain space: {reason}"
    assert not _arity(rep, 1).reach


@pytest.mark.parametrize("index", [5, -1])
def test_a_refused_tuple_stays_refused_after_other_images_are_built(index):
    # the refusal comes on the reach miss, which a refused tuple never
    # fills: a second V index of the same tuple, after every in-basis
    # image of the arity was built, and a cochain that mixes a built slot
    # with it are refused with the same text
    rep = adjoint_rep(osp12_classical(), 0, 1)
    reason = (
        "cochain is outside the domain space: "
        f"stored tuple ({index},) leaves the basis 0..4"
    )
    for g in realized_gammas(rep, 1):
        for fb in cochain_basis(rep, 1, g):
            apply_coboundary(rep, 1, fb, validate=False)
    built = cochain_basis(rep, 1, (0,))[0]
    (T, terms), = built.values.items()
    cochains = [
        Cochain(1, (0,), {(index,): (0, 1, 0, 0, 0)}, rep.dimV),
        Cochain(1, (0,), {T: terms, (index,): (1, 0, 0, 0, 0)}, rep.dimV),
    ]
    for f in cochains:
        with pytest.raises(ValueError) as err:
            apply_coboundary(rep, 1, f, validate=False)
        assert str(err.value) == reason
    assert (index,) not in _arity(rep, 1).reach


# the corpus (z2z2_colour_example repeats odd indices) and the gl(2|1)
# twists (gl21_unipotent_twist has several beta-preimages per entry)
REACH_ALGEBRAS = {
    **{name: (lambda n=name: dict(lie_corpus())[n]) for name in LIE_CORPUS},
    "gl21_twist": gl21_twist,
    "gl21_unipotent_twist": gl21_unipotent_twist,
    "gl21_fraction_twist": gl21_fraction_twist,
}


@pytest.mark.parametrize("name", REACH_ALGEBRAS)
def test_enumerated_reach_terms_match_the_support_search(name, monkeypatch):
    # every tuple of arity 0-3: the same terms, and the same number of
    # unit evaluations, as the search over reachable tuples and covering
    # supports
    a = REACH_ALGEBRAS[name]()
    rep = adjoint_rep(a, 0, 1)
    calls = []
    evaluate = Cochain.eval

    def counted(self, rep, args):
        calls.append(1)
        return evaluate(self, rep, args)

    monkeypatch.setattr(Cochain, "eval", counted)
    for n in range(4):
        for T in canonical_index_tuples(a, n):
            before = len(calls)
            got = cohomology._reach(rep, n, T)
            evaluated = len(calls) - before
            assert got == reach_oracle(rep, n, T)
            assert len(calls) - before == 2 * evaluated


ONE_SLOT_MODULES = {
    "osp12_twist_ad01": TWISTED["osp12_twist_ad01"],
    "z2z2_colour": TWISTED["z2z2_colour"],
    "gl21_fraction_twist": lambda: adjoint_rep(gl21_fraction_twist(), 0, 1),
}


@pytest.mark.parametrize("name", ONE_SLOT_MODULES)
def test_one_and_two_slot_coboundaries_match_the_oracle(name):
    # a cochain with one nonzero slot reads its image straight off the
    # unit image; one with two slots sums them
    rep = ONE_SLOT_MODULES[name]()
    rng = Random(name)
    for n in range(3 if rep.algebra.dim < 9 else 2):
        for g in realized_gammas(rep, n):
            slots = _slots(rep, n, g)
            picks = rng.sample(slots, min(4, len(slots)))
            for first, second in zip(picks, picks[1:] + picks[:1]):
                one = {first[0]: [F(0)] * rep.dimV}
                one[first[0]][first[1]] = F(-3, 7)
                two = {T: list(v) for T, v in one.items()}
                two.setdefault(second[0], [F(0)] * rep.dimV)
                two[second[0]][second[1]] += F(5, 2)
                for values in (one, two):
                    f = Cochain(n, g, values, rep.dimV)
                    got = apply_coboundary(rep, 1, f, validate=False)
                    want = coboundary_oracle(rep, 1, f)
                    assert got == want
                    assert list(got.values) == list(want.values)


# well-formed modules, and broken ones whose images leave the degree
# slots (an action by -2/3 E41) or the cochain space (beta_V := alpha_V)
SLOT_NUMBER_MODULES = {
    **FORM_MODULES,
    **{
        name: BROKEN_MODULES[name][0]
        for name in (
            "e41x-2/3/osp12_classical",
            "beta_is_alpha/gl2_conjugation_twist",
        )
    },
}


def _library_cochains(rep, ref, rng):
    """Cochains the library builds on ``rep``, arity 0-1 and every
    realized degree: two basis cochains, their images, the image of a
    combination of the basis cochains of ``ref`` (a module equal to
    ``rep``) and the image of that image."""
    out = []
    for n in range(2):
        for g in realized_gammas(rep, n):
            basis = cochain_basis(rep, n, g)
            if not basis:
                continue
            out += basis[:2]
            out += [
                apply_coboundary(rep, 1, f, validate=False) for f in basis[:2]
            ]
            combined = _combination(cochain_basis(ref, n, g), rng)
            image = apply_coboundary(rep, 1, combined, validate=False)
            out += [image, apply_coboundary(rep, 1, image, validate=False)]
    return out


def _coboundary_or_error(rep, r, f, validate):
    try:
        return apply_coboundary(rep, r, f, validate=validate)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("name", sorted(SLOT_NUMBER_MODULES))
def test_slot_numbered_cochains_read_like_their_constructed_copies(name):
    # A library cochain holds its slot numbers and builds its tuple rows
    # only when read.  Before and after that, its coboundary (both
    # validate values), its membership verdict and reason, ==, hash and
    # eval match those of its copy through the public constructor.  Each
    # module is built twice: the copies come from the second, so that
    # building them decodes nothing on the first.
    make = SLOT_NUMBER_MODULES[name]
    dim = make().algebra.dim
    seen = {"multi-slot": 0, "refused": 0, "member": 0, "non-member": 0}
    for decode in (False, True):
        rep, ref = make(), make()
        got = _library_cochains(rep, ref, Random(name))
        want = [_eager(f) for f in _library_cochains(ref, ref, Random(name))]
        rng = Random(f"eval/{name}")
        for f, copy_f in zip(got, want):
            if decode:
                f.int_values()
            assert f.is_zero() == copy_f.is_zero()
            for validate in (False, True):
                for r in (0, 1):
                    image = _coboundary_or_error(rep, r, f, validate)
                    expected = _coboundary_or_error(rep, r, copy_f, validate)
                    if isinstance(expected, str):
                        assert image == expected
                    else:
                        _same_cochain(image, expected)
                if not validate:
                    # the coboundary read f's slot numbers, not its rows
                    assert (f._ints is None) == (not decode)
            verdict = cochain_in_space(rep, f)
            assert verdict == cochain_in_space(rep, copy_f)
            seen["member" if verdict[0] else "non-member"] += 1
            seen["multi-slot"] += sum(map(len, copy_f.values.values())) > 1
            assert f == copy_f and copy_f == f
            assert hash(f) == hash(copy_f)
            # on an equal module, whose tables are not the ones that
            # number f's slots
            _same_cochain(
                apply_coboundary(ref, 1, f, validate=False),
                apply_coboundary(ref, 1, copy_f, validate=False),
            )
            for _ in range(2):
                args = _fraction_arguments(rep.algebra, f.n, rng)
                assert f.eval(rep, args) == copy_f.eval(rep, args)
            if f.n and verdict[0]:
                # a stored index outside the basis, after f's own tuples
                outside = (dim,) * f.n
                mixed = Cochain(
                    f.n,
                    f.degree,
                    {**copy_f.values, outside: (1,) + (0,) * (rep.dimV - 1)},
                    rep.dimV,
                )
                reason = (
                    f"stored tuple {outside} leaves the basis 0..{dim - 1}"
                )
                assert cochain_in_space(rep, mixed) == (False, reason)
                for validate in (False, True):
                    assert _coboundary_or_error(rep, 1, mixed, validate) == (
                        f"cochain is outside the domain space: {reason}"
                    )
                seen["refused"] += 1
    assert seen["multi-slot"] and seen["refused"] and seen["member"]
    if name in BROKEN_MODULES:
        assert seen["non-member"]


def test_realized_gammas_cover_the_group():
    assert realized_gammas(twist_rep(), 1) == [(0,), (1,)]
