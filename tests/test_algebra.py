"""Axiom suites, reports, and witnesses on hand-built fixtures."""

from fractions import Fraction
from random import Random

import pytest

from bihomlie import algebra as alg
from bihomlie.algebra import (
    AxiomReport,
    ColourAlgebra,
    associator,
    check_associative_axioms,
    check_bihom_axioms,
    check_lie_axioms,
    jacobiator,
    require_passing,
)
from bihomlie.constructions import (
    build_osp12,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    z2z2_colour_example,
    zero_algebra,
)
from bihomlie.grading import (
    Bicharacter,
    GradedBasis,
    GradingGroup,
    super_bicharacter,
)
from bihomlie.linalg import Matrix


def test_lie_suite_passes_on_classical_osp():
    report = check_lie_axioms(osp12_classical())
    assert report.passed
    assert report.all_passed  # advisory items too: id maps, regular


def test_lie_suite_passes_on_colour_example():
    assert check_lie_axioms(z2z2_colour_example()).all_passed


def test_associative_suite_on_matrix_units():
    report = check_associative_axioms(mat2_assoc())
    assert report.passed
    # matrix multiplication is not commutative; the advisory flag records it
    item = report.item("colour_commutative")
    assert item.advisory and not item.passed
    assert report.all_passed is False


def _super_algebra(table, names=("x", "f"), degrees=((0,), (1,))):
    """Tiny Z2-graded builder for broken fixtures."""
    group = GradingGroup(0, (2,))
    basis = GradedBasis(group, names, degrees)
    n = len(names)
    product = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), cell in table.items():
        for k, c in cell.items():
            product[i][j][k] = Fraction(c)
    return ColourAlgebra(
        basis,
        super_bicharacter(),
        product,
        Matrix.identity(n),
        Matrix.identity(n),
    )


def test_odd_product_fails_evenness_with_witness():
    # x (even) * x (even) = f (odd) is not degree-additive
    a = _super_algebra({(0, 0): {1: 1}})
    report = check_bihom_axioms(a)
    item = report.item("product_even")
    assert not item.passed
    assert item.witness.names == ("x", "x")
    assert "f" in item.witness.defect_str


def test_skewsymmetry_witness_names_the_pair():
    # [x,f] = f but [f,x] = f as well: violates [x,f] = -eps [f,x] = -f
    a = _super_algebra({(0, 1): {1: 1}, (1, 0): {1: 1}})
    report = check_lie_axioms(a)
    item = report.item("bihom_skewsymmetry")
    assert not item.passed
    assert item.witness.indices == (0, 1)


def test_jacobi_failure_detected():
    # sl2-like table with one sign ruined
    group = GradingGroup(0, ())
    basis = GradedBasis(group, ("h", "e", "f"), ((), (), ()))
    prod = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]

    def put(i, j, k, c):
        prod[i][j][k] = Fraction(c)

    put(0, 1, 1, 2), put(1, 0, 1, -2)
    put(0, 2, 2, -2), put(2, 0, 2, 2)
    put(1, 2, 0, 1), put(2, 1, 0, 1)  # should be -1: breaks skewness+jacobi
    from bihomlie.grading import trivial_bicharacter

    a = ColourAlgebra(
        basis,
        trivial_bicharacter(group),
        prod,
        Matrix.identity(3),
        Matrix.identity(3),
    )
    report = check_lie_axioms(a)
    assert not report.item("bihom_jacobi").passed


def test_noncommuting_maps_rejected():
    a = zero_algebra(2)
    bad = ColourAlgebra(
        a.basis,
        a.eps,
        a.product,
        Matrix([[1, 1], [0, 1]]),
        Matrix([[1, 0], [1, 1]]),
    )
    report = check_bihom_axioms(bad)
    assert not report.item("maps_commute").passed


def test_require_passing_raises_with_context():
    a = _super_algebra({(0, 0): {1: 1}})
    with pytest.raises(ValueError, match="in unit-test"):
        require_passing(a, "lie", context="unit-test")


def test_require_passing_can_demand_advisories():
    a = zero_algebra(2)
    singular = ColourAlgebra(
        a.basis, a.eps, a.product, Matrix.zero(2, 2), Matrix.identity(2)
    )
    # structural items pass; regularity is advisory unless demanded
    require_passing(singular, "bihom")
    with pytest.raises(ValueError, match="regular"):
        require_passing(singular, "bihom", need_regular=True)


def test_jacobiator_modes_differ_on_twisted_algebra():
    from bihomlie.constructions import build_osp12

    tw = build_osp12(2, 1)
    h, x, y = 0, 1, 2
    assert any(jacobiator(tw, x, y, h, "hom"))
    assert not any(jacobiator(tw, x, y, h, "bihom"))


def test_jacobiator_rejects_unknown_mode():
    with pytest.raises(ValueError):
        jacobiator(osp12_classical(), 0, 0, 0, "weird")


def test_report_serialization_shape():
    d = check_lie_axioms(osp12_classical()).to_dict()
    assert d["passed"] is True
    names = [it["name"] for it in d["items"]]
    assert "bihom_jacobi" in names and "bihom_skewsymmetry" in names


# ---------------------------------------------------------------------------
# the former dense evaluation, kept as the oracle of the sparse tables


def _dense_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _dense_scale(c, u):
    return tuple(c * x for x in u)


def _dense_apply(m, v):
    return tuple(
        sum((row[j] * c for j, c in enumerate(v)), Fraction(0)) for row in m.rows
    )


def product_eval_oracle(a, x, y):
    acc = [Fraction(0)] * a.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, ck in enumerate(a.product[i][j]):
                acc[k] += xi * yj * ck
    return tuple(acc)


def jacobiator_oracle(a, i, j, k, mode="bihom"):
    acc = (Fraction(0),) * a.dim
    alpha = a.alpha.columns()
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        if mode == "bihom":
            beta2 = a.map_power("beta", 2).columns()
            inner = product_eval_oracle(a, a.beta.columns()[y], alpha[z])
            term = product_eval_oracle(a, beta2[x], inner)
        else:
            term = product_eval_oracle(a, alpha[x], a.product[y][z])
        sign = a.eps.eval(a.degree(z), a.degree(x))
        acc = _dense_add(acc, _dense_scale(Fraction(sign), term))
    return acc


def associator_oracle(a, x, y, z):
    lhs = product_eval_oracle(
        a, _dense_apply(a.alpha, x), product_eval_oracle(a, y, z)
    )
    rhs = product_eval_oracle(
        a, product_eval_oracle(a, x, y), _dense_apply(a.beta, z)
    )
    return _dense_add(lhs, _dense_scale(Fraction(-1), rhs))


def _structural_items_oracle(a):
    items = [
        alg._check_product_even(a),
        alg._check_map_even(a, "alpha", a.alpha),
        alg._check_map_even(a, "beta", a.beta),
        alg._check_maps_commute(a),
    ]
    for name, m in (("alpha", a.alpha), ("beta", a.beta)):
        cols = m.columns()

        def defect(i, j, m=m, cols=cols):
            lhs = _dense_apply(m, a.product[i][j])
            rhs = product_eval_oracle(a, cols[i], cols[j])
            return _dense_add(lhs, _dense_scale(Fraction(-1), rhs))

        items.append(
            alg._check_tuples(a, f"{name}_multiplicative", 2, defect, advisory=True)
        )
    return items


def report_oracle(a, suite):
    """The report of check_<suite>_axioms from dense evaluation."""
    items = _structural_items_oracle(a)
    if suite == "lie":
        alpha, beta = a.alpha.columns(), a.beta.columns()

        def skew(i, j):
            lhs = product_eval_oracle(a, beta[i], alpha[j])
            rhs = product_eval_oracle(a, beta[j], alpha[i])
            return _dense_add(lhs, _dense_scale(Fraction(a.eps_ij(i, j)), rhs))

        items.append(alg._check_tuples(a, "bihom_skewsymmetry", 2, skew))
        items.append(
            alg._check_tuples(
                a, "bihom_jacobi", 3, lambda i, j, k: jacobiator_oracle(a, i, j, k)
            )
        )
    elif suite == "associative":

        def assoc(i, j, k):
            return associator_oracle(
                a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
            )

        def comm(i, j):
            rhs = _dense_scale(Fraction(a.eps_ij(i, j)), a.product[j][i])
            return _dense_add(a.product[i][j], _dense_scale(Fraction(-1), rhs))

        items.append(alg._check_tuples(a, "bihom_associative", 3, assoc))
        items.append(
            alg._check_tuples(a, "colour_commutative", 2, comm, advisory=True)
        )
    items.append(alg._check_regular(a))
    return AxiomReport(items)


def inflated_twist():
    """osp(1|2) twisted by (2, 3) with {F,F} = 4/3 Y instead of 1/3 Y."""
    tw = build_osp12(2, 3)
    i, y = tw.basis.index("F"), tw.basis.index("Y")
    prod = [[list(cell) for cell in row] for row in tw.product]
    prod[i][i][y] = Fraction(4, 3)
    return tw.with_product(prod)


# the names of lie_corpus(), whose algebras are built inside the tests
LIE_CORPUS = (
    "zero_3",
    "osp12_classical",
    "osp12_twist(2,3)",
    "z2z2_colour_example",
    "commutator(mat2_assoc)",
)
ORACLE_ALGEBRAS = {
    **{name: (lambda name=name: dict(lie_corpus())[name]) for name in LIE_CORPUS},
    "mat2_assoc": mat2_assoc,
    "inflated_twist": inflated_twist,
    "broken_skew": lambda: _super_algebra({(0, 1): {1: 1}, (1, 0): {1: 1}}),
    "odd_product": lambda: _super_algebra({(0, 0): {1: 1}}),
}


def _random_vec(rng, n):
    return tuple(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6
        else Fraction(0)
        for _ in range(n)
    )


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_sparse_evaluation_matches_the_dense_oracle(name):
    a = ORACLE_ALGEBRAS[name]()
    n = a.dim
    rng = Random(name)
    vecs = [a.basis_vec(i) for i in range(n)] + [
        _random_vec(rng, n) for _ in range(4)
    ]
    for x in vecs:
        for y in vecs:
            assert a.product_eval(x, y) == product_eval_oracle(a, x, y)
    for x in vecs[n:]:
        for y in vecs[n:]:
            for z in vecs[n:]:
                assert associator(a, x, y, z) == associator_oracle(a, x, y, z)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for mode in ("bihom", "hom"):
                    got = jacobiator(a, i, j, k, mode)
                    assert got == jacobiator_oracle(a, i, j, k, mode)
                    assert all(isinstance(c, Fraction) for c in got)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
@pytest.mark.parametrize(
    "suite,check",
    [
        ("lie", check_lie_axioms),
        ("associative", check_associative_axioms),
        ("bihom", check_bihom_axioms),
    ],
)
def test_table_driven_reports_match_the_dense_oracle(name, suite, check):
    a = ORACLE_ALGEBRAS[name]()
    got, want = check(a), report_oracle(a, suite)
    assert [it.name for it in got.items] == [it.name for it in want.items]
    for g, w in zip(got.items, want.items):
        assert g.passed == w.passed, g.name
        assert g == w, g.name


def test_inflated_twist_fails_jacobi_at_the_pinned_witness():
    want = report_oracle(inflated_twist(), "lie").item("bihom_jacobi")
    got = check_lie_axioms(inflated_twist()).item("bihom_jacobi")
    assert got == want
    assert got.witness.names == ("X", "F", "F")
    assert got.witness.defect_str == "6 H"
