"""Axiom suites, reports, and witnesses on hand-built fixtures."""

from fractions import Fraction
from itertools import product as iproduct
from math import gcd
from random import Random

import pytest

from bihomlie import algebra as alg
from bihomlie import cli
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
    homogeneous_degree,
    super_bicharacter,
)
from bihomlie.admissibility import check_flexible
from bihomlie.linalg import Matrix
from dense_oracles import (
    check_tuples,
    dense_twisted,
    twisted_products,
    twisted_table_oracle,
)
from fixtures import (
    LIE_CORPUS,
    conj_mat2,
    gl11_fraction_twist,
    gl21_fraction_twist,
    gl21_noncommuting_twist,
    gl21_twist,
    gl21_unipotent_twist,
    gl2_conjugation_twist,
    gl2_fraction_twist,
    twisted_mat2,
)


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


def product_even_oracle(a):
    """The first pair (i, j), in row-major order, whose dense cell is not
    homogeneous of degree deg(i) + deg(j); None when there is none."""
    for i, j in iproduct(range(a.dim), repeat=2):
        homog, deg = homogeneous_degree(a.basis, a.product[i][j])
        want = a.basis.group.add(a.degree(i), a.degree(j))
        if not homog or (deg is not None and deg != want):
            return i, j
    return None


@pytest.mark.parametrize("name", LIE_CORPUS)
def test_product_even_fails_first_where_a_dense_scan_does(name):
    a = dict(lie_corpus())[name]
    assert alg._check_product_even(a) == alg.CheckItem("product_even", True)
    rng = Random(name)
    n = a.dim
    for _ in range(40):
        # two cells given one more term each: into an empty cell, a term of
        # some degree; into a nonempty one, a second degree when it differs
        product = [[list(cell) for cell in row] for row in a.product]
        for _ in range(2):
            i, j, k = (rng.randrange(n) for _ in range(3))
            product[i][j][k] += Fraction(rng.choice((1, -3)), 2)
        b = a.with_product(product)
        item = alg._check_product_even(b)
        first = product_even_oracle(b)
        if first is None:
            assert item == alg.CheckItem("product_even", True)
            continue
        assert not item.passed
        assert item.witness.indices == first
        assert item.witness.defect == b.product[first[0]][first[1]]
        assert item.note == "degree of product differs from sum of degrees"


def test_skewsymmetry_witness_names_the_pair():
    # [x,f] = f but [f,x] = f as well: violates [x,f] = -eps [f,x] = -f
    a = _super_algebra({(0, 1): {1: 1}, (1, 0): {1: 1}})
    report = check_lie_axioms(a)
    item = report.item("bihom_skewsymmetry")
    assert not item.passed
    assert item.witness.indices == (0, 1)


def ruined_sl2():
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

    return ColourAlgebra(
        basis,
        trivial_bicharacter(group),
        prod,
        Matrix.identity(3),
        Matrix.identity(3),
    )


def test_jacobi_failure_detected():
    report = check_lie_axioms(ruined_sl2())
    assert not report.item("bihom_jacobi").passed


def perturbed_corpus():
    """Each Lie corpus algebra with one structure constant moved by a
    small fraction, five times over, at cells drawn from a fixed seed."""
    rng = Random("perturbed corpus")
    out = []
    for name, a in lie_corpus():
        n = a.dim
        for _ in range(5):
            i, j, k = (rng.randrange(n) for _ in range(3))
            prod = [[list(cell) for cell in row] for row in a.product]
            prod[i][j][k] += Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))
            out.append((f"{name}[{i}][{j}][{k}]", a.with_product(prod)))
    return out


def test_jacobi_scan_of_least_rotations_names_the_full_scan_witness():
    # the matrix units under their associative product fail first at
    # (0, 0, 0), a triple that is its own rotation
    broken = [("ruined_sl2", ruined_sl2()), ("mat2_assoc", mat2_assoc())]
    failing = set()
    for label, a in broken + perturbed_corpus():
        scale, defect = alg._jacobi_defect(a)
        want = check_tuples(a, "bihom_jacobi", 3, defect, scale=scale)
        got = check_lie_axioms(a).item("bihom_jacobi")
        assert got.to_dict() == want.to_dict(), label
        if not want.passed:
            failing.add(want.witness.indices)
    # witnesses of several shapes, first entries past 0 among them
    assert len(failing) >= 5
    assert any(idx[0] > 0 for idx in failing)
    assert (0, 0, 0) in failing


def shear_pair():
    """The zero algebra on two vectors with the shears [[1, 1], [0, 1]] and
    [[1, 0], [1, 1]] as maps, which do not commute."""
    a = zero_algebra(2)
    return ColourAlgebra(
        a.basis,
        a.eps,
        a.product,
        Matrix([[1, 1], [0, 1]]),
        Matrix([[1, 0], [1, 1]]),
    )


def test_noncommuting_maps_rejected():
    report = check_bihom_axioms(shear_pair())
    item = report.item("maps_commute")
    assert not item.passed
    # alpha beta - beta alpha = [[1, 0], [0, -1]]: the least entry (0, 0),
    # witnessed by its column
    assert item.witness.indices == (0, 0)
    assert item.witness.names == ("e1", "e1")
    assert item.witness.defect_str == "1 e1"
    assert item.note == "alpha.beta - beta.alpha is nonzero"


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


def test_require_passing_refuses_an_unknown_suite():
    # a misspelt suite used to run the structural suite without a word
    with pytest.raises(ValueError, match="'lei'.*lie, associative, bihom"):
        require_passing(zero_algebra(2), "lei")


def test_one_suite_table_serves_require_passing_and_the_cli():
    assert cli._SUITES is alg.SUITES
    assert list(alg.SUITES) == ["lie", "associative", "bihom"]


def test_jacobiator_modes_differ_on_twisted_algebra():
    from bihomlie.constructions import build_osp12

    tw = build_osp12(2, 1)
    h, x, y = 0, 1, 2
    assert any(jacobiator_oracle(tw, x, y, h, "hom"))
    assert not any(jacobiator(tw, x, y, h))


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
    # every cell of the dense table, skipping only a zero coordinate of x
    # or y, whose terms are all zero
    acc = [Fraction(0)] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
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


def maps_commute_oracle(a):
    """alpha beta - beta alpha from the dense columns: its row-major first
    nonzero entry (r, c) fails, witnessed by column c."""
    diff = [
        _dense_add(
            _dense_apply(a.alpha, b),
            _dense_scale(Fraction(-1), _dense_apply(a.beta, al)),
        )
        for al, b in zip(a.alpha.columns(), a.beta.columns())
    ]
    for r, c in iproduct(range(a.dim), repeat=2):
        if diff[c][r]:
            return alg.CheckItem(
                "maps_commute",
                False,
                alg._pair_witness(a, (r, c), diff[c]),
                note="alpha.beta - beta.alpha is nonzero",
            )
    return alg.CheckItem("maps_commute", True)


def _structural_items_oracle(a):
    items = [
        alg._check_product_even(a),
        alg._check_map_even(a, "alpha", a.alpha),
        alg._check_map_even(a, "beta", a.beta),
        maps_commute_oracle(a),
    ]
    for name, m in (("alpha", a.alpha), ("beta", a.beta)):
        cols = m.columns()

        def defect(i, j, m=m, cols=cols):
            lhs = _dense_apply(m, a.product[i][j])
            rhs = product_eval_oracle(a, cols[i], cols[j])
            return _dense_add(lhs, _dense_scale(Fraction(-1), rhs))

        items.append(
            check_tuples(a, f"{name}_multiplicative", 2, defect, advisory=True)
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

        items.append(check_tuples(a, "bihom_skewsymmetry", 2, skew))
        items.append(
            check_tuples(
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

        items.append(check_tuples(a, "bihom_associative", 3, assoc))
        items.append(
            check_tuples(a, "colour_commutative", 2, comm, advisory=True)
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


def fraction_inflated():
    """gl2_fraction_twist with 1/11 added to the E11 coordinate of
    [E12, E21]: a denominator that no table or map of the algebra has."""
    tw = gl2_fraction_twist()
    i, j, h = (tw.basis.index(n) for n in ("E12", "E21", "E11"))
    prod = [[list(cell) for cell in row] for row in tw.product]
    prod[i][j][h] += Fraction(1, 11)
    return tw.with_product(prod)


ORACLE_ALGEBRAS = {
    **{name: (lambda name=name: dict(lie_corpus())[name]) for name in LIE_CORPUS},
    "mat2_assoc": mat2_assoc,
    "inflated_twist": inflated_twist,
    "gl2_conjugation_twist": gl2_conjugation_twist,
    "gl11_fraction_twist": gl11_fraction_twist,
    "gl2_fraction_twist": gl2_fraction_twist,
    "fraction_inflated": fraction_inflated,
    "broken_skew": lambda: _super_algebra({(0, 1): {1: 1}, (1, 0): {1: 1}}),
    "odd_product": lambda: _super_algebra({(0, 0): {1: 1}}),
    "shear_pair": shear_pair,
    "gl21_noncommuting_twist": gl21_noncommuting_twist,
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
                got = jacobiator(a, i, j, k)
                assert got == jacobiator_oracle(a, i, j, k)
                assert all(isinstance(c, Fraction) for c in got)


def _terms(v):
    return tuple((u, c) for u, c in enumerate(v) if c)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_term_tables_hold_the_nonzero_entries_of_their_products(name):
    a = ORACLE_ALGEBRAS[name]()
    alpha, beta = a.alpha.columns(), a.beta.columns()
    for ka, kb in ((1, 0), (0, 1), (0, 2)):
        for right in (False, True):
            table = twisted_products(a, ka, kb, right=right)
            assert a.int_table("twisted_terms", ka, kb, right) == _int_copy(
                table
            )
    assert a.int_table("skew_terms") == _int_copy(
        tuple(
            tuple(product_eval_oracle(a, bi, aj) for aj in alpha) for bi in beta
        )
    )
    assert a.int_table("product_terms") == _int_copy(a.product)
    for which in ("alpha", "beta"):
        scale, (cols,) = _int_copy((getattr(a, which).columns(),))
        assert getattr(a, which).int_column_terms() == (scale, cols)


def test_one_integer_table_per_product():
    a = gl2_fraction_twist()
    assert a.int_table("twisted_terms", 1, 0) is a.int_table(
        "twisted_terms", 1, 0, False
    )
    assert a.int_table("skew_terms") is a.int_table("skew_terms")
    with pytest.raises(ValueError, match="unknown term table"):
        a.int_table("twisted_products")


@pytest.mark.parametrize(
    "twist", [gl11_fraction_twist, gl2_fraction_twist, gl21_fraction_twist]
)
def test_twisted_products_match_the_dense_oracle(twist):
    a = twist()
    for k, l in ((0, 0), (1, 0), (0, 1), (-1, 1), (1, -1), (2, 1), (-2, -1)):
        want = dense_twisted(a, k, l)
        got = (
            twisted_products(a, k, l, right=True),
            twisted_products(a, k, l),
        )
        assert got == want
        for table in got:
            assert all(
                type(c) is Fraction for row in table for v in row for c in v
            )
    # the identity twist is the structure constants themselves
    assert twisted_products(a, 0, 0) == a.product


def _with_zero_columns():
    """osp(1|2) with alpha and beta diagonal, each with a zero column."""
    a = osp12_classical()
    return a.with_product(
        a.product,
        alpha=Matrix.diagonal([1, 0, 1, 2, 1]),
        beta=Matrix.diagonal([0, 1, 1, 1, Fraction(1, 2)]),
    )


# identity maps, diagonal ones, unipotent ones, fractional ones with
# several terms per column, and singular ones with zero columns
TWISTED_TABLE_ALGEBRAS = {
    "osp12_classical": osp12_classical,
    "gl21_twist": gl21_twist,
    "gl21_unipotent_twist": gl21_unipotent_twist,
    "gl21_fraction_twist": gl21_fraction_twist,
    "zero_columns": _with_zero_columns,
}


@pytest.mark.parametrize("name", sorted(TWISTED_TABLE_ALGEBRAS))
def test_twisted_tables_equal_the_dense_cell_oracle(name):
    a = TWISTED_TABLE_ALGEBRAS[name]()
    powers = range(-1, 3) if a.is_regular() else range(0, 3)
    table = a.int_table("product_terms")
    for k, l in iproduct(powers, repeat=2):
        images = a.ab_power(k, l).int_column_terms()
        for right in (False, True):
            want = twisted_table_oracle(table, images, right)
            assert a.int_table("twisted_terms", k, l, right) == want, (k, l)


def _random_terms(rng, n, width):
    """Up to ``width`` nonzero integer terms (k, x), in ascending k."""
    ks = sorted(rng.sample(range(n), rng.randint(0, min(width, n))))
    return tuple((k, rng.choice((-3, -2, -1, 1, 1, 1, 2, 5))) for k in ks)


def test_twisted_table_equals_the_dense_cell_oracle_on_random_tables():
    # every shape of image column: empty, one unit term, one scaled term,
    # several terms; tables and maps over scales with common factors
    rng = Random(40)
    for _ in range(150):
        n = rng.randint(1, 6)
        table = (
            rng.choice((1, 2, 6)),
            tuple(
                tuple(_random_terms(rng, n, 3) for _ in range(n))
                for _ in range(n)
            ),
        )
        shape = rng.choice(("unit", "single", "mixed"))
        cols = []
        for _ in range(n):
            if shape == "mixed":
                cols.append(_random_terms(rng, n, 3))
            else:
                c = 1 if shape == "unit" else rng.choice((-2, 1, 3))
                cols.append(((rng.randrange(n), c),))
        images = (rng.choice((1, 2, 3)), tuple(cols))
        for right in (False, True):
            got = alg._twisted_table(table, images, right)
            assert got == twisted_table_oracle(table, images, right)


def _int_copy(table):
    """(L, the nonzero terms of every vector of the table times L), L the
    least common denominator of the whole table."""
    scale = 1
    for row in table:
        for v in row:
            for c in v:
                scale = scale * c.denominator // gcd(scale, c.denominator)
    return scale, tuple(
        tuple(tuple((u, int(c * scale)) for u, c in _terms(v)) for v in row)
        for row in table
    )


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


def broken_twisted_mat2():
    """twisted_mat2 with one cell changed by 1/7: not BiHom-associative,
    and its defects carry a denominator no table of the scan has alone."""
    a = twisted_mat2()
    prod = [[list(cell) for cell in row] for row in a.product]
    prod[1][2][0] += Fraction(1, 7)
    return a.with_product(prod)


@pytest.mark.parametrize(
    "make", [mat2_assoc, conj_mat2, twisted_mat2, broken_twisted_mat2]
)
def test_integer_associative_scan_matches_the_associator(make):
    # the scan sums integer tables; the public associator, in Fractions on
    # basis vectors in lexicographic order, gives its first failing triple
    # and exact defect
    a = make()
    item = check_associative_axioms(a).item("bihom_associative")
    want = None
    for idx in iproduct(range(a.dim), repeat=3):
        defect = associator(a, *map(a.basis_vec, idx))
        if any(defect):
            want = idx, defect
            break
    got = None if item.passed else (item.witness.indices, item.witness.defect)
    assert got == want
    assert item.passed == (make in (mat2_assoc, twisted_mat2))
    if got is not None:
        assert all(isinstance(c, Fraction) for c in got[1])


def test_inflated_twist_fails_jacobi_at_the_pinned_witness():
    want = report_oracle(inflated_twist(), "lie").item("bihom_jacobi")
    got = check_lie_axioms(inflated_twist()).item("bihom_jacobi")
    assert got == want
    assert got.witness.names == ("X", "F", "F")
    assert got.witness.defect_str == "6 H"


def test_fraction_and_integer_scans_report_the_same_witnesses():
    # bihom_skewsymmetry and bihom_jacobi sum integer tables and divide the
    # first nonzero defect by their scale; check_flexible's associator
    # defects are Fractions.  Both kinds of witness keep their exact values.
    a = fraction_inflated()
    lie, want = check_lie_axioms(a), report_oracle(a, "lie")
    pins = {
        "bihom_skewsymmetry": (("E11", "E21"), "-7/66 E11"),
        "bihom_jacobi": (("E11", "E11", "E21"), "-182/20625 E12"),
        "alpha_multiplicative": (("E11", "E21"), "5/66 E11"),
    }
    for name, (names, defect) in pins.items():
        item = lie.item(name)
        assert item == want.item(name)
        assert (item.witness.names, item.witness.defect_str) == (names, defect)
    flexible = check_flexible(a).item("flexible")
    assert flexible.witness.names == ("E11", "E11")
    assert flexible.witness.defect_str == "-28/375 E12"
    assert flexible.witness.defect == associator_oracle(
        a, a.basis_vec(0), a.basis_vec(0), a.basis_vec(0)
    )
    assert all(
        isinstance(c, Fraction)
        for item in (flexible, *map(lie.item, pins))
        for c in item.witness.defect
    )
