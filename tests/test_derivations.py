"""Derivation-type solution spaces and the product on their members."""

from fractions import Fraction

import pytest

from bihomlie import derivations as dv
from bihomlie.algebra import ColourAlgebra
from bihomlie.constructions import (
    build_osp12,
    commutator_algebra,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    yau_twist,
    zero_algebra,
)
from bihomlie.derivations import (
    CYCLING_CONVENTIONS,
    DEFAULT_CYCLING,
    HomEndo,
    centroid_space,
    check_jordan_axioms,
    colour_bracket,
    derivation_space,
    generalized_derivation_space,
    inner_derivation_space,
    is_derivation,
    is_generalized_triple,
    is_homogeneous_endo,
    is_quasi_derivation_pair,
    jordan_closure,
    jordan_product,
    quasi_centroid_space,
    quasi_derivation_space,
)
from bihomlie.grading import GradedBasis, GradingGroup, super_bicharacter
from bihomlie.linalg import Matrix, spans_equal

F = Fraction


def osp_derivations():
    a = osp12_classical()
    return a, list(derivation_space(a, 0, 0, (0,)).basis) + list(
        derivation_space(a, 0, 0, (1,)).basis
    )


def _flat(h):
    return tuple(c for row in h.matrix.rows for c in row)


def test_hom_endo_basics():
    m = Matrix.identity(3)
    d = HomEndo(m, (1,))
    assert d.apply((F(1), F(0), F(0))) == (F(1), F(0), F(0))
    assert d.scale(2).matrix == m.scale(2)
    assert d == HomEndo(m, (1,)) and hash(d) == hash(HomEndo(m, (1,)))
    with pytest.raises(ValueError, match="square"):
        HomEndo(Matrix.zero(2, 3), (0,))


def test_homogeneity_detects_the_degree_shift():
    a = osp12_classical()
    m = [[F(0)] * 5 for _ in range(5)]
    m[0][3] = F(1)  # odd generator to even one: an odd map
    m = Matrix(m)
    assert is_homogeneous_endo(a, m, (1,))
    assert not is_homogeneous_endo(a, m, (0,))


# -- dimensions of the solution spaces ---------------------------------------


def test_zero_bracket_constrains_nothing():
    z = zero_algebra(3)
    assert derivation_space(z, 0, 0, ()).dimension == 9
    assert quasi_derivation_space(z, 0, 0, ()).dimension == 18
    assert generalized_derivation_space(z, 0, 0, ()).dimension == 27
    assert inner_derivation_space(z, 0, 0).dimension == 0
    assert centroid_space(z, 0, 0, ()).dimension == 9


def test_osp_solution_space_dimensions():
    a = osp12_classical()
    assert derivation_space(a, 0, 0, (0,)).dimension == 3
    assert derivation_space(a, 0, 0, (1,)).dimension == 2
    assert quasi_derivation_space(a, 0, 0, (0,)).dimension == 4
    assert generalized_derivation_space(a, 0, 0, (0,)).dimension == 5
    assert quasi_centroid_space(a, 0, 0, (0,)).dimension == 1
    assert quasi_centroid_space(a, 0, 0, (1,)).dimension == 0


def test_osp_centroid_is_the_scalars():
    a = osp12_classical()
    res = centroid_space(a, 0, 0, (0,))
    assert res.dimension == 1
    assert any(h.matrix == Matrix.identity(5) for h in res.basis)
    assert centroid_space(a, 0, 0, (1,)).dimension == 0


def test_inner_maps_against_the_derivation_space():
    a, ders = osp_derivations()
    inner = inner_derivation_space(a, 0, 0)
    assert inner.dimension == 5
    # the even slices agree: right multiplication by an even element is an
    # honest derivation
    even = lambda fam: [_flat(d) for d in fam if d.degree == (0,)]
    assert spans_equal(even(ders), even(inner.basis))
    # the odd generators are not: right multiplication by an odd element
    # picks up a parity-dependent sign relative to the weighted Leibniz rule
    for d in inner.basis:
        assert is_derivation(a, 0, 0, d) == (d.degree == (0,))


def test_twisted_derivations_collapse():
    tw = build_osp12(2, 3)
    assert derivation_space(tw, 0, 1, (0,)).dimension == 1
    assert derivation_space(tw, 0, 1, (1,)).dimension == 0
    # only H survives both scaling maps, so one inner generator remains
    assert inner_derivation_space(tw, 0, 0).dimension == 1


def test_identity_power_matches_zero_power():
    # alpha = beta = id, so the exponents cannot matter
    a = osp12_classical()
    assert derivation_space(a, -1, 0, (0,)).dimension == 3


def test_negative_powers_need_regular_maps():
    z = zero_algebra(2)
    sing = ColourAlgebra(
        z.basis, z.eps, z.product, Matrix.zero(2, 2), Matrix.identity(2)
    )
    with pytest.raises(ValueError, match="singular"):
        derivation_space(sing, -1, 0, ())


def test_mat2_centroid_dimension():
    assert centroid_space(mat2_assoc(), 0, 0, ()).dimension == 1


def test_result_metadata():
    a = osp12_classical()
    res = quasi_derivation_space(a, 0, 0, (0,))
    assert len(res.component_basis(0)) == 4
    assert len(res.component_basis(1)) == 4
    d = res.to_dict()
    assert d == {
        "kind": "quasi_derivation",
        "k": 0,
        "l": 0,
        "dimension": 4,
        "degree": [0],
    }
    inner = inner_derivation_space(a, 0, 0).to_dict()
    assert "degree" not in inner and inner["kind"] == "inner"


# -- membership predicates and the classical inclusions ------------------------


def test_centroid_members_pair_with_their_double():
    a = osp12_classical()
    for d in centroid_space(a, 0, 0, (0,)).basis:
        assert is_quasi_derivation_pair(a, 0, 0, d, d.scale(2))
    z = zero_algebra(3)
    for d in centroid_space(z, 0, 0, ()).basis:
        assert is_quasi_derivation_pair(z, 0, 0, d, d.scale(2))


def test_quasi_centroid_members_close_generalized_triples():
    a = osp12_classical()
    zero = HomEndo(Matrix.zero(5, 5), (0,))
    for b in quasi_centroid_space(a, 0, 0, (0,)).basis:
        assert is_generalized_triple(a, 0, 0, b, b.scale(-1), zero)
        # the unnegated middle slot is genuinely different
        assert not is_generalized_triple(a, 0, 0, b, b, zero)


def test_pair_predicate_requires_matching_degrees():
    a, ders = osp_derivations()
    even = next(d for d in ders if d.degree == (0,))
    odd = next(d for d in ders if d.degree == (1,))
    assert not is_quasi_derivation_pair(a, 0, 0, even, odd)


def test_derivation_predicate_needs_map_compatibility():
    tw = build_osp12(2, 3)
    m = [[F(0)] * 5 for _ in range(5)]
    m[0][1] = F(1)  # X to H does not commute with the scalings
    assert not is_derivation(tw, 0, 0, HomEndo(Matrix(m), (0,)))


def test_solver_self_check_message():
    with pytest.raises(RuntimeError, match="its own defining"):
        dv._reverify(False)


# -- the product --------------------------------------------------------------


def test_jordan_product_is_colour_symmetric():
    a, ders = osp_derivations()
    for d1 in ders:
        for d2 in ders:
            lhs = jordan_product(d1, d2, a.eps)
            rhs = jordan_product(d2, d1, a.eps).scale(
                a.eps.eval(d1.degree, d2.degree)
            )
            assert lhs == rhs


def test_odd_self_bracket_is_twice_the_square():
    a = osp12_classical()
    d = derivation_space(a, 0, 0, (1,)).basis[0]
    cb = colour_bracket(d, d, a.eps)
    assert cb.matrix == (d.matrix * d.matrix).scale(2)
    assert cb.degree == (0,)


def test_product_rejects_mismatched_dimensions():
    a = osp12_classical()
    with pytest.raises(ValueError, match="different spaces"):
        jordan_product(
            HomEndo(Matrix.identity(2), (0,)),
            HomEndo(Matrix.identity(3), (0,)),
            a.eps,
        )


def test_closure_of_osp_derivations_fills_the_graded_matrices():
    a, ders = osp_derivations()
    closed = jordan_closure(ders, a.eps)
    # 13 even slots (3x3 + 2x2) plus 12 odd ones (2 off-diagonal blocks)
    assert len(closed) == 25
    assert all(is_homogeneous_endo(a, d.matrix, d.degree) for d in closed)


def test_centroid_is_already_closed():
    a = osp12_classical()
    basis = list(centroid_space(a, 0, 0, (0,)).basis)
    assert len(jordan_closure(basis, a.eps)) == 1


# -- axiom reports on endomorphism families -------------------------------------


def test_derivations_satisfy_the_default_jordan_identity():
    a, ders = osp_derivations()
    ida = Matrix.identity(5)
    rep = check_jordan_axioms(ders, a.eps, ida, ida)
    assert rep.item("colour_commutative").passed
    assert rep.item("jordan_identity").passed
    # the family is not closed, but closure is advisory
    assert not rep.item("closed_under_product").passed
    assert rep.passed and not rep.all_passed


def test_alternate_cycling_is_a_different_identity():
    # rotating (x, z, w) instead of (x, y, w) fails on the same family,
    # which is why the default is frozen the way it is
    a, ders = osp_derivations()
    ida = Matrix.identity(5)
    assert DEFAULT_CYCLING == "xyw" and "xzw" in CYCLING_CONVENTIONS
    rep = check_jordan_axioms(ders, a.eps, ida, ida, cycling="xzw")
    assert not rep.item("jordan_identity").passed
    assert rep.item("jordan_identity").witness is not None


@pytest.mark.parametrize("sign", [1, -1])
def test_quasi_centroid_family_passes_for_both_signs(sign):
    a = osp12_classical()
    qc = list(quasi_centroid_space(a, 0, 0, (0,)).basis) + list(
        quasi_centroid_space(a, 0, 0, (1,)).basis
    )
    ida = Matrix.identity(5)
    rep = check_jordan_axioms(qc, a.eps, ida, ida, sign=sign)
    assert rep.all_passed


def test_unknown_cycling_rejected():
    a = osp12_classical()
    with pytest.raises(ValueError, match="cycling convention"):
        check_jordan_axioms(
            [], a.eps, Matrix.identity(5), Matrix.identity(5), cycling="xy"
        )


def test_require_closed_turns_the_advisory_into_an_error():
    a = osp12_classical()
    adx = HomEndo(
        Matrix.from_cols(
            [
                a.product_eval(a.basis_vec(j), a.basis_vec(1))
                for j in range(5)
            ]
        ),
        (0,),
    )
    ida = Matrix.identity(5)
    with pytest.raises(ValueError, match="not closed"):
        check_jordan_axioms([adx], a.eps, ida, ida, require_closed=True)
    rep = check_jordan_axioms([adx], a.eps, ida, ida)
    assert "leaves the span" in rep.item("closed_under_product").note


def test_noncommuting_structure_maps_are_witnessed():
    z = zero_algebra(2)
    shear_up = Matrix([[F(1), F(1)], [F(0), F(1)]])
    shear_down = Matrix([[F(1), F(0)], [F(1), F(1)]])
    rep = check_jordan_axioms([], z.eps, shear_up, shear_down)
    assert not rep.item("structure_maps_commute").passed
    assert not rep.passed


def test_twisted_commutativity_can_fail_for_bad_maps():
    # postcomposing with a shear that is no morphism breaks the twisted
    # symmetry even though the plain product is symmetric
    z = zero_algebra(2)
    e11 = HomEndo(Matrix([[F(1), F(0)], [F(0), F(0)]]), ())
    e21 = HomEndo(Matrix([[F(0), F(0)], [F(1), F(0)]]), ())
    shear = Matrix([[F(1), F(1)], [F(0), F(1)]])
    rep = check_jordan_axioms([e11, e21], z.eps, shear, Matrix.identity(2))
    item = rep.item("colour_commutative")
    assert not item.passed
    assert item.witness.indices == (0, 1)
    assert item.witness.names == ("D0", "D1")


def test_strict_flag_relaxes_only_the_beta_constraint():
    # on the twisted algebra both readings happen to agree, which is
    # itself worth pinning down
    tw = build_osp12(2, 3)
    assert centroid_space(tw, 0, 0, (0,)).dimension == 1
    assert centroid_space(tw, 0, 0, (0,), strict=True).dimension == 1
    assert quasi_centroid_space(tw, 0, 0, (0,), strict=True).dimension == 1


# ---------------------------------------------------------------------------
# the former dense assembly, kept as the oracle of the sparse block solve


def leibniz_rows_oracle(
    a, gamma, m_power, value_unknown, left_unknown, right_unknown,
    right_sign=F(1),
):
    """Dense rows keyed (unknown, row, col) of
    D_v([x,y]) - [D_l(x), M(y)] - s*eps(g,x)[M(x), D_r(y)]."""
    g = a.basis.group.reduce(gamma)
    mcols = m_power.columns()
    left_table = [
        [a.product_eval(a.basis_vec(t), mj) for t in range(a.dim)]
        for mj in mcols
    ]
    right_table = [
        [a.product_eval(mi, a.basis_vec(t)) for t in range(a.dim)]
        for mi in mcols
    ]
    for i in range(a.dim):
        wi = F(a.eps.eval(g, a.degree(i)))
        for j in range(a.dim):
            cell = a.product[i][j]
            for u in range(a.dim):
                coeffs = {}
                for t in range(a.dim):
                    if value_unknown is not None and cell[t]:
                        key = (value_unknown, u, t)
                        coeffs[key] = coeffs.get(key, F(0)) + cell[t]
                    if left_unknown is not None and left_table[j][t][u]:
                        key = (left_unknown, t, i)
                        coeffs[key] = coeffs.get(key, F(0)) - left_table[j][t][u]
                    if right_unknown is not None and right_table[i][t][u]:
                        key = (right_unknown, t, j)
                        coeffs[key] = (
                            coeffs.get(key, F(0))
                            - right_sign * wi * right_table[i][t][u]
                        )
                if coeffs:
                    yield coeffs


def solve_blocks_oracle(a, gamma, nmaps, commuting, identity_rows):
    """One dense kernel of all rows over the stacked degree-gamma slots."""
    g = a.basis.group.reduce(gamma)
    slots = [
        (u, t)
        for u in range(a.dim)
        for t in range(a.dim)
        if a.degree(u) == a.basis.group.add(a.degree(t), g)
    ]
    if not slots:
        return []
    ncols = nmaps * len(slots)
    col = {}
    for m in range(nmaps):
        for idx, (u, t) in enumerate(slots):
            col[(m, u, t)] = m * len(slots) + idx
    rows = []

    def emit(coeffs):
        row = [F(0)] * ncols
        touched = False
        for key, c in coeffs.items():
            pos = col.get(key)
            if c and pos is not None:
                row[pos] += c
                touched = True
        if touched and any(row):
            rows.append(row)

    for m, M in commuting:
        for u in range(a.dim):
            for j in range(a.dim):
                coeffs = {}
                for t in range(a.dim):
                    if M[t][j]:
                        coeffs[(m, u, t)] = coeffs.get((m, u, t), F(0)) + M[t][j]
                    if M[u][t]:
                        coeffs[(m, t, j)] = coeffs.get((m, t, j), F(0)) - M[u][t]
                emit(coeffs)
    for coeffs in identity_rows():
        emit(coeffs)
    if rows:
        kernel = Matrix(rows).kernel_basis()
    else:
        kernel = [
            tuple(F(int(i == k)) for i in range(ncols)) for k in range(ncols)
        ]
    out = []
    for kv in kernel:
        mats = []
        for m in range(nmaps):
            entries = [[F(0)] * a.dim for _ in range(a.dim)]
            for idx, (u, t) in enumerate(slots):
                entries[u][t] = kv[m * len(slots) + idx]
            mats.append(Matrix(entries))
        out.append(tuple(mats))
    return out


# kind -> (solver, number of unknowns, Leibniz conditions, takes ``strict``)
SOLVER_KINDS = {
    "derivation": (derivation_space, 1, [(0, 0, 0)], False),
    "quasi_derivation": (quasi_derivation_space, 2, [(1, 0, 0)], False),
    "generalized_derivation": (
        generalized_derivation_space, 3, [(2, 0, 1)], False,
    ),
    "centroid": (centroid_space, 1, [(0, 0, None), (0, None, 0)], True),
    "quasi_centroid": (quasi_centroid_space, 1, [(None, 0, 0, F(-1))], True),
}


def solver_oracle(kind, a, k, l, gamma, strict=False):
    _, nmaps, conditions, _ = SOLVER_KINDS[kind]
    m = a.ab_power(k, l)
    commuting = [(u, a.alpha) for u in range(nmaps)]
    if not strict:
        commuting += [(u, a.beta) for u in range(nmaps)]

    def rows():
        for cond in conditions:
            yield from leibniz_rows_oracle(a, gamma, m, *cond)

    return solve_blocks_oracle(a, gamma, nmaps, commuting, rows)


def gl21_twist():
    """gl(2|1): the commutator algebra of the Z2-graded 3x3 matrix units
    (E11, E12, E21, E22 even), Yau-twisted by the diagonal conjugations
    with (1, 2, 3) and (1, 5, 7)."""
    parity = (0, 0, 1)
    units = [(i, j) for i in range(3) for j in range(3)]
    basis = GradedBasis(
        GradingGroup(0, (2,)),
        tuple(f"E{i + 1}{j + 1}" for i, j in units),
        tuple(((parity[i] + parity[j]) % 2,) for i, j in units),
    )
    product = [
        [[F(int(j == k and (i, l) == u)) for u in units] for k, l in units]
        for i, j in units
    ]
    assoc = ColourAlgebra(
        basis, super_bicharacter(), product, Matrix.identity(9),
        Matrix.identity(9), kind="associative",
    )

    def conjugation(d):
        return Matrix.diagonal([F(d[i], d[j]) for i, j in units])

    return yau_twist(
        commutator_algebra(assoc), conjugation((1, 2, 3)), conjugation((1, 5, 7))
    )


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
    "gl21_twist": gl21_twist,
}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_block_solves_match_the_dense_oracle(name):
    a = ORACLE_ALGEBRAS[name]()
    group = a.basis.group
    degrees = sorted(
        {group.sub(du, dt) for du in a.basis.degrees for dt in a.basis.degrees}
    )
    for k, l in ((0, 0), (1, 0), (0, 1), (-1, 1)):
        for gamma in degrees:
            for kind, (solver, _, _, has_strict) in SOLVER_KINDS.items():
                for strict in (False, True) if has_strict else (False,):
                    extra = {"strict": True} if strict else {}
                    want = solver_oracle(kind, a, k, l, gamma, strict)
                    basis = solver(a, k, l, gamma, **extra).basis
                    got = [
                        tuple(e.matrix for e in entry)
                        if isinstance(entry, tuple)
                        else (entry.matrix,)
                        for entry in basis
                    ]
                    assert got == want, (kind, k, l, gamma, strict)
