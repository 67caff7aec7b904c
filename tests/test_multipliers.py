"""Multiplier tables, their validation, and the two rescaling twists."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie.algebra import ColourAlgebra, check_lie_axioms
from bihomlie.constructions import osp12_classical, z2z2_colour_example
from bihomlie.grading import (
    GradedBasis,
    GradingGroup,
    parse_group,
    trivial_bicharacter,
)
from bihomlie.linalg import MAX_SCALAR_DIGITS, Matrix
from bihomlie.multipliers import (
    MissingEntryError,
    MultiplierTable,
    delta_table,
    delta_twist,
    multiplier_from_omega,
    sigma_twist,
    validate_multiplier,
)

from fixtures import table_from_rule

F = Fraction
Z2 = parse_group("Z2")
Z2Z2 = parse_group("Z2 x Z2")


def test_zero_value_rejected():
    with pytest.raises(ValueError, match="value 0"):
        MultiplierTable(Z2, {((0,), (0,)): 0})


def test_lookup_outside_table_is_an_error():
    s = MultiplierTable(Z2, {((0,), (0,)): 1})
    assert s.value((0,), (0,)) == 1
    with pytest.raises(MissingEntryError, match="no entry"):
        s.value((0,), (1,))
    assert ((1,), (0,)) not in s


def test_keys_are_reduced_mod_torsion():
    s = MultiplierTable(Z2, {((2,), (3,)): F(5)})
    assert s.value((0,), (1,)) == 5
    assert s((4,), (-1,)) == 5


def test_constant_table_covers_pairwise_sums():
    s = MultiplierTable.constant(Z2Z2, [(1, 0), (0, 1)], F(1, 2))
    # (1,0)+(0,1) = (1,1) and (1,0)+(1,0) = (0,0) must both be reachable
    assert s.value((1, 1), (0, 0)) == F(1, 2)


def test_validate_symmetric_detects_asymmetry():
    s = table_from_rule(Z2, [(0,), (1,)], lambda g, h: 2 if g < h else 1)
    report = validate_multiplier(s, [(0,), (1,)], mode="symmetric")
    item = report.item("symmetric")
    assert not item.passed
    assert item.witness is not None


def test_validate_symmetric_detects_cyclic_failure():
    # symmetric, but sigma(0,0) != sigma(0,1) breaks the rotation
    # invariance of sigma(x,y) sigma(z,x+y) at (0,0,1)
    vals = {
        ((0,), (0,)): 1,
        ((0,), (1,)): 2,
        ((1,), (0,)): 2,
        ((1,), (1,)): 1,
    }
    s = MultiplierTable(Z2, vals)
    report = validate_multiplier(s, [(0,), (1,)], mode="symmetric")
    assert report.item("symmetric").passed
    assert not report.item("cyclic_invariance").passed


def test_validate_rejects_unknown_mode():
    s = MultiplierTable.constant(Z2, [(0,)])
    with pytest.raises(ValueError, match="mode"):
        validate_multiplier(s, [(0,)], mode="associative")


def test_bicharacter_like_rule_is_a_cocycle():
    s = table_from_rule(
        Z2Z2, [(1, 0), (0, 1), (1, 1)], lambda g, h: (-1) ** (g[1] * h[0])
    )
    report = validate_multiplier(
        s, [(1, 0), (0, 1), (1, 1)], mode="cocycle"
    )
    assert report.passed


def test_mod2_exponent_rule_with_base_3_fails_cocycle():
    # 3^(x2 y1) respects the group law only mod 2, not in the exponent
    s = table_from_rule(
        Z2Z2, [(1, 0), (0, 1), (1, 1)], lambda g, h: F(3) ** (g[1] * h[0])
    )
    report = validate_multiplier(
        s, [(1, 0), (0, 1), (1, 1)], mode="cocycle"
    )
    item = report.item("cocycle")
    assert not item.passed
    assert item.witness is not None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(
            min_value=F(-8), max_value=F(8), max_denominator=6
        ).filter(bool),
        min_size=4,
        max_size=4,
    )
)
def test_omega_quotients_always_validate_symmetric(ws):
    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]
    omega = dict(zip(elements, ws))
    s = multiplier_from_omega(Z2Z2, omega, elements)
    assert validate_multiplier(s, elements, mode="symmetric").passed


def test_omega_needs_values_on_sums():
    with pytest.raises(MissingEntryError, match="omega"):
        multiplier_from_omega(Z2, {(1,): 2}, [(1,)])  # omega(0) missing


def test_omega_zero_value_rejected():
    with pytest.raises(ValueError, match="omega value 0"):
        multiplier_from_omega(Z2, {(0,): 0, (1,): 1}, [(0,), (1,)])


def test_sigma_twist_passes_suite_on_super_example():
    omega = {(0,): F(2), (1,): F(1, 3)}
    s = multiplier_from_omega(Z2, omega, [(0,), (1,)])
    a = osp12_classical()
    tw = sigma_twist(a, s)
    assert check_lie_axioms(tw).passed
    # structure maps and bicharacter are untouched
    assert tw.alpha == a.alpha and tw.eps == a.eps
    # {F,F} picks up sigma(1,1) = omega(0)/omega(1)^2 = 18
    i = a.basis.index("F")
    assert tw.product[i][i][a.basis.index("Y")] == 36


def test_sigma_twist_rejects_asymmetric_table():
    a = osp12_classical()
    s = table_from_rule(Z2, [(0,), (1,)], lambda g, h: 2 if g < h else 1)
    with pytest.raises(ValueError, match="symmetric"):
        sigma_twist(a, s)


def test_sigma_twist_rejects_wrong_group():
    s = MultiplierTable.constant(Z2Z2, [(0, 0)])
    with pytest.raises(ValueError, match="group"):
        sigma_twist(osp12_classical(), s)


def test_sigma_twist_propagates_missing_entries():
    a = osp12_classical()
    s = MultiplierTable(Z2, {((0,), (0,)): 1})
    with pytest.raises(MissingEntryError):
        sigma_twist(a, s)


def test_delta_table_values():
    s = table_from_rule(
        Z2Z2, [(1, 0), (0, 1)], lambda g, h: (-1) ** (g[1] * h[0])
    )
    d = delta_table(s, [(1, 0), (0, 1)])
    # sigma((1,0),(0,1)) = 1 but sigma((0,1),(1,0)) = -1
    assert d[(1, 0), (0, 1)] == -1
    assert d[(0, 1), (1, 0)] == -1
    assert d[(1, 0), (1, 0)] == 1


def test_delta_twist_flips_the_bicharacter():
    a = z2z2_colour_example()
    s = table_from_rule(
        Z2Z2,
        [(1, 0), (0, 1), (1, 1)],
        lambda g, h: (-1) ** (g[1] * h[0]),
    )
    tw = delta_twist(a, s)
    assert check_lie_axioms(tw).passed
    # delta on generators is -1 both ways, cancelling the colour signs
    assert tw.eps.gen_values == ((1, 1), (1, 1))
    # [a,b] keeps its sign, [b,a] flips
    ia, ib, ic = 0, 1, 2
    assert tw.product[ia][ib][ic] == 1
    assert tw.product[ib][ia][ic] == -1


def test_delta_twist_rejects_cocycle_failure():
    a = z2z2_colour_example()
    s = table_from_rule(
        Z2Z2,
        [(1, 0), (0, 1), (1, 1)],
        lambda g, h: F(3) ** (g[1] * h[0]),
    )
    with pytest.raises(ValueError, match="cocycle"):
        delta_twist(a, s)


def _free_zero_algebra():
    group = GradingGroup(2, ())
    basis = GradedBasis(group, ("u", "v"), ((1, 0), (0, 1)))
    zero = (F(0), F(0))
    return ColourAlgebra(
        basis,
        trivial_bicharacter(group),
        [[zero, zero], [zero, zero]],
        Matrix.identity(2),
        Matrix.identity(2),
        kind="lie",
    )


def test_delta_twist_refuses_non_sign_ratio():
    # over a free group 3^(g2 h1) is an honest cocycle, but its delta is
    # 1/3 on the generator pair: not representable in our scalars
    a = _free_zero_algebra()
    s = table_from_rule(
        a.basis.group,
        [(1, 0), (0, 1)],
        lambda g, h: F(3) ** (g[1] * h[0]),
    )
    with pytest.raises(ValueError, match="unsupported field extension"):
        delta_twist(a, s)


def test_delta_twist_trivial_multiplier_is_identity():
    a = z2z2_colour_example()
    s = MultiplierTable.constant(
        Z2Z2, [(1, 0), (0, 1), (1, 1)], 1
    )
    assert delta_twist(a, s) == a


def test_a_defect_too_large_to_write_names_the_degrees():
    # sigma(0, 1) is inside the bound; the symmetric defect at (0, 1) has
    # 4,000 digits and is written, the cyclic one at (0, 0, 1) has 8,000
    big = 10**4000
    s = MultiplierTable(
        Z2,
        {((0,), (0,)): 1, ((0,), (1,)): big, ((1,), (0,)): 1, ((1,), (1,)): 1},
    )
    with pytest.raises(ValueError) as caught:
        validate_multiplier(s, [(0,), (1,)], mode="symmetric")
    assert str(caught.value) == (
        "the defect at degrees (0); (0); (1) has more than "
        f"{MAX_SCALAR_DIGITS} digits, more than a .alg scalar may have"
    )
    rep = validate_multiplier(
        MultiplierTable(Z2, {**s.entries, ((0,), (1,)): 10**40}),
        [(0,), (1,)],
        mode="symmetric",
    )
    assert rep.item("symmetric").witness.defect_str == str(10**40 - 1)
