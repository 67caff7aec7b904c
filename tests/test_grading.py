"""Grading groups, degree arithmetic, and bicharacter invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihomlie.grading import (
    Bicharacter,
    GradedBasis,
    GradingGroup,
    GroupMismatchError,
    format_degree,
    format_group,
    homogeneous_degree,
    parse_degree,
    parse_group,
    super_bicharacter,
    trivial_bicharacter,
)


class TestGroupParsing:
    @pytest.mark.parametrize(
        "token, free, torsion",
        [
            ("0", 0, ()),
            ("Z", 1, ()),
            ("Z2", 0, (2,)),
            ("Z x Z", 2, ()),
            ("Z x Z3", 1, (3,)),
            ("Z2 x Z2", 0, (2, 2)),
        ],
    )
    def test_accepts(self, token, free, torsion):
        g = parse_group(token)
        assert (g.free_rank, g.torsion) == (free, torsion)

    def test_round_trips_through_format(self):
        for token in ("0", "Z", "Z2 x Z4", "Z x Z x Z2"):
            assert format_group(parse_group(token)) == token

    def test_rejects_torsion_before_free(self):
        with pytest.raises(ValueError):
            parse_group("Z2 x Z")

    def test_rejects_garbage_factor(self):
        with pytest.raises(ValueError, match="bad group factor"):
            parse_group("Q")


def test_reduce_wraps_torsion_components():
    g = GradingGroup(1, (2, 3))
    assert g.reduce((5, 7, -1)) == (5, 1, 2)
    assert g.add((0, 1, 2), (0, 1, 2)) == (0, 0, 1)
    assert g.neg((1, 1, 1)) == (-1, 1, 2)


def test_wrong_rank_raises():
    g = GradingGroup(0, (2,))
    with pytest.raises(GroupMismatchError):
        g.reduce((1, 0))


def _sub_by_negation(group, g, h):
    """g - h as the sum with the negation, the definition sub keeps."""
    return group.add(g, group.neg(h))


@pytest.mark.parametrize(
    "group, elements",
    [
        (GradingGroup(0, (2, 2)), [(0, 0), (0, 1), (1, 0), (1, 1)]),
        (GradingGroup(0, (3,)), [(a,) for a in range(3)]),
        (
            GradingGroup(1, (2,)),
            [(0, 0), (1, 1), (-3, 0), (7, 1), (-12, 1)],
        ),
    ],
)
def test_sub_is_the_sum_with_the_negation(group, elements):
    for g in elements:
        for h in elements:
            assert group.sub(g, h) == _sub_by_negation(group, g, h)


def test_sub_refuses_a_wrong_rank_as_the_sum_with_the_negation_does():
    group = GradingGroup(1, (2,))
    # h is checked before g, so with both wrong the error names h
    for g, h in (((1, 0, 0), (1, 1)), ((1, 1), (1,)), ((1,), (1, 0, 1))):
        with pytest.raises(GroupMismatchError) as want:
            _sub_by_negation(group, g, h)
        with pytest.raises(GroupMismatchError) as got:
            group.sub(g, h)
        assert str(got.value) == str(want.value)


def test_degree_string_round_trip():
    g = GradingGroup(2, ())
    d = parse_degree(g, "3,-4")
    assert d == (3, -4)
    assert format_degree(d) == "3,-4"
    assert parse_degree(GradingGroup(0, ()), "") == ()


def test_super_bicharacter_values():
    eps = super_bicharacter()
    odd, even = (1,), (0,)
    assert eps.eval(odd, odd) == -1
    assert eps.eval(odd, even) == 1
    assert eps.eval(even, even) == 1


def test_bicharacter_answers_unreduced_degrees_warm_or_cold():
    # (3,) is (1,) in Z2: the cache holds reduced pairs, and an unreduced
    # or unhashable degree is reduced first, before or after a cached hit
    for order in ((3,), (1,)), ((1,), (3,)):
        eps = super_bicharacter()
        for g in order:
            assert eps.eval(g, (1,)) == -1
            assert eps.eval((1,), g) == -1
        assert eps.eval([3], [5]) == -1
        assert eps.eval((2,), (3,)) == 1
        assert set(eps._cache) <= {((1,), (1,)), ((0,), (1,)), ((1,), (0,))}
        with pytest.raises(GroupMismatchError):
            eps.eval((1, 0), (1,))
    mixed = Bicharacter(GradingGroup(1, (2,)), [[1, 1], [1, -1]])
    assert mixed.eval((5, 3), (-2, 1)) == mixed.eval((5, 1), (-2, 1)) == -1


def test_bicharacter_rejects_non_sign_values():
    group = GradingGroup(0, (2,))
    bad = Bicharacter(group, [[2]])
    assert any("not +-1" in p for p in bad.problems())
    with pytest.raises(ValueError):
        bad.validate()


def test_bicharacter_rejects_minus_one_on_odd_torsion():
    group = GradingGroup(0, (3,))
    bad = Bicharacter(group, [[-1]])
    assert any("odd-order" in p for p in bad.problems())


_z2z2 = GradingGroup(0, (2, 2))
_eps_colour = Bicharacter(_z2z2, [[1, -1], [-1, 1]])
_elements = st.tuples(
    st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)
)


@given(_elements, _elements, _elements)
def test_bicharacter_is_bimultiplicative(a, b, c):
    eps = _eps_colour
    lhs = eps.eval(_z2z2.add(a, b), c)
    assert lhs == eps.eval(a, c) * eps.eval(b, c)
    rhs = eps.eval(a, _z2z2.add(b, c))
    assert rhs == eps.eval(a, b) * eps.eval(a, c)


@given(_elements, _elements)
def test_bicharacter_skewsymmetry_identity(a, b):
    assert _eps_colour.eval(a, b) * _eps_colour.eval(b, a) == 1


def test_eval_many_matches_summed_degree():
    gs = [(1, 0), (0, 1), (1, 1)]
    h = (1, 0)
    assert _eps_colour.eval_many(gs, h) == _eps_colour.eval(
        _z2z2.sum(gs), h
    )


def test_graded_basis_rejects_duplicates():
    g = GradingGroup(0, (2,))
    with pytest.raises(ValueError, match="duplicate"):
        GradedBasis(g, ("a", "a"), ((0,), (1,)))


def test_homogeneous_degree_detection():
    g = GradingGroup(0, (2,))
    basis = GradedBasis(g, ("x", "y", "f"), ((0,), (0,), (1,)))
    assert homogeneous_degree(basis, (1, 2, 0)) == (True, (0,))
    assert homogeneous_degree(basis, (0, 0, 0)) == (True, None)
    ok, _ = homogeneous_degree(basis, (1, 0, 1))
    assert not ok


def test_trivial_bicharacter_is_all_ones():
    g = GradingGroup(1, (2,))
    eps = trivial_bicharacter(g)
    assert eps.eval((3, 1), (-2, 1)) == 1
