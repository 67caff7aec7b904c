"""Exact linear algebra kernel: RREF, rank, kernels, solving."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie.linalg import (
    Matrix,
    in_span,
    is_zero_vec,
    span_rank,
    spans_equal,
    vec,
)


def test_rref_canonical_form():
    m = Matrix([[2, 4, 6], [1, 2, 4], [0, 0, 2]])
    reduced, pivots = m.rref()
    assert pivots == [0, 2]
    assert reduced == Matrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_is_idempotent():
    m = Matrix([[1, 3, 1], [2, 7, 3], [1, 5, 3]])
    reduced, _ = m.rref()
    again, _ = reduced.rref()
    assert again == reduced


def test_kernel_vectors_annihilate():
    m = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]])
    kern = m.kernel_basis()
    assert len(kern) == 2
    for v in kern:
        assert is_zero_vec(m.apply(v))


def test_kernel_of_empty_matrix_is_everything():
    assert Matrix([]).ncols == 0
    m = Matrix.zero(0, 0)
    assert m.kernel_basis() == []


def test_zero_matrix_without_rows_keeps_its_columns():
    m = Matrix.zero(0, 3)
    assert (m.nrows, m.ncols) == (0, 3)
    assert m.rank() == 0
    assert m.kernel_basis() == [
        vec([1, 0, 0]),
        vec([0, 1, 0]),
        vec([0, 0, 1]),
    ]


def test_solve_exact_fractions():
    m = Matrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    b = vec([2, 3])
    x = m.solve(b)
    assert x is not None
    assert m.apply(x) == b


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 1], [1, 1]])
    assert m.solve(vec([1, 2])) is None


def test_solve_many_mixed_consistency():
    m = Matrix([[1, 0], [0, 0]])
    good, bad = m.solve_many([vec([5, 0]), vec([0, 1])])
    assert good == vec([5, 0])
    assert bad is None


def test_invert_round_trip():
    m = Matrix([[1, 2], [3, 5]])
    assert m * m.invert() == Matrix.identity(2)
    assert m.invert() * m == Matrix.identity(2)


def test_invert_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        Matrix([[1, 2], [2, 4]]).invert()


def test_power_negative_uses_inverse():
    m = Matrix.diagonal([2, Fraction(1, 3)])
    assert m.power(-2) == Matrix.diagonal([Fraction(1, 4), 9])
    assert m.power(0) == Matrix.identity(2)


@pytest.mark.parametrize(
    "cols, v, inside",
    [
        ([(1, 0, 0), (0, 1, 0)], (3, -2, 0), True),
        ([(1, 0, 0), (0, 1, 0)], (0, 0, 1), False),
        ([], (0, 0), True),
        ([], (1, 0), False),
    ],
)
def test_in_span(cols, v, inside):
    assert in_span([vec(c) for c in cols], vec(v)) is inside


def test_spans_equal_under_basis_change():
    a = [vec([1, 0, 1]), vec([0, 1, 1])]
    b = [vec([1, 1, 2]), vec([1, -1, 0])]
    assert spans_equal(a, b)
    assert not spans_equal(a, [vec([1, 0, 0])])


_entries = st.integers(min_value=-6, max_value=6).map(Fraction)


@st.composite
def _matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(_entries, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return Matrix(rows)


@settings(max_examples=120, deadline=None)
@given(_matrices())
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.ncols


@settings(max_examples=120, deadline=None)
@given(_matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_solve_many_verifies(m):
    # solve against columns of m itself: always consistent
    cols = [m.column(j) for j in range(m.ncols)]
    for b, x in zip(cols, m.solve_many(cols)):
        assert x is not None
        assert m.apply(x) == b


def test_span_rank_counts_independent_rows():
    rows = [vec([1, 2]), vec([2, 4]), vec([0, 1])]
    assert span_rank(rows) == 2
    assert span_rank([]) == 0
