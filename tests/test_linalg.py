"""Exact linear algebra kernel: RREF, rank, kernels, solving."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie.linalg import (
    Matrix,
    in_span,
    is_zero_vec,
    kernel_by_blocks,
    span_rank,
    spans_equal,
    vadd,
    vec,
    vscale,
    vsub,
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


def test_matrix_from_empty_columns_keeps_their_count():
    m = Matrix.from_cols([(), ()])
    assert (m.nrows, m.ncols) == (0, 2)


def test_transpose_of_a_matrix_without_columns_keeps_its_rows():
    m = Matrix.zero(3, 0).transpose()
    assert (m.nrows, m.ncols) == (0, 3)
    assert m.transpose() == Matrix.zero(3, 0)


def test_columns_of_a_matrix_without_rows_are_empty_vectors():
    assert Matrix.zero(0, 3).columns() == ((), (), ())


def test_matrices_without_rows_differ_by_their_width():
    assert Matrix.zero(0, 3) != Matrix.zero(0, 0)
    assert hash(Matrix.zero(0, 3)) != hash(Matrix.zero(0, 0))
    assert Matrix.zero(0, 3) == Matrix([], 3)
    assert hash(Matrix.zero(0, 3)) == hash(Matrix([], 3))


def test_width_must_match_the_rows():
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_products_and_sums_keep_the_shape():
    a = Matrix.zero(0, 2)
    assert (a * Matrix.zero(2, 4)).ncols == 4
    assert (a + a).ncols == 2
    assert (a - a).ncols == 2
    assert a.scale(3).ncols == 2
    assert a.rref()[0].ncols == 2


def test_vector_arithmetic_skipping_zeros_keeps_the_values():
    u = vec([0, 1, Fraction(1, 2), -3])
    v = vec([2, 0, Fraction(-1, 2), 1])
    assert vadd(u, v) == vec([2, 1, 0, -2])
    assert vsub(u, v) == vec([-2, 1, 1, -4])
    assert vscale(Fraction(2), u) == vec([0, 2, 1, -6])
    assert vscale(Fraction(0), u) == vec([0, 0, 0, 0])
    assert vscale(Fraction(1), u) == u
    for w in (vadd(u, v), vsub(u, v), vscale(Fraction(2), u)):
        assert all(isinstance(x, Fraction) for x in w)


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


def _dense_rows(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def _as_dense(coords, ncols):
    return tuple(coords.get(c, Fraction(0)) for c in range(ncols))


@st.composite
def _sparse_systems(draw):
    """Sparse rows {column: value} on 0-10 x 0-12, with columns no row
    touches, all-zero columns, explicit zero values, and rows that are
    combinations of others, so that they reduce to zero."""
    ncols = draw(st.integers(min_value=0, max_value=12))
    nrows = draw(st.integers(min_value=0, max_value=10))
    values = st.integers(min_value=-3, max_value=3).map(Fraction)
    rows = []
    for _ in range(nrows):
        if ncols == 0:
            rows.append({})
            continue
        used = draw(
            st.lists(
                st.integers(min_value=0, max_value=ncols - 1),
                max_size=4,
                unique=True,
            )
        )
        rows.append({c: draw(values) for c in used})
    dependent = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if len(rows) < 2:
            break
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = draw(values)
        combo = dict(rows[i])
        for col, x in rows[j].items():
            combo[col] = combo.get(col, Fraction(0)) + c * x
        dependent.append(combo)
    return rows + dependent, ncols


@settings(max_examples=300, deadline=None)
@given(_sparse_systems())
def test_block_kernel_equals_the_dense_kernel(system):
    rows, ncols = system
    got = [_as_dense(v, ncols) for v in kernel_by_blocks(rows, ncols)]
    want = Matrix(_dense_rows(rows, ncols), ncols).kernel_basis()
    assert got == want
    for v in kernel_by_blocks(rows, ncols):
        assert all(v.values())


def test_block_kernel_on_hand_built_blocks():
    # columns 0 and 3 are linked, 1 is forced to zero, 2 is untouched and
    # the last row cancels against the first
    rows = [{0: Fraction(1), 3: Fraction(-2)}, {1: Fraction(5)},
            {0: Fraction(-2), 3: Fraction(4)}, {4: Fraction(0)}]
    assert kernel_by_blocks(rows, 5) == [
        {2: Fraction(1)},
        {0: Fraction(2), 3: Fraction(1)},
        {4: Fraction(1)},
    ]
