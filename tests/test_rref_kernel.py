"""The fraction-free RREF kernel against a plain Fraction Gauss-Jordan."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie._rref_py import rref
from bihomlie.linalg import BACKEND


def fraction_rref(rows):
    """Textbook Gauss-Jordan in Fraction arithmetic, same pivot rule."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    prow = 0
    for pcol in range(ncols):
        if prow == nrows:
            break
        hit = next((i for i in range(prow, nrows) if m[i][pcol]), -1)
        if hit < 0:
            continue
        m[prow], m[hit] = m[hit], m[prow]
        inv = Fraction(1) / m[prow][pcol]
        m[prow] = [x * inv for x in m[prow]]
        lead = m[prow]
        for i in range(nrows):
            f = m[i][pcol]
            if i != prow and f:
                m[i] = [a - f * b for a, b in zip(m[i], lead)]
        pivots.append(pcol)
        prow += 1
    return m, pivots


def assert_agrees(rows):
    snapshot = [list(r) for r in rows]
    got = rref(rows)
    assert got == fraction_rref(rows)
    assert rows == snapshot  # the input is left alone
    for row in got[0]:
        assert all(type(x) is Fraction for x in row)


fractions = st.builds(
    Fraction,
    st.integers(-30, 30),
    st.sampled_from([1, 1, 1, 2, 3, 5, 7, 12]),
)


@st.composite
def matrices(draw, sparse=False):
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    entry = (
        st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)
        if sparse
        else fractions
    )
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def rank_deficient(draw):
    """Rows that are rational combinations of fewer generating rows."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(fractions, min_size=ncols, max_size=ncols)
    gens = draw(st.lists(row, min_size=1, max_size=3))
    nrows = draw(st.integers(len(gens) + 1, 8))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(fractions, min_size=len(gens), max_size=len(gens)))
        rows.append(
            [
                sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
                for j in range(ncols)
            ]
        )
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_matches_fraction_gauss_jordan(rows):
    assert_agrees(rows)


@settings(max_examples=200, deadline=None)
@given(matrices(sparse=True))
def test_kernel_matches_on_sparse_matrices(rows):
    assert_agrees(rows)


@settings(max_examples=200, deadline=None)
@given(rank_deficient())
def test_kernel_matches_on_rank_deficient_matrices(rows):
    rank = len(rref(rows)[1])
    assert rank < len(rows)
    assert_agrees(rows)


def test_degenerate_shapes():
    for rows in ([], [[]], [[], []], [[Fraction(0)]], [[Fraction(0)] * 3] * 4):
        assert_agrees(rows)
    assert rref([[Fraction(0)] * 3] * 2) == ([[Fraction(0)] * 3] * 2, [])


def test_the_one_kernel_is_named_pure():
    assert BACKEND == "pure"
