"""The library's one elimination kernel, the fraction-free sparse
``EchelonBasis`` behind ``Matrix.rref``, ``Matrix.rank`` and span
membership, against a plain Fraction Gauss-Jordan."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie.linalg import BACKEND, EchelonBasis, Matrix
from dense_oracles import fraction_rref, in_span


def rref(rows):
    """``Matrix.rref`` of ``rows`` as lists, in the oracle's form."""
    reduced, pivots = Matrix(rows, len(rows[0]) if rows else 0).rref()
    return [list(row) for row in reduced.rows], pivots


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


# numerators of 2^64 and more over prime denominators, some of them word
# sized: the integer rows of the kernel carry these through every update
primes = st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1, 2**61 - 1])
large_fractions = st.builds(
    lambda n, d: Fraction(n, d),
    st.one_of(st.integers(2**64, 2**100), st.integers(-(2**100), -(2**64))),
    primes,
)


@st.composite
def large_entry_matrices(draw):
    """Sparse rows of large fractions, some followed by a combination of
    two of them with large coefficients, so that the rank drops."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(Fraction(0)), large_fractions)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        c, d = draw(large_fractions), draw(large_fractions)
        rows.append([c * x + d * y for x, y in zip(a, b)])
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


@settings(max_examples=150, deadline=None)
@given(large_entry_matrices(), st.data())
def test_rref_rank_and_membership_match_on_large_entries(rows, data):
    assert_agrees(rows)
    m = Matrix(rows, len(rows[0]) if rows else 0)
    assert m.rank() == len(fraction_rref(rows)[1])
    span = EchelonBasis()
    for row in m.rows:
        span.add(row)
    probes = list(m.rows)
    if rows:
        entry = st.one_of(st.just(Fraction(0)), large_fractions)
        outside = [data.draw(entry) for _ in range(m.ncols)]
        c = data.draw(large_fractions)
        inside = [c * x + y for x, y in zip(rows[0], rows[-1])]
        probes += [tuple(outside), tuple(inside)]
        if m.ncols:
            # one unit off a member of the span
            probes.append((inside[0] + 1, *inside[1:]))
    for v in probes:
        assert (v in span) is in_span(list(m.rows), v)


def test_echelon_readout_leaves_the_span_alone():
    span = EchelonBasis()
    for v in ([0, 2, 4, 0], [3, 0, 1, 1], [0, 0, 5, 10]):
        span.add(tuple(map(Fraction, v)))
    first = span.rref()
    assert [p for p, _ in first] == [0, 1, 2]
    assert first == span.rref()
    assert tuple(map(Fraction, [0, 1, 0, -4])) in span
    assert not span.add(tuple(map(Fraction, [3, 1, 3, 1])))


def test_degenerate_shapes():
    for rows in ([], [[]], [[], []], [[Fraction(0)]], [[Fraction(0)] * 3] * 4):
        assert_agrees(rows)
    assert rref([[Fraction(0)] * 3] * 2) == ([[Fraction(0)] * 3] * 2, [])


def test_the_one_kernel_is_named_pure():
    assert BACKEND == "pure"
