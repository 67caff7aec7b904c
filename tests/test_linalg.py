"""Exact linear algebra kernel: RREF, rank, kernels, span membership.

Span membership goes through ``EchelonBasis``; the dense solve lives only in
the test oracles of ``dense_oracles``, which are tested here as well.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bihomlie import derivations, linalg
from bihomlie.cohomology import adjoint_rep
from bihomlie.linalg import (
    EchelonBasis,
    Matrix,
    Vec,
    _strike_forced,
    add_terms,
    first_off_block,
    is_zero_vec,
    kernel_by_blocks,
    vadd,
    vec,
    vscale,
    vsub,
)
from dense_oracles import (
    dense_rank,
    divided,
    echelon_block_kernel,
    in_span,
    kernel_oracle,
    solve_many,
    spans_equal,
)
from fixtures import gl11_fraction_twist, gl21_fraction_twist


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


def test_first_off_block_is_the_row_major_first_offender():
    m = Matrix([[1, 0, 5], [7, 0, 0], [0, 0, 0]])
    # (0, 2) and (1, 0) both leave their block; (1, 0) comes first by column
    assert first_off_block(m, [0, 1, 1], [0, 1, 1]) == (0, 2)
    assert first_off_block(m, [0, 1, 1], [0, 0, 0]) == (1, 0)
    assert first_off_block(m, [0, 0, 0], [0, 0, 0]) is None
    assert first_off_block(Matrix.zero(3, 3), [0, 1, 2], [2, 1, 0]) is None


def test_matrix_from_empty_columns_keeps_their_count():
    m = Matrix.from_cols([(), ()])
    assert (m.nrows, m.ncols) == (0, 2)


def test_transpose_of_a_matrix_without_columns_keeps_its_rows():
    m = Matrix.zero(3, 0).transpose()
    assert (m.nrows, m.ncols) == (0, 3)
    assert m.transpose() == Matrix.zero(3, 0)


def test_columns_of_a_matrix_without_rows_are_empty_vectors():
    assert Matrix.zero(0, 3).columns() == ((), (), ())


def test_column_terms_of_matrices_without_rows_or_columns():
    assert Matrix.zero(0, 3).column_terms() == ((), (), ())
    assert Matrix.from_cols([(), ()]).column_terms() == ((), ())
    assert Matrix.zero(3, 0).column_terms() == ()
    assert Matrix([]).column_terms() == ()
    assert Matrix.zero(0, 3).apply(vec([1, 2, 3])) == ()
    assert Matrix.zero(3, 0).apply(()) == vec([0, 0, 0])


def test_column_terms_are_the_nonzero_entries_of_each_column():
    m = Matrix([[0, 2, 0], [-1, 0, 0], [3, Fraction(1, 2), 0]])
    F = Fraction
    assert m.column_terms() == (
        ((1, F(-1)), (2, F(3))),
        ((0, F(2)), (2, F(1, 2))),
        (),
    )
    assert m.column_terms() is m.column_terms()
    acc = [F(0), F(1), F(0)]
    add_terms(acc, F(-2), m.column_terms()[0])
    assert acc == [F(0), F(3), F(-6)]


def test_matrices_without_rows_differ_by_their_width():
    assert Matrix.zero(0, 3) != Matrix.zero(0, 0)
    assert hash(Matrix.zero(0, 3)) != hash(Matrix.zero(0, 0))
    assert Matrix.zero(0, 3) == Matrix([], 3)
    assert hash(Matrix.zero(0, 3)) == hash(Matrix([], 3))


def test_width_must_match_the_rows():
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_public_constructor_converts_every_entry():
    m = Matrix([[1, "1/2"], [Fraction(2, 3), -4]])
    assert all(type(x) is Fraction for row in m.rows for x in row)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    assert m.rows == ((1, half), (two_thirds, -4))
    assert m == Matrix.from_cols(
        [[Fraction(1), two_thirds], [half, Fraction(-4)]]
    )


def test_public_constructor_refuses_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix([[1], [2, 3]])


def test_internal_results_are_tuples_of_fractions():
    # the results the library builds without conversion compare equal to
    # the same matrices through the public constructor
    m = Matrix([[1, 2, 0], [2, 4, 1]])
    reduced, _ = m.rref()
    assert reduced == Matrix([[1, 2, 0], [0, 0, 1]])
    square = Matrix([[1, Fraction(1, 2)], [2, Fraction(-3, 7)]])
    rep = adjoint_rep(gl11_fraction_twist(), 0, 1)
    action = rep.rho_of(vec([Fraction(1, 3), 0, Fraction(-5, 2), 1]))
    for out in (reduced, m + m, m - m, m.scale(3), m.transpose(),
                m * m.transpose(), square.power(3), square.power(-1),
                square.invert(), action):
        assert all(type(row) is tuple for row in out.rows)
        assert all(type(x) is Fraction for row in out.rows for x in row)
        want = Matrix(out.rows, out.ncols)
        assert out == want
        assert out.rows == want.rows
        assert out.column_terms() == want.column_terms()
        scale, cols = out.int_column_terms()
        assert tuple(
            tuple((u, Fraction(x, scale)) for u, x in col) for col in cols
        ) == want.column_terms()
        assert hash(out) == hash(want)
        for again in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert again == want and again.rows == want.rows


def test_echelon_basis_takes_sparse_columns():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    span = EchelonBasis()
    assert [span.add_sparse(t) for t in m.column_terms()] == [
        True, True, False
    ]
    assert vec([0, 0, 1]) in span and vec([1, 0, 0]) not in span


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
    (x,) = solve_many(m, [b])
    assert x is not None
    assert m.apply(x) == b


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 1], [1, 1]])
    assert solve_many(m, [vec([1, 2])]) == [None]


def test_solve_many_mixed_consistency():
    m = Matrix([[1, 0], [0, 0]])
    good, bad = solve_many(m, [vec([5, 0]), vec([0, 1])])
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


def test_power_of_a_large_exponent_squares():
    # square and multiply: 22 products, where repeated products took 100000
    assert Matrix([[1, 1], [0, 1]]).power(100000) == Matrix([[1, 100000], [0, 1]])


def test_power_equals_the_repeated_product():
    m = Matrix(
        [[Fraction(1, 2), 3, 0], [Fraction(-2, 3), 1, 5], [0, 1, Fraction(1, 7)]]
    )
    inverse = m.invert()
    for k in range(-4, 7):
        want = Matrix.identity(3)
        for _ in range(abs(k)):
            want = want * (m if k >= 0 else inverse)
        assert m.power(k) == want


def test_power_of_a_singular_matrix_with_negative_k_raises():
    with pytest.raises(ValueError, match="singular"):
        Matrix([[1, 2], [2, 4]]).power(-3)


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
    span = EchelonBasis()
    for c in cols:
        span.add(vec(c))
    assert (vec(v) in span) is inside


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
    for b, x in zip(cols, solve_many(m, cols)):
        assert x is not None
        assert m.apply(x) == b


def test_echelon_basis_keeps_the_independent_rows():
    span = EchelonBasis()
    rows = [vec([1, 2]), vec([2, 4]), vec([0, 1])]
    assert [span.add(v) for v in rows] == [True, False, True]
    assert vec([0, 0]) in span and vec([3, -1]) in span


@st.composite
def _vector_streams(draw):
    """Sparse vectors of one length 0-8, some zero and some deliberately
    combinations of earlier ones, followed by probes for membership."""
    n = draw(st.integers(min_value=0, max_value=8))
    values = st.integers(min_value=-3, max_value=3).map(Fraction)

    def sparse():
        v = [Fraction(0)] * n
        if n:
            for c in draw(
                st.lists(st.integers(0, n - 1), max_size=3, unique=True)
            ):
                v[c] = draw(values)
        return v

    stream: list[Vec] = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["sparse", "zero", "combination"]))
        if kind == "combination" and stream:
            v = [Fraction(0)] * n
            for u in draw(st.lists(st.sampled_from(stream), max_size=3)):
                c = draw(values)
                v = [x + c * y for x, y in zip(v, u)]
        elif kind == "zero":
            v = [Fraction(0)] * n
        else:
            v = sparse()
        stream.append(vec(v))
    probes = [vec(sparse()) for _ in range(3)] + stream[:2]
    return stream, probes


@settings(max_examples=300, deadline=None)
@given(_vector_streams())
def test_echelon_basis_agrees_with_the_dense_span_oracle(case):
    stream, probes = case
    span = EchelonBasis()
    kept: list[Vec] = []
    for v in stream:
        for p in probes:
            assert (p in span) is in_span(kept, p)
        grew = span.add(v)
        assert grew is not in_span(kept, v)
        if grew:
            kept.append(v)
        assert v in span
    assert len(kept) == (Matrix(kept).rank() if kept else 0)


def _dense_rows(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def _as_dense(v, ncols):
    """The Gauss-Jordan vector of the integer kernel vector v, densely."""
    v = divided(v)
    return tuple(v.get(c, Fraction(0)) for c in range(ncols))


def assert_primitive_kernel_vector(v):
    """v is an int vector, ascending, primitive and positive at its free
    column, its last."""
    assert list(v) == sorted(v)
    assert all(type(x) is int and x for x in v.values())
    assert gcd(*v.values()) == 1
    assert v[max(v)] > 0


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
    want = kernel_oracle(rows, ncols)
    assert got == want
    # the dense readout is a view of the block kernel, so it is checked
    # against the oracle too, on shapes with no rows or no columns as well
    assert Matrix(_dense_rows(rows, ncols), ncols).kernel_basis() == want
    for v in kernel_by_blocks(rows, ncols):
        assert all(v.values())


@st.composite
def _rank_cases(draw):
    """The sparse systems above as dense matrices (dependent rows, no rows
    or no columns), or a zero matrix of a small shape."""
    if draw(st.booleans()):
        rows, ncols = draw(_sparse_systems())
        return Matrix(_dense_rows(rows, ncols), ncols)
    return Matrix.zero(draw(st.integers(0, 4)), draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(_rank_cases())
def test_echelon_rank_equals_the_dense_rref_rank(m):
    assert m.rank() == dense_rank(m)
    assert m.transpose().rank() == dense_rank(m)


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


def test_a_kernel_vector_is_positive_at_its_free_column(monkeypatch):
    # the one step takes e_1 to -(e_0 + e_1): the update holds the vector
    # (-1, -1), and the readout negates it
    held = []
    eliminate = linalg._eliminate

    def spy(rem, x, p, row):
        eliminate(rem, x, p, row)
        held.append(dict(rem))

    monkeypatch.setattr(linalg, "_eliminate", spy)
    got = kernel_by_blocks([{0: -1, 1: 1}], 2)
    assert held == [{0: -1, 1: -1}]
    assert got == [{0: 1, 1: 1}]
    assert list(got[0]) == [0, 1]


def test_rref_rows_are_positive_at_their_pivots():
    # the stored rows are (-2, 3, 0) and (0, -4, 1); back-substitution
    # takes the first to (8, 0, -3), and the readout negates the second
    span = EchelonBasis()
    for v in ([-2, 3, 0], [0, -4, 1]):
        span.add(vec(v))
    got = span.rref()
    assert got == [(0, {0: 8, 2: -3}), (1, {1: 4, 2: -1})]
    assert all(type(x) is int for _, row in got for x in row.values())
    assert Matrix([[-2, 3, 0], [0, -4, 1]]).rref()[0] == Matrix(
        [[1, 0, Fraction(-3, 8)], [0, 1, Fraction(-1, 4)]]
    )


def strike_in_rounds(rows):
    """The forced-zero strike the plain way: strike every column of a
    one-entry row from every row, and repeat until no row has one entry."""
    live = [{c: x for c, x in row.items() if x} for row in rows]
    live = [row for row in live if row]
    forced = set()
    while True:
        new = {next(iter(r)) for r in live if len(r) == 1}
        if not new:
            return forced, live
        forced |= new
        live = [{c: x for c, x in row.items() if c not in new} for row in live]
        live = [row for row in live if row]


def assert_strike_and_kernel(rows, ncols):
    snapshot = [dict(row) for row in rows]
    forced, live = _strike_forced(rows)
    assert (forced, live) == strike_in_rounds(rows)
    assert all(len(row) > 1 and not forced.intersection(row) for row in live)
    got = [_as_dense(v, ncols) for v in kernel_by_blocks(rows, ncols)]
    assert got == kernel_oracle(rows, ncols)
    assert rows == snapshot  # the caller's rows are left alone


def test_strike_follows_a_cascade_to_an_empty_row():
    F = Fraction
    # {4} forces 4; then {3, 4} is left with 3, {2, 3} with 2, {1, 2} with
    # 1 and {0, 1} with 0, and {0, 2} ends empty.  Listed in reverse, so
    # every step of the cascade waits for the row after it.
    rows = [
        {0: F(1), 2: F(7)},
        {0: F(-1), 1: F(1)},
        {1: F(2), 2: F(3)},
        {2: F(1, 2), 3: F(-1)},
        {3: F(5), 4: F(1)},
        {5: F(1), 6: F(-1)},
        {4: F(2)},
    ]
    assert _strike_forced(rows) == ({0, 1, 2, 3, 4}, [{5: F(1), 6: F(-1)}])
    assert_strike_and_kernel(rows, 8)
    assert kernel_by_blocks(rows, 8) == [
        {5: F(1), 6: F(1)},
        {7: F(1)},
    ]


@st.composite
def _cascades(draw):
    """Sparse systems built around strike cascades: a chain of rows in
    which each row holds the columns forced before it plus one new
    column, so that the strike forces the chain one column at a time, and
    rows over forced columns only, which end empty; with noise rows, zero
    values and shuffled rows."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    values = st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction)
    order = draw(st.permutations(range(ncols)))
    length = draw(st.integers(min_value=1, max_value=ncols))
    chain, rows = order[:length], []
    for k, col in enumerate(chain):
        earlier = draw(
            st.lists(st.sampled_from(chain[:k]), max_size=3, unique=True)
            if k
            else st.just([])
        )
        row = {c: draw(values) for c in earlier}
        row[col] = draw(values)
        rows.append(row)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        used = draw(st.lists(st.sampled_from(order), max_size=4, unique=True))
        rows.append({c: draw(values) for c in used})
    if draw(st.booleans()):
        rows.append({c: draw(values) for c in chain[:2]})  # ends empty
    for row in rows:
        if row and draw(st.integers(0, 3)) == 0:
            row[draw(st.sampled_from(sorted(row)))] = Fraction(0)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(_cascades())
def test_strike_on_cascades_matches_rounds_and_the_dense_kernel(system):
    assert_strike_and_kernel(*system)


@st.composite
def _repeated_systems(draw):
    """The systems of ``_sparse_systems`` with up to five copies of drawn
    rows inserted anywhere, each negated or scaled by an integer or a
    fraction of either sign."""
    rows, ncols = draw(_sparse_systems())
    out = list(rows)
    factors = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 7)))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if not rows:
            break
        row = draw(st.sampled_from(rows))
        c = draw(factors)
        at = draw(st.integers(min_value=0, max_value=len(out)))
        out.insert(at, {col: c * x for col, x in row.items()})
    return out, ncols


@settings(max_examples=300, deadline=None)
@given(_repeated_systems())
def test_block_kernel_with_repeated_rows_equals_the_fraction_rref_kernel(
    system,
):
    rows, ncols = system
    got = kernel_by_blocks(rows, ncols)
    assert [_as_dense(v, ncols) for v in got] == kernel_oracle(rows, ncols)


def test_rows_repeated_up_to_sign_trigger_no_update(monkeypatch):
    # {0: 1, 1: 1} comes back negated, doubled and halved: orthogonal to
    # the kernel vector its first copy leaves, each costs its dot alone;
    # {0: 1, 1: -1} differs from it by the sign of one entry only, so it
    # drops that last vector, and the block has full rank
    updates = []
    eliminate = linalg._eliminate

    def counting_eliminate(rem, x, p, row):
        updates.append((dict(rem), x, p, dict(row)))
        eliminate(rem, x, p, row)

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    F = Fraction
    rows = [
        {0: F(1), 1: F(1)},
        {0: F(-1), 1: F(-1)},
        {1: F(2), 0: F(2)},
        {0: F(1, 2), 1: F(1, 2)},
        {0: F(1), 1: F(-1)},
        {0: F(-3), 1: F(3)},
    ]
    assert kernel_by_blocks(rows, 3) == [{2: F(1)}]
    # the one update: the first row drops e_0 and takes e_1 to e_1 - e_0
    assert updates == [({1: 1}, 1, 1, {0: 1})]


def _eliminate_calls(rows, ncols):
    """The ``_eliminate`` calls of ``kernel_by_blocks(rows, ncols)``, each
    as (rem, x, p, row) on entry."""
    calls = []
    eliminate = linalg._eliminate

    def spy(rem, x, p, row):
        calls.append((dict(rem), x, p, dict(row)))
        eliminate(rem, x, p, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", spy)
        kernel_by_blocks(rows, ncols)
    return calls


def _calls_per_row(rows, ncols):
    """The ``_eliminate`` calls each row makes, read off the calls of the
    prefixes of ``rows``: no row has one entry, so the strike forces no
    column and each prefix is solved as the start of the whole."""
    ends = [
        len(_eliminate_calls(rows[:k], ncols)) for k in range(len(rows) + 1)
    ]
    calls = _eliminate_calls(rows, ncols)
    return [calls[ends[k] : ends[k + 1]] for k in range(len(rows))]


@st.composite
def _two_column_sets(draw):
    """Rows on the even and on the odd columns of 0..11, each with at
    least two nonzero entries (or none), as (even rows, odd rows, order):
    order[i] names the set of the i-th row when the two are interleaved.
    Some rows are combinations of earlier rows of their set, so they lie
    in its row space."""
    values = st.integers(min_value=-3, max_value=3).filter(bool)
    sets, order = ([], []), []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        s = draw(st.integers(min_value=0, max_value=1))
        own = sets[s]
        if own and draw(st.booleans()):
            row = dict(draw(st.sampled_from(own)))
            c = draw(values)
            for col, x in draw(st.sampled_from(own)).items():
                row[col] = row.get(col, 0) + c * x
            row = {col: x for col, x in row.items() if x}
            if len(row) == 1:
                continue
        else:
            cols = draw(
                st.lists(
                    st.sampled_from(range(s, 12, 2)),
                    min_size=2,
                    max_size=4,
                    unique=True,
                )
            )
            row = {col: draw(values) for col in cols}
        own.append(row)
        order.append(s)
    return (*sets, order)


@settings(max_examples=200, deadline=None)
@given(_two_column_sets())
def test_two_column_sets_make_the_updates_each_makes_alone(system):
    # a row has a zero dot with every kernel vector that has no entry on
    # its columns, so interleaving the rows of two column sets makes each
    # set's updates, in row order, and no other: the kernel needs no split
    # into the blocks the rows link
    even, odd, order = system
    alone = [iter(_calls_per_row(rows, 12)) for rows in (even, odd)]
    sets = [iter(even), iter(odd)]
    rows = [next(sets[s]) for s in order]
    assert _eliminate_calls(rows, 12) == [
        call for s in order for call in next(alone[s])
    ]


@st.composite
def _valued_systems(draw):
    """The systems of ``_sparse_systems`` and ``_cascades``, with the
    values as drawn (integer Fractions), as Python ints, or each value
    divided by 1-4, so that rows have denominators."""
    rows, ncols = draw(st.one_of(_sparse_systems(), _cascades()))
    kind = draw(st.sampled_from(("fraction", "int", "divided")))
    if kind == "int":
        rows = [{c: int(x) for c, x in row.items()} for row in rows]
    elif kind == "divided":
        rows = [
            {c: x / draw(st.integers(1, 4)) for c, x in row.items()}
            for row in rows
        ]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_valued_systems())
def test_block_kernel_equals_the_fraction_rref_kernel(system):
    rows, ncols = system
    got = kernel_by_blocks(rows, ncols)
    assert [_as_dense(v, ncols) for v in got] == kernel_oracle(rows, ncols)
    for v in got:
        assert_primitive_kernel_vector(v)


@st.composite
def _overdetermined_systems(draw):
    """Overdetermined systems: 1-6 generator rows on at most 12 columns
    and 10-40 integer combinations of them, entries up to about 10^4,
    shuffled, so that most rows lie in the span of those before them; the
    values as ints, as Fractions, or each divided by 1-4."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    entries = st.integers(min_value=-20, max_value=20)
    generators = [
        {
            c: draw(entries)
            for c in draw(
                st.lists(
                    st.integers(min_value=0, max_value=ncols - 1),
                    min_size=1,
                    max_size=ncols,
                    unique=True,
                )
            )
        }
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    rows = []
    for _ in range(draw(st.integers(min_value=10, max_value=40))):
        row: dict[int, int] = {}
        for g in generators:
            k = draw(st.integers(min_value=-60, max_value=60))
            for c, x in g.items():
                row[c] = row.get(c, 0) + k * x
        rows.append(row)
    rows = draw(st.permutations(rows))
    kind = draw(st.sampled_from(("int", "fraction", "divided")))
    if kind == "fraction":
        rows = [{c: Fraction(x) for c, x in row.items()} for row in rows]
    elif kind == "divided":
        rows = [
            {c: Fraction(x, draw(st.integers(1, 4))) for c, x in row.items()}
            for row in rows
        ]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(_overdetermined_systems())
def test_null_space_update_equals_both_oracles_on_overdetermined_systems(
    system,
):
    rows, ncols = system
    got = kernel_by_blocks(rows, ncols)
    assert [divided(v) for v in got] == echelon_block_kernel(rows, ncols)
    assert [_as_dense(v, ncols) for v in got] == kernel_oracle(rows, ncols)
    for v in got:
        assert_primitive_kernel_vector(v)


@st.composite
def _forced_and_coupled_systems(draw):
    """Systems shaped like the intertwining rows of a cochain space: rows
    with one entry, some on a column that other rows hold or that another
    one-entry row forces again, mixed with coupled rows of two to five
    entries, some of which meet the kernel vectors of many free columns
    and some of which repeat an earlier row scaled; shuffled, with the
    values as ints, as Fractions, or each divided by 1-4."""
    ncols = draw(st.integers(min_value=2, max_value=16))
    values = st.integers(min_value=-4, max_value=4).filter(bool)
    cols = st.integers(min_value=0, max_value=ncols - 1)
    rows = [
        {draw(cols): draw(values)}
        for _ in range(draw(st.integers(min_value=0, max_value=ncols)))
    ]
    coupled = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        used = draw(
            st.lists(cols, min_size=2, max_size=min(5, ncols), unique=True)
        )
        coupled.append({c: draw(values) for c in used})
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not coupled:
            break
        row = draw(st.sampled_from(coupled))
        k = draw(st.sampled_from((-1, 2, -3)))
        coupled.append({c: k * x for c, x in row.items()})
    rows = draw(st.permutations(rows + coupled))
    kind = draw(st.sampled_from(("int", "fraction", "divided")))
    if kind == "fraction":
        rows = [{c: Fraction(x) for c, x in row.items()} for row in rows]
    elif kind == "divided":
        rows = [
            {c: Fraction(x, draw(st.integers(1, 4))) for c, x in row.items()}
            for row in rows
        ]
    return rows, ncols


@seed(1212)
@settings(max_examples=400, deadline=None)
@given(_forced_and_coupled_systems())
def test_column_indexed_update_equals_both_oracles_on_forced_and_coupled_rows(
    system,
):
    # the vectors a row meets, found through the column index, are all
    # that its dots and steps change: the same kernel as the per-block
    # RREF and the dense Gauss-Jordan, vector for vector
    rows, ncols = system
    got = kernel_by_blocks(rows, ncols)
    assert [divided(v) for v in got] == echelon_block_kernel(rows, ncols)
    assert [_as_dense(v, ncols) for v in got] == kernel_oracle(rows, ncols)


def test_null_space_update_equals_both_oracles_on_the_leibniz_systems(
    monkeypatch,
):
    systems = []
    solve = derivations.kernel_by_blocks

    def recording(rows, ncols):
        rows = list(rows)
        got = solve(rows, ncols)
        systems.append((rows, ncols, got))
        return got

    monkeypatch.setattr(derivations, "kernel_by_blocks", recording)
    a = gl21_fraction_twist()
    solvers = (
        derivations.derivation_space,
        derivations.centroid_space,
        derivations.quasi_derivation_space,
        derivations.generalized_derivation_space,
        derivations.quasi_centroid_space,
    )
    for solver in solvers:
        for gamma in ((0,), (1,)):
            solver(a, 0, 0, gamma)
    # at the odd degree the commutation strikes every entry, so each
    # solver assembles one system, that of degree 0
    assert len(systems) == 5
    for rows, ncols, got in systems:
        assert [divided(v) for v in got] == echelon_block_kernel(rows, ncols)
        assert [_as_dense(v, ncols) for v in got] == kernel_oracle(
            rows, ncols
        )
