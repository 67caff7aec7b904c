"""Built-in algebras: the osp(1,2) family, twists, and corpus lookup."""

from fractions import Fraction
from importlib import resources

import pytest

from bihomlie.algebra import check_lie_axioms
from bihomlie.constructions import (
    CORPUS_NAMES,
    _require_morphism,
    build_osp12,
    commutator_algebra,
    corpus,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    osp12_scaling_map,
    yau_twist,
    z2z2_colour_example,
    zero_algebra,
)
from bihomlie.algebra import ColourAlgebra
from bihomlie.alg_io import parse_algebra
from bihomlie.grading import GradingGroup
from bihomlie.linalg import Matrix
from dense_oracles import morphism_failures
from fixtures import gl21_fraction_twist

F = Fraction


def bkt(a, x, y):
    i, j = a.basis.index(x), a.basis.index(y)
    return a.fmt(a.product[i][j])


CLASSICAL_TABLE = [
    ("H", "X", "2 X"),
    ("H", "Y", "-2 Y"),
    ("X", "Y", "1 H"),
    ("H", "F", "-1 F"),
    ("H", "G", "1 G"),
    ("X", "F", "1 G"),
    ("Y", "G", "1 F"),
    ("G", "F", "1 H"),
    ("F", "G", "1 H"),
    ("F", "F", "2 Y"),
    ("G", "G", "-2 X"),
]


@pytest.mark.parametrize("x,y,out", CLASSICAL_TABLE)
def test_classical_osp_bracket(x, y, out):
    assert bkt(osp12_classical(), x, y) == out


def test_classical_osp_is_superalgebra():
    a = osp12_classical()
    assert a.eps_ij(3, 3) == -1  # odd-odd pairing
    assert a.eps_ij(0, 3) == 1
    assert check_lie_axioms(a).all_passed


def test_scaling_map_is_a_morphism():
    a = osp12_classical()
    m = osp12_scaling_map(F(5, 7))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.apply(a.product[i][j])
            rhs = a.product_eval(m.apply(a.basis_vec(i)), m.apply(a.basis_vec(j)))
            assert lhs == rhs


def test_scaling_map_rejects_zero():
    with pytest.raises(ValueError):
        osp12_scaling_map(0)


TWIST_23_TABLE = [
    ("H", "X", "18 X"),
    ("X", "H", "-8 X"),
    ("H", "Y", "-2/9 Y"),
    ("Y", "H", "1/2 Y"),
    ("X", "Y", "4/9 H"),
    ("Y", "X", "-9/4 H"),
    ("H", "F", "-1/3 F"),
    ("F", "H", "1/2 F"),
    ("H", "G", "3 G"),
    ("G", "H", "-2 G"),
    ("X", "F", "4/3 G"),
    ("F", "X", "-9/2 G"),
    ("Y", "G", "3/4 F"),
    ("G", "Y", "-2/9 F"),
    ("G", "F", "2/3 H"),
    ("F", "G", "3/2 H"),
    ("F", "F", "1/3 Y"),
    ("G", "G", "-12 X"),
]


@pytest.mark.parametrize("x,y,out", TWIST_23_TABLE)
def test_twist_2_3_bracket(x, y, out):
    assert bkt(build_osp12(2, 3), x, y) == out


def test_twist_maps_are_the_scaling_matrices():
    tw = build_osp12(2, 3)
    assert tw.alpha == osp12_scaling_map(2)
    assert tw.beta == osp12_scaling_map(3)


@pytest.mark.parametrize("lam,kappa", [(2, 3), (1, 1), (-1, 2), (F(1, 2), 5)])
def test_twists_satisfy_the_axioms(lam, kappa):
    assert check_lie_axioms(build_osp12(lam, kappa)).passed


def test_ff_bracket_follows_the_map_product():
    # {F,F} = [lam^-1 F, kappa^-1 F] = 2/(lam kappa) Y for several pairs
    for lam, kappa in ((2, 3), (3, 5), (F(1, 2), 4)):
        tw = build_osp12(lam, kappa)
        i = tw.basis.index("F")
        want = [F(0)] * 5
        want[tw.basis.index("Y")] = F(2) / (F(lam) * F(kappa))
        assert list(tw.product[i][i]) == want


def test_inflated_ff_coefficient_breaks_jacobi():
    # replacing {F,F} = 1/3 Y by 4/3 Y at (2,3) is not a valid bracket
    tw = build_osp12(2, 3)
    i, y = tw.basis.index("F"), tw.basis.index("Y")
    prod = [[list(cell) for cell in row] for row in tw.product]
    prod[i][i][y] = F(4, 3)
    bad = tw.with_product(prod)
    report = check_lie_axioms(bad)
    assert report.item("bihom_skewsymmetry").passed
    item = report.item("bihom_jacobi")
    assert not item.passed
    assert item.witness.names == ("X", "F", "F")
    assert item.witness.defect_str == "6 H"


def test_yau_twist_with_identities_is_identity():
    a = osp12_classical()
    assert yau_twist(a, Matrix.identity(5), Matrix.identity(5)) == a


def test_yau_twist_composes_structure_maps():
    once = build_osp12(2, 3)
    again = yau_twist(once, osp12_scaling_map(2), osp12_scaling_map(3))
    assert again.alpha == osp12_scaling_map(4)
    assert again.beta == osp12_scaling_map(9)
    assert check_lie_axioms(again).passed


def test_yau_twist_rejects_non_morphism():
    odd_scale = Matrix.diagonal([1, 1, 1, 1, 2])
    with pytest.raises(ValueError, match="morphism"):
        yau_twist(osp12_classical(), odd_scale, Matrix.identity(5))


def _shear(n, src, dst, c):
    """The identity plus c times the map e_src -> e_dst."""
    cols = [[F(int(u == j)) for u in range(n)] for j in range(n)]
    cols[src][dst] = F(c)
    return Matrix.from_cols([tuple(col) for col in cols])


@pytest.mark.parametrize(
    "make_map",
    [
        lambda n: Matrix.diagonal([1] * 5 + [F(5, 3)] + [1] * 3),
        lambda n: _shear(n, 2, 5, F(-2, 7)),
    ],
)
def test_yau_twist_names_the_first_pair_of_the_dense_morphism_scan(make_map):
    a = gl21_fraction_twist()
    m = make_map(a.dim)
    failures = morphism_failures(a, m)
    # the first failure is not (0, 0), and a scan in another order would
    # name another pair
    assert failures[0] != (0, 0) and failures[-1] != failures[0]
    x, y = (a.basis.names[i] for i in failures[0])
    for args, what in (
        ((m, Matrix.identity(a.dim)), "first twist map"),
        ((Matrix.identity(a.dim), m), "second twist map"),
    ):
        with pytest.raises(ValueError) as err:
            yau_twist(a, *args)
        assert str(err.value) == (
            f"{what} is not a product morphism; first failure at ({x}, {y})"
        )


def test_morphism_check_reads_no_fraction_product(monkeypatch):
    a = gl21_fraction_twist()

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction product was read")

    monkeypatch.setattr(ColourAlgebra, "product_eval", refuse)
    # a fresh algebra: no table of it is cached yet
    b = ColourAlgebra(a.basis, a.eps, a.product, a.alpha, a.beta, a.kind)
    with pytest.raises(ValueError, match="morphism"):
        _require_morphism(b, _shear(b.dim, 2, 5, F(-2, 7)), "map")
    _require_morphism(b, b.alpha, "alpha")
    assert b.int_table("twisted_terms", 1, 2, True)[0] > 1


def test_yau_twist_rejects_noncommuting_maps():
    a = zero_algebra(2)
    with pytest.raises(ValueError) as err:
        yau_twist(a, Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]]))
    assert str(err.value) == (
        "first twist map and second twist map do not commute"
    )


def test_yau_twist_rejects_non_even_map():
    a = osp12_classical()
    mix = Matrix.identity(5) + Matrix([[0] * 5] * 3 + [[1, 0, 0, 0, 0]] + [[0] * 5])
    with pytest.raises(ValueError, match="even"):
        yau_twist(a, mix, Matrix.identity(5))


def test_commutator_of_matrix_units_is_gl2():
    c = commutator_algebra(mat2_assoc())
    assert check_lie_axioms(c).passed
    # [e11, e12] = e12, [e12, e21] = e11 - e22
    e11, e12, e21, e22 = (c.basis.index(n) for n in c.basis.names)
    assert c.fmt(c.product[e11][e12]) == f"1 {c.basis.names[e12]}"
    v = c.product[e12][e21]
    assert v[e11] == 1 and v[e22] == -1


def test_commutator_requires_associative_input():
    with pytest.raises(ValueError, match="commutator_algebra"):
        commutator_algebra(osp12_classical())


def test_colour_example_is_anticommutative_under_eps():
    a = z2z2_colour_example()
    for i in range(3):
        for j in range(3):
            assert a.eps_ij(i, j) == (1 if i == j else -1)
    assert check_lie_axioms(a).all_passed


def test_corpus_lookup_roundtrip():
    for name in CORPUS_NAMES:
        assert corpus(name).dim >= 3


def test_corpus_parses_twist_parameters():
    assert corpus("osp12_twist(3,5)") == build_osp12(3, 5)
    assert corpus("osp12_twist") == build_osp12(2, 3)
    assert corpus("zero_7").dim == 7
    assert corpus("zero_100").dim == 100


# zero_<n> takes n only as a canonical decimal, though int() reads the n of
# each of these: zero_1_0 as 10 and the Arabic-Indic digit of zero_\u0663 as 3
LOOSE_ZERO_NAMES = ["zero_1_0", "zero_ 3", "zero_+3", "zero_03", "zero_\u0663"]


@pytest.mark.parametrize(
    "bad", ["zero_0", "zero_x", "osp", "osp12_twist(1)", "", *LOOSE_ZERO_NAMES]
)
def test_corpus_rejects_unknown_names(bad):
    with pytest.raises(KeyError, match="unknown corpus algebra"):
        corpus(bad)


# -- an oracle for the shipped files: the structure constants from their
# realizations, with no code of the parser or of the library's builders


def _supermatrix(entries):
    """The 3x3 matrix with the given {(row, column): value}, 1-based."""
    return tuple(
        tuple(F(entries.get((r, c), 0)) for c in (1, 2, 3)) for r in (1, 2, 3)
    )


def _times(p, q):
    return tuple(
        tuple(sum(p[r][k] * q[k][c] for k in range(3)) for c in range(3))
        for r in range(3)
    )


# rows and columns 1, 3 even and 2 odd, so F and G are the odd elements
OSP = {
    "H": (0, _supermatrix({(1, 1): 1, (3, 3): -1})),
    "X": (0, _supermatrix({(1, 3): 1})),
    "Y": (0, _supermatrix({(3, 1): 1})),
    "F": (1, _supermatrix({(2, 1): 1, (3, 2): 1})),
    "G": (1, _supermatrix({(1, 2): 1, (2, 3): -1})),
}
# the one entry of each basis matrix that no other one has
OSP_READ_AT = {"H": (0, 0), "X": (0, 2), "Y": (2, 0), "F": (1, 0), "G": (0, 1)}


def _osp_coordinates(m):
    """The coordinates of m in H, X, Y, F, G, read at each element's own
    entry; m must be their combination, which is checked."""
    coords = [m[r][c] for r, c in OSP_READ_AT.values()]
    rebuilt = tuple(
        tuple(
            sum(x * mx[r][c] for x, (_, mx) in zip(coords, OSP.values()))
            for c in range(3)
        )
        for r in range(3)
    )
    assert rebuilt == m
    return coords


def osp_oracle():
    """(group, names, degrees, eps, product, kind) of osp(1|2): the
    supercommutator [A, B] = AB - (-1)^(|A||B|) BA of the realization."""
    table = []
    for px, mx in OSP.values():
        row = []
        for py, my in OSP.values():
            xy, yx = _times(mx, my), _times(my, mx)
            sign = (-1) ** (px * py)
            row.append(
                _osp_coordinates(
                    tuple(
                        tuple(xy[r][c] - sign * yx[r][c] for c in range(3))
                        for r in range(3)
                    )
                )
            )
        table.append(row)
    parities = [p for p, _ in OSP.values()]
    eps = [[(-1) ** (p * q) for q in parities] for p in parities]
    degrees = [(p,) for p in parities]
    return GradingGroup(0, (2,)), list(OSP), degrees, eps, table, "lie"


def mat2_oracle():
    """The matrix units E_ij E_kl = delta_jk E_il, trivially graded."""
    units = [(i, j) for i in (1, 2) for j in (1, 2)]
    table = [
        [
            [F(int(j == k and (i, l) == u)) for u in units]
            for (k, l) in units
        ]
        for (i, j) in units
    ]
    names = [f"E{i}{j}" for i, j in units]
    return (
        GradingGroup(0, ()), names, [()] * 4, [[1] * 4] * 4, table,
        "associative",
    )


def z2z2_oracle():
    """The cyclic rule [a, b] = [b, a] = c, [b, c] = [c, b] = a,
    [c, a] = [a, c] = b over Z2 x Z2 with eps = (-1)^(a1 b2 + a2 b1)."""
    degrees = [(1, 0), (0, 1), (1, 1)]
    table = [
        [[F(int(k not in (i, j) and i != j)) for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    eps = [
        [(-1) ** (g[0] * h[1] + g[1] * h[0]) for h in degrees] for g in degrees
    ]
    return GradingGroup(0, (2, 2)), ["a", "b", "c"], degrees, eps, table, "lie"


@pytest.mark.parametrize(
    "stem, build, oracle",
    [
        ("osp12_classical", osp12_classical, osp_oracle),
        ("mat2_assoc", mat2_assoc, mat2_oracle),
        ("z2z2_colour", z2z2_colour_example, z2z2_oracle),
    ],
)
def test_each_shipped_file_holds_the_algebra_of_its_realization(
    stem, build, oracle
):
    text = resources.files("bihomlie").joinpath("data", f"{stem}.alg")
    a = parse_algebra(text.read_text(encoding="utf-8"))
    group, names, degrees, eps, table, kind = oracle()
    assert a.basis.group == group
    assert list(a.basis.names) == names
    assert list(a.basis.degrees) == degrees
    assert [list(row) for row in a.eps_table()] == eps
    assert [[list(cell) for cell in row] for row in a.product] == table
    assert a.alpha == a.beta == Matrix.identity(len(names))
    assert a.kind == kind
    assert build() == a


def test_lie_corpus_all_pass():
    pairs = lie_corpus()
    assert len(pairs) == 5
    for name, alg in pairs:
        assert check_lie_axioms(alg).passed, name


@pytest.mark.parametrize("size", [3, 7])
def test_yau_twist_refuses_a_map_of_the_wrong_shape_before_any_scan(
    size, monkeypatch
):
    from bihomlie import constructions

    scans = []
    monkeypatch.setattr(
        constructions, "require_passing", lambda *args, **kw: scans.append(args)
    )
    a = osp12_classical()
    wrong, right = Matrix.identity(size), Matrix.identity(5)
    for args, what in (
        ((wrong, right), "first twist map"),
        ((right, wrong), "second twist map"),
    ):
        with pytest.raises(ValueError) as err:
            yau_twist(a, *args)
        assert str(err.value) == (
            f"{what} is {size} x {size}, but the algebra has dimension 5"
        )
    assert scans == []
    # a map of the right height but the wrong width is refused the same way
    with pytest.raises(ValueError, match="first twist map is 5 x 3"):
        yau_twist(a, Matrix([[0] * 3] * 5), right)
