"""The product's one integer form.

A ``ColourAlgebra`` holds its structure constants as the integer table of
``int_table("product_terms")``; ``product`` is a Fraction view built when
read.  The algebras the parser and the constructions build through the
internal constructor ``ColourAlgebra._of`` are held here against the ones
the public constructor builds from their ``product`` views, and the
integer-summed ``yau_twist``, ``commutator_algebra``, ``sigma_twist`` and
``delta_twist`` against their dense builds in ``tests/dense_oracles.py``.
"""

from fractions import Fraction
from importlib import resources
from itertools import product as iproduct
from math import gcd

import pytest

import fixtures
from bihomlie.admissibility import primed_bracket
from bihomlie.alg_io import parse_algebra, serialize_algebra
from bihomlie.algebra import ColourAlgebra
from bihomlie.cli import run_cli
from bihomlie.constructions import (
    build_osp12,
    commutator_algebra,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    osp12_scaling_map,
    yau_twist,
    z2z2_colour_example,
)
from bihomlie.linalg import Matrix
from bihomlie.multipliers import MultiplierTable, delta_twist, sigma_twist
from dense_oracles import (
    commutator_table_oracle,
    rescaled_product_oracle,
    yau_twist_product_oracle,
)

DATA_FILES = (
    "zero_3.alg",
    "osp12_classical.alg",
    "osp12_twist_2_3.alg",
    "mat2_assoc.alg",
    "z2z2_colour.alg",
)


def _parsed(name):
    def build():
        path = resources.files("bihomlie").joinpath("data", name)
        return parse_algebra(path.read_text(encoding="utf-8"))

    return build


FIXTURES = (
    "gl21_units",
    "gl21_twist",
    "gl21_unipotent_twist",
    "gl21_fraction_twist",
    "gl21_noncommuting_twist",
    "gl2_conjugation_twist",
    "gl11_fraction_twist",
    "gl2_fraction_twist",
    "conj_mat2",
    "twisted_mat2",
    "typo_osp",
)

# name -> builder of every algebra held against its public rebuild
ALGEBRAS = {
    **{name: (lambda a=a: a) for name, a in lie_corpus()},
    "mat2_assoc": mat2_assoc,
    **{name: getattr(fixtures, name) for name in FIXTURES},
    "gl2_one_sided_twist(0)": lambda: fixtures.gl2_one_sided_twist(0),
    "gl2_one_sided_twist(1)": lambda: fixtures.gl2_one_sided_twist(1),
    **{name: _parsed(name) for name in DATA_FILES},
}


def _same_algebra(a: ColourAlgebra, b: ColourAlgebra) -> None:
    """a and b agree on the integer form, scale and terms, on == and hash,
    and on the text they serialize to."""
    assert a.int_table("product_terms") == b.int_table("product_terms")
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert serialize_algebra(a) == serialize_algebra(b)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_the_public_constructor_builds_the_form_the_algebra_holds(name):
    a = ALGEBRAS[name]()
    public = ColourAlgebra(a.basis, a.eps, a.product, a.alpha, a.beta, a.kind)
    _same_algebra(a, public)
    scale, table = a.int_table("product_terms")
    # the least scale: the lcm of the denominators of the Fraction view
    assert gcd(scale, *[x for row in table for ts in row for _, x in ts]) == 1
    internal = ColourAlgebra._of(
        a.basis, a.eps, (scale, table), a.alpha, a.beta, a.kind
    )
    _same_algebra(internal, public)
    assert internal.product == public.product


def test_the_product_view_is_built_once_and_read_only():
    a = parse_algebra(serialize_algebra(osp12_classical()))
    assert a._product is None
    view = a.product
    assert view is a.product
    assert view[1][2] == (Fraction(1),) + (Fraction(0),) * 4  # [X, Y] = H
    with pytest.raises(AttributeError):
        a.product = view


def _twist_cases():
    """(name, algebra, a2, b2) of every twist the fixtures build, with the
    osp(1|2) scaling twists."""
    osp = osp12_classical()
    yield "osp(2,3)", osp, osp12_scaling_map(2), osp12_scaling_map(3)
    yield "osp(1/2,-3)", osp, osp12_scaling_map("1/2"), osp12_scaling_map(-3)
    gl21 = commutator_algebra(fixtures.gl21_units())
    units = [(i, j) for i in range(3) for j in range(3)]

    def conjugation(d):
        return Matrix.diagonal([Fraction(d[i], d[j]) for i, j in units])

    yield "gl21", gl21, conjugation((1, 2, 3)), conjugation((1, 5, 7))

    def unipotent(c):
        return fixtures.matrix_conjugation(
            [[1, c, 0], [0, 1, 0], [0, 0, 1]],
            [[1, -c, 0], [0, 1, 0], [0, 0, 1]],
        )

    yield "gl21 unipotent", gl21, unipotent(1), unipotent(2)
    g = Matrix(
        [[Fraction(2, 5), Fraction(1, 3), 0], [0, 1, 0], [0, 0, Fraction(3, 7)]]
    )
    g2 = g * g
    yield (
        "gl21 fraction",
        gl21,
        fixtures.matrix_conjugation(g.rows, g.invert().rows),
        fixtures.matrix_conjugation(g2.rows, g2.invert().rows),
    )
    # a twist of a twist: structure maps that are not the identity
    twisted = fixtures.gl21_twist()
    yield "gl21 twice", twisted, conjugation((1, 2, 3)), conjugation((1, 5, 7))


TWISTS = {name: case for name, *case in _twist_cases()}


@pytest.mark.parametrize("name", TWISTS)
def test_yau_twist_equals_its_dense_build(name):
    a, a2, b2 = TWISTS[name]
    dense = ColourAlgebra(
        a.basis,
        a.eps,
        yau_twist_product_oracle(a, a2, b2),
        a.alpha * a2,
        a.beta * b2,
        kind="lie",
    )
    twisted = yau_twist(a, a2, b2)
    _same_algebra(twisted, dense)
    assert twisted.product == dense.product


COMMUTATOR_INPUTS = {
    "mat2_assoc": mat2_assoc,
    "gl21_units": fixtures.gl21_units,
    "gl11_units": lambda: fixtures.gl_units((0, 1)),
    "twisted_mat2": fixtures.twisted_mat2,
    "mat2_assoc.alg": _parsed("mat2_assoc.alg"),
}


@pytest.mark.parametrize("name", COMMUTATOR_INPUTS)
def test_commutator_algebra_equals_its_dense_build(name):
    a = COMMUTATOR_INPUTS[name]()
    dense = a.with_product(commutator_table_oracle(a), kind="lie")
    _same_algebra(commutator_algebra(a), dense)


@pytest.mark.parametrize(
    "make", [fixtures.typo_osp, fixtures.conj_mat2, fixtures.gl21_twist]
)
def test_primed_bracket_equals_its_dense_build(make):
    a = make()
    dense = a.with_product(commutator_table_oracle(a))
    _same_algebra(primed_bracket(a), dense)


def _multiplier_cases():
    """(name, twist, algebra, multiplier) of each multiplier twist held
    against its dense build, with fractional and sign-changing values."""
    osp = osp12_classical()
    z2 = osp.basis.group
    halves = {(g, h): "1/2" for g in ((0,), (1,)) for h in ((0,), (1,))}
    yield "sigma osp", sigma_twist, osp, MultiplierTable(
        z2, {**halves, ((1,), (1,)): 18}
    )
    yield "delta osp(2,3)", delta_twist, build_osp12(2, 3), MultiplierTable(
        z2, {key: "3/5" for key in halves}
    )
    z2z2 = z2z2_colour_example()
    pairs = [(g, h) for g in iproduct((0, 1), repeat=2)
             for h in iproduct((0, 1), repeat=2)]
    yield "delta z2z2 flip", delta_twist, z2z2, MultiplierTable(
        z2z2.basis.group,
        {(g, h): Fraction((-1) ** (g[1] * h[0]) * 2, 3) for g, h in pairs},
    )
    yield "sigma z2z2", sigma_twist, z2z2, MultiplierTable(
        z2z2.basis.group,
        {(g, h): Fraction(5, 7) for g, h in pairs},
    )


MULTIPLIER_TWISTS = {name: case for name, *case in _multiplier_cases()}


@pytest.mark.parametrize("name", MULTIPLIER_TWISTS)
def test_multiplier_twists_equal_their_dense_build(name):
    twist, a, s = MULTIPLIER_TWISTS[name]
    twisted = twist(a, s)
    dense = ColourAlgebra(
        a.basis,
        twisted.eps,
        rescaled_product_oracle(a, s),
        a.alpha,
        a.beta,
        a.kind,
    )
    _same_algebra(twisted, dense)
    assert twisted.product == dense.product


COMMANDS = (
    ["check"],
    ["derivations", "--kind", "der"],
    ["derivations", "--kind", "centroid"],
    ["cohomology", "--n", "2"],
)


# the multiplier twists, run on every Lie file
TWIST_COMMANDS = ("sigma-twist", "delta-twist")


@pytest.mark.parametrize("name", DATA_FILES)
def test_the_commands_on_a_parsed_file_never_build_the_dense_view(
    name, monkeypatch, capsys, tmp_path
):
    views = []
    dense = ColourAlgebra.product

    def spy(self):
        views.append(self)
        return dense.fget(self)

    path = str(resources.files("bihomlie").joinpath("data", name))
    a = _parsed(name)()
    sigma = tmp_path / "sigma.mult"
    sigma.write_text(fixtures.constant_multiplier(a), encoding="utf-8")
    monkeypatch.setattr(ColourAlgebra, "product", property(spy))
    for verb, *flags in COMMANDS:
        if name == "mat2_assoc.alg" and verb != "check":
            continue
        assert run_cli([verb, path, *flags]) == 0
    if a.kind == "lie":
        for verb in TWIST_COMMANDS:
            out = str(tmp_path / f"{verb}.alg")
            assert run_cli([verb, path, str(sigma), "-o", out]) == 0
    capsys.readouterr()
    assert views == []
