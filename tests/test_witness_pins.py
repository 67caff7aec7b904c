"""Full witnesses and gate messages, pinned to the values they have always had.

Each failing check reports the lexicographically first failing tuple with
its exact defect; these pins hold the whole Witness (indices, names,
defect vector and its rendering), not just its presence, so a change in
scan order or defect arithmetic shows up here.
"""

from fractions import Fraction

import pytest

from bihomlie.admissibility import (
    check_flexible,
    check_g_associative,
    primed_bracket,
)
from bihomlie.algebra import Witness
from bihomlie.constructions import (
    commutator_algebra,
    mat2_assoc,
    osp12_classical,
    yau_twist,
)
from bihomlie.grading import parse_group
from bihomlie.linalg import Matrix
from bihomlie.multipliers import MultiplierTable, validate_multiplier

from fixtures import (
    conj_mat2,
    gl21_units,
    table_from_rule,
    twisted_mat2,
    typo_osp,
)

F = Fraction

ALGEBRAS = {
    "osp12_classical": osp12_classical,
    "typo_osp": typo_osp,
    "conj_mat2": conj_mat2,
}

# (algebra, check) -> (indices, names, {coordinate: value}, defect_str),
# or None where the check passes
PINS = {
    ("osp12_classical", "flexible"): ((3, 0), ("F", "H"), {2: -4}, "-4 Y"),
    ("osp12_classical", "G1"): ((0, 0, 1), ("H", "H", "X"), {1: 4}, "4 X"),
    ("osp12_classical", "G2"): ((0, 1, 0), ("H", "X", "H"), {1: 4}, "4 X"),
    ("osp12_classical", "G3"): ((0, 0, 1), ("H", "H", "X"), {1: 4}, "4 X"),
    ("osp12_classical", "G4"): ((0, 0, 1), ("H", "H", "X"), {1: 8}, "8 X"),
    ("osp12_classical", "G5"): None,
    ("osp12_classical", "G6"): None,
    ("typo_osp", "flexible"): ((3, 0), ("F", "H"), {2: F(-4, 9)}, "-4/9 Y"),
    ("typo_osp", "G1"): ((0, 0, 1), ("H", "H", "X"), {1: 1296}, "1296 X"),
    ("typo_osp", "G2"): ((0, 1, 0), ("H", "X", "H"), {1: 1296}, "1296 X"),
    ("typo_osp", "G3"): ((0, 0, 1), ("H", "H", "X"), {1: 1296}, "1296 X"),
    ("typo_osp", "G4"): ((0, 0, 1), ("H", "H", "X"), {1: 2592}, "2592 X"),
    ("typo_osp", "G5"): ((1, 3, 3), ("X", "F", "F"), {0: 12}, "12 H"),
    ("typo_osp", "G6"): ((1, 3, 3), ("X", "F", "F"), {0: 24}, "24 H"),
    ("conj_mat2", "flexible"): (
        (1, 2), ("E12", "E21"), {1: F(1, 6)}, "1/6 E12"
    ),
    ("conj_mat2", "G1"): (
        (0, 0, 1), ("E11", "E11", "E12"), {1: F(1, 3)}, "1/3 E12"
    ),
    ("conj_mat2", "G2"): (
        (0, 1, 2), ("E11", "E12", "E21"), {0: F(-4, 3)}, "-4/3 E11"
    ),
    ("conj_mat2", "G3"): (
        (0, 0, 1), ("E11", "E11", "E12"), {1: F(1, 3)}, "1/3 E12"
    ),
    ("conj_mat2", "G4"): (
        (0, 0, 1), ("E11", "E11", "E12"), {1: F(1, 3)}, "1/3 E12"
    ),
    ("conj_mat2", "G5"): (
        (0, 0, 1), ("E11", "E11", "E12"), {1: F(1, 3)}, "1/3 E12"
    ),
    ("conj_mat2", "G6"): (
        (0, 1, 2),
        ("E11", "E12", "E21"),
        {0: F(-5, 3), 3: F(15, 4)},
        "-5/3 E11 + 15/4 E22",
    ),
}


def pinned(pin, dim):
    if pin is None:
        return None
    indices, names, terms, text = pin
    defect = tuple(F(terms.get(k, 0)) for k in range(dim))
    return Witness(indices, names, defect, text)


@pytest.mark.parametrize("name,check", sorted(PINS), ids=str)
def test_admissibility_witness_is_pinned(name, check):
    a = ALGEBRAS[name]()
    if check == "flexible":
        report = check_flexible(a)
    else:
        report = check_g_associative(a, check)
    (item,) = report.items
    want = pinned(PINS[name, check], a.dim)
    assert item.passed == (want is None)
    assert item.witness == want


def _degree_witness(indices, names, value):
    return Witness(indices, names, (F(value),), str(value))


def test_multiplier_witnesses_are_pinned():
    z2 = parse_group("Z2")
    asym = table_from_rule(z2, [(0,), (1,)], lambda g, h: 2 if g < h else 1)
    rep = validate_multiplier(asym, [(0,), (1,)], mode="symmetric")
    assert [(it.name, it.passed, it.witness) for it in rep.items] == [
        ("symmetric", False, _degree_witness((0, 1), ("0", "1"), 1)),
        (
            "cyclic_invariance",
            False,
            _degree_witness((0, 0, 1), ("0", "0", "1"), 3),
        ),
    ]

    sym = MultiplierTable(
        z2,
        {((0,), (0,)): 1, ((0,), (1,)): 2, ((1,), (0,)): 2, ((1,), (1,)): 1},
    )
    rep = validate_multiplier(sym, [(0,), (1,)], mode="symmetric")
    assert [(it.name, it.passed, it.witness) for it in rep.items] == [
        ("symmetric", True, None),
        (
            "cyclic_invariance",
            False,
            _degree_witness((0, 0, 1), ("0", "0", "1"), 2),
        ),
    ]

    z2z2 = parse_group("Z2 x Z2")
    degrees = [(1, 0), (0, 1), (1, 1)]
    base3 = table_from_rule(
        z2z2, degrees, lambda g, h: F(3) ** (g[1] * h[0])
    )
    rep = validate_multiplier(base3, degrees, mode="cocycle")
    assert [(it.name, it.passed, it.witness) for it in rep.items] == [
        (
            "cocycle",
            False,
            _degree_witness((1, 0, 0), ("0,1", "1,0", "1,0"), -8),
        ),
    ]


def test_yau_twist_gate_messages_are_pinned():
    a = osp12_classical()
    one = Matrix.identity(5)
    not_even = one + Matrix([[0] * 5] * 3 + [[1, 0, 0, 0, 0]] + [[0] * 5])
    not_morphism = Matrix.diagonal([1, 1, 1, 1, 2])
    cases = [
        (
            (not_even, one),
            "first twist map is not even: entry (F, H) connects "
            "different degrees",
        ),
        (
            (one, not_even),
            "second twist map is not even: entry (F, H) connects "
            "different degrees",
        ),
        (
            (not_morphism, one),
            "first twist map is not a product morphism; first failure at "
            "(X, F)",
        ),
        (
            (one, not_morphism),
            "second twist map is not a product morphism; first failure at "
            "(X, F)",
        ),
    ]
    for maps, message in cases:
        with pytest.raises(ValueError) as info:
            yau_twist(a, *maps)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "make", [mat2_assoc, twisted_mat2, gl21_units], ids=lambda f: f.__name__
)
def test_primed_bracket_is_the_commutator_product(make):
    a = make()
    assert primed_bracket(a).product == commutator_algebra(a).product
