"""The seven record types: construction, equality, hashing, repr,
immutability, pickle and copy; and what ``import bihomlie`` loads."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bihomlie import (
    AxiomReport,
    CheckItem,
    CohomologyResult,
    GradedBasis,
    GradingGroup,
    SolverResult,
    Witness,
    derivation_space,
    z2z2_colour_example,
)

SRC = Path(__file__).resolve().parent.parent / "src"

Z2 = GradingGroup(0, (2,))
WITNESS = Witness((0, 1), ("x", "f"), (Fraction(1), Fraction(-1, 2)), "1 x")
ITEM = CheckItem("jacobi", False, WITNESS, note="first tuple")


def _records():
    """One instance of each record type, with the repr it must have."""
    basis = GradedBasis(Z2, ("x", "f"), ((0,), (3,)))
    return [
        (Z2, "GradingGroup(free_rank=0, torsion=(2,))"),
        (
            basis,
            "GradedBasis(group=GradingGroup(free_rank=0, torsion=(2,)), "
            "names=('x', 'f'), degrees=((0,), (1,)))",
        ),
        (
            WITNESS,
            "Witness(indices=(0, 1), names=('x', 'f'), "
            "defect=(Fraction(1, 1), Fraction(-1, 2)), defect_str='1 x')",
        ),
        (
            ITEM,
            "CheckItem(name='jacobi', passed=False, witness=Witness(indices="
            "(0, 1), names=('x', 'f'), defect=(Fraction(1, 1), "
            "Fraction(-1, 2)), defect_str='1 x'), advisory=False, "
            "note='first tuple')",
        ),
        (
            AxiomReport([CheckItem("skew", True)]),
            "AxiomReport(items=[CheckItem(name='skew', passed=True, "
            "witness=None, advisory=False, note='')])",
        ),
        (
            CohomologyResult(
                n=2, r=1, degree=(0, 1), dim_cochains=5, dim_cocycles=3,
                dim_coboundaries=2, dim_h=1,
            ),
            "CohomologyResult(n=2, r=1, degree=(0, 1), dim_cochains=5, "
            "dim_cocycles=3, dim_coboundaries=2, dim_h=1)",
        ),
        (
            SolverResult("derivation", 0, 0, (0,), (), 0),
            "SolverResult(kind='derivation', k=0, l=0, gamma=(0,), basis=(), "
            "dimension=0)",
        ),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r, _ in RECORDS]
# the fields of each record type, in constructor order
FIELDS = {
    GradingGroup: ("free_rank", "torsion"),
    GradedBasis: ("group", "names", "degrees"),
    Witness: ("indices", "names", "defect", "defect_str"),
    CheckItem: ("name", "passed", "witness", "advisory", "note"),
    AxiomReport: ("items",),
    CohomologyResult: (
        "n", "r", "degree", "dim_cochains", "dim_cocycles",
        "dim_coboundaries", "dim_h",
    ),
    SolverResult: ("kind", "k", "l", "gamma", "basis", "dimension"),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_equality_is_fieldwise_and_same_class_only(record, _):
    twin = pickle.loads(pickle.dumps(record))
    assert twin is not record
    assert twin == record and not twin != record
    if type(record) is not AxiomReport:
        assert hash(twin) == hash(record)
    assert type(record)(*_fields(record)) == record
    # a tuple with the same fields, or another record type, is not equal
    assert record != _fields(record) and not record == _fields(record)
    for other, _ in RECORDS:
        if type(other) is not type(record):
            assert record != other


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(record, _):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    shallow = copy.copy(record)
    deep = copy.deepcopy(record)
    assert shallow == record and deep == record
    assert type(shallow) is type(deep) is type(record)
    if type(record) is AxiomReport:
        assert deep.items is not record.items


def test_equality_compares_every_field():
    assert GradingGroup(0, (2,)) != (0, (2,))
    assert GradingGroup(0, (2,)) != GradingGroup(0, (2, 2))
    assert GradingGroup(1, ()) != GradingGroup(0, ())
    assert CheckItem("a", True) != CheckItem("a", True, advisory=True)
    assert CheckItem("a", True) != CheckItem("a", True, note="n")
    assert CheckItem("a", True) == CheckItem(name="a", passed=True)
    assert AxiomReport() == AxiomReport([])
    assert AxiomReport() != AxiomReport([CheckItem("a", True)])
    assert len({Z2, GradingGroup(0, (2,)), GradingGroup(free_rank=0, torsion=(2,))}) == 1

    class Renamed(GradingGroup):
        pass

    # equal fields in another class, even a subclass, do not make it equal
    assert Renamed(0, (2,)) != Z2 and Z2 != Renamed(0, (2,))
    assert Renamed(0, (2,)) == Renamed(0, (2,))


@pytest.mark.parametrize(
    "record", [r for r, _ in RECORDS if type(r) is not AxiomReport], ids=IDS[:4] + IDS[5:]
)
def test_frozen_records_refuse_assignment(record):
    name = FIELDS[type(record)][0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1


def test_axiom_report_is_mutable_and_unhashable():
    report = AxiomReport()
    report.items.append(CheckItem("a", True))
    assert report.passed and report.item("a").passed
    report.items = [ITEM]
    assert not report.passed and report.failures() == [ITEM]
    with pytest.raises(TypeError):
        hash(report)
    # each report gets its own empty list
    assert AxiomReport().items is not AxiomReport().items


def test_defaults_and_keywords():
    assert GradingGroup() == GradingGroup(0, ())
    assert GradingGroup(torsion=(3,)).rank == 1
    item = CheckItem("regular", True)
    assert (item.witness, item.advisory, item.note) == (None, False, "")
    assert AxiomReport().items == []
    kw = Witness(indices=(0,), names=("x",), defect=(Fraction(1),), defect_str="x")
    assert kw == Witness((0,), ("x",), (Fraction(1),), "x")
    result = CohomologyResult(
        n=1, r=0, degree=(), dim_cochains=4, dim_cocycles=2,
        dim_coboundaries=1, dim_h=1,
    )
    assert result == CohomologyResult(1, 0, (), 4, 2, 1, 1)
    assert result.to_dict()["dim_h"] == 1
    solved = SolverResult(kind="centroid", k=1, l=0, gamma=None, basis=(), dimension=0)
    assert solved.to_dict() == {"kind": "centroid", "k": 1, "l": 0, "dimension": 0}
    with pytest.raises(TypeError):
        CheckItem("x")
    with pytest.raises(TypeError):
        GradingGroup(0, (), 1)
    with pytest.raises(TypeError):
        Witness((0,), ("x",), (Fraction(1),), "x", bogus=1)


def test_validation():
    with pytest.raises(ValueError, match="negative free rank"):
        GradingGroup(-1)
    with pytest.raises(ValueError, match="torsion modulus 1 < 2"):
        GradingGroup(0, (1,))
    with pytest.raises(ValueError, match="duplicate basis names"):
        GradedBasis(Z2, ("x", "x"), ((0,), (1,)))
    with pytest.raises(ValueError, match="differ in length"):
        GradedBasis(Z2, ("x",), ((0,), (1,)))
    basis = GradedBasis(group=Z2, names=("x", "f", "g"), degrees=((2,), (3,), (-1,)))
    assert basis.degrees == ((0,), (1,), (1,))
    assert len(basis) == 3 and basis.index("g") == 2


def test_solver_results_survive_pickle():
    result = derivation_space(z2z2_colour_example(), 0, 0, (0, 1))
    assert result.dimension > 0
    again = pickle.loads(pickle.dumps(result))
    assert again == result and again.basis == result.basis
    assert copy.deepcopy(result) == result


def test_import_loads_no_dataclasses_and_nine_modules():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bihomlie; "
        "print(' '.join(sorted(m for m in sys.modules if m in "
        "('dataclasses', 'inspect', 'typing') "
        "or m.split('.')[0] == 'bihomlie')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert out == [
        "bihomlie",
        "bihomlie.alg_io",
        "bihomlie.algebra",
        "bihomlie.cohomology",
        "bihomlie.constructions",
        "bihomlie.derivations",
        "bihomlie.grading",
        "bihomlie.linalg",
        "bihomlie.multipliers",
    ]
