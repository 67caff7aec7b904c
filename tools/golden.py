#!/usr/bin/env python3
"""The golden-output contract: one SHA-256 per record of exact outputs.

    python3 tools/golden.py write FILE      hash every record into FILE
    python3 tools/golden.py check FILE      name the records that differ
    python3 tools/golden.py diff OLD NEW    compare two hash files

A record is one output of the library, written with ``repr`` in full:
integer forms with their scales, ``Fraction`` views and dict order, so a
hash moves when any bit of the output does.  The records are

- ``solver/<algebra>/<kind>/k<k>l<l>/<degree>``: the basis of each of the
  five solvers (derivations, quasi-derivations, generalized derivations,
  centroid and quasi-centroid), every matrix as ``int_column_terms()``
  and ``column_terms()``, at (k, l) in (0, 0), (1, 1), (0, 1) and every
  degree an endomorphism of the algebra can have, and
  ``solver/<algebra>/inner/k<k>l<l>`` for ``inner_derivation_space``;
- ``cochains/<algebra>/ad<s><l>/n<n>/<degree>``: the ``int_values()`` of
  every ``cochain_basis`` cochain of the adjoint module ad_{s,l}, (s, l)
  in (0, 1), (1, 0), with the ``CohomologyResult`` at r = 1;
- ``matrix/<i>-<j>``: ``rref``, ``invert`` and ``kernel_basis`` of the
  seeded random matrices i to j, square or not, some singular, with
  ``Fraction`` entries;
- ``report/<algebra>/<suite>``: the whole ``AxiomReport`` of
  ``check_lie_axioms``, ``check_associative_axioms`` and
  ``check_bihom_axioms`` (suites ``lie``, ``associative``, ``bihom``),
  every witness with its exact defect and its text, on the corpus Lie
  algebras, ``mat2_assoc``, the gl(2|1) twists, ``typo_osp``,
  ``conj_mat2``, ``gl21_noncommuting_twist``, and two copies of each
  with one structure constant moved (``<algebra>[i][j][k]``, seeded), so
  that the twisted ones fail multiplicativity; ``check_flexible`` and
  ``check_g_associative`` (suites ``flexible``, ``G1`` to ``G6``) on
  ``osp12_classical``, ``typo_osp`` and ``conj_mat2``; and
  ``report/<algebra>/ad<s><l>/module``, ``validate_representation`` of
  the corpus adjoint modules.

The solver and cochain algebras are the five corpus Lie algebras
(cochains for n <= 3) and the gl(2|1) twists of ``tests/fixtures.py``
(n <= 2).  ``check`` exits 1 and lists the changed, missing and new
records when FILE does not match; ``diff`` does the same for two files,
so the output of ``write`` on two trees shows which records a change
moved.  Stdlib only; it imports the library from ``src`` and the
fixtures from ``tests``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bihomlie import derivations  # noqa: E402
from bihomlie.admissibility import (  # noqa: E402
    SUBGROUPS,
    check_flexible,
    check_g_associative,
)
from bihomlie.algebra import SUITES  # noqa: E402
from bihomlie.cohomology import (  # noqa: E402
    adjoint_rep,
    cochain_basis,
    cohomology_dims,
    realized_gammas,
    validate_representation,
)
from bihomlie.constructions import (  # noqa: E402
    lie_corpus,
    mat2_assoc,
    osp12_classical,
)
from bihomlie.linalg import Matrix  # noqa: E402

import fixtures  # noqa: E402

SOLVERS = (
    "derivation_space",
    "quasi_derivation_space",
    "generalized_derivation_space",
    "centroid_space",
    "quasi_centroid_space",
)
TWISTS = ((0, 0), (1, 1), (0, 1))
GL21 = ("gl21_twist", "gl21_unipotent_twist", "gl21_fraction_twist")


def _algebras():
    """(name, algebra, largest cochain arity) of every hashed algebra."""
    for name, a in lie_corpus():
        yield name, a, 3
    for name in GL21:
        yield name, getattr(fixtures, name)(), 2


def _matrix(m: Matrix) -> tuple:
    return m.nrows, m.int_column_terms(), m.column_terms()


def _member(member) -> tuple:
    endos = member if isinstance(member, tuple) else (member,)
    return tuple((d.degree, _matrix(d.matrix)) for d in endos)


def _degree(g) -> str:
    return "[" + ",".join(map(str, g)) + "]"


def _solver_records(name, a):
    group = a.basis.group
    degrees = sorted(
        {group.sub(e, d) for e in a.basis.degrees for d in a.basis.degrees}
    )
    for k, l in TWISTS:
        for solver in SOLVERS:
            for g in degrees:
                res = getattr(derivations, solver)(a, k, l, g)
                yield (
                    f"solver/{name}/{solver}/k{k}l{l}/{_degree(g)}",
                    (res.dimension, tuple(map(_member, res.basis))),
                )
        res = derivations.inner_derivation_space(a, k, l)
        yield (
            f"solver/{name}/inner/k{k}l{l}",
            (res.dimension, tuple(map(_member, res.basis))),
        )


def _cochain_records(name, a, top):
    for s, l in ((0, 1), (1, 0)):
        rep = adjoint_rep(a, s, l)
        for n in range(top + 1):
            for g in realized_gammas(rep, n):
                basis = cochain_basis(rep, n, g)
                yield (
                    f"cochains/{name}/ad{s}{l}/n{n}/{_degree(g)}",
                    (
                        tuple(f.int_values() for f in basis),
                        cohomology_dims(rep, n, 1, g),
                    ),
                )


def _random_matrix(rng: random.Random) -> list[list[Fraction]]:
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
    if rng.random() < 0.5:
        nrows = ncols
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [
        [
            Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
            if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.3:
        # a dependent last row, so some square matrices are singular
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return rows


def _matrix_records(blocks: int = 16, size: int = 25, seed: int = 34):
    rng = random.Random(seed)
    for b in range(blocks):
        out = []
        for _ in range(size):
            m = Matrix(_random_matrix(rng))
            reduced, pivots = m.rref()
            try:
                inverse = _matrix(m.invert())
            except ValueError as exc:
                inverse = str(exc)
            kernel = m.kernel_basis()
            out.append((_matrix(m), _matrix(reduced), pivots, inverse, kernel))
        yield f"matrix/{b * size}-{(b + 1) * size - 1}", tuple(out)


def _report_algebras():
    """(name, algebra) of every algebra whose axiom reports are hashed:
    each listed algebra, then two copies of each with one structure
    constant moved by a small fraction at a cell drawn from a fixed seed."""
    listed = [*lie_corpus(), ("mat2_assoc", mat2_assoc())]
    listed += [(name, getattr(fixtures, name)()) for name in GL21]
    listed += [
        (name, getattr(fixtures, name)())
        for name in ("typo_osp", "conj_mat2", "gl21_noncommuting_twist")
    ]
    yield from listed
    rng = random.Random("report perturbations")
    for name, a in listed:
        n = a.dim
        for _ in range(2):
            i, j, k = (rng.randrange(n) for _ in range(3))
            prod = [[list(cell) for cell in row] for row in a.product]
            c = Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))
            prod[i][j][k] += c
            yield f"{name}[{i}][{j}][{k}]", a.with_product(prod)


def _report_records():
    for name, a in _report_algebras():
        for suite, check in SUITES.items():
            yield f"report/{name}/{suite}", check(a)
    for name, make in (
        ("osp12_classical", osp12_classical),
        ("typo_osp", fixtures.typo_osp),
        ("conj_mat2", fixtures.conj_mat2),
    ):
        a = make()
        yield f"report/{name}/flexible", check_flexible(a)
        for g in SUBGROUPS:
            yield f"report/{name}/{g}", check_g_associative(a, g)
    for name, a in lie_corpus():
        for s, l in ((0, 1), (1, 0)):
            yield (
                f"report/{name}/ad{s}{l}/module",
                validate_representation(adjoint_rep(a, s, l)),
            )


def records():
    """(name, output) of every record, in a fixed order."""
    for name, a, top in _algebras():
        yield from _solver_records(name, a)
        yield from _cochain_records(name, a, top)
    yield from _matrix_records()
    yield from _report_records()


def hashes() -> dict[str, str]:
    return {
        name: hashlib.sha256(repr(out).encode()).hexdigest()
        for name, out in records()
    }


def read(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        digest, name = line.split(None, 1)
        out[name] = digest
    return out


def write(path, table: dict[str, str]) -> None:
    Path(path).write_text(
        "".join(f"{digest}  {name}\n" for name, digest in table.items()),
        encoding="utf-8",
    )


def differences(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per record that differs: changed, missing from ``new``,
    or new in it; empty when the two tables agree."""
    out = [f"changed  {n}" for n in old if n in new and old[n] != new[n]]
    out += [f"missing  {n}" for n in old if n not in new]
    out += [f"new      {n}" for n in new if n not in old]
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1], hashes())
        return 0
    if len(argv) == 2 and argv[0] == "check":
        old, new = read(argv[1]), hashes()
    elif len(argv) == 3 and argv[0] == "diff":
        old, new = read(argv[1]), read(argv[2])
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(old.keys() | new.keys())} records differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
