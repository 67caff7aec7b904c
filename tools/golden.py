#!/usr/bin/env python3
"""The golden-output contract: one SHA-256 per record of exact outputs.

    python3 tools/golden.py write FILE      hash every record into FILE
    python3 tools/golden.py check FILE      name the records that differ
    python3 tools/golden.py diff OLD NEW    compare two hash files
    python3 tools/golden.py trees OLD NEW   compare two checkouts

A record is one output of the library, written with ``repr`` in full:
integer forms with their scales, ``Fraction`` views and dict order, so a
hash moves when any bit of the output does.  The records are

- ``solver/<algebra>/<kind>/k<k>l<l>/<degree>``: the basis of each of the
  five solvers (derivations, quasi-derivations, generalized derivations,
  centroid and quasi-centroid), every matrix as ``int_column_terms()``
  and ``column_terms()``, at (k, l) in (0, 0), (1, 1), (0, 1) and every
  degree an endomorphism of the algebra can have, and
  ``solver/<algebra>/inner/k<k>l<l>`` for ``inner_derivation_space``;
- ``member/<algebra>/<kind>/k<k>l<l>/<degree>``: on the gl(2|1) twists
  and the algebras of the twisted modules of ``tests/fixtures.py::
  TWISTED``, at (k, l) in (0, 0), (1, 1), the verdict of each kind's
  public predicate (with and without ``strict`` where it takes it) and
  the first failing pair of each identity of the kind, on every member
  of its solver (with and without ``strict``) and on three seeded copies
  of each member with one entry changed: by 1/11 inside the degree
  block, outside the block, and at a slot the commutation forces to zero;
- ``solver-error/<algebra>/<solver>``: the result or the error type and
  text of each solver at k = -1 on an algebra whose alpha is singular;
- ``cochains/<algebra>/ad<s><l>/n<n>/<degree>``: the ``int_values()`` of
  every ``cochain_basis`` cochain of the adjoint module ad_{s,l}, (s, l)
  in (0, 1), (1, 0), with the ``CohomologyResult`` at r = 1;
- ``coboundary/<algebra>/ad<s><l>/n<n>/<degree>``: the ``int_values()``
  of ``apply_coboundary`` at r = 1 on each of those basis cochains, for
  every arity n below the largest;
- ``coboundary-sum/<algebra>/ad<s><l>/n<n>/<degree>``: the
  ``int_values()`` of d f at r = 1, f a seeded integer combination of
  every basis cochain of that space, and of d(d f), for the same arities;
- ``error/<module>/n<n>/<degree>/matrix``, ``.../dims`` and
  ``.../images``: on each module of ``tests/fixtures.py::BROKEN_MODULES``
  (beta_V := alpha_V, an action by c E41, an action scaled by c), at
  every arity n <= 2 and realized degree, the result or the error type
  and text of ``coboundary_matrix`` and ``cohomology_dims``, and for each
  basis cochain the ``cochain_in_space`` verdict on its image and
  ``apply_coboundary`` (validate=True) on that image;
- ``error/<module>/n<n>/<case>``: on three well-formed twisted modules,
  at n = 1, 2 and degree 0, the ``cochain_in_space`` verdict and
  ``apply_coboundary`` with and without validation on a cochain with a
  stored index outside the basis, on a non-canonical tuple, with a value
  in the wrong block, and on two basis cochains moved at one slot;
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
  that the twisted ones fail multiplicativity, with ``check_flexible``
  and ``check_g_associative`` (suites ``flexible``, ``G1`` to ``G6``;
  the type and text of the error where the gate of ``G1`` to ``G6``
  refuses); ``report/<algebra>/jordan/<kind>/<sign>/<maps>``, the report
  or the error of ``check_jordan_axioms`` with sign +1 and -1, by the
  algebra's own alpha and beta (``maps``) and by identity maps
  (``identity``), on the derivation, centroid and quasi-centroid
  families at k = l = 0 and degree 0 of the algebras of the
  ``member/...`` records; and ``report/<algebra>/ad<s><l>/module``,
  ``validate_representation`` of the corpus adjoint modules;
- ``module/<algebra>/ad<s><l>`` and ``module/<broken module>``:
  ``validate_representation`` and the report of ``dual_rep`` with its
  candidate's space and maps, on the adjoint modules ad_{s,l}, (s, l) in
  (0, 1), (1, 0), of the gl(2|1) twists and ``gl21_noncommuting_twist``,
  on two seeded copies of each with one entry of an action matrix,
  alpha_V or beta_V moved (``.../rho<i>[r][c]``, ``.../alphaV[r][c]``),
  and on each module of ``tests/fixtures.py::BROKEN_MODULES``;
- ``gate/<algebra>/<construction>``: the integer tables of the result, or
  the error type and refusal text, of ``yau_twist`` by identity maps, by
  the algebra's own alpha and beta and by the identity and the reversal
  of the basis, and of ``commutator_algebra``, on every algebra whose
  axiom reports are hashed;
- ``parse/<file>``: the basis, the bicharacter,
  ``int_table("product_terms")``, the ``int_column_terms()`` of alpha and
  beta, the kind and the ``serialize_algebra`` text of each shipped
  ``.alg`` file and of ``commutator_mat2_assoc.alg``, the serialized
  commutator algebra of the parsed ``mat2_assoc.alg``;
- ``cli/<file>/<command>``: the exit code and the ``--report`` JSON text
  of the commands a benchmark corpus sweep runs: ``check`` on every one of
  those files, and ``derivations`` (``der``, ``centroid``) and
  ``cohomology`` (n = 1, 2, 3) on each but ``mat2_assoc.alg``;
- ``corpus/<name>``: the ``serialize_algebra`` text,
  ``int_table("product_terms")``, the ``int_column_terms()`` of alpha and
  beta and the kind of ``corpus(name)`` for every name of
  ``CORPUS_NAMES``;
- ``cli/example/<name>``: the exit code and the emitted text (and
  stderr) of
  ``example`` on every name of ``CORPUS_NAMES`` and of ``example
  --list``; ``cli/zero_40.alg/cohomology-n6``, the same of
  ``cohomology --n 6`` on the file ``example zero_40`` writes, which the
  slot budget refuses (so ``trees`` hangs on a checkout without it); and
  ``cli/<file>/<command>`` for the commands no sweep runs,
  with fixed side files: the exit code, the text printed on stdout and
  stderr and the ``--report`` JSON text of ``admissible --group all`` on every shipped
  file, of ``sigma-twist`` and ``delta-twist`` by the constant multiplier
  2 on every Lie file, of ``sigma-twist`` on ``osp12_classical.alg`` by a
  symmetric and by an asymmetric table, of ``delta-twist`` on
  ``z2z2_colour.alg`` by the cocycle that flips its bicharacter, and of
  ``twist`` on ``osp12_classical.alg`` by the scaling maps t = 2, 3 and
  by a map that is no morphism;
- ``parse-error/<case>``: the text and line of the ``ParseError`` that
  each malformed input of ``tests/fixtures.py::MALFORMED`` raises.

The solver and cochain algebras are the five corpus Lie algebras
(cochains for n <= 3) and the gl(2|1) twists of ``tests/fixtures.py``
(n <= 2).  ``check`` exits 1 and lists the changed, missing and new
records when FILE does not match; ``diff`` does the same for two files,
so the output of ``write`` on two trees shows which records a change
moved.  ``trees`` runs ``write`` for each of two checkouts, in a fresh
interpreter that imports the library from that checkout's ``src``, and
lists the records that differ, as ``diff`` does: the records and the
fixtures are this file's and ``tests/fixtures.py``'s in both runs, so
only the library differs.  Stdlib only; it imports the library from
``src`` (or, for ``trees``, from the checkout named in the
``GOLDEN_TREE`` environment variable) and the fixtures from ``tests``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = Path(os.environ.get("GOLDEN_TREE") or ROOT)
sys.path[:0] = [str(TREE / "src"), str(ROOT / "tests")]

from bihomlie import derivations  # noqa: E402
from bihomlie.alg_io import (  # noqa: E402
    ParseError,
    parse_algebra,
    parse_linear_map,
    parse_multiplier,
    serialize_algebra,
)
from bihomlie.admissibility import (  # noqa: E402
    SUBGROUPS,
    check_flexible,
    check_g_associative,
)
from bihomlie.algebra import SUITES  # noqa: E402
from bihomlie.cohomology import (  # noqa: E402
    Cochain,
    Representation,
    adjoint_rep,
    apply_coboundary,
    canonical_index_tuples,
    coboundary_matrix,
    cochain_basis,
    cochain_in_space,
    cohomology_dims,
    dual_rep,
    realized_gammas,
    validate_representation,
)
from bihomlie.cli import run_cli  # noqa: E402
from bihomlie.constructions import (  # noqa: E402
    CORPUS_NAMES,
    commutator_algebra,
    corpus,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    yau_twist,
)
from bihomlie.grading import parse_group  # noqa: E402
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


# kind -> (solver, public predicate, whether both take ``strict``)
PREDICATES = {
    "derivation": ("derivation_space", "is_derivation", False),
    "quasi_derivation": (
        "quasi_derivation_space", "is_quasi_derivation_pair", False
    ),
    "generalized_derivation": (
        "generalized_derivation_space", "is_generalized_triple", False
    ),
    "centroid": ("centroid_space", "is_centroid_member", True),
    "quasi_centroid": ("quasi_centroid_space", "is_quasi_centroid_member", True),
}


def _member_algebras():
    """(name, algebra) of the gl(2|1) twists and of the distinct algebras
    of the twisted modules of ``tests/fixtures.py::TWISTED``."""
    seen = []
    for name in GL21:
        seen.append(getattr(fixtures, name)())
        yield name, seen[-1]
    for name, make in fixtures.TWISTED.items():
        a = make().algebra
        if a not in seen:
            seen.append(a)
            yield name, a


def _changed(e, u, t, delta):
    rows = [list(row) for row in e.matrix.rows]
    rows[u][t] += delta
    return derivations.HomEndo(Matrix(rows), e.degree)


def _member_records():
    """The verdict of each kind's public predicate, with and without
    ``strict`` where it takes it, on every member of the kind's solver
    (both ways) at (k, l) in (0, 0), (1, 1) and every degree, and on three
    seeded copies of each member with one entry of one map changed: by
    1/11 inside the degree block, outside the block, and at a slot the
    commutation (with beta unless strict) forces to zero."""
    for name, a in _member_algebras():
        group = a.basis.group
        n = a.dim
        degrees = sorted(
            {group.sub(e, d) for e in a.basis.degrees for d in a.basis.degrees}
        )
        rng = random.Random(f"member/{name}")
        for k, l in ((0, 0), (1, 1)):
            for g in degrees:
                inside = derivations._block_slots(a, g)
                outside = sorted(
                    {(u, t) for u in range(n) for t in range(n)}
                    .difference(inside)
                )
                for kind, (solver, test, has_strict) in PREDICATES.items():
                    test = getattr(derivations, test)
                    modes = (False, True) if has_strict else (None,)
                    out = []
                    for solve_strict in modes:
                        opts = {} if solve_strict is None else {
                            "strict": solve_strict
                        }
                        live = derivations._commutation(
                            a, group.reduce(g), not solve_strict
                        )[0]
                        forced = sorted(set(inside).difference(live))
                        res = getattr(derivations, solver)(a, k, l, g, **opts)
                        for entry in res.basis:
                            members = (
                                entry if isinstance(entry, tuple) else (entry,)
                            )
                            copies = [members]
                            for slots, delta in (
                                (inside, Fraction(1, 11)),
                                (outside, Fraction(rng.choice((1, -2)), 3)),
                                (forced, Fraction(rng.choice((1, -2)), 3)),
                            ):
                                if slots:
                                    m = rng.randrange(len(members))
                                    changed = list(members)
                                    changed[m] = _changed(
                                        members[m], *rng.choice(slots), delta
                                    )
                                    copies.append(tuple(changed))
                            out += (
                                _verdicts(a, k, l, kind, test, modes, copy)
                                for copy in copies
                            )
                    yield (
                        f"member/{name}/{kind}/k{k}l{l}/{_degree(g)}",
                        tuple(out),
                    )


def _verdicts(a, k, l, kind, test, modes, members) -> tuple:
    """The predicate ``test`` on ``members`` in each of ``modes`` (None
    where it takes no ``strict``), then the first failing pair and defect
    of each identity of ``kind``, as the predicate evaluates it."""
    twisted = derivations._twisted(a, k, l)
    pick = dict(enumerate(e.matrix for e in members)).get
    return tuple(
        test(a, k, l, *members, **({} if s is None else {"strict": s}))
        for s in modes
    ) + tuple(
        derivations._bracket_defect(
            a, members[0].degree, twisted, *map(pick, cond[:3]), *cond[3:]
        )
        for cond in derivations._KINDS[kind][1]
    )


def _singular_solver_records():
    """The result or the error type and text of every solver at k = -1
    on osp(1|2) with the singular alpha diag(1, 0, 1, 2, 1)."""
    a = osp12_classical()
    a = a.with_product(a.product, alpha=Matrix.diagonal([1, 0, 1, 2, 1]))
    for solver in SOLVERS:
        yield f"solver-error/osp12_singular_alpha/{solver}", _outcome(
            lambda: getattr(derivations, solver)(a, -1, 0, (0,)).dimension
        )
    yield "solver-error/osp12_singular_alpha/inner", _outcome(
        lambda: derivations.inner_derivation_space(a, -1, 0).dimension
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
                if n < top:
                    yield (
                        f"coboundary/{name}/ad{s}{l}/n{n}/{_degree(g)}",
                        tuple(
                            apply_coboundary(rep, 1, f).int_values()
                            for f in basis
                        ),
                    )
                    if basis:
                        yield (
                            f"coboundary-sum/{name}/ad{s}{l}/n{n}/"
                            f"{_degree(g)}",
                            _coboundary_sum(rep, basis, random.Random(
                                f"sum/{name}/ad{s}{l}/n{n}/{_degree(g)}"
                            )),
                        )


def _coboundary_sum(rep, basis, rng) -> tuple:
    """The ``int_values()`` of d f and of d(d f) at r = 1, for f a
    combination of every basis cochain with integer coefficients drawn
    from ``rng``: a cochain on several slots, and its image."""
    f = basis[0].scale(0)
    for fb in basis:
        f = f.add(fb.scale(rng.choice((-3, -2, -1, 1, 2, 3))))
    image = apply_coboundary(rep, 1, f)
    return image.int_values(), apply_coboundary(rep, 1, image).int_values()


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
        yield f"report/{name}/flexible", check_flexible(a)
        for g in SUBGROUPS:
            # the report, or the type and text of the gate's refusal
            status, out = _outcome(lambda: check_g_associative(a, g))
            if status != "ok":
                out = status, out
            yield f"report/{name}/{g}", out
    yield from _jordan_records()
    for name, a in lie_corpus():
        for s, l in ((0, 1), (1, 0)):
            yield (
                f"report/{name}/ad{s}{l}/module",
                validate_representation(adjoint_rep(a, s, l)),
            )


def _jordan_records():
    """``check_jordan_axioms`` with both signs, by the algebra's own alpha
    and beta and by identity maps, on the derivation, centroid and
    quasi-centroid families at k = l = 0 and degree 0 of the algebras of
    :func:`_member_algebras`."""
    for name, a in _member_algebras():
        one = Matrix.identity(a.dim)
        zero = a.basis.group.zero()
        for kind in ("derivation", "centroid", "quasi_centroid"):
            solver = getattr(derivations, f"{kind}_space")
            family = solver(a, 0, 0, zero).basis
            for sign in (1, -1):
                for case, maps in (
                    ("maps", (a.alpha, a.beta)),
                    ("identity", (one, one)),
                ):
                    yield (
                        f"report/{name}/jordan/{kind}/{sign:+d}/{case}",
                        _outcome(
                            lambda: derivations.check_jordan_axioms(
                                family, a.eps, *maps, sign=sign
                            )
                        ),
                    )


def _module_checks(rep) -> tuple:
    """``validate_representation`` of ``rep`` and ``dual_rep``'s report
    with its candidate's maps."""
    dual, report = dual_rep(rep)
    maps = (*dual.rho, dual.alphaV, dual.betaV)
    return (
        validate_representation(rep),
        report,
        dual.space,
        tuple(m.int_column_terms() for m in maps),
    )


def _moved(rep, rng) -> tuple:
    """(where, module): ``rep`` with one entry of one matrix moved by a
    small fraction, an action entry, or an entry of alpha_V or beta_V."""
    d = rep.dimV
    which = rng.choice(("rho", "rho", "alphaV", "betaV"))
    r, c = rng.randrange(d), rng.randrange(d)
    delta = Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))

    def move(m: Matrix) -> Matrix:
        rows = [list(row) for row in m.rows]
        rows[r][c] += delta
        return Matrix(rows)

    rho, maps = list(rep.rho), {"alphaV": rep.alphaV, "betaV": rep.betaV}
    if which == "rho":
        i = rng.randrange(len(rho))
        rho[i] = move(rho[i])
        which = f"rho{i}"
    else:
        maps[which] = move(maps[which])
    return f"{which}[{r}][{c}]", Representation(
        rep.algebra, rep.space, rho, maps["alphaV"], maps["betaV"]
    )


def _module_records():
    """The module checks of :func:`_module_checks` on the adjoint modules
    of the gl(2|1) twists and of ``gl21_noncommuting_twist``, on two
    seeded copies of each with one entry moved, and on every module of
    ``fixtures.BROKEN_MODULES``."""
    rng = random.Random("module perturbations")
    for name in (*GL21, "gl21_noncommuting_twist"):
        a = getattr(fixtures, name)()
        for s, l in ((0, 1), (1, 0)):
            rep = adjoint_rep(a, s, l)
            where = f"module/{name}/ad{s}{l}"
            yield where, _module_checks(rep)
            for _ in range(2):
                moved, copy = _moved(rep, rng)
                yield f"{where}/{moved}", _module_checks(copy)
    for name, (make, _) in fixtures.BROKEN_MODULES.items():
        yield f"module/{name}", _module_checks(make())


def _gate_records():
    """The output or the refusal text of the ``yau_twist`` and
    ``commutator_algebra`` gates on every algebra whose reports are
    hashed: the twist by identity maps, by the algebra's own maps and by
    the identity with its columns reversed, then the commutator
    algebra."""

    def table(b):
        return (
            b.int_table("product_terms"),
            b.alpha.int_column_terms(),
            b.beta.int_column_terms(),
        )

    for name, a in _report_algebras():
        one = Matrix.identity(a.dim)
        flip = Matrix([row[::-1] for row in one.rows])
        for case, maps in (
            ("identity", (one, one)),
            ("maps", (a.alpha, a.beta)),
            ("reversed", (one, flip)),
        ):
            yield f"gate/{name}/yau_twist-{case}", _outcome(
                lambda: table(yau_twist(a, *maps))
            )
        yield f"gate/{name}/commutator_algebra", _outcome(
            lambda: table(commutator_algebra(a))
        )


def _outcome(call):
    """("ok", the result) of ``call()``, or the type and text of the
    ValueError or RuntimeError it raises."""
    try:
        return "ok", call()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _broken_module_records():
    """On each module of ``fixtures.BROKEN_MODULES``, at its r, every
    arity n <= 2 and realized degree: ``coboundary_matrix`` and
    ``cohomology_dims``, then, for each basis cochain, the membership of
    its image and ``apply_coboundary`` (validate=True) on that image."""
    for name, (make, r) in fixtures.BROKEN_MODULES.items():
        rep = make()
        for n in range(3):
            for g in realized_gammas(rep, n):
                where = f"error/{name}/n{n}/{_degree(g)}"
                yield f"{where}/matrix", _outcome(
                    lambda: coboundary_matrix(rep, n, r, g).int_column_terms()
                )
                yield f"{where}/dims", _outcome(
                    lambda: cohomology_dims(rep, n, r, g)
                )
                images = []
                for f in cochain_basis(rep, n, g):
                    image = apply_coboundary(rep, r, f, validate=False)
                    images.append(
                        (
                            cochain_in_space(rep, image),
                            _outcome(
                                lambda: apply_coboundary(
                                    rep, r, image
                                ).int_values()
                            ),
                        )
                    )
                yield f"{where}/images", tuple(images)


def _refused_cochains(rep, n, g, rng):
    """(case, cochain) of the cochains off the degree-g n-cochain space:
    a stored index outside the basis, a non-canonical tuple, a value in
    the wrong block and a basis cochain with one slot moved."""
    a, dimV = rep.algebra, rep.dimV
    group, degrees = a.basis.group, rep.space.degrees

    def unit(w):
        return tuple(int(u == w) for u in range(dimV))

    lead = tuple(range(n - 1))
    cases = [
        (f"outside{i}", Cochain(n, g, {lead + (i,): unit(0)}, dimV))
        for i in (a.dim, 99, -1)
    ]
    if n > 1:
        noncanonical = [(1, 0), (0, 0)] if a.eps_ij(0, 0) == 1 else [(1, 0)]
        cases += [
            (f"noncanonical{T}", Cochain(n, g, {T: unit(0)}, dimV))
            for T in noncanonical
        ]
    # the slots (T, w) of the right block, and one of the wrong block
    right, wrong = [], None
    for T in canonical_index_tuples(a, n):
        target = group.add(g, group.sum(a.degree(i) for i in T))
        for w, e in enumerate(degrees):
            if e == target:
                right.append((T, w))
            elif wrong is None:
                wrong = (T, w)
    if wrong is not None:
        T, w = wrong
        cases.append(("wrong_block", Cochain(n, g, {T: unit(w)}, dimV)))
    # a basis cochain plus 1 at a slot of the right block: seldom a member
    basis = cochain_basis(rep, n, g)
    for k in range(2):
        f = rng.choice(basis)
        T, w = rng.choice(right)
        moved = list(f.value(T))
        moved[w] += 1
        cases.append(
            (f"moved{k}", Cochain(n, g, {**f.values, T: moved}, dimV))
        )
    return cases


def _refused_cochain_records():
    """For cochains off their space on well-formed modules: the verdict
    and reason of ``cochain_in_space`` and ``apply_coboundary`` at r = 1
    with and without validation."""
    modules = {
        "osp12_twist_ad01": fixtures.TWISTED["osp12_twist_ad01"],
        "gl2_conjugation_twist": fixtures.TWISTED["gl2_conjugation_twist"],
        "gl21_fraction_twist": lambda: adjoint_rep(
            fixtures.gl21_fraction_twist(), 0, 1
        ),
    }
    for name, make in modules.items():
        rep = make()
        rng = random.Random(f"refused/{name}")
        g = rep.algebra.basis.group.zero()
        for n in (1, 2):
            for case, f in _refused_cochains(rep, n, g, rng):
                yield f"error/{name}/n{n}/{case}", (
                    cochain_in_space(rep, f),
                    _outcome(lambda: apply_coboundary(rep, 1, f).int_values()),
                    _outcome(
                        lambda: apply_coboundary(
                            rep, 1, f, validate=False
                        ).int_values()
                    ),
                )


DATA = TREE / "src" / "bihomlie" / "data"
SHIPPED = (
    "zero_3.alg",
    "osp12_classical.alg",
    "osp12_twist_2_3.alg",
    "mat2_assoc.alg",
    "z2z2_colour.alg",
)
COMMUTATOR = "commutator_mat2_assoc.alg"
# the commands a corpus sweep runs on each Lie file, besides "check"
CLI_COMMANDS = (
    ("derivations-der", ["derivations", "--kind", "der"]),
    ("derivations-centroid", ["derivations", "--kind", "centroid"]),
) + tuple(
    (f"cohomology-n{n}", ["cohomology", "--n", f"{n}", "--s", "0", "--l", "1"])
    for n in (1, 2, 3)
)


def _parse_and_cli_records():
    with tempfile.TemporaryDirectory() as tmp:
        texts = {name: (DATA / name).read_text("utf-8") for name in SHIPPED}
        mat2 = parse_algebra(texts["mat2_assoc.alg"])
        texts[COMMUTATOR] = serialize_algebra(commutator_algebra(mat2))
        paths = {}
        for name, text in texts.items():
            a = parse_algebra(text)
            yield f"parse/{name}", (
                a.basis,
                a.eps.group,
                a.eps.gen_values,
                a.int_table("product_terms"),
                a.alpha.int_column_terms(),
                a.beta.int_column_terms(),
                a.kind,
                serialize_algebra(a),
            )
            paths[name] = Path(tmp) / name
            paths[name].write_text(text, "utf-8")
        report = Path(tmp) / "report.json"
        for name, path in paths.items():
            commands = [("check", ["check"])]
            if name != "mat2_assoc.alg":
                commands += CLI_COMMANDS
            for command, (verb, *flags) in commands:
                argv = [verb, str(path), *flags, "--report", str(report)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run_cli(argv)
                text = report.read_text("utf-8") if report.exists() else None
                yield f"cli/{name}/{command}", (code, text)
                report.unlink(missing_ok=True)


def _run(argv, report=None):
    """The exit code and the text ``run_cli(argv)`` prints on stdout and
    on stderr, with the text of the ``--report`` file when ``report`` is
    given (None when the command wrote none)."""
    if report is not None:
        argv = [*argv, "--report", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    printed = code, out.getvalue(), err.getvalue()
    if report is None:
        return printed
    text = report.read_text("utf-8") if report.exists() else None
    report.unlink(missing_ok=True)
    return (*printed, text)


def _corpus_records():
    for name in CORPUS_NAMES:
        a = corpus(name)
        yield f"corpus/{name}", (
            serialize_algebra(a),
            a.int_table("product_terms"),
            a.alpha.int_column_terms(),
            a.beta.int_column_terms(),
            a.kind,
        )
    yield "cli/example/--list", _run(["example", "--list"])
    for name in CORPUS_NAMES:
        yield f"cli/example/{name}", _run(["example", name])
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "zero_40.alg")
        _run(["example", "zero_40", "-o", path])
        yield "cli/zero_40.alg/cohomology-n6", _run(
            ["cohomology", path, "--n", "6"]
        )


def _side_files():
    """(name, text) of the fixed side files of the twist commands."""
    yield "symmetric.mult", "0 0 1/2\n0 1 1/2\n1 0 1/2\n1 1 18\n"
    yield "asymmetric.mult", "0 0 1\n0 1 2\n1 0 3\n1 1 1\n"
    yield "flip.mult", "".join(
        f"{g[0]},{g[1]} {h[0]},{h[1]} {(-1) ** (g[1] * h[0])}\n"
        for g in ((0, 0), (0, 1), (1, 0), (1, 1))
        for h in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    for name, t in (("scale2.map", Fraction(2)), ("scale3.map", Fraction(3))):
        yield name, (
            f"X -> {t ** 2} X\nY -> {1 / t ** 2} Y\n"
            f"F -> {1 / t} F\nG -> {t} G\n"
        )
    yield "swap.map", "X -> Y\nY -> X\n"


def _twist_cli_records():
    """``admissible --group all`` on every shipped file, and the twist
    commands on shipped files with the side files of :func:`_side_files`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        side = {}
        for name, text in _side_files():
            side[name] = str(tmp / name)
            (tmp / name).write_text(text, "utf-8")
        report = tmp / "report.json"
        runs = []
        for name in SHIPPED:
            path = str(DATA / name)
            runs.append((f"{name}/admissible", ["admissible", path]))
            a = parse_algebra((DATA / name).read_text("utf-8"))
            if a.kind != "lie":
                continue
            constant = tmp / f"constant-{name}.mult"
            constant.write_text(fixtures.constant_multiplier(a), "utf-8")
            for verb in ("sigma-twist", "delta-twist"):
                runs.append(
                    (f"{name}/{verb}-constant", [verb, path, str(constant)])
                )
        osp = str(DATA / "osp12_classical.alg")
        runs += [
            (
                "osp12_classical.alg/sigma-twist-symmetric",
                ["sigma-twist", osp, side["symmetric.mult"]],
            ),
            (
                "osp12_classical.alg/sigma-twist-asymmetric",
                ["sigma-twist", osp, side["asymmetric.mult"]],
            ),
            (
                "z2z2_colour.alg/delta-twist-flip",
                ["delta-twist", str(DATA / "z2z2_colour.alg"), side["flip.mult"]],
            ),
            (
                "osp12_classical.alg/twist-scale",
                ["twist", osp, side["scale2.map"], side["scale3.map"]],
            ),
            (
                "osp12_classical.alg/twist-swap",
                ["twist", osp, side["swap.map"], side["scale3.map"]],
            ),
        ]
        for command, argv in runs:
            yield f"cli/{command}", _run(argv, report)


def _parse_error_records():
    basis = parse_algebra(fixtures.MINIMAL).basis
    readers = {
        "algebra": parse_algebra,
        "map": lambda text: parse_linear_map(text, basis),
        "multiplier": lambda text: parse_multiplier(text, parse_group("Z2")),
    }
    for case, (reader, text) in fixtures.MALFORMED.items():
        try:
            readers[reader](text)
        except ParseError as e:
            out = (str(e), e.line)
        else:
            out = "accepted"
        yield f"parse-error/{case}", out


def records():
    """(name, output) of every record, in a fixed order."""
    for name, a, top in _algebras():
        yield from _solver_records(name, a)
        yield from _cochain_records(name, a, top)
    yield from _member_records()
    yield from _singular_solver_records()
    yield from _broken_module_records()
    yield from _refused_cochain_records()
    yield from _matrix_records()
    yield from _report_records()
    yield from _module_records()
    yield from _gate_records()
    yield from _parse_and_cli_records()
    yield from _corpus_records()
    yield from _twist_cli_records()
    yield from _parse_error_records()


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


def tree_hashes(checkout) -> dict[str, str]:
    """The hash table of every record on the library of ``checkout``,
    written by this file's ``write`` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "golden.sha256"
        env = dict(os.environ, GOLDEN_TREE=str(Path(checkout).resolve()))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "write", str(out)],
            env=env,
            check=True,
        )
        return read(out)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1], hashes())
        return 0
    if len(argv) == 2 and argv[0] == "check":
        old, new = read(argv[1]), hashes()
    elif len(argv) == 3 and argv[0] == "diff":
        old, new = read(argv[1]), read(argv[2])
    elif len(argv) == 3 and argv[0] == "trees":
        old, new = tree_hashes(argv[1]), tree_hashes(argv[2])
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
