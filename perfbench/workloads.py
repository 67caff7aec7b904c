"""The benchmark's workloads: set-up, job lists and output digests.

Every call into bihomlie goes through a module attribute looked up at call
time (``derivations.derivation_space``), so the traced run sees it.

Why these workloads:

* ``corpus-sweep`` is what users run on the shipped corpus: the CLI in
  process on every ``.alg`` file.  Its time goes to evaluation, assembly and
  the d∘d re-check (osp(1|2) H³); RREF is a few per cent.  It is the only
  workload that exercises ``alg_io`` and ``cli``.
* ``gl21-solvers`` runs the axiom suite and every derivation/centroid solver
  on a twisted gl(2|1).  RREF on systems up to 540×123 and the solvers'
  re-verification dominate; cohomology is not called.
* ``gl21-cohomology`` is H¹ and H² of the same algebra's adjoint module:
  ``kernel_basis`` on the intertwining constraints, then ``solve_many`` with
  many right-hand sides.  Paired with ``corpus-sweep`` it separates gains in
  assembly/verification from gains in the exact solve.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bihomlie import alg_io, algebra, cli, cohomology, constructions, derivations
from bihomlie.grading import GradedBasis, GradingGroup, super_bicharacter
from bihomlie.linalg import Matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "bihomlie" / "data"
OUT = ROOT / ".perfbench_out"
PINS = Path(__file__).resolve().parent / "pins.json"


@dataclass
class Job:
    """One call into the library; ``digest`` maps its result to JSON data
    that is compared with the pinned value."""

    key: str
    run: Callable[[], object]
    digest: Callable[[object], object]


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def _report_digest(report) -> dict:
    return {
        "passed": report.passed,
        "items": [[it.name, it.passed] for it in report.items],
    }


def _dimension(result) -> int:
    return result.dimension


def _cohomology_digest(res) -> list:
    return [
        list(res.degree),
        res.dim_cochains,
        res.dim_cocycles,
        res.dim_coboundaries,
        res.dim_h,
    ]


# -- corpus-sweep ---------------------------------------------------------------

LIE_FILES = ("zero_3", "osp12_classical", "osp12_twist_2_3", "z2z2_colour")
COMMUTATOR = "commutator_mat2_assoc"


def _cli_job(key: str, argv: list[str]) -> Job:
    report = OUT / "reports" / f"{key}.json"

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_cli(argv + ["--report", str(report)])

    def digest(code: int) -> dict:
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        report.unlink()
        payload = doc["payload"]
        if doc["command"] == "check":
            out = {
                "suite": payload["suite"],
                "passed": payload["passed"],
                "items": [[it["name"], it["passed"]] for it in payload["items"]],
            }
        elif doc["command"] == "derivations":
            out = [[r["degree"], r["dimension"]] for r in payload]
        else:
            out = [
                [
                    r["degree"],
                    r["dim_cochains"],
                    r["dim_cocycles"],
                    r["dim_coboundaries"],
                    r["dim_h"],
                ]
                for r in payload
            ]
        return {"exit": code, "result": out}

    return Job(key, run, digest)


def corpus_sweep(seed: int) -> list[Job]:
    """The shipped corpus through ``run_cli``; the seed orders the jobs.

    mat2_assoc is checked as shipped, then enters the Lie jobs through its
    commutator algebra, written next to the reports.
    """
    (OUT / "reports").mkdir(parents=True, exist_ok=True)
    mat2 = alg_io.parse_algebra((DATA / "mat2_assoc.alg").read_text("utf-8"))
    commutator = OUT / f"{COMMUTATOR}.alg"
    commutator.write_text(
        alg_io.serialize_algebra(constructions.commutator_algebra(mat2)),
        "utf-8",
    )
    files = {stem: str(DATA / f"{stem}.alg") for stem in LIE_FILES}
    files[COMMUTATOR] = str(commutator)
    jobs = [_cli_job("mat2_assoc.check", ["check", str(DATA / "mat2_assoc.alg")])]
    for stem, path in files.items():
        jobs.append(_cli_job(f"{stem}.check", ["check", path]))
        for kind in ("der", "centroid"):
            jobs.append(
                _cli_job(
                    f"{stem}.derivations.{kind}",
                    ["derivations", path, "--kind", kind],
                )
            )
        for n in (1, 2, 3):
            jobs.append(
                _cli_job(
                    f"{stem}.cohomology.n{n}",
                    ["cohomology", path, "--n", str(n), "--s", "0", "--l", "1", "--r", "1"],
                )
            )
    random.Random(seed).shuffle(jobs)
    return jobs


# -- the generated gl(2|1) ------------------------------------------------------

# Twist parameters are the primes 2, 3, 5, 7 in an order drawn from the
# seed, so no product of integer powers of them is 1: the diagonal ratios
# stay generic on every seed, and with them the pinned dimensions.  Every
# seed uses the same four numbers, so entry sizes, and with them run times,
# barely depend on the seed.
PRIMES = (2, 3, 5, 7)
PARITIES = (0, 0, 1)  # gl(2|1): two even and one odd index


def twist_parameters(seed: int) -> tuple[tuple[Fraction, ...], ...]:
    values = [Fraction(p) for p in random.Random(seed).sample(PRIMES, 4)]
    return (Fraction(1), values[0], values[1]), (Fraction(1), values[2], values[3])


def matrix_units() -> algebra.ColourAlgebra:
    """Z2-graded 3×3 matrix units under multiplication, identity maps."""
    n = len(PARITIES)
    units = [(i, j) for i in range(n) for j in range(n)]
    index = {u: k for k, u in enumerate(units)}
    basis = GradedBasis(
        GradingGroup(0, (2,)),
        tuple(f"E{i + 1}{j + 1}" for i, j in units),
        tuple(((PARITIES[i] + PARITIES[j]) % 2,) for i, j in units),
    )
    d = len(units)
    product = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for r, (i, j) in enumerate(units):
        for c, (k, l) in enumerate(units):
            if j == k:
                product[r][c][index[(i, l)]] = Fraction(1)
    return algebra.ColourAlgebra(
        basis,
        super_bicharacter(),
        product,
        Matrix.identity(d),
        Matrix.identity(d),
        kind="associative",
    )


def conjugation(diag) -> Matrix:
    """E_ij -> (d_i / d_j) E_ij, an even automorphism of the matrix units."""
    n = len(diag)
    return Matrix.diagonal([diag[i] / diag[j] for i in range(n) for j in range(n)])


def gl21(seed: int) -> algebra.ColourAlgebra:
    a2, b2 = twist_parameters(seed)
    lie = constructions.commutator_algebra(matrix_units())
    return constructions.yau_twist(lie, conjugation(a2), conjugation(b2))


def gl21_solvers(seed: int) -> list[Job]:
    a = gl21(seed)
    jobs = [Job("check_lie_axioms", lambda: algebra.check_lie_axioms(a), _report_digest)]
    for gamma in ((0,), (1,)):
        for name in (
            "derivation_space",
            "centroid_space",
            "quasi_derivation_space",
            "generalized_derivation_space",
            "quasi_centroid_space",
        ):
            jobs.append(
                Job(
                    f"{name}@{gamma[0]}",
                    lambda name=name, gamma=gamma: getattr(derivations, name)(
                        a, 0, 0, gamma
                    ),
                    _dimension,
                )
            )
    jobs.append(
        Job(
            "inner_derivation_space",
            lambda: derivations.inner_derivation_space(a, 0, 0),
            _dimension,
        )
    )
    return jobs


def gl21_cohomology(seed: int) -> list[Job]:
    rep = cohomology.adjoint_rep(gl21(seed), 0, 1)
    return [
        Job(
            f"cohomology_dims@n{n}",
            lambda n=n: cohomology.cohomology_dims(rep, n, 1, (0,)),
            _cohomology_digest,
        )
        for n in (1, 2)
    ]


# name -> set-up; a set-up takes the seed and returns the job list.
WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "corpus-sweep": corpus_sweep,
    "gl21-solvers": gl21_solvers,
    "gl21-cohomology": gl21_cohomology,
}
