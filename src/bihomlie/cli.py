"""Command-line front end.

Exit codes: 0 all requested checks passed (or the computation finished),
1 a requested axiom check failed (the witness is printed), 2 bad input or
usage.  `--report PATH` writes a JSON document with a `version` field and
rationals rendered as strings; `example` and `roundtrip` write no report
and take no `--report`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .admissibility import SUBGROUPS, check_g_associative
from .alg_io import (
    ParseError,
    jsonable,
    parse_algebra,
    parse_linear_map,
    parse_multiplier,
    serialize_algebra,
)
from .algebra import SUITES as _SUITES
from .algebra import AxiomReport, ColourAlgebra, check_lie_axioms
from .cohomology import adjoint_rep, cohomology_dims, realized_gammas
from .constructions import CORPUS_NAMES, corpus, yau_twist
from .derivations import (
    centroid_space,
    derivation_space,
    generalized_derivation_space,
    quasi_centroid_space,
    quasi_derivation_space,
)
from .grading import format_degree, parse_degree
from .multipliers import delta_twist, sigma_twist, validate_multiplier

_DERIVATION_KINDS = {
    "der": derivation_space,
    "qder": quasi_derivation_space,
    "gder": generalized_derivation_space,
    "centroid": centroid_space,
    "qcentroid": quasi_centroid_space,
}

# The largest |exponent| of a structure map the command line accepts:
# Matrix.power multiplies |k| times while the entries grow, and
# `derivations osp12_twist_2_3.alg --kind der --degree 0 --k N` took 0.4 s
# at N = 10^4 and 12 s at N = 10^5 (2-vCPU x86-64 VM).
MAX_EXPONENT = 10_000


# The largest `cohomology --n`: on osp12_classical the run took 1.4 s at
# n = 16, 6.5 s at n = 24 and 39 s at n = 40, and the canonical tuples alone
# 0.28 s at n = 40 and 4.7 s at n = 80, about as n^4 (2-vCPU x86-64 VM).
MAX_ARITY = 16


def exponent(text: str) -> int:
    k = int(text)
    if abs(k) > MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"|{k}| exceeds {MAX_EXPONENT}")
    return k


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> ColourAlgebra:
    return parse_algebra(_read(path))


def _print_report(report: AxiomReport) -> None:
    for it in report.items:
        if it.passed:
            line = f"  ok    {it.name}"
        elif it.advisory:
            line = f"  note  {it.name} (advisory)"
        else:
            line = f"  FAIL  {it.name}"
        if it.note:
            line += f"  [{it.note}]"
        print(line)
        if not it.passed and it.witness is not None:
            w = it.witness
            where = ", ".join(w.names) if w.names else "(global)"
            print(f"          at {where}: defect {w.defect_str}")


def _write_json(path: str | None, command: str, payload) -> None:
    if not path:
        return
    doc = {"version": 1, "command": command, "payload": jsonable(payload)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_algebra(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    a = _load(args.file)
    suite = args.axioms
    if suite == "auto":
        suite = a.kind if a.kind in ("lie", "associative") else "bihom"
    report = _SUITES[suite](a)
    print(f"{args.file}: {suite} suite")
    _print_report(report)
    verdict = "PASS" if report.passed else "FAIL"
    print(verdict)
    _write_json(
        args.report, "check", {"suite": suite, **report.to_dict()}
    )
    return 0 if report.passed else 1


def _emit_twisted(args, command: str, twisted: ColourAlgebra) -> int:
    """The tail of every twist command: check the bracket suite on the
    twisted algebra, write the algebra out, print a failing report (its
    header on stderr), write the JSON report and return the exit code."""
    report = check_lie_axioms(twisted)
    _emit_algebra(serialize_algebra(twisted), args.output)
    if not report.passed:
        print("twisted algebra FAILS the bracket suite", file=sys.stderr)
        _print_report(report)
    _write_json(args.report, command, report.to_dict())
    return 0 if report.passed else 1


def _cmd_twist(args) -> int:
    a = _load(args.file)
    a2 = parse_linear_map(_read(args.a2), a.basis, "a2")
    b2 = parse_linear_map(_read(args.b2), a.basis, "b2")
    return _emit_twisted(args, "twist", yau_twist(a, a2, b2))


def _run_multiplier_twist(args) -> int:
    a = _load(args.file)
    table = parse_multiplier(_read(args.sigma), a.basis.group)
    occurring = sorted(set(a.basis.degrees))
    verdict = validate_multiplier(table, occurring, mode=args.mode)
    if not verdict.passed:
        print("multiplier validation failed:")
        _print_report(verdict)
        _write_json(args.report, args.command, verdict.to_dict())
        return 1
    twisted = (
        sigma_twist(a, table)
        if args.command == "sigma-twist"
        else delta_twist(a, table)
    )
    return _emit_twisted(args, args.command, twisted)


def _cmd_admissible(args) -> int:
    a = _load(args.file)
    groups = list(SUBGROUPS) if args.group == "all" else [args.group]
    payload = {}
    failed = False
    for g in groups:
        report = check_g_associative(a, g)
        payload[g] = report.to_dict()
        print(f"{g}: {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            failed = True
            _print_report(report)
    _write_json(args.report, "admissible", payload)
    return 1 if failed else 0


def _refuse_failing_axiom(a: ColourAlgebra) -> None:
    """ValueError naming the first failing item of the bracket suite on
    ``a``, with its witness, when there is one: run only once the complex
    has failed its d∘d or codomain check, to blame the input and not the
    complex."""
    report = check_lie_axioms(a)
    for it in report.items:
        if not it.passed and not it.advisory:
            text = (
                "cohomology needs a BiHom-Lie colour algebra, and this one "
                f"fails {it.name}"
            )
            w = it.witness
            if w is not None:
                text += f" at ({', '.join(w.names)}): defect {w.defect_str}"
            raise ValueError(text)


def _cmd_cohomology(args) -> int:
    if args.n < 0:
        raise ValueError("cochain arity must be nonnegative")
    if args.n > MAX_ARITY:
        raise ValueError(f"cochain arity {args.n} exceeds {MAX_ARITY}")
    a = _load(args.file)
    rep = adjoint_rep(a, args.s, args.l)
    if args.degree is not None:
        gammas = [parse_degree(a.basis.group, args.degree)]
    else:
        gammas = realized_gammas(rep, args.n)
    payload = []
    for g in gammas:
        try:
            res = cohomology_dims(rep, args.n, args.r, g)
        except RuntimeError:
            _refuse_failing_axiom(a)
            raise
        payload.append(res.to_dict())
        print(
            f"degree {format_degree(g) or '()'}: "
            f"dim C={res.dim_cochains} Z={res.dim_cocycles} "
            f"B={res.dim_coboundaries} H={res.dim_h}"
        )
    _write_json(args.report, "cohomology", payload)
    return 0


def _cmd_derivations(args) -> int:
    if args.strict and args.kind not in ("centroid", "qcentroid"):
        raise ValueError("--strict applies only to --kind centroid|qcentroid")
    a = _load(args.file)
    solver = _DERIVATION_KINDS[args.kind]
    group = a.basis.group
    if args.degree is not None:
        gammas = [parse_degree(group, args.degree)]
    else:
        gammas = sorted(
            {
                group.sub(a.degree(u), a.degree(t))
                for u in range(a.dim)
                for t in range(a.dim)
            }
        )
    kwargs = {"strict": True} if args.strict else {}
    payload = []
    total = 0
    for g in gammas:
        res = solver(a, args.k, args.l, g, **kwargs)
        payload.append(res.to_dict())
        total += res.dimension
        print(f"degree {format_degree(g) or '()'}: dim {res.dimension}")
    print(f"total: {total}")
    _write_json(args.report, "derivations", payload)
    return 0


def _cmd_example(args) -> int:
    if args.list:
        for name in CORPUS_NAMES:
            print(name)
        return 0
    if not args.name:
        print("error: name required (or --list)", file=sys.stderr)
        return 2
    a = corpus(args.name)
    _emit_algebra(serialize_algebra(a), args.output)
    return 0


def _cmd_roundtrip(args) -> int:
    text = _read(args.file)
    a = parse_algebra(text)
    canon = serialize_algebra(a)
    b = parse_algebra(canon)
    again = serialize_algebra(b)
    if a != b or canon != again:
        print("round-trip MISMATCH", file=sys.stderr)
        return 1
    print(f"{args.file}: round-trip OK ({a.dim}-dim, kind {a.kind})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bihomlie",
        description="Exact computations with BiHom-Lie colour algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--report", help="write a JSON report to this path")
        return sp

    sp = add("check", _cmd_check, "run an axiom suite on an algebra file")
    sp.add_argument("file")
    sp.add_argument(
        "--axioms",
        choices=("auto", *_SUITES),
        default="auto",
    )

    sp = add("twist", _cmd_twist, "twist a bracket by two even morphisms")
    sp.add_argument("file")
    sp.add_argument("a2", help="side file of 'x -> expr' lines")
    sp.add_argument("b2", help="side file of 'x -> expr' lines")
    sp.add_argument("-o", "--output", help="write the result here")

    for name, mode in (("sigma-twist", "symmetric"), ("delta-twist", "cocycle")):
        sp = add(
            name,
            _run_multiplier_twist,
            "rescale a bracket by a multiplier table",
        )
        sp.set_defaults(mode=mode)
        sp.add_argument("file")
        sp.add_argument("sigma", help="side file of 'g h v' lines")
        sp.add_argument("-o", "--output", help="write the result here")

    sp = add(
        "admissible",
        _cmd_admissible,
        "signed associator sums over S3 subgroups",
    )
    sp.add_argument("file")
    sp.add_argument(
        "--group", choices=tuple(SUBGROUPS) + ("all",), default="all"
    )

    sp = add("cohomology", _cmd_cohomology, "cochain/cocycle dimensions")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=exponent, default=1)
    sp.add_argument("--rep", choices=("adjoint",), default="adjoint")
    sp.add_argument("--s", type=exponent, default=0)
    sp.add_argument("--l", type=exponent, default=1)
    sp.add_argument("--degree", help="comma-separated tuple; default: all")

    sp = add("derivations", _cmd_derivations, "twisted derivation solvers")
    sp.add_argument("file")
    sp.add_argument(
        "--kind", choices=tuple(_DERIVATION_KINDS), required=True
    )
    sp.add_argument("--k", type=exponent, default=0)
    sp.add_argument("--l", type=exponent, default=0)
    sp.add_argument("--degree", help="comma-separated tuple; default: all")
    sp.add_argument(
        "--strict",
        action="store_true",
        help="centroid kinds: do not impose commutation with beta",
    )

    # the two commands that write no report take no --report
    sp = sub.add_parser("example", help="emit a built-in algebra file")
    sp.set_defaults(func=_cmd_example)
    sp.add_argument("name", nargs="?")
    sp.add_argument("-o", "--output", help="write the file here")
    sp.add_argument("--list", action="store_true")

    sp = sub.add_parser("roundtrip", help="parse/serialize fixpoint check")
    sp.set_defaults(func=_cmd_roundtrip)
    sp.add_argument("file")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run_cli`, built on first use and kept for the
    process: parsing leaves it unchanged, and rebuilding it per call would
    leave a web of reference cycles to the garbage collector each time.
    The handlers it names look up their dispatch tables when they run."""
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (
        ParseError,
        OSError,
        ValueError,
        KeyError,
        RuntimeError,
        ZeroDivisionError,
    ) as e:
        # OSError covers a path that is missing, a directory or unreadable;
        # str() of a KeyError quotes its argument, so print the message
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
