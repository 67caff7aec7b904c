"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one `criterion NN: PASS/FAIL` line (visible with
-s, or in the captured output of a failing test) and then asserts.  All
comparisons are exact rational arithmetic; nothing is rounded.
"""

import json
import time
from fractions import Fraction
from importlib import resources
from itertools import product as iproduct

import pytest

from bihomlie.admissibility import (
    check_g_associative,
    commutator_jacobiator,
    cyclic_S,
    primed_bracket,
)
from bihomlie.alg_io import parse_algebra, serialize_algebra
from bihomlie.algebra import check_lie_axioms
from bihomlie.cli import run_cli
from bihomlie.cohomology import (
    Cochain,
    adjoint_rep,
    apply_coboundary,
    coboundary_matrix,
    cochain_basis,
    cohomology_dims,
    realized_gammas,
)
from bihomlie.constructions import (
    CORPUS_NAMES,
    build_osp12,
    commutator_algebra,
    corpus,
    lie_corpus,
    mat2_assoc,
    osp12_classical,
    zero_algebra,
)
from bihomlie.derivations import (
    centroid_space,
    check_jordan_axioms,
    derivation_space,
    inner_derivation_space,
    is_quasi_derivation_pair,
)
from bihomlie.linalg import (
    Matrix,
    is_zero_vec,
    vadd,
    vscale,
    vsub,
)
from bihomlie.multipliers import (
    MultiplierTable,
    delta_twist,
    multiplier_from_omega,
    sigma_twist,
    validate_multiplier,
)
from dense_oracles import spans_equal

F = Fraction


def record(n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {n:2d}: {verdict}{suffix}")
    assert ok, f"criterion {n} failed{suffix}"


def finite_elements(group):
    assert group.free_rank == 0
    return [
        group.reduce(t)
        for t in iproduct(*(range(m) for m in group.torsion))
    ]


def all_gammas(a):
    grp = a.basis.group
    return sorted(
        {
            grp.sub(a.degree(u), a.degree(t))
            for u in range(a.dim)
            for t in range(a.dim)
        }
    )


def test_criterion_01_twist_table_values():
    t0 = time.perf_counter()
    a = build_osp12(2, 3)
    expected = {
        ("H", "X"): {"X": F(18)},
        ("H", "Y"): {"Y": F(-2, 9)},
        ("X", "Y"): {"H": F(4, 9)},
        ("Y", "G"): {"F": F(3, 4)},
        ("X", "F"): {"G": F(4, 3)},
        ("H", "F"): {"F": F(-1, 3)},
        ("H", "G"): {"G": F(3)},
        ("G", "F"): {"H": F(2, 3)},
        ("G", "G"): {"X": F(-12)},
        # {F,F} = [aF, bF] = (1/2)(1/3)[F,F], where [F,F] = 2 E31 = 2Y
        ("F", "F"): {"Y": F(1, 3)},
    }
    mismatches = []
    for (ln, rn), want in expected.items():
        got = a.product_eval(
            a.basis_vec(a.basis.index(ln)), a.basis_vec(a.basis.index(rn))
        )
        want_vec = [F(0)] * a.dim
        for name, c in want.items():
            want_vec[a.basis.index(name)] = c
        if got != tuple(want_vec):
            pretty = " + ".join(
                f"{c} {nm}" for c, nm in zip(got, a.basis.names) if c
            )
            mismatches.append(f"{{{ln},{rn}}} = {pretty or '0'}")
    elapsed = time.perf_counter() - t0
    detail = "; ".join(mismatches)
    if elapsed >= 1.0:
        detail = (detail + "; " if detail else "") + f"took {elapsed:.2f}s"
    record(1, not mismatches and elapsed < 1.0, detail)


def test_criterion_02_axiom_suite_on_the_twist_family():
    t0 = time.perf_counter()
    failures = []
    for lam, kap in ((2, 3), (1, 2), (3, 1), (F(1, 2), F(1, 3)), (5, 5)):
        if not check_lie_axioms(build_osp12(lam, kap)).passed:
            failures.append(f"({lam},{kap})")
    if not check_lie_axioms(commutator_algebra(mat2_assoc())).passed:
        failures.append("commutator(mat2_assoc)")
    elapsed = time.perf_counter() - t0
    detail = ", ".join(failures)
    if elapsed >= 5.0:
        detail = (detail + "; " if detail else "") + f"took {elapsed:.2f}s"
    record(2, not failures and elapsed < 5.0, detail)


def test_criterion_03_single_map_jacobi_defects():
    a = build_osp12(2, 1)
    al = a.alpha
    v = lambda name: a.basis_vec(a.basis.index(name))
    bk = a.product_eval
    X, Y, H, Fo, G = v("X"), v("Y"), v("H"), v("F"), v("G")

    got1 = vadd(
        vsub(bk(al.apply(X), bk(Y, H)), bk(al.apply(H), bk(X, Y))),
        bk(al.apply(Y), bk(H, X)),
    )
    want1 = vscale(F(63, 8), H)

    got2 = vadd(
        vsub(bk(al.apply(H), bk(Fo, Fo)), bk(al.apply(Fo), bk(H, Fo))),
        bk(al.apply(Fo), bk(Fo, H)),
    )
    # beta = id, alpha^2 F = F/4:
    # [H, Y] - [F/4, -F] + [F/4, F/2] = -2Y + 1/2 Y + 1/4 Y = -5/4 Y
    want2 = vscale(F(-5, 4), Y)

    problems = []
    if got1 != want1:
        problems.append(f"even combination = {got1}")
    if got2 != want2:
        pretty = " + ".join(
            f"{c} {nm}" for c, nm in zip(got2, a.basis.names) if c
        )
        problems.append(f"odd combination = {pretty}, expected -5/4 Y")
    record(3, not problems, "; ".join(problems))


def _composes_to_zero(m2, m1):
    # a zero-dimensional block anywhere makes the composite vacuously zero
    if 0 in (m1.nrows, m1.ncols, m2.nrows, m2.ncols):
        return True
    return (m2 * m1).is_zero()


def test_criterion_04_coboundary_squares_to_zero():
    bad = []
    for name, alg in lie_corpus():
        for s, l in ((0, 1), (1, 0)):
            rep = adjoint_rep(alg, s, l)
            for r in (0, 1, 2):
                for n in (1, 2):
                    for g in realized_gammas(rep, n):
                        hi = coboundary_matrix(rep, n + 1, r, g)
                        lo = coboundary_matrix(rep, n, r, g)
                        if not _composes_to_zero(hi, lo):
                            bad.append(f"{name} ad_{{{s},{l}}} r={r} n={n}")
    record(4, not bad, "; ".join(bad[:3]))


def _arity1_display(rep, f, i, j):
    a = rep.algebra
    g = f.degree
    dx, dy = a.degree(i), a.degree(j)
    x, y = a.basis_vec(i), a.basis_vec(j)
    ab = a.ab_power(1, 1)
    t1 = vscale(F(a.eps.eval(g, dx)), rep.act(ab.apply(x), f.eval(rep, [y])))
    t2 = vscale(
        F(a.eps.eval_many([g, dx], dy)),
        rep.act(ab.apply(y), f.eval(rep, [x])),
    )
    t3 = f.eval(rep, [a.product_eval(a.ab_power(-1, 1).apply(x), y)])
    return vsub(vsub(t1, t2), t3)


def _arity2_display(rep, f, i, j, k):
    a = rep.algebra
    g = f.degree
    dx, dy, dz = a.degree(i), a.degree(j), a.degree(k)
    x, y, z = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
    ab2 = a.ab_power(1, 2)
    invab = a.ab_power(-1, 1)
    e, em = a.eps.eval, a.eps.eval_many
    out = vscale(F(e(g, dx)), rep.act(ab2.apply(x), f.eval(rep, [y, z])))
    out = vsub(
        out,
        vscale(F(em([g, dx], dy)), rep.act(ab2.apply(y), f.eval(rep, [x, z]))),
    )
    out = vadd(
        out,
        vscale(
            F(em([g, dx, dy], dz)),
            rep.act(ab2.apply(z), f.eval(rep, [x, y])),
        ),
    )
    out = vsub(
        out, f.eval(rep, [a.product_eval(invab.apply(x), y), a.beta.apply(z)])
    )
    out = vadd(
        out,
        vscale(
            F(e(dy, dz)),
            f.eval(rep, [a.product_eval(invab.apply(x), z), a.beta.apply(y)]),
        ),
    )
    out = vadd(
        out, f.eval(rep, [a.beta.apply(x), a.product_eval(invab.apply(y), z)])
    )
    return out


def test_criterion_05_first_and_second_coboundary_displays():
    rep = adjoint_rep(build_osp12(2, 3), 0, 1)
    a = rep.algebra
    bad = 0
    for g in realized_gammas(rep, 1):
        for f in cochain_basis(rep, 1, g):
            df = apply_coboundary(rep, 1, f)
            for i, j in iproduct(range(a.dim), repeat=2):
                lhs = df.eval(rep, [a.basis_vec(i), a.basis_vec(j)])
                if lhs != _arity1_display(rep, f, i, j):
                    bad += 1
    for g in realized_gammas(rep, 2):
        for f in cochain_basis(rep, 2, g):
            df = apply_coboundary(rep, 1, f)
            for i, j, k in iproduct(range(a.dim), repeat=3):
                lhs = df.eval(
                    rep, [a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)]
                )
                if lhs != _arity2_display(rep, f, i, j, k):
                    bad += 1
    record(5, bad == 0, f"{bad} mismatching tuples" if bad else "")


def _cochain_flat_rowmajor(rep, f):
    a = rep.algebra
    cols = [f.value((i,)) for i in range(a.dim)]
    return tuple(c for row in zip(*cols) for c in row)


def test_criterion_06_degree_one_kernel_is_a_derivation_space():
    bad = []
    for alg_name, alg in (
        ("osp12_classical", osp12_classical()),
        ("osp12_twist(2,3)", build_osp12(2, 3)),
    ):
        for s, l in ((0, 1), (1, 1)):
            rep = adjoint_rep(alg, s, l)
            for g in realized_gammas(rep, 1):
                dom = cochain_basis(rep, 1, g)
                mat = coboundary_matrix(rep, 1, 0, g)
                kernel = []
                if dom and 0 not in (mat.nrows, mat.ncols):
                    for co in mat.kernel_basis():
                        f = dom[0].scale(0)
                        for c, fb in zip(co, dom):
                            f = f.add(fb.scale(c))
                        kernel.append(_cochain_flat_rowmajor(rep, f))
                elif dom:
                    kernel = [_cochain_flat_rowmajor(rep, f) for f in dom]
                ds = derivation_space(alg, s + 2, l - 1, g)
                ders = [
                    tuple(c for row in h.matrix.rows for c in row)
                    for h in ds.basis
                ]
                tag = f"{alg_name} (s,l)=({s},{l}) degree {g}"
                if len(kernel) != ds.dimension:
                    bad.append(
                        f"{tag}: dim {len(kernel)} vs {ds.dimension}"
                    )
                elif kernel and not spans_equal(kernel, ders):
                    bad.append(f"{tag}: spans differ")
    record(6, not bad, "; ".join(bad[:3]))


def _fixed_central_dimension(alg):
    """Direct solve of alpha(x)=x, beta(x)=x, [x, e_j]=0 for all j."""
    ida = Matrix.identity(alg.dim)
    rows = list((alg.alpha - ida).rows) + list((alg.beta - ida).rows)
    for j in range(alg.dim):
        for u in range(alg.dim):
            rows.append(
                tuple(alg.product[t][j][u] for t in range(alg.dim))
            )
    return len(Matrix(rows).kernel_basis())


def test_criterion_07_degree_zero_cohomology_is_the_fixed_centre():
    bad = []
    for name in CORPUS_NAMES:
        alg = corpus(name)
        rep = adjoint_rep(alg, 0, 1)
        total = sum(
            cohomology_dims(rep, 0, 1, g).dim_h
            for g in realized_gammas(rep, 0)
        )
        direct = _fixed_central_dimension(alg)
        if total != direct:
            bad.append(f"{name}: {total} vs {direct}")
    record(7, not bad, "; ".join(bad))


def _s_symmetry_holds(a):
    for i, j, k in iproduct(range(a.dim), repeat=3):
        x, y, z = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
        dx, dy, dz = a.degree(i), a.degree(j), a.degree(k)
        w = (
            a.eps.eval(dx, dy)
            * a.eps.eval(dy, dz)
            * a.eps.eval(dz, dx)
        )
        if cyclic_S(a, x, y, z) != vscale(F(w), cyclic_S(a, x, z, y)):
            return False
    return True


def _commutator_jacobi_clean(a):
    return all(
        is_zero_vec(commutator_jacobiator(a, i, j, k))
        for i, j, k in iproduct(range(a.dim), repeat=3)
    )


def test_criterion_08_cyclic_sum_equivalences():
    bad = []
    for name in CORPUS_NAMES:
        a = corpus(name)
        try:
            for i, j, k in iproduct(range(a.dim), repeat=3):
                cyclic_S(a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k))
        except RuntimeError:
            bad.append(f"{name}: the two cyclic-sum forms disagree")
            continue
        g6 = check_g_associative(a, "G6").passed
        if _s_symmetry_holds(a) != g6:
            bad.append(f"{name}: symmetry/G6 verdicts differ")
        if g6 != _commutator_jacobi_clean(a):
            bad.append(f"{name}: G6/commutator verdicts differ")
    record(8, not bad, "; ".join(bad))


def test_criterion_09_subgroup_pass_implies_full_pass():
    bad = []
    for name in CORPUS_NAMES:
        a = corpus(name)
        g6 = check_g_associative(a, "G6").passed
        for g in ("G1", "G2", "G3", "G4", "G5"):
            if check_g_associative(a, g).passed and not g6:
                bad.append(f"{name}: {g} passes but G6 fails")
    record(9, not bad, "; ".join(bad))


def test_criterion_10_doubled_bracket():
    bad = []
    for name, a in lie_corpus():
        if not check_lie_axioms(a).passed:
            bad.append(f"{name}: not a passing bracket")
            continue
        p = primed_bracket(a)
        for i, j in iproduct(range(a.dim), repeat=2):
            if p.product[i][j] != tuple(2 * c for c in a.product[i][j]):
                bad.append(f"{name}: entry ({i},{j})")
                break
    record(10, not bad, "; ".join(bad))


def test_criterion_11_multiplier_twists():
    bad = []
    omega_values = (F(2), F(1, 3), F(5), F(7, 2))
    for name, a in lie_corpus():
        grp = a.basis.group
        omega = {
            g: omega_values[i % len(omega_values)]
            for i, g in enumerate(finite_elements(grp))
        }
        occurring = sorted(set(a.basis.degrees))
        table = multiplier_from_omega(grp, omega, occurring)
        if not validate_multiplier(table, occurring, mode="symmetric").passed:
            bad.append(f"{name}: ratio multiplier not symmetric-valid")
            continue
        if not check_lie_axioms(sigma_twist(a, table)).passed:
            bad.append(f"{name}: rescaled bracket fails the suite")

    z = corpus("z2z2_colour_example")
    entries = {
        (g, h): F((-1) ** (g[1] * h[0]))
        for g in finite_elements(z.basis.group)
        for h in finite_elements(z.basis.group)
    }
    table = MultiplierTable(z.basis.group, entries)
    occurring = sorted(set(z.basis.degrees))
    if not validate_multiplier(table, occurring, mode="cocycle").passed:
        bad.append("sign table fails the cocycle law")
    else:
        flipped = delta_twist(z, table)
        if not check_lie_axioms(flipped).passed:
            bad.append("cocycle-twisted bracket fails under its ratio grading")
    record(11, not bad, "; ".join(bad))


def test_criterion_12_derivation_solver_golden_values():
    bad = []
    if derivation_space(zero_algebra(3), 0, 0, ()).dimension != 9:
        bad.append("zero_3 derivations")
    a = osp12_classical()
    total = sum(
        derivation_space(a, 0, 0, g).dimension for g in ((0,), (1,))
    )
    if total != 5:
        bad.append(f"osp derivations: {total}")
    inner = inner_derivation_space(a, 0, 0)
    # independent count: dimension of the fixed subspace minus the fixed
    # vectors whose right bracket vanishes identically
    ida = Matrix.identity(a.dim)
    stack = Matrix(list((a.alpha - ida).rows) + list((a.beta - ida).rows))
    fixed = len(stack.kernel_basis())
    oracle = fixed - _fixed_central_dimension(a)
    if inner.dimension != 5 or inner.dimension != oracle:
        bad.append(f"inner: {inner.dimension}, oracle {oracle}")
    cent = sum(
        centroid_space(a, 0, 0, g).dimension for g in ((0,), (1,))
    )
    if cent != 1:
        bad.append(f"centroid: {cent}")
    record(12, not bad, "; ".join(bad))


def test_criterion_13_centroid_pairs_and_the_jordan_identity():
    bad = []
    for name, a in lie_corpus():
        for g in all_gammas(a):
            for d in centroid_space(a, 0, 0, g).basis:
                if not is_quasi_derivation_pair(a, 0, 0, d, d.scale(2)):
                    bad.append(f"{name}: centroid member at degree {g}")
    a = osp12_classical()
    ders = list(derivation_space(a, 0, 0, (0,)).basis) + list(
        derivation_space(a, 0, 0, (1,)).basis
    )
    ida = Matrix.identity(a.dim)
    report = check_jordan_axioms(ders, a.eps, ida, ida)
    if not report.passed:
        bad.append(
            "derivation product: "
            + ", ".join(it.name for it in report.failures())
        )
    record(13, not bad, "; ".join(bad))


def test_criterion_14_io_round_trip_and_exit_codes(tmp_path, capsys):
    bad = []
    data = resources.files("bihomlie").joinpath("data")
    for entry in sorted(data.iterdir()):
        if not entry.name.endswith(".alg"):
            continue
        text = entry.read_text(encoding="utf-8")
        a = parse_algebra(text)
        canon = serialize_algebra(a)
        if parse_algebra(canon) != a or serialize_algebra(parse_algebra(canon)) != canon:
            bad.append(f"{entry.name}: round trip drifts")

    ok_file = str(data.joinpath("osp12_classical.alg"))
    if run_cli(["check", ok_file]) != 0:
        bad.append("passing fixture did not exit 0")
    twisted = data.joinpath("osp12_twist_2_3.alg").read_text(encoding="utf-8")
    failing = tmp_path / "failing.alg"
    failing.write_text(twisted.replace("F F -> 1/3 Y", "F F -> 4/3 Y"))
    if run_cli(["check", str(failing)]) != 1:
        bad.append("failing fixture did not exit 1")
    garbage = tmp_path / "garbage.alg"
    garbage.write_text("not a structure file\n")
    if run_cli(["check", str(garbage)]) != 2:
        bad.append("garbage fixture did not exit 2")
    capsys.readouterr()
    record(14, not bad, "; ".join(bad))
