"""Laurent-polynomial extension of a bracket, exercised by sampling.

The extension A[t, t^-1] keeps the grading of A (the t factor carries no
degree), the maps act on the A factor only, and brackets multiply the
coefficient polynomials:

    [x (x) f(t), y (x) g(t)] = [x, y] (x) f(t) g(t).

The extension is infinite dimensional, so it is never materialized; the
bracket formula is exact and the axioms are spot-verified on caller-chosen
sample triples.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .algebra import AxiomReport, CheckItem, ColourAlgebra, Witness
from .grading import homogeneous_degree
from .linalg import Vec, is_zero_vec, vadd, vscale, vzero

Scalar = int | Fraction | str


class LaurentPoly:
    """Sparse f(t) = sum of c_k t^k with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] = ()):
        table: dict[int, Fraction] = {}
        for k, v in dict(coeffs).items():
            v = Fraction(v)
            if v:
                table[int(k)] = v
        self.coeffs = table

    @classmethod
    def term(cls, k: int, c: Scalar = 1) -> "LaurentPoly":
        return cls({k: c})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return LaurentPoly(out)

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{k}")
            else:
                parts.append(f"{c} t^{k}")
        return " + ".join(parts)

    __repr__ = __str__


# A Laurent element is a finite sum of homogeneous tensors x (x) f(t),
# stored as exponent -> coordinate vector over A.
LaurentElement = dict


def _tensor(x: Vec, f: LaurentPoly) -> LaurentElement:
    out: LaurentElement = {}
    for k, c in f.coeffs.items():
        v = vscale(c, x)
        if not is_zero_vec(v):
            out[k] = v
    return out


def _lsub(p: LaurentElement, q: LaurentElement, n: int) -> LaurentElement:
    out = dict(p)
    for k, v in q.items():
        w = vadd(out.get(k, vzero(n)), vscale(Fraction(-1), v))
        if is_zero_vec(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def _lbracket(
    a: ColourAlgebra, p: LaurentElement, q: LaurentElement
) -> LaurentElement:
    n = a.dim
    out: LaurentElement = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            w = a.product_eval(v1, v2)
            if is_zero_vec(w):
                continue
            k = k1 + k2
            acc = vadd(out.get(k, vzero(n)), w)
            if is_zero_vec(acc):
                out.pop(k, None)
            else:
                out[k] = acc
    return out


def _lmap(m, p: LaurentElement) -> LaurentElement:
    out = {}
    for k, v in p.items():
        w = m.apply(v)
        if not is_zero_vec(w):
            out[k] = w
    return out


def _fmt_lelt(a: ColourAlgebra, p: LaurentElement) -> str:
    from .algebra import format_element

    if not p:
        return "0"
    return " + ".join(
        f"({format_element(a.basis, p[k])}) t^{k}" for k in sorted(p)
    )


def laurent_bracket(
    a: ColourAlgebra, x: Vec, f: LaurentPoly, y: Vec, g: LaurentPoly
):
    """[x (x) f, y (x) g] with x, y homogeneous coordinate vectors.

    Returns ([x,y], f*g) when [x,y] is homogeneous (including zero), else
    a list of (component, f*g) pairs split by degree.
    """
    ok_x, _ = homogeneous_degree(a.basis, x)
    ok_y, _ = homogeneous_degree(a.basis, y)
    if not ok_x or not ok_y:
        raise ValueError("laurent_bracket needs homogeneous tensor factors")
    v = a.product_eval(x, y)
    fg = f * g
    if is_zero_vec(v) or fg.is_zero():
        return (vzero(a.dim), LaurentPoly.zero())
    ok_v, _ = homogeneous_degree(a.basis, v)
    if ok_v:
        return (v, fg)
    by_degree: dict = {}
    for i, c in enumerate(v):
        if c:
            d = a.degree(i)
            comp = by_degree.setdefault(d, list(vzero(a.dim)))
            comp[i] = c
    return [(tuple(comp), fg) for _, comp in sorted(by_degree.items())]


def check_laurent_samples(
    a: ColourAlgebra,
    triples: Sequence[tuple[tuple[Vec, LaurentPoly], ...]],
) -> AxiomReport:
    """Spot-check skewsymmetry and BiHom-Jacobi on sample tensor triples.

    Each triple is ((x,f),(y,g),(z,h)) with homogeneous x, y, z.  The skew
    item compares [beta(x)(x)f, alpha(y)(x)g] against the eps-flipped
    bracket; the Jacobi item sums the three cyclic terms.  Witnesses carry
    the sample index and the offending tensor written out.
    """
    report = AxiomReport()
    n = a.dim
    skew_w = None
    jac_w = None
    for s_idx, triple in enumerate(triples):
        if len(triple) != 3:
            raise ValueError("each sample must be a triple")
        degs = []
        for x, _f in triple:
            ok, d = homogeneous_degree(a.basis, x)
            if not ok:
                raise ValueError(
                    f"sample {s_idx}: tensor factors must be homogeneous"
                )
            degs.append(d if d is not None else a.basis.group.zero())
        elts = [_tensor(x, fp) for x, fp in triple]

        if skew_w is None:
            (x, f), (y, g) = triple[0], triple[1]
            lhs = _lbracket(
                a, _tensor(a.beta.apply(x), f), _tensor(a.alpha.apply(y), g)
            )
            rhs = _lbracket(
                a, _tensor(a.beta.apply(y), g), _tensor(a.alpha.apply(x), f)
            )
            e = Fraction(-a.eps.eval(degs[0], degs[1]))
            rhs = {k: vscale(e, v) for k, v in rhs.items()}
            d = _lsub(lhs, rhs, n)
            if d:
                skew_w = Witness(
                    (s_idx,),
                    (f"sample {s_idx}",),
                    next(iter(d.values())),
                    _fmt_lelt(a, d),
                )

        if jac_w is None:
            total: LaurentElement = {}
            order = (0, 1, 2)
            for r in range(3):
                i, j, k = order[r], order[(r + 1) % 3], order[(r + 2) % 3]
                inner = _lbracket(a, _lmap(a.beta, elts[j]), _lmap(a.alpha, elts[k]))
                term = _lbracket(a, _lmap(a.map_power("beta", 2), elts[i]), inner)
                e = Fraction(a.eps.eval(degs[k], degs[i]))
                for kk, v in term.items():
                    acc = vadd(total.get(kk, vzero(n)), vscale(e, v))
                    if is_zero_vec(acc):
                        total.pop(kk, None)
                    else:
                        total[kk] = acc
            if total:
                jac_w = Witness(
                    (s_idx,),
                    (f"sample {s_idx}",),
                    next(iter(total.values())),
                    _fmt_lelt(a, total),
                )

    report.items.append(CheckItem("sample_skewsymmetry", skew_w is None, skew_w))
    report.items.append(CheckItem("sample_jacobi", jac_w is None, jac_w))
    return report
