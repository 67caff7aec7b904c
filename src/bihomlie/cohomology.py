"""Modules over a bracket algebra and their cochain complexes.

A representation is a 4-tuple (V, rho, alpha_V, beta_V): a graded space, an
action of the algebra by matrices, and two even commuting maps compatible
with the structure maps of the algebra.  Cochains are epsilon-skewsymmetric
multilinear maps A x ... x A -> V that intertwine the structure maps; they
are stored sparsely on canonical index tuples (nondecreasing, with a repeat
permitted only where the bicharacter gives -1 on the diagonal, as for odd
degrees in the super case).  Every other tuple reduces to a canonical one
through adjacent transpositions, each contributing a factor -eps(.,.).

The coboundary takes an n-cochain of degree gamma to an (n+1)-cochain of the
same degree.  Its epsilon prefactor on the bracket terms exists in two
variants that disagree in arity three and up; ``DEFAULT_PREFACTOR`` selects
the one under which the square of the coboundary vanishes on the whole test
corpus.  The other variant stays available through the ``prefactor`` keyword
so the disagreement is testable rather than buried.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, Optional, Sequence

from .algebra import (
    AxiomReport,
    CheckItem,
    ColourAlgebra,
    Witness,
    format_element,
)
from .grading import GradedBasis, GroupElement
from .linalg import (
    Matrix,
    Vec,
    is_zero_vec,
    kernel_by_blocks,
    vadd,
    vec,
    vscale,
    vzero,
)

# Conventions for the bracket-term prefactor in the coboundary: "segment"
# multiplies by eps(x_{s+1}+...+x_{t-1}, x_t), "full" by
# eps(x_0+...+x_{t-1}, x_t).  The default is frozen by the d.d = 0 sweep in
# the test suite; "full" breaks the square on the twisted fixtures.
PREFACTOR_CONVENTIONS = ("segment", "full")
DEFAULT_PREFACTOR = "segment"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Representation:
    """Module (V, rho, alpha_V, beta_V) over a colour algebra.

    ``rho`` is one square matrix on V per basis vector of the algebra.  The
    constructor only checks shapes and group consistency; the module axioms
    are the business of :func:`validate_representation`.
    """

    __slots__ = ("algebra", "space", "rho", "alphaV", "betaV", "_actions")

    def __init__(
        self,
        algebra: ColourAlgebra,
        space: GradedBasis,
        rho: Sequence[Matrix],
        alphaV: Matrix,
        betaV: Matrix,
    ) -> None:
        if space.group != algebra.basis.group:
            raise ValueError("module space graded by a different group")
        rho = tuple(rho)
        if len(rho) != algebra.dim:
            raise ValueError(
                f"need one action matrix per algebra basis vector "
                f"({algebra.dim}), got {len(rho)}"
            )
        d = len(space)
        for m in rho + (alphaV, betaV):
            if m.nrows != d or m.ncols != d:
                raise ValueError("action matrices must be square on V")
        self.algebra = algebra
        self.space = space
        self.rho = rho
        self.alphaV = alphaV
        self.betaV = betaV
        self._actions: dict[int, tuple[Matrix, ...]] = {}

    @property
    def dimV(self) -> int:
        return len(self.space)

    def rho_of(self, x: Vec) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        out = Matrix.zero(self.dimV, self.dimV)
        for c, m in zip(x, self.rho):
            if c:
                out = out + m.scale(c)
        return out

    def act(self, x: Vec, v: Vec) -> Vec:
        return self.rho_of(x).apply(v)

    def action_table(self, k: int) -> tuple[Matrix, ...]:
        """rho(alpha beta^k(e_i)) for every basis index i; cached."""
        hit = self._actions.get(k)
        if hit is None:
            cols = self.algebra.ab_power(1, k).columns()
            hit = self._actions[k] = tuple(self.rho_of(x) for x in cols)
        return hit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.space == other.space
            and self.rho == other.rho
            and self.alphaV == other.alphaV
            and self.betaV == other.betaV
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.space, self.rho))

    def __repr__(self) -> str:
        return (
            f"Representation(dimA={self.algebra.dim}, dimV={self.dimV})"
        )


def _even_item(
    name: str, space: GradedBasis, m: Matrix, shift: GroupElement
) -> CheckItem:
    """Check that m maps the degree-e block into degree e+shift."""
    for r in range(len(space)):
        for c in range(len(space)):
            if not m[r][c]:
                continue
            want = space.group.add(space.degrees[c], shift)
            if space.degrees[r] != want:
                col = m.column(c)
                return CheckItem(
                    name,
                    False,
                    Witness(
                        (r, c),
                        (space.names[r], space.names[c]),
                        col,
                        format_element(space, col),
                    ),
                    note="matrix entry leaves the expected degree block",
                )
    return CheckItem(name, True)


def validate_representation(rep: Representation) -> AxiomReport:
    """Run the module axioms and report each one separately.

    The action must be even, the two module maps must be even and commute,
    each must intertwine the matching structure map of the algebra, and the
    bracket-compatibility condition

        rho([beta(x), y]) . beta_V
            = rho(alphabeta(x)) . rho(y) - eps(x, y) rho(beta(y)) . rho(alpha(x))

    must hold on all basis pairs.
    """
    a = rep.algebra
    sp = rep.space
    zero_shift = sp.group.zero()
    items: list[CheckItem] = []

    bad = None
    for i in range(a.dim):
        it = _even_item("rho_even", sp, rep.rho[i], a.degree(i))
        if not it.passed:
            bad = CheckItem(
                "rho_even",
                False,
                it.witness,
                note=f"action of {a.basis.names[i]} is not even",
            )
            break
    items.append(bad if bad is not None else CheckItem("rho_even", True))

    items.append(_even_item("alphaV_even", sp, rep.alphaV, zero_shift))
    items.append(_even_item("betaV_even", sp, rep.betaV, zero_shift))

    comm = rep.alphaV * rep.betaV - rep.betaV * rep.alphaV
    if comm.is_zero():
        items.append(CheckItem("module_maps_commute", True))
    else:
        col = next(
            comm.column(c)
            for c in range(rep.dimV)
            if not is_zero_vec(comm.column(c))
        )
        items.append(
            CheckItem(
                "module_maps_commute",
                False,
                Witness((), (), col, format_element(sp, col)),
                note="alpha_V and beta_V do not commute",
            )
        )

    def intertwine(name: str, amap: Matrix, vmap: Matrix) -> CheckItem:
        for i, image in enumerate(amap.columns()):
            lhs = rep.rho_of(image) * vmap
            rhs = vmap * rep.rho[i]
            diff = lhs - rhs
            if diff.is_zero():
                continue
            for c in range(rep.dimV):
                col = diff.column(c)
                if not is_zero_vec(col):
                    return CheckItem(
                        name,
                        False,
                        Witness(
                            (i, c),
                            (a.basis.names[i], sp.names[c]),
                            col,
                            format_element(sp, col),
                        ),
                    )
        return CheckItem(name, True)

    items.append(intertwine("alpha_intertwine", a.alpha, rep.alphaV))
    items.append(intertwine("beta_intertwine", a.beta, rep.betaV))

    alpha = a.alpha.columns()
    beta = a.beta.columns()
    ab = a.ab_power(1, 1).columns()
    bracket_item = CheckItem("module_condition", True)
    for i in range(a.dim):
        if not bracket_item.passed:
            break
        for j in range(a.dim):
            bracket = a.product_eval(beta[i], a.basis_vec(j))
            lhs = rep.rho_of(bracket) * rep.betaV
            rhs = rep.rho_of(ab[i]) * rep.rho[j] - (
                rep.rho_of(beta[j]) * rep.rho_of(alpha[i])
            ).scale(a.eps_ij(i, j))
            diff = lhs - rhs
            if diff.is_zero():
                continue
            c = next(
                c
                for c in range(rep.dimV)
                if not is_zero_vec(diff.column(c))
            )
            bracket_item = CheckItem(
                "module_condition",
                False,
                Witness(
                    (i, j, c),
                    (a.basis.names[i], a.basis.names[j], sp.names[c]),
                    diff.column(c),
                    format_element(sp, diff.column(c)),
                ),
                note="bracket compatibility fails on this pair",
            )
            break
    items.append(bracket_item)
    return AxiomReport(items)


def adjoint_rep(a: ColourAlgebra, s: int, l: int) -> Representation:
    """The algebra acting on itself through the twisted bracket action.

    The element a acts by x |-> [alpha^s beta^l(a), x]; the module maps are
    alpha and beta themselves.  Negative exponents need invertible maps.
    """
    rho = [Matrix.from_cols(cols) for cols in a.twisted_products(s, l)]
    return Representation(a, a.basis, rho, a.alpha, a.beta)


def dual_rep(rep: Representation) -> tuple[Representation, AxiomReport]:
    """Dual-space candidate: negated transposes on V*.

    Degrees on V* are negated so the candidate action is even.  The returned
    report carries a single item recording whether the original action
    satisfies

        beta_V . rho([beta(x), y])
            = rho(alpha(x)) . rho(beta(y)) - eps(x, y) rho(y) . rho(alphabeta(x)),

    which is exactly when the candidate is a genuine representation.  The
    verdict is reported, never assumed.
    """
    a = rep.algebra
    sp = rep.space
    dual_space = GradedBasis(
        sp.group,
        tuple(n + "*" for n in sp.names),
        tuple(sp.group.neg(d) for d in sp.degrees),
    )
    dual_rho = tuple(m.transpose().scale(-1) for m in rep.rho)
    candidate = Representation(
        a,
        dual_space,
        dual_rho,
        rep.alphaV.transpose(),
        rep.betaV.transpose(),
    )

    alpha = a.alpha.columns()
    beta = a.beta.columns()
    ab = a.ab_power(1, 1).columns()
    item = CheckItem("dual_module_condition", True)
    for i in range(a.dim):
        if not item.passed:
            break
        for j in range(a.dim):
            bracket = a.product_eval(beta[i], a.basis_vec(j))
            lhs = rep.betaV * rep.rho_of(bracket)
            rhs = rep.rho_of(alpha[i]) * rep.rho_of(beta[j]) - (
                rep.rho[j] * rep.rho_of(ab[i])
            ).scale(a.eps_ij(i, j))
            diff = lhs - rhs
            if diff.is_zero():
                continue
            c = next(
                c
                for c in range(rep.dimV)
                if not is_zero_vec(diff.column(c))
            )
            item = CheckItem(
                "dual_module_condition",
                False,
                Witness(
                    (i, j, c),
                    (a.basis.names[i], a.basis.names[j], sp.names[c]),
                    diff.column(c),
                    format_element(sp, diff.column(c)),
                ),
                note="transposed action does not close; candidate is not "
                "a representation",
            )
            break
    return candidate, AxiomReport([item])


# ---------------------------------------------------------------------------
# cochains


def reduce_index_tuple(
    a: ColourAlgebra, idx: Sequence[int]
) -> tuple[Fraction, Optional[tuple[int, ...]]]:
    """Sort an index tuple into canonical order, tracking the sign rule.

    Returns (factor, canonical) with factor the product of -eps over the
    adjacent swaps used, or (0, None) when the tuple repeats an index whose
    degree has eps(d, d) = +1 and the value is forced to vanish.
    """
    eps = a.eps_table()
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            u, v = lst[j - 1], lst[j]
            sign = -sign * eps[u][v]
            lst[j - 1], lst[j] = v, u
            j -= 1
    for p in range(len(lst) - 1):
        if lst[p] == lst[p + 1] and eps[lst[p]][lst[p]] == 1:
            return _ZERO, None
    return (_ONE if sign == 1 else -_ONE), tuple(lst)


def canonical_index_tuples(a: ColourAlgebra, n: int) -> list[tuple[int, ...]]:
    """All canonical n-tuples of basis indices, in lexicographic order."""
    if n < 0:
        return []
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], start: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(start, a.dim):
            if prefix and prefix[-1] == i and a.eps_ij(i, i) == 1:
                continue
            prefix.append(i)
            grow(prefix, i)
            prefix.pop()

    grow([], 0)
    return out


class Cochain:
    """Skewsymmetric n-linear map of homogeneous degree into a module.

    ``values`` maps canonical index tuples to coordinate vectors of V; zero
    vectors are dropped.  The degree records how the map shifts grading:
    the value on a tuple of total degree d lies in the block gamma + d.
    """

    __slots__ = ("n", "degree", "values", "dimV")

    def __init__(
        self,
        n: int,
        degree: GroupElement,
        values: dict[tuple[int, ...], Vec],
        dimV: int,
    ) -> None:
        self.n = n
        self.degree = tuple(degree)
        self.dimV = dimV
        kept: dict[tuple[int, ...], Vec] = {}
        for key, val in values.items():
            if len(key) != n:
                raise ValueError(f"tuple {key} has arity {len(key)}, not {n}")
            v = vec(val)
            if len(v) != dimV:
                raise ValueError("value has wrong dimension")
            if not is_zero_vec(v):
                kept[tuple(key)] = v
        self.values = kept

    def is_zero(self) -> bool:
        return not self.values

    def value(self, idx: tuple[int, ...]) -> Vec:
        return self.values.get(idx, vzero(self.dimV))

    def eval(self, rep: Representation, args: Sequence[Vec]) -> Vec:
        """Multilinear evaluation on arbitrary coordinate vectors."""
        if len(args) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(args)}")
        out = [_ZERO] * self.dimV
        supports = [
            [(i, c) for i, c in enumerate(v) if c] for v in args
        ]
        for combo in iproduct(*supports):
            coeff, canon = reduce_index_tuple(
                rep.algebra, tuple(i for i, _ in combo)
            )
            if canon is None:
                continue
            val = self.values.get(canon)
            if val is None:
                continue
            for _, c in combo:
                coeff *= c
            for k, x in enumerate(val):
                if x:
                    out[k] += coeff * x
        return tuple(out)

    def add(self, other: "Cochain") -> "Cochain":
        if (self.n, self.degree, self.dimV) != (
            other.n,
            other.degree,
            other.dimV,
        ):
            raise ValueError("cochains live in different spaces")
        keys = set(self.values) | set(other.values)
        return Cochain(
            self.n,
            self.degree,
            {k: vadd(self.value(k), other.value(k)) for k in keys},
            self.dimV,
        )

    def scale(self, c) -> "Cochain":
        return Cochain(
            self.n,
            self.degree,
            {k: vscale(Fraction(c), v) for k, v in self.values.items()},
            self.dimV,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self.dimV == other.dimV
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, self.degree, tuple(sorted(self.values.items())))
        )

    def __repr__(self) -> str:
        return (
            f"Cochain(n={self.n}, degree={self.degree}, "
            f"support={len(self.values)})"
        )


def _tuple_degree(a: ColourAlgebra, idx: Sequence[int]) -> GroupElement:
    return a.basis.group.sum(a.degree(i) for i in idx)


def _slots(
    rep: Representation, n: int, gamma: GroupElement
) -> list[tuple[tuple[int, ...], int]]:
    """Coordinate slots (canonical tuple, V index) of degree-gamma cochains."""
    a = rep.algebra
    g = a.basis.group.reduce(gamma)
    out = []
    for T in canonical_index_tuples(a, n):
        target = a.basis.group.add(g, _tuple_degree(a, T))
        for w, e in enumerate(rep.space.degrees):
            if e == target:
                out.append((T, w))
    return out


def realized_gammas(rep: Representation, n: int) -> list[GroupElement]:
    """Degrees gamma for which the degree-gamma slot space is nonzero."""
    a = rep.algebra
    seen = set()
    for T in canonical_index_tuples(a, n):
        d = _tuple_degree(a, T)
        for e in rep.space.degrees:
            seen.add(a.basis.group.sub(e, d))
    return sorted(seen)


def _cochain_from_coords(
    n: int,
    gamma: GroupElement,
    slots: Sequence[tuple[tuple[int, ...], int]],
    coords: dict[int, Fraction],
    dimV: int,
) -> Cochain:
    """Cochain with the given nonzero coordinates {slot index: value}."""
    vals: dict[tuple[int, ...], list[Fraction]] = {}
    for k, c in coords.items():
        T, w = slots[k]
        vals.setdefault(T, [_ZERO] * dimV)[w] = c
    return Cochain(n, gamma, {T: vec(v) for T, v in vals.items()}, dimV)


def cochain_basis(
    rep: Representation, n: int, gamma: GroupElement
) -> list[Cochain]:
    """Exact basis of the degree-gamma cochains intertwining both maps.

    Starts from the free coordinate space on canonical tuples and imposes
    f(alpha x_1, ..., alpha x_n) = alpha_V f(x_1, ..., x_n) and the beta
    analogue as linear constraints; returns a kernel basis.  Negative n
    gives the zero space, n = 0 the joint fixed vectors of alpha_V and
    beta_V inside the degree-gamma block.

    Each basis cochain is 1 at one slot, its free slot, which is its last
    nonzero slot, and 0 at the free slots of the others.
    """
    if n < 0:
        return []
    a = rep.algebra
    g = a.basis.group.reduce(gamma)
    slots = _slots(rep, n, g)
    if not slots:
        return []
    # canonical tuple -> its slots (V index, column)
    slot_cols: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, (T, w) in enumerate(slots):
        slot_cols.setdefault(T, []).append((w, k))

    maps = (
        (a.alpha.columns(), rep.alphaV.columns()),
        (a.beta.columns(), rep.betaV.columns()),
    )
    rows: list[dict[int, Fraction]] = []
    for T, own in slot_cols.items():
        for acols, vcols in maps:
            # row w: coefficients of the w-coordinate of
            # f(m e_{T_1}, ..., m e_{T_n}) - m_V f(e_{T_1}, ..., e_{T_n})
            by_w: dict[int, dict[int, Fraction]] = {}
            supports = [
                [(u, c) for u, c in enumerate(acols[t]) if c] for t in T
            ]
            for combo in iproduct(*supports):
                sign, canon = reduce_index_tuple(
                    a, tuple(u for u, _ in combo)
                )
                if canon is None:
                    continue
                coeff = sign
                for _, c in combo:
                    coeff *= c
                for w, k in slot_cols.get(canon, ()):
                    row = by_w.setdefault(w, {})
                    row[k] = row.get(k, _ZERO) + coeff
            for w, k in own:
                for rrow, c in enumerate(vcols[w]):
                    if c:
                        row = by_w.setdefault(rrow, {})
                        row[k] = row.get(k, _ZERO) - c
            rows.extend(by_w.values())

    return [
        _cochain_from_coords(n, g, slots, coords, rep.dimV)
        for coords in kernel_by_blocks(rows, len(slots))
    ]


def cochain_in_space(
    rep: Representation, f: Cochain
) -> tuple[bool, str]:
    """Does f lie in the cochain space: degrees and both intertwinings."""
    a = rep.algebra
    if f.dimV != rep.dimV:
        return False, "value dimension differs from the module"
    g = a.basis.group.reduce(f.degree)
    for T, val in f.values.items():
        target = a.basis.group.add(g, _tuple_degree(a, T))
        for w, c in enumerate(val):
            if c and rep.space.degrees[w] != target:
                return (
                    False,
                    f"value on {T} leaves the degree-{target} block",
                )
        sign, canon = reduce_index_tuple(a, T)
        if canon != T or sign != 1:
            return False, f"stored tuple {T} is not canonical"
    for T in canonical_index_tuples(a, f.n):
        for amap, vmap, name in (
            (a.alpha, rep.alphaV, "alpha"),
            (a.beta, rep.betaV, "beta"),
        ):
            cols = amap.columns()
            got = f.eval(rep, [cols[t] for t in T])
            want = vmap.apply(f.value(T))
            if got != want:
                return (
                    False,
                    f"{name} intertwining fails on tuple {T}",
                )
    return True, ""


# ---------------------------------------------------------------------------
# the coboundary


def apply_coboundary(
    rep: Representation,
    r: int,
    f: Cochain,
    *,
    prefactor: str = DEFAULT_PREFACTOR,
    validate: bool = True,
) -> Cochain:
    """Coboundary of an n-cochain: the (n+1)-cochain

        (df)(x_0, ..., x_n)
          = sum_{s<t} (-1)^t eps(<segment>, x_t)
                f(beta x_0, ..., [alpha^{-1}beta(x_s), x_t], ..., ^x_t, ..., beta x_n)
          + sum_s (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s)
                rho(alpha beta^{r+n-1}(x_s)) f(x_0, ..., ^x_s, ..., x_n)

    where <segment> is x_{s+1}+...+x_{t-1} under the default convention and
    x_0+...+x_{t-1} under ``prefactor="full"``.  The bracket replaces the
    slot of x_s, x_t is removed, and every other first-sum argument carries
    beta.  For a 0-cochain only the second sum contributes.
    """
    if prefactor not in PREFACTOR_CONVENTIONS:
        raise ValueError(
            f"unknown prefactor convention {prefactor!r}; "
            f"expected one of {PREFACTOR_CONVENTIONS}"
        )
    if validate:
        ok, reason = cochain_in_space(rep, f)
        if not ok:
            raise ValueError(f"cochain is outside the domain space: {reason}")
    a = rep.algebra
    n = f.n
    dim = a.dim
    gamma = a.basis.group.reduce(f.degree)

    # Tables indexed by basis index: beta(e_i), the bracket
    # [alpha^{-1}beta(e_i), e_j], the action matrices
    # rho(alpha beta^{r+n-1}(e_i)), and the signs eps(e_i, e_j) and
    # eps(gamma, e_i).  All but the last are cached on the algebra or module.
    beta = a.beta.columns()
    bracket = a.twisted_products(-1, 1) if n else ()
    action = rep.action_table(r + n - 1)
    eps = a.eps_table()
    eps_gamma = [a.eps.eval(gamma, a.degree(i)) for i in range(dim)]
    full = prefactor == "full"
    # f.eval only reaches tuples that permute one support index of each
    # argument, so a term whose argument misses every index of f's support
    # tuples is zero and is skipped.
    used = {i for T in f.values for i in T}
    beta_hits = [any(beta[i][u] for u in used) for i in range(dim)]
    bracket_hits = [
        [any(v[u] for u in used) for v in row] for row in bracket
    ]

    out_vals: dict[tuple[int, ...], Vec] = {}
    for X in canonical_index_tuples(a, n + 1):
        total = [_ZERO] * rep.dimV
        for t in range(1, n + 1):
            xt = X[t]
            for s in range(t):
                if not bracket_hits[X[s]][xt] or not all(
                    beta_hits[X[p]] for p in range(n + 1) if p != s and p != t
                ):
                    continue
                w = -1 if t % 2 else 1
                for p in range(0 if full else s + 1, t):
                    w *= eps[X[p]][xt]
                args = [
                    bracket[X[s]][xt] if p == s else beta[X[p]]
                    for p in range(n + 1)
                    if p != t
                ]
                for k, c in enumerate(f.eval(rep, args)):
                    if c:
                        total[k] += w * c
        for s in range(n + 1):
            fv = f.values.get(X[:s] + X[s + 1 :])
            if fv is None:
                continue
            xs = X[s]
            w = -eps_gamma[xs] if s % 2 else eps_gamma[xs]
            for p in range(s):
                w *= eps[X[p]][xs]
            for k, c in enumerate(action[xs].apply(fv)):
                if c:
                    total[k] += w * c
        if any(total):
            out_vals[X] = tuple(total)
    return Cochain(n + 1, gamma, out_vals, rep.dimV)


def coboundary_matrix(
    rep: Representation,
    n: int,
    r: int,
    gamma: GroupElement,
    *,
    prefactor: str = DEFAULT_PREFACTOR,
) -> Matrix:
    """Matrix of the coboundary from the degree-gamma n-cochain basis to
    the (n+1)-basis.  Raises RuntimeError if some image fails to land in
    the codomain space (the intertwining conditions guarantee it does, so
    a miss indicates a broken prefactor convention or a module that fails
    its axioms), naming the basis cochain and, where the image leaves the
    degree-gamma slots, the slot.

    The coordinates of an image are its values at the free slots of the
    codomain basis (see :func:`cochain_basis`); the image must then equal
    that combination exactly.
    """
    dom = cochain_basis(rep, n, gamma)
    cod = cochain_basis(rep, n + 1, gamma)
    if not dom:
        return Matrix.zero(len(cod), 0)
    slot_set = set(_slots(rep, n + 1, gamma))
    free = [
        max(
            (T, w)
            for T, val in gc.values.items()
            for w, c in enumerate(val)
            if c
        )
        for gc in cod
    ]
    cols: list[Vec] = []
    for k, fb in enumerate(dom):
        img = apply_coboundary(rep, r, fb, prefactor=prefactor, validate=False)
        for T, val in img.values.items():
            for w, c in enumerate(val):
                if c and (T, w) not in slot_set:
                    args = ", ".join(rep.algebra.basis.names[i] for i in T)
                    raise RuntimeError(
                        f"coboundary image of basis cochain {k} has "
                        f"coordinate {rep.space.names[w]} = {c} on "
                        f"({args}), outside the degree-{tuple(gamma)} slots "
                        "of the codomain"
                    )
        coords = vec(img.value(T)[w] for T, w in free)
        rest = {T: list(val) for T, val in img.values.items()}
        for x, gc in zip(coords, cod):
            if x:
                for T, val in gc.values.items():
                    acc = rest.setdefault(T, [_ZERO] * rep.dimV)
                    for w, c in enumerate(val):
                        if c:
                            acc[w] -= x * c
        if any(any(val) for val in rest.values()):
            raise RuntimeError(
                f"coboundary image of basis cochain {k} does not lie in "
                "the codomain cochain space"
            )
        cols.append(coords)
    return Matrix.from_cols(cols)


@dataclass(frozen=True)
class CohomologyResult:
    """Dimensions at one (n, r, degree) triple."""

    n: int
    r: int
    degree: GroupElement
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "degree": list(self.degree),
            "dim_cochains": self.dim_cochains,
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_h": self.dim_h,
        }


def cohomology_dims(
    rep: Representation,
    n: int,
    r: int,
    gamma: GroupElement,
    *,
    prefactor: str = DEFAULT_PREFACTOR,
) -> CohomologyResult:
    """Cocycle, coboundary and quotient dimensions at degree gamma.

    Verifies the inclusion of coboundaries in cocycles directly: the
    coboundary of every (n-1)-basis cochain is fed through the next
    coboundary and must map to zero, else RuntimeError.
    """
    if n < 0:
        raise ValueError("cochain arity must be nonnegative")
    a = rep.algebra
    g = a.basis.group.reduce(gamma)
    mat = coboundary_matrix(rep, n, r, g, prefactor=prefactor)
    dim_z = mat.ncols - mat.rank()
    if n == 0:
        dim_b = 0
    else:
        prev = cochain_basis(rep, n - 1, g)
        mat_prev = coboundary_matrix(rep, n - 1, r, g, prefactor=prefactor)
        dim_b = mat_prev.rank()
        for fb in prev:
            mid = apply_coboundary(rep, r, fb, prefactor=prefactor,
                                   validate=False)
            again = apply_coboundary(rep, r, mid, prefactor=prefactor,
                                     validate=False)
            if not again.is_zero():
                raise RuntimeError(
                    "coboundary image escapes the cocycle space: the "
                    "square of the coboundary is nonzero at "
                    f"(n={n}, r={r}, degree={g})"
                )
    return CohomologyResult(
        n=n,
        r=r,
        degree=g,
        dim_cochains=mat.ncols,
        dim_cocycles=dim_z,
        dim_coboundaries=dim_b,
        dim_h=dim_z - dim_b,
    )
