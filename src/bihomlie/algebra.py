"""Colour algebras with two structure maps, and their axiom checkers.

A ColourAlgebra bundles a graded basis, a bicharacter, a structure-constant
table for one bilinear product, and two linear maps alpha, beta.  Whether
the product is a Lie bracket, an associative product, or neither is decided
by the check functions, not assumed: every axiom is verified on basis tuples
(bilinearity makes that sufficient) and failures carry a reproducible
witness, the lexicographically first failing tuple with its defect vector.

Verdict naming:
  product_even, alpha_even, beta_even, maps_commute,
  alpha_multiplicative, beta_multiplicative   (shared)
  bihom_skewsymmetry, bihom_jacobi            (Lie suite)
  bihom_associative, colour_commutative       (associative suite)
  regular                                     (invertibility flag)

Multiplicativity and regularity are reported but advisory: they do not
decide `AxiomReport.passed`.  Constructions that need them state so and
check the specific items themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .grading import Bicharacter, GradedBasis, GroupElement, homogeneous_degree
from .linalg import Matrix, Vec, add_scaled, is_zero_vec, vadd, vscale, vsub

ZERO = Fraction(0)

# the nonzero terms (k, c) of a vector, in ascending k
Terms = tuple[tuple[int, Fraction], ...]


def format_element(basis: GradedBasis, v: Vec) -> str:
    """Pretty coordinate vector: "2 X + -1/3 H", or "0"."""
    parts = [
        f"{c} {name}" for c, name in zip(v, basis.names) if c
    ]
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Witness:
    """First failing tuple of a check, with the nonzero defect."""

    indices: tuple[int, ...]
    names: tuple[str, ...]
    defect: Vec
    defect_str: str

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "names": list(self.names),
            "defect": self.defect_str,
        }


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: Optional[Witness] = None
    advisory: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.advisory:
            out["advisory"] = True
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


@dataclass
class AxiomReport:
    items: list[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items if not it.advisory)

    @property
    def all_passed(self) -> bool:
        return all(it.passed for it in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def failures(self) -> list[CheckItem]:
        return [it for it in self.items if not it.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "items": [it.to_dict() for it in self.items],
        }


class ColourAlgebra:
    """Graded basis + bicharacter + product table + two structure maps.

    product[i][j] is the coordinate vector of (e_i e_j).  alpha and beta act
    on coordinates as matrices.  kind is a file-format tag ("lie",
    "associative" or "generic") with no semantic weight here.
    """

    __slots__ = (
        "basis",
        "eps",
        "product",
        "alpha",
        "beta",
        "kind",
        "_powers",
        "_eps",
        "_products",
        "_terms",
    )

    def __init__(
        self,
        basis: GradedBasis,
        eps: Bicharacter,
        product: Iterable[Iterable[Iterable]],
        alpha: Matrix,
        beta: Matrix,
        kind: str = "generic",
    ) -> None:
        if eps.group != basis.group:
            raise ValueError("bicharacter and basis use different groups")
        self.basis = basis
        self.eps = eps
        n = len(basis)
        self.product: tuple[tuple[Vec, ...], ...] = tuple(
            tuple(tuple(Fraction(c) for c in cell) for cell in row)
            for row in product
        )
        if len(self.product) != n or any(
            len(row) != n or any(len(cell) != n for cell in row)
            for row in self.product
        ):
            raise ValueError("product table must be n x n x n")
        if alpha.nrows != n or alpha.ncols != n:
            raise ValueError("alpha has wrong shape")
        if beta.nrows != n or beta.ncols != n:
            raise ValueError("beta has wrong shape")
        self.alpha = alpha
        self.beta = beta
        if kind not in ("lie", "associative", "generic"):
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self._powers: dict[tuple, Matrix] = {}
        self._eps: Optional[tuple[tuple[int, ...], ...]] = None
        self._products: dict[tuple, tuple[tuple[Vec, ...], ...]] = {}
        self._terms: Optional[tuple[tuple[Terms, ...], ...]] = None

    # -- basic accessors ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vec(self, i: int) -> Vec:
        return tuple(
            Fraction(1) if j == i else ZERO for j in range(self.dim)
        )

    def degree(self, i: int) -> GroupElement:
        return self.basis.degrees[i]

    def eps_ij(self, i: int, j: int) -> int:
        return self.eps_table()[i][j]

    def eps_table(self) -> tuple[tuple[int, ...], ...]:
        """eps(e_i, e_j) for all pairs of basis indices; cached."""
        if self._eps is None:
            degs = self.basis.degrees
            self._eps = tuple(
                tuple(self.eps.eval(di, dj) for dj in degs) for di in degs
            )
        return self._eps

    def product_terms(self) -> tuple[tuple[Terms, ...], ...]:
        """The nonzero terms (k, c) of each cell product[i][j]; cached."""
        if self._terms is None:
            self._terms = tuple(
                tuple(
                    tuple((k, c) for k, c in enumerate(cell) if c)
                    for cell in row
                )
                for row in self.product
            )
        return self._terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColourAlgebra)
            and self.basis == other.basis
            and self.eps == other.eps
            and self.product == other.product
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.eps, self.product, self.alpha, self.beta))

    def __repr__(self) -> str:
        return (
            f"ColourAlgebra({list(self.basis.names)}, kind={self.kind!r}, "
            f"dim={self.dim})"
        )

    # -- evaluation ---------------------------------------------------------

    def product_eval(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the structure constants, summed over the
        supports of x and y and the nonzero terms of their cells."""
        terms = self.product_terms()
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        acc = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = terms[i]
            for j, yj in ys:
                cell = row[j]
                if cell:
                    c = xi * yj
                    for k, ck in cell:
                        p = c * ck
                        acc[k] = acc[k] + p if acc[k] else p
        return tuple(acc)

    bracket = product_eval

    def map_power(self, which: str, k: int) -> Matrix:
        """alpha**k or beta**k, cached; negative k needs invertibility."""
        key = (which, k)
        hit = self._powers.get(key)
        if hit is None:
            base = self.alpha if which == "alpha" else self.beta
            hit = base.power(k)
            self._powers[key] = hit
        return hit

    def ab_power(self, ka: int, kb: int) -> Matrix:
        """alpha**ka composed with beta**kb, cached like map_power.

        Its ``columns()`` are the images of the basis vectors.
        """
        key = ("alpha*beta", ka, kb)
        hit = self._powers.get(key)
        if hit is None:
            hit = self.map_power("alpha", ka) * self.map_power("beta", kb)
            self._powers[key] = hit
        return hit

    def twisted_products(
        self, ka: int, kb: int, *, right: bool = False
    ) -> tuple[tuple[Vec, ...], ...]:
        """[alpha**ka beta**kb (e_i), e_j] at [i][j], or with ``right``
        the map on the right factor, [e_i, alpha**ka beta**kb (e_j)];
        cached."""
        key = (ka, kb, right)
        hit = self._products.get(key)
        if hit is None:
            basis = [self.basis_vec(j) for j in range(self.dim)]
            images = self.ab_power(ka, kb).columns()
            if right:
                hit = tuple(
                    tuple(self.product_eval(e, y) for y in images)
                    for e in basis
                )
            else:
                hit = tuple(
                    tuple(self.product_eval(x, e) for e in basis)
                    for x in images
                )
            self._products[key] = hit
        return hit

    def is_regular(self) -> bool:
        try:
            self.map_power("alpha", -1)
            self.map_power("beta", -1)
        except ValueError:
            return False
        return True

    def with_product(
        self, product, kind: Optional[str] = None,
        eps: Optional[Bicharacter] = None,
        alpha: Optional[Matrix] = None,
        beta: Optional[Matrix] = None,
    ) -> "ColourAlgebra":
        return ColourAlgebra(
            self.basis,
            self.eps if eps is None else eps,
            product,
            self.alpha if alpha is None else alpha,
            self.beta if beta is None else beta,
            self.kind if kind is None else kind,
        )

    def fmt(self, v: Vec) -> str:
        return format_element(self.basis, v)


def product_eval(a: ColourAlgebra, x: Vec, y: Vec) -> Vec:
    return a.product_eval(x, y)


def jacobiator(
    a: ColourAlgebra, i: int, j: int, k: int, mode: str = "bihom"
) -> Vec:
    """Cyclic Jacobi defect on basis indices (i, j, k).

    bihom mode: sum over cyclic (x,y,z) of eps(z,x) [b{bb}(x), [b(y), a(z)]]
    with the algebra's own maps; hom mode drops beta and uses alpha only on
    the outer left slot: eps(z,x) [a(x), [y, z]].
    """
    if mode not in ("bihom", "hom"):
        raise ValueError(f"unknown jacobiator mode {mode!r}")
    n = a.dim
    eps = a.eps_table()
    acc = [ZERO] * n
    if mode == "bihom":
        # [b(y), a(z)] = sum_t a_tz [b(e_y), e_t], then
        # [bb(x), w] = sum_u w_u [bb(e_x), e_u]
        alpha = a.alpha.columns()
        inner_table = a.twisted_products(0, 1)
        outer_table = a.twisted_products(0, 2)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            inner = [ZERO] * n
            for t, c in enumerate(alpha[z]):
                if c:
                    add_scaled(inner, c, inner_table[y][t])
            sign = eps[z][x]
            for u, c in enumerate(inner):
                if c:
                    add_scaled(acc, sign * c, outer_table[x][u])
    else:
        # [a(x), [y, z]] = sum_u [y, z]_u [a(e_x), e_u]
        outer_table = a.twisted_products(1, 0)
        terms = a.product_terms()
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            sign = eps[z][x]
            for u, c in terms[y][z]:
                add_scaled(acc, sign * c, outer_table[x][u])
    return tuple(acc)


# -- check plumbing ---------------------------------------------------------


def _pair_witness(a: ColourAlgebra, idx: tuple[int, ...], defect: Vec) -> Witness:
    return Witness(
        indices=idx,
        names=tuple(a.basis.names[i] for i in idx),
        defect=defect,
        defect_str=a.fmt(defect),
    )


def _check_tuples(
    a: ColourAlgebra,
    name: str,
    arity: int,
    defect_fn: Callable[..., Vec],
    advisory: bool = False,
    note: str = "",
) -> CheckItem:
    """Scan basis tuples in lexicographic order; first nonzero defect fails."""
    n = a.dim
    idx = [0] * arity
    while True:
        defect = defect_fn(*idx)
        if not is_zero_vec(defect):
            return CheckItem(
                name,
                False,
                _pair_witness(a, tuple(idx), defect),
                advisory,
                note,
            )
        pos = arity - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < n:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return CheckItem(name, True, None, advisory, note)


def _check_product_even(a: ColourAlgebra) -> CheckItem:
    for i in range(a.dim):
        for j in range(a.dim):
            cell = a.product[i][j]
            homog, deg = homogeneous_degree(a.basis, cell)
            want = a.basis.group.add(a.degree(i), a.degree(j))
            if not homog or (deg is not None and deg != want):
                return CheckItem(
                    "product_even",
                    False,
                    _pair_witness(a, (i, j), cell),
                    note="degree of product differs from sum of degrees",
                )
    return CheckItem("product_even", True)


def _check_map_even(a: ColourAlgebra, name: str, m: Matrix) -> CheckItem:
    for r in range(a.dim):
        for c in range(a.dim):
            if m[r][c] and a.degree(r) != a.degree(c):
                defect = tuple(
                    m[r][c] if k == r else ZERO for k in range(a.dim)
                )
                return CheckItem(
                    f"{name}_even",
                    False,
                    _pair_witness(a, (r, c), defect),
                    note="matrix entry connects different degrees",
                )
    return CheckItem(f"{name}_even", True)


def _check_maps_commute(a: ColourAlgebra) -> CheckItem:
    d = a.alpha * a.beta - a.beta * a.alpha
    if d.is_zero():
        return CheckItem("maps_commute", True)
    for r in range(a.dim):
        for c in range(a.dim):
            if d[r][c]:
                return CheckItem(
                    "maps_commute",
                    False,
                    _pair_witness(a, (r, c), d.column(c)),
                    note="alpha.beta - beta.alpha is nonzero",
                )
    raise AssertionError("unreachable")


def _check_multiplicative(a: ColourAlgebra, name: str) -> CheckItem:
    """m[e_i, e_j] = [m e_i, m e_j] for m = alpha or beta: the left side
    sums the columns of m over the cell's terms, the right side the
    twisted products [m e_i, e_t] over the column m e_j."""
    m, twist = (a.alpha, (1, 0)) if name == "alpha" else (a.beta, (0, 1))
    cols = m.columns()
    terms = a.product_terms()
    table = a.twisted_products(*twist)

    def defect(i: int, j: int) -> Vec:
        acc = [ZERO] * a.dim
        for k, c in terms[i][j]:
            add_scaled(acc, c, cols[k])
        for t, c in enumerate(cols[j]):
            if c:
                add_scaled(acc, -c, table[i][t])
        return tuple(acc)

    return _check_tuples(
        a, f"{name}_multiplicative", 2, defect, advisory=True
    )


def _check_regular(a: ColourAlgebra) -> CheckItem:
    ok = a.is_regular()
    return CheckItem(
        "regular",
        ok,
        None,
        advisory=True,
        note="" if ok else "alpha or beta is not invertible",
    )


def check_lie_axioms(a: ColourAlgebra) -> AxiomReport:
    """Full BiHom-Lie colour suite on all basis tuples.

    Core verdicts: evenness of product and maps, commutation of the maps,
    BiHom-skewsymmetry [b(x),a(y)] = -eps(x,y)[b(y),a(x)], and the
    eps-BiHom-Jacobi condition.  Multiplicativity of each map and
    regularity are reported alongside as advisory verdicts.
    """
    rep = AxiomReport()
    rep.items.append(_check_product_even(a))
    rep.items.append(_check_map_even(a, "alpha", a.alpha))
    rep.items.append(_check_map_even(a, "beta", a.beta))
    rep.items.append(_check_maps_commute(a))
    rep.items.append(_check_multiplicative(a, "alpha"))
    rep.items.append(_check_multiplicative(a, "beta"))

    alpha = a.alpha.columns()
    beta = a.beta.columns()

    def skew_defect(i: int, j: int) -> Vec:
        lhs = a.product_eval(beta[i], alpha[j])
        rhs = a.product_eval(beta[j], alpha[i])
        return vadd(lhs, vscale(Fraction(a.eps_ij(i, j)), rhs))

    rep.items.append(_check_tuples(a, "bihom_skewsymmetry", 2, skew_defect))
    rep.items.append(
        _check_tuples(
            a,
            "bihom_jacobi",
            3,
            lambda i, j, k: jacobiator(a, i, j, k, "bihom"),
        )
    )
    rep.items.append(_check_regular(a))
    return rep


def associator(a: ColourAlgebra, x: Vec, y: Vec, z: Vec) -> Vec:
    """alpha(x)(y z) - (x y) beta(z).

    alpha(x) w = sum x_i w_u [alpha(e_i), e_u] and w beta(z) = sum w_u z_k
    [e_u, beta(e_k)], read from the twisted product tables.
    """
    left = a.twisted_products(1, 0)
    right = a.twisted_products(0, 1, right=True)
    yz = a.product_eval(y, z)
    xy = a.product_eval(x, y)
    acc = [ZERO] * a.dim
    for i, xi in enumerate(x):
        if xi:
            for u, c in enumerate(yz):
                if c:
                    add_scaled(acc, xi * c, left[i][u])
    for u, c in enumerate(xy):
        if c:
            for k, zk in enumerate(z):
                if zk:
                    add_scaled(acc, -(c * zk), right[u][k])
    return tuple(acc)


def check_associative_axioms(a: ColourAlgebra) -> AxiomReport:
    """BiHom-associativity suite; colour-commutativity is a separate flag."""
    rep = AxiomReport()
    rep.items.append(_check_product_even(a))
    rep.items.append(_check_map_even(a, "alpha", a.alpha))
    rep.items.append(_check_map_even(a, "beta", a.beta))
    rep.items.append(_check_maps_commute(a))
    rep.items.append(_check_multiplicative(a, "alpha"))
    rep.items.append(_check_multiplicative(a, "beta"))

    def assoc_defect(i: int, j: int, k: int) -> Vec:
        return associator(
            a, a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
        )

    rep.items.append(_check_tuples(a, "bihom_associative", 3, assoc_defect))

    def comm_defect(i: int, j: int) -> Vec:
        lhs = a.product[i][j]
        rhs = vscale(Fraction(a.eps_ij(i, j)), a.product[j][i])
        return vsub(lhs, rhs)

    rep.items.append(
        _check_tuples(a, "colour_commutative", 2, comm_defect, advisory=True)
    )
    rep.items.append(_check_regular(a))
    return rep


def check_bihom_axioms(a: ColourAlgebra) -> AxiomReport:
    """Structural items only: no product law is imposed.

    Evenness, commuting maps, multiplicativity and regularity; the last
    three multiplicativity/regularity verdicts stay advisory as in the
    full suites.
    """
    rep = AxiomReport()
    rep.items.append(_check_product_even(a))
    rep.items.append(_check_map_even(a, "alpha", a.alpha))
    rep.items.append(_check_map_even(a, "beta", a.beta))
    rep.items.append(_check_maps_commute(a))
    rep.items.append(_check_multiplicative(a, "alpha"))
    rep.items.append(_check_multiplicative(a, "beta"))
    rep.items.append(_check_regular(a))
    return rep


def require_passing(
    a: ColourAlgebra,
    suite: str,
    *,
    need_multiplicative: bool = False,
    need_regular: bool = False,
    context: str = "",
) -> AxiomReport:
    """Gate helper: run a suite and raise if required verdicts fail."""
    if suite == "lie":
        rep = check_lie_axioms(a)
    elif suite == "associative":
        rep = check_associative_axioms(a)
    else:
        rep = check_bihom_axioms(a)
    bad = [it.name for it in rep.items if not it.passed and not it.advisory]
    if need_multiplicative:
        bad += [
            it.name
            for it in rep.items
            if it.name.endswith("_multiplicative") and not it.passed
        ]
    if need_regular and not rep.item("regular").passed:
        bad.append("regular")
    if bad:
        where = f" in {context}" if context else ""
        raise ValueError(
            f"input algebra fails {', '.join(sorted(set(bad)))}{where}"
        )
    return rep
