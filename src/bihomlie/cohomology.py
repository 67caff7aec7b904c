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
same degree.  The bracket term that removes x_t and brackets x_s into it
carries eps(x_{s+1} + ... + x_{t-1}, x_t), the degree of the segment that
x_t passes, the usual sign rule of Lie colour cohomology (Scheunert and
Zhang, J. Math. Phys. 39, 1998).  Under it the square of the coboundary
vanishes on the whole test corpus; the sign eps(x_0 + ... + x_{t-1}, x_t)
breaks the square already on osp(1|2) with identity maps.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from itertools import product as iproduct
from math import lcm, prod
from operator import sub

from .algebra import (
    AxiomReport,
    CheckItem,
    ColourAlgebra,
    Witness,
    _commutator,
    _product_sum,
    format_element,
)
from .grading import FrozenRecord, GradedBasis, GroupElement
from .linalg import (
    ONE,
    ZERO,
    IntTerms,
    Matrix,
    Vec,
    add_terms,
    first_off_block,
    kernel_by_blocks,
    scale_to_ints,
    sum_terms,
    terms_of,
    to_fraction,
    vadd,
    vec,
    vscale,
    vzero,
)


class Representation:
    """Module (V, rho, alpha_V, beta_V) over a colour algebra.

    ``rho`` is one square matrix on V per basis vector of the algebra.  The
    constructor only checks shapes and group consistency; the module axioms
    are the business of :func:`validate_representation`.

    A module memoizes its cochain complex.  Per arity n it keeps the
    tables that depend on neither the degree nor r: the canonical n-tuples
    numbered in lexicographic order and grouped by degree, each tuple's
    alpha and beta pull-back terms, and
    the bracket and action terms by which a tuple enters the coboundary.
    Per (n, degree) it keeps the cochain basis, solved from the rows of
    :func:`_intertwining_rows`, and per (n, r, degree) the unit-slot
    images of the coboundary and the rank of its matrix (see
    :func:`cochain_basis`, :func:`apply_coboundary` and
    :func:`cohomology_dims`); :func:`_coordinates` reads coboundary images
    and the cochains of :func:`cochain_in_space` off that basis.  The
    basis, the unit images and the readout share one slot numbering per
    arity n: the coordinate w of the canonical n-tuple at position p in
    lexicographic order is the slot p * dimV + w (see :class:`Cochain`),
    and the basis cochains and coboundary images hold those numbers.  A
    repeated :func:`cohomology_dims` reads dim C and both ranks from the
    memo, builds a coboundary matrix only on a rank miss and re-checks
    d(d f) = 0 on every call.  The module must not be changed after its
    first query.

    Two memos serve every arity, degree and r: the dense integer rows on
    which :func:`_reach` evaluates a unit cochain (see
    :func:`_reach_rows`), and per action power k the action columns
    rho(alpha beta^k(e_x)) e_w that the unit images read, each read once
    through ``Matrix.apply`` and kept as integers over the common scale of
    :meth:`action_table` (k).

    The memo holds integers, not Fractions: the pull-back terms, the unit
    images, the action columns and the basis terms each over one scale.
    The basis cochains, every cochain and coboundary matrix built from
    them and the action matrices of :meth:`rho_of` are Fractions at the
    API, but hold one integer form: a matrix its integer columns, a basis
    cochain its basis terms and a coboundary image its summed unit
    images, both on slot numbers, with their tuple rows and ``Fraction``
    views built and cached on first read (see :class:`Cochain` and
    :class:`~bihomlie.linalg.Matrix`).
    """

    __slots__ = (
        "algebra",
        "space",
        "rho",
        "alphaV",
        "betaV",
        "dimV",
        "_actions",
        "_columns",
        "_reach_rows",
        "_arities",
        "_bases",
        "_coboundaries",
        "_ranks",
    )

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
        self.dimV = d
        self._actions: dict[int, tuple[Matrix, ...]] = {}
        # action power k -> (L, {(x, w): integer column over L})
        self._columns: dict[int, tuple[int, dict]] = {}
        self._reach_rows: tuple | None = None
        self._arities: dict[int, _Arity] = {}
        self._bases: dict[tuple, _Space] = {}
        self._coboundaries: dict[tuple, _Coboundary] = {}
        self._ranks: dict[tuple, int] = {}

    def rho_of(self, x: Vec) -> Matrix:
        """Action matrix of an arbitrary algebra element: the integer
        column terms of each rho(e_i) times x_i, summed by
        :func:`~bihomlie.linalg.sum_terms` over the lcm of the scales."""
        parts = []
        for c, m in zip(x, self.rho):
            if c:
                p, q = c.as_integer_ratio()
                scale, cols = m.int_column_terms()
                parts.append((p, q * scale, cols))
        # lcm of a list, not of a generator: see scale_to_ints
        common = lcm(*[scale for _, scale, _ in parts])
        parts = [(p * (common // scale), cols) for p, scale, cols in parts]
        d = self.dimV
        cols = [sum_terms([(p, c[w]) for p, c in parts]) for w in range(d)]
        return Matrix._of(common, cols, d)

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


def _column_item(
    name: str, space: GradedBasis, bad: tuple | None, idx: tuple = (),
    names: tuple = (), note: str = "", locate: bool = True,
) -> CheckItem:
    """The item ``name``: passed for ``bad`` None, else failed and
    witnessed by column c of the (r, c, column) ``bad`` on V, at ``idx``
    closed, with ``locate``, by c and its basis name."""
    if bad is None:
        return CheckItem(name, True)
    _, c, col = bad
    if locate:
        idx, names = idx + (c,), names + (space.names[c],)
    witness = Witness(idx, names, col, format_element(space, col))
    return CheckItem(name, False, witness, note=note)


def _even_item(
    name: str, space: GradedBasis, m: Matrix, shift: GroupElement
) -> CheckItem:
    """Check that m maps the degree-e block into degree e+shift."""
    targets = [space.group.add(d, shift) for d in space.degrees]
    bad = first_off_block(m, space.degrees, targets)
    if bad is None:
        return CheckItem(name, True)
    r, c = bad
    note = "matrix entry leaves the expected degree block"
    bad = (r, c, m.column(c))
    return _column_item(name, space, bad, (r,), (space.names[r],), note)


def _bracket_compatibility(
    rep: Representation, name: str, note: str, dual: bool
) -> CheckItem:
    """The first basis pair (e_i, e_j) failing the module condition of
    :func:`validate_representation` (``dual``: of :func:`dual_rep`), with
    its first nonzero column c of lhs - rhs, witnessed at (i, j, c).

    With R_k = rho(e_k), W = ``int_table("twisted_terms", 0, 1)`` and A,
    B, AB the columns of alpha, beta, alphabeta, the defect is the
    integer :func:`~bihomlie.algebra._product_sum` of the reached terms
    sum_k W_ijk R_k beta_V - sum_a AB_ai R_a R_j + eps(x, y) sum_{b,c}
    B_bj A_ci R_b R_c; the dual one reverses every product and swaps the
    signs of the last two sums.
    """
    a, d, sp = rep.algebra, rep.dimV, rep.space
    R = [m.int_column_terms() for m in rep.rho]
    S = lcm(*[s for s, _ in R])
    R = [[[(u, x * (S // s)) for u, x in c] for c in cols] for s, cols in R]
    bv_scale, bv = rep.betaV.int_column_terms()
    w_scale, W = a.int_table("twisted_terms", 0, 1)
    al_scale, A = a.alpha.int_column_terms()
    be_scale, B = a.beta.int_column_terms()
    ab_scale, AB = a.ab_power(1, 1).int_column_terms()
    S2 = S * S
    scales = (w_scale * bv_scale * S, ab_scale * S2, al_scale * be_scale * S2)
    den = lcm(*scales)
    f_w, f_ab, f_pair = (den // s for s in scales)
    eps, names = a.eps_table(), a.basis.names
    for i in range(a.dim):
        for j in range(a.dim):
            e = eps[i][j]
            ab = [(f_ab * x, R[p], R[j]) for p, x in AB[i]]
            pair = [
                (f_pair * y * z, R[b], R[c]) for b, y in B[j] for c, z in A[i]
            ]
            minus, plus = (pair, ab) if dual else (ab, pair)
            parts = [(f_w * w, R[k], bv) for k, w in W[i][j]]
            parts += [(-f, X, Y) for f, X, Y in minus]
            parts += [(e * f, X, Y) for f, X, Y in plus]
            if dual:
                parts = [(f, Y, X) for f, X, Y in parts]
            bad = _product_sum(parts, d, by_column=True)
            if bad is not None:
                bad = (*bad[:2], tuple(Fraction(x, den) for x in bad[2]))
                where = (names[i], names[j])
                return _column_item(name, sp, bad, (i, j), where, note)
    return CheckItem(name, True)


def validate_representation(rep: Representation) -> AxiomReport:
    """Run the module axioms and report each one separately.

    The action must be even, the two module maps must be even and commute,
    each must intertwine the matching structure map of the algebra, and the
    bracket-compatibility condition

        rho([beta(x), y]) . beta_V
            = rho(alphabeta(x)) . rho(y) - eps(x, y) rho(beta(y)) . rho(alpha(x))

    must hold on all basis pairs.  The commuting and intertwining items
    read :func:`~bihomlie.algebra._commutator` (alpha_V beta_V - beta_V
    alpha_V, rho(m x) m_V - m_V rho(x)) and witness its first nonzero
    column; :func:`_bracket_compatibility` sums the bracket condition.
    """
    a, sp = rep.algebra, rep.space
    names = a.basis.names
    items = [CheckItem("rho_even", True)]
    for i, m in enumerate(rep.rho):
        it = _even_item("rho_even", sp, m, a.degree(i))
        if not it.passed:
            note = f"action of {names[i]} is not even"
            items[0] = CheckItem("rho_even", False, it.witness, note=note)
            break
    zero_shift = sp.group.zero()
    items.append(_even_item("alphaV_even", sp, rep.alphaV, zero_shift))
    items.append(_even_item("betaV_even", sp, rep.betaV, zero_shift))

    comm = _commutator(rep.alphaV, rep.betaV, by_column=True)
    note = "" if comm is None else "alpha_V and beta_V do not commute"
    items.append(
        _column_item("module_maps_commute", sp, comm, note=note, locate=False)
    )
    for name, amap, vmap in (
        ("alpha_intertwine", a.alpha, rep.alphaV),
        ("beta_intertwine", a.beta, rep.betaV),
    ):
        item = CheckItem(name, True)
        for i, image in enumerate(amap.columns()):
            bad = _commutator(rep.rho_of(image), vmap, rep.rho[i], True)
            if bad is not None:
                item = _column_item(name, sp, bad, (i,), (names[i],))
                break
        items.append(item)
    note = "bracket compatibility fails on this pair"
    items.append(_bracket_compatibility(rep, "module_condition", note, False))
    return AxiomReport(items)


def adjoint_rep(a: ColourAlgebra, s: int, l: int) -> Representation:
    """The algebra acting on itself through the twisted bracket action.

    The element a acts by x |-> [alpha^s beta^l(a), x]; the module maps are
    alpha and beta themselves.  Negative exponents need invertible maps.
    rho(e_i) is row i of ``int_table("twisted_terms", s, l)``, its columns
    the cells [alpha^s beta^l(e_i), e_j], over the table's scale.
    """
    scale, table = a.int_table("twisted_terms", s, l)
    rho = [Matrix._of(scale, row, a.dim) for row in table]
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
    sp = rep.space
    dual_space = GradedBasis(
        sp.group,
        tuple(n + "*" for n in sp.names),
        tuple(sp.group.neg(d) for d in sp.degrees),
    )
    dual_rho = tuple(m.transpose().scale(-1) for m in rep.rho)
    candidate = Representation(
        rep.algebra,
        dual_space,
        dual_rho,
        rep.alphaV.transpose(),
        rep.betaV.transpose(),
    )
    note = "transposed action does not close; candidate is not a "
    note += "representation"
    item = _bracket_compatibility(rep, "dual_module_condition", note, True)
    return candidate, AxiomReport([item])


# ---------------------------------------------------------------------------
# cochains


def _sort_sign(
    eps: Sequence[Sequence[int]], idx: Sequence[int]
) -> tuple[int, tuple[int, ...] | None]:
    """Sort an index tuple into canonical order over the bicharacter table
    ``eps``, tracking the sign rule.

    Returns (sign, canonical) with sign the product of -eps over the
    adjacent swaps used, the int 1 or -1, or (0, None) when the tuple
    repeats an index whose degree has eps(d, d) = +1 and the value is
    forced to vanish.
    """
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
            return 0, None
    return sign, tuple(lst)


def canonical_index_tuples(a: ColourAlgebra, n: int) -> list[tuple[int, ...]]:
    """All canonical n-tuples of basis indices, in lexicographic order."""
    if n < 0:
        return []
    eps = a.eps_table()
    return [
        T
        for T in combinations_with_replacement(range(a.dim), n)
        if _is_canonical(eps, T)
    ]


class Cochain:
    """Skewsymmetric n-linear map of homogeneous degree into a module.

    ``values`` maps canonical index tuples to coordinate vectors of V; zero
    vectors are dropped.  The degree records how the map shifts grading:
    the value on a tuple of total degree d lies in the block gamma + d.

    A cochain holds one integer form over one positive scale D.  The
    public constructor converts and checks the values, then scales them
    to the tuple rows (D, rows) of :meth:`int_values`.  The cochains the
    library builds, the bases of :func:`cochain_basis` and the images of
    :func:`apply_coboundary`, hold their slot numbers instead: (D, pairs),
    pairs the (slot number, integer) pairs of their nonzero entries in
    ascending slot number, where the coordinate w of the canonical
    n-tuple at position p in lexicographic order has the number
    p * dimV + w.  Such a cochain builds its tuple rows only when
    :meth:`int_values`, ``values``, :meth:`eval`, ``==`` or ``hash``
    reads them, or a pickle or copy is taken; :meth:`is_zero` reads the
    pairs.  ``values`` is the read-only ``Fraction`` view of the rows,
    built on first read in their order and cached.
    """

    __slots__ = ("n", "degree", "dimV", "_numbered", "_ints", "_values")

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
        kept: dict[tuple[int, ...], tuple] = {}
        for key, val in values.items():
            if len(key) != n:
                raise ValueError(f"tuple {key} has arity {len(key)}, not {n}")
            v = vec(val)
            if len(v) != dimV:
                raise ValueError("value has wrong dimension")
            terms = terms_of(v)
            if terms:
                kept[tuple(key)] = terms
        den, rows = scale_to_ints(list(kept.values()))
        self._numbered = None
        self._ints = (den, dict(zip(kept, rows)))
        self._values = None

    @classmethod
    def _of(
        cls,
        n: int,
        degree: GroupElement,
        den: int,
        pairs: Sequence[tuple[int, int]],
        tuples: tuple[tuple[int, ...], ...],
        dimV: int,
    ) -> "Cochain":
        """The cochain the library built: its nonzero entries x / ``den``
        as the (slot number, x) ``pairs`` in ascending slot number, the
        slots numbered by ``tuples``, the canonical n-tuples in
        lexicographic order (see the class note).  Unlike the public
        constructor it neither converts nor checks a value."""
        f = cls.__new__(cls)
        f.n = n
        f.degree = degree
        f.dimV = dimV
        f._numbered = (den, pairs, tuples)
        f._ints = None
        f._values = None
        return f

    @property
    def values(self) -> dict[tuple[int, ...], Vec]:
        """The canonical tuples with their nonzero values, coordinate
        vectors of Fractions: each entry x / D of :meth:`int_values`."""
        if self._values is None:
            den, rows = self.int_values()
            values = {}
            for T, terms in rows.items():
                val = [ZERO] * self.dimV
                for w, x in terms:
                    val[w] = Fraction(x, den)
                values[T] = tuple(val)
            self._values = values
        return self._values

    def int_values(self) -> tuple[int, dict[tuple[int, ...], IntTerms]]:
        """The tuple rows (D, rows): rows maps each tuple of ``values``,
        in its order, to the nonzero entries (w, x) of its value x / D, in
        ascending w, over one positive D (not always the least).  The
        public constructor takes D the lcm of the denominators (see
        :func:`scale_to_ints`).  A cochain the library built decodes its
        slot numbers into these rows on the first call, in lexicographic
        order of the tuples, and keeps them."""
        if self._ints is None:
            den, pairs, tuples = self._numbered
            dimV = self.dimV
            rows: dict[tuple[int, ...], IntTerms] = {}
            row: list[tuple[int, int]] = []
            last = -1
            for s, x in pairs:
                p, w = divmod(s, dimV)
                if p != last:
                    if row:
                        rows[tuples[last]] = tuple(row)
                    row, last = [], p
                row.append((w, x))
            if row:
                rows[tuples[last]] = tuple(row)
            self._ints = (den, rows)
        return self._ints

    def __getstate__(self) -> tuple[None, dict]:
        """Pickle and copy the tuple rows, not the slot numbers, whose
        table of tuples belongs to the module that numbered them."""
        self.int_values()
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_numbered"] = None
        return None, state

    def is_zero(self) -> bool:
        if self._numbered is not None:
            return not self._numbered[1]
        return not self._ints[1]

    def value(self, idx: tuple[int, ...]) -> Vec:
        return self.values.get(idx, vzero(self.dimV))

    def eval(self, rep: Representation, args: Sequence[Vec]) -> Vec:
        """Multilinear evaluation on arbitrary coordinate vectors.

        The sum runs over the integer form (D, rows) of :meth:`int_values`:
        each combination of the arguments' nonzero entries is sorted by
        :func:`_sort_sign` into an int sign and a canonical tuple, and the
        product of its entries times that sign scales the tuple's integer
        row.  The sum is then divided by D.  When D is 1 and every entry of
        every argument is an int, the value is a tuple of ints; otherwise
        it is a tuple of Fractions, never a float."""
        if len(args) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(args)}")
        den, rows = self.int_values()
        eps = rep.algebra.eps_table()
        acc = [0] * self.dimV
        supports = [
            [(i, c) for i, c in enumerate(v) if c] for v in args
        ]
        for combo in iproduct(*supports):
            coeff, canon = _sort_sign(eps, tuple(i for i, _ in combo))
            terms = rows.get(canon)  # None also for a vanishing tuple
            if terms is None:
                continue
            for _, c in combo:
                coeff *= c
            add_terms(acc, coeff, terms)
        entries = chain.from_iterable(args)
        if den == 1 and {int}.issuperset(map(type, entries)):
            return tuple(acc)
        return tuple([Fraction(y, den) if y else ZERO for y in acc])

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
        c = to_fraction(c)
        return Cochain(
            self.n,
            self.degree,
            {k: vscale(c, v) for k, v in self.values.items()},
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


class _Arity:
    """The tables of arity n on one module that depend on neither the
    degree gamma nor r, shared by every (gamma, r) query:

    * ``tuples``: the canonical n-tuples in lexicographic order, and
      ``number``, each one's position there: the numbering of the slots
      of the n-cochains the library builds (see :class:`Cochain`), of the
      n-cochain spaces and of the unit images of arity n - 1 (see
      :class:`_Coboundary`);
    * ``by_degree``: the canonical n-tuples grouped by their degree, each
      group in lexicographic order;
    * ``pullbacks``: for a canonical tuple T, its alpha and beta pull-back
      terms (see :func:`_pullbacks`), filled on first use, and
      ``pullback_scales``, the scale of the alpha and of the beta terms;
    * ``reach``: for a canonical tuple T, the terms by which T enters the
      coboundary (see :func:`_reach`), filled on first use.
    """

    __slots__ = (
        "tuples",
        "number",
        "by_degree",
        "pullbacks",
        "pullback_scales",
        "reach",
    )

    def __init__(self, a: ColourAlgebra, n: int) -> None:
        group, degs = a.basis.group, a.basis.degrees
        zero = group.zero()
        self.tuples = tuple(canonical_index_tuples(a, n))
        self.number = {T: p for p, T in enumerate(self.tuples)}
        by_degree: dict[GroupElement, list[tuple[int, ...]]] = {}
        # the coordinate sums of zero and the entries' degrees -> their
        # reduction, each distinct sum reduced once
        reduced: dict[tuple[int, ...], GroupElement] = {}
        for T in self.tuples:
            raw = tuple(map(sum, zip(zero, *[degs[i] for i in T])))
            d = reduced.get(raw)
            if d is None:
                d = reduced[raw] = group.reduce(raw)
            by_degree.setdefault(d, []).append(T)
        self.by_degree = by_degree
        self.pullbacks: dict[tuple[int, ...], tuple] = {}
        self.pullback_scales = tuple(
            m.int_column_terms()[0] ** n for m in (a.alpha, a.beta)
        )
        self.reach: dict[tuple, tuple] = {}


def _arity(rep: Representation, n: int) -> _Arity:
    hit = rep._arities.get(n)
    if hit is None:
        hit = rep._arities[n] = _Arity(rep.algebra, n)
    return hit


def _slots(
    rep: Representation, n: int, gamma: GroupElement
) -> list[tuple[tuple[int, ...], int]]:
    """Coordinate slots (canonical tuple, V index) of degree-gamma cochains,
    in lexicographic order: the tuples of degree e - gamma for each degree
    e of V, each with the V indices of degree e."""
    group = rep.algebra.basis.group
    g = group.reduce(gamma)
    arity = _arity(rep, n)
    on: dict[GroupElement, list[int]] = {}
    for w, e in enumerate(rep.space.degrees):
        on.setdefault(e, []).append(w)
    # e - gamma, both reduced, in one reduction
    hits = {
        T: ws
        for e, ws in on.items()
        for T in arity.by_degree.get(group.reduce(map(sub, e, g)), ())
    }
    # the lexicographic order of the tuples is their numbering
    return [
        (T, w)
        for T in sorted(hits, key=arity.number.__getitem__)
        for w in hits[T]
    ]


def realized_gammas(rep: Representation, n: int) -> list[GroupElement]:
    """Degrees gamma for which the degree-gamma slot space is nonzero: e - d
    over the distinct degrees e of V and d of the canonical n-tuples."""
    group = rep.algebra.basis.group
    return sorted(
        {
            group.sub(e, d)
            for d in _arity(rep, n).by_degree
            for e in set(rep.space.degrees)
        }
    )


class _Space(FrozenRecord):
    """The degree-gamma n-cochain space of :func:`cochain_basis`, on the
    slot numbers of :class:`Cochain`: ``slots`` maps the number of each
    slot (T, w), in ascending order, to its column in the rows of
    :func:`_intertwining_rows`; ``basis`` is the basis; ``free_column``
    maps the number of each basis cochain's free slot to its index; and
    ``int_terms`` is (S, terms) with terms[k] the nonzero entries of basis
    cochain k as (slot number, value * S) in ascending slot number, S the
    lcm of the denominators of every entry.  Each basis cochain holds its
    terms as its pairs, over S."""

    __slots__ = ("slots", "basis", "free_column", "int_terms")

    def __init__(self, slots, basis, free_column, int_terms) -> None:
        self._fill(slots, basis, free_column, int_terms)


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

    The basis is memoized on the module under (n, gamma), with its slot
    set: the first call solves, later calls return a fresh list of the
    same cochains.
    """
    if n < 0:
        return []
    return list(_space(rep, n, gamma).basis)


def _space(rep: Representation, n: int, gamma: GroupElement) -> _Space:
    """The memoized cochain space of :func:`cochain_basis`: the kernel of
    the conditions of :func:`_intertwining_rows` on the degree-gamma
    slots.  The slots those conditions force to zero one by one leave the
    system; :func:`kernel_by_blocks` solves the rows that couple slots
    over the slots left, numbered in order, and its integer vectors v are
    read back onto the slots, each as v / v[f] over the lcm of the v[f],
    f the free column of v."""
    g = rep.algebra.basis.group.reduce(gamma)
    hit = rep._bases.get((n, g))
    if hit is None:
        order = _slots(rep, n, g)
        forced: set[int] = set()
        coupled: list[dict[int, int]] = []
        for _, _, zero, rows in _intertwining_rows(
            rep, n, {slot: k for k, slot in enumerate(order)}
        ):
            forced.update(zero)
            coupled += rows
        live = [k for k in range(len(order)) if k not in forced]
        if coupled:
            pos = {k: p for p, k in enumerate(live)}
            coupled = [
                {pos[k]: x for k, x in row.items() if k in pos}
                for row in coupled
            ]
        # each kernel vector is in ascending column, so in ascending slot
        kernel = kernel_by_blocks(coupled, len(live))
        dens = [v[next(reversed(v))] for v in kernel]
        scale = lcm(*dens)
        arity = _arity(rep, n)
        number, dimV = arity.number, rep.dimV
        numbers = [number[T] * dimV + w for T, w in order]
        terms = tuple(
            tuple([(numbers[live[c]], x * (scale // d)) for c, x in v.items()])
            for v, d in zip(kernel, dens)
        )
        hit = rep._bases[n, g] = _Space(
            {s: k for k, s in enumerate(numbers)},
            tuple(
                Cochain._of(n, g, scale, t, arity.tuples, dimV)
                for t in terms
            ),
            {t[-1][0]: k for k, t in enumerate(terms)},
            (scale, terms),
        )
    return hit


def _pullbacks(a: ColourAlgebra, arity: _Arity, T: tuple[int, ...]) -> tuple:
    """For m = alpha, then beta: the canonical tuples X and integers c with
    f(m e_{T_1}, ..., m e_{T_n}) = sum of (c / S) f(X) for every cochain f,
    as ((X, c), ...) in order of first appearance, where S = L**n for the
    scale L of ``m.int_column_terms()`` is the map's entry of
    ``arity.pullback_scales``; memoized on ``arity``."""
    hit = arity.pullbacks.get(T)
    if hit is None:
        eps = a.eps_table()
        out = []
        for m in (a.alpha, a.beta):
            cols = m.int_column_terms()[1]
            acc: dict[tuple[int, ...], int] = {}
            for combo in iproduct(*(cols[t] for t in T)):
                coeff, canon = _sort_sign(eps, tuple(u for u, _ in combo))
                if canon is None:
                    continue
                for _, c in combo:
                    coeff *= c
                acc[canon] = acc.get(canon, 0) + coeff
            out.append(tuple((X, c) for X, c in acc.items() if c))
        hit = arity.pullbacks[T] = tuple(out)
    return hit


def _diagonal(cols: Sequence[IntTerms]) -> dict[int, int]:
    """{i: x} over the columns i of an integer column form with no entry
    off row i: x is the entry at row i, 0 for a zero column."""
    out = {}
    for i, col in enumerate(cols):
        if not col:
            out[i] = 0
        elif len(col) == 1 and col[0][0] == i:
            out[i] = col[0][1]
    return out


def _intertwining_rows(
    rep: Representation, n: int, slots: dict[tuple, int]
) -> Iterator[
    tuple[tuple[int, ...], str, list[int], list[dict[int, int]]]
]:
    """The conditions f(m x_1, ..., m x_n) = m_V f(x_1, ..., x_n) on the
    n-cochains whose ``slots`` map each slot (T, w), in lexicographic
    order, to its column: for each tuple T of a slot, in that order, and
    m = alpha, then beta, yields (T, "alpha" or "beta", forced, rows).
    The condition on T is the row of each w, the {column: integer}
    coefficients of the w-coordinate of
    f(m e_{T_1}, ..., m e_{T_n}) - m_V f(e_{T_1}, ..., e_{T_n}) times the
    lcm S of the pull-back and the m_V scale.  On a tuple with no slot
    both sides vanish, since m and m_V are even.

    Where m acts diagonally on the indices of T, m e_{T_i} = a_i e_{T_i},
    and m_V on w, m_V e_w = b e_w with no other column of m_V reaching
    row w, the row of w is the one integer
    (a_1 ... a_n) S / L**n - b S / L_V at the slot (T, w), for the scales
    L of m and L_V of m_V.  Such a slot is decided by that integer alone,
    and its row is not built: its column goes to ``forced`` when the
    integer is nonzero, and nowhere when it is zero.  ``rows`` holds the
    rows of the other slots, some of which may have one entry too, and a
    condition whose slots are all decided free is not yielded.  T's
    pull-back terms (:func:`_pullbacks`) are read only when m is not
    diagonal on T."""
    a = rep.algebra
    arity = _arity(rep, n)
    # canonical tuple -> its slots (V index, column)
    slot_cols: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (T, w), k in slots.items():
        slot_cols.setdefault(T, []).append((w, k))
    maps = []
    for i, (name, m, vm) in enumerate(
        (("alpha", a.alpha, rep.alphaV), ("beta", a.beta, rep.betaV))
    ):
        pden = arity.pullback_scales[i]
        vden, vcols = vm.int_column_terms()
        scale = lcm(pden, vden)
        pf, vf = scale // pden, scale // vden
        # the rows of m_V that another column reaches
        crossed = {u for j, col in enumerate(vcols) for u, _ in col if u != j}
        # w -> b S / L_V, for the V indices w at which m_V is diagonal
        vdiag = {
            w: x * vf
            for w, x in _diagonal(vcols).items()
            if w not in crossed
        }
        vrest = set(range(len(vcols))) - vdiag.keys()
        diag = _diagonal(m.int_column_terms()[1])
        maps.append((i, name, pf, vf, vcols, diag, vdiag, vrest))
    for T, own in slot_cols.items():
        for i, name, pf, vf, vcols, diag, vdiag, vrest in maps:
            if all(map(diag.__contains__, T)):
                p = pf * prod(map(diag.__getitem__, T))
                # an undecided w gets p, which forces nothing
                forced = [k for w, k in own if vdiag.get(w, p) != p]
                undecided = vrest and [wk for wk in own if wk[0] in vrest]
                if not undecided:
                    if forced:
                        yield T, name, forced, []
                    continue
                pulled = [(p, undecided)] if p else []
            else:
                forced = []
                undecided = own
                pulled = [
                    (c * pf, slot_cols.get(X, ()))
                    for X, c in _pullbacks(a, arity, T)[i]
                ]
            by_w: dict[int, dict[int, int]] = {}
            for coeff, cols in pulled:
                for w, k in cols:
                    row = by_w.setdefault(w, {})
                    row[k] = row.get(k, 0) + coeff
            for w, k in undecided:
                for rrow, c in vcols[w]:
                    row = by_w.setdefault(rrow, {})
                    row[k] = row.get(k, 0) - c * vf
            yield T, name, forced, list(by_w.values())


def _slot_pairs(
    f: Cochain, arity: _Arity, dimV: int
) -> tuple[int, Sequence[tuple[int, int]], list[tuple[int, ...]]]:
    """f's nonzero entries x / D as (D, pairs, unnumbered): pairs the
    (slot number, x) of its slots on the numbering of ``arity`` over
    ``dimV`` (see :class:`Cochain`), and unnumbered the tuples of f with
    no number there, each non-canonical or with an index outside the
    basis.  A cochain numbered by ``arity`` gives its own pairs; any
    other is encoded from its rows, pairs and tuples in their order."""
    numbered = f._numbered
    if numbered is not None and numbered[2] is arity.tuples:
        return numbered[0], numbered[1], []
    den, rows = f.int_values()
    number = arity.number
    pairs: list[tuple[int, int]] = []
    unnumbered = []
    for T, row in rows.items():
        p = number.get(T)
        if p is None:
            unnumbered.append(T)
        else:
            base = p * dimV
            pairs += [(base + w, x) for w, x in row]
    return den, pairs, unnumbered


def _coordinates(
    space: _Space, pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int]] | None, tuple[int, int] | None]:
    """Read the cochain f with entries x / D at the (slot number, x)
    ``pairs`` (see :func:`_slot_pairs`) off ``space``: (coords, None)
    when f = sum of (x / D) basis[i] over the pairs (i, x) of coords, x
    the integer of f at the free slot of basis cochain i; (None, None)
    when f lies on the space's slots but not in it; (None, (s, x)) at
    f's first pair, in the order of ``pairs``, off those slots.

    The defect of f from that sum, times D * S for the scale S of the
    basis terms, is summed over f's nonzero slots that are no free slot
    and the terms of the basis cochains it combines.  At a free slot it
    is zero: basis[i] is 1 at its own and 0 at the others'.
    """
    slots, free_column = space.slots, space.free_column
    scale, terms = space.int_terms
    rest: dict[int, int] = {}
    coords: list[tuple[int, int]] = []
    for s, x in pairs:
        i = free_column.get(s)
        if i is not None:
            coords.append((i, x))
        elif s in slots:
            rest[s] = x * scale
        else:
            return None, (s, x)
    for i, x in coords:
        for s, b in terms[i][:-1]:
            y = rest.get(s, 0) - x * b
            if y:
                rest[s] = y
            else:
                del rest[s]
    return (None if rest else coords), None


def _outside_basis(a: ColourAlgebra, T: tuple[int, ...]) -> str:
    """The reason that refuses a stored tuple T with an index outside the
    basis 0..dim-1 of ``a``, or "" when every index lies in it."""
    if all(0 <= i < a.dim for i in T):
        return ""
    return f"stored tuple {T} leaves the basis 0..{a.dim - 1}"


def cochain_in_space(
    rep: Representation, f: Cochain
) -> tuple[bool, str]:
    """Does f lie in the cochain space: degrees and both intertwinings.

    f's slot numbers (see :func:`_slot_pairs`) are read off the memoized
    basis of its space by :func:`_coordinates`, in integers; the first
    check on a fresh module solves and memoizes that basis (see
    :func:`cochain_basis`).  Only a refusal decodes tuples.  A value off
    the space's slots is refused at f's first such tuple, in the order of
    its rows, as lying on a tuple with an index outside 0..dim-1, as
    leaving its degree block or as lying on a non-canonical tuple; a
    non-member is refused with the first condition of
    :func:`_intertwining_rows` it breaks, the conditions the basis is
    solved from, in lexicographic tuple and alpha before beta: a slot the
    condition forces where f is nonzero, or a row f does not satisfy.
    """
    a = rep.algebra
    if f.dimV != rep.dimV:
        return False, "value dimension differs from the module"
    g = a.basis.group.reduce(f.degree)
    space = _space(rep, f.n, g)
    arity, dimV = _arity(rep, f.n), rep.dimV
    _, pairs, unnumbered = _slot_pairs(f, arity, dimV)
    coords, stray = _coordinates(space, pairs)
    if stray is not None or unnumbered:
        # a tuple is off the space's slots when it has an index out of
        # range, a value of the wrong degree or no canonical order
        rows = f.int_values()[1]
        off = set(unnumbered)
        if stray is not None:
            off.add(arity.tuples[stray[0] // dimV])
        T = next(T for T in rows if T in off)
        reason = _outside_basis(a, T)
        if reason:
            return False, reason
        target = a.basis.group.add(g, _tuple_degree(a, T))
        if any(rep.space.degrees[w] != target for w, _ in rows[T]):
            return False, f"value on {T} leaves the degree-{target} block"
        return False, f"stored tuple {T} is not canonical"
    if coords is not None:
        return True, ""
    columns = space.slots
    x = {columns[s]: v for s, v in pairs}
    # the slots (T, w) of the columns, decoded to word the refusal
    slots = {
        (arity.tuples[s // dimV], s % dimV): k for s, k in columns.items()
    }
    T, name = next(
        (T, name)
        for T, name, forced, rows in _intertwining_rows(rep, f.n, slots)
        if any(k in x for k in forced)
        or any(sum(c * x.get(k, 0) for k, c in row.items()) for row in rows)
    )
    return False, f"{name} intertwining fails on tuple {T}"


# ---------------------------------------------------------------------------
# the coboundary


def _is_canonical(eps: Sequence[Sequence[int]], X: tuple[int, ...]) -> bool:
    """Is the sorted tuple X canonical: no repeat of an index whose degree
    has eps(d, d) = +1."""
    return all(
        x < y or (x == y and eps[x][x] != 1) for x, y in zip(X, X[1:])
    )


class _Coboundary:
    """The coboundary on n-cochains of degree gamma, for one r: the
    tables it reads, built once, and the image of each unit cochain,
    built on first use.

    The unit cochain of a slot (T, w) is e_w at T and zero elsewhere.  The
    coboundary is linear, so d f is the sum over f's nonzero slots of the
    slot's value times its unit image.  The images of the slots of one
    tuple T share the terms by which T enters the coboundary (see
    :func:`_reach`), which every degree and r of the arity shares too.

    The images are keyed by the slot number pos(T) * dimV + w of their
    slot (see :class:`Cochain`), pos(T) the ``number`` of T in the
    n-arity tables ``arity``.  A unit image is one flat tuple of
    (slot number, integer) pairs in ascending slot number, numbered the
    same way on the (n+1)-arity tables ``codomain``, which every r and
    gamma shares: the coordinate k of the (n+1)-tuple X has the number
    pos(X) * dimV + k.  So the numbers ascend in the lexicographic order
    of (X, k), and each X an image reaches, a canonical tuple by
    :func:`_reach`, has one, also where it leaves the degree-gamma slots.
    An image holds no zero, and each X at most once.

    Every unit image is stored as integers over one scale, ``scale``, the
    lcm of the scale S = L_bracket L_beta^(n-1) of the bracket scalars of
    :func:`_reach` and the common scale L_action of the action table
    rho(alpha beta^(r+n-1)(e_x)).  The action columns it reads are the
    module's memo for that power (see :class:`Representation`), which
    every (n, r) with the same r + n - 1 shares.  So
    :func:`apply_coboundary` reads a one-slot cochain's image off its unit
    image, sums the images of several slots in Python ints keyed by slot
    number, and returns d f on the slot numbers of ``codomain``.
    """

    def __init__(
        self, rep: Representation, n: int, r: int, gamma: GroupElement
    ) -> None:
        # the shared arity tables and the numbering of the (n+1)-tuples,
        # the action matrices rho(alpha beta^{r+n-1}(e_i)) with their
        # integer columns, and the signs eps(gamma, e_i)
        a = rep.algebra
        self.n = n
        self.gamma = gamma
        self.arity = _arity(rep, n)
        self.codomain = _arity(rep, n + 1)
        power = r + n - 1
        self.action = rep.action_table(power)
        columns = rep._columns.get(power)
        if columns is None:
            # lcm of a list, not of a generator: see scale_to_ints
            common = lcm(*[m.int_column_terms()[0] for m in self.action])
            columns = rep._columns[power] = (common, {})
        self.action_scale, self.columns = columns
        if n:
            bracket, beta = _reach_rows(rep)
            self.bracket_scale = bracket[0] * beta[0] ** (n - 1)
        else:
            self.bracket_scale = 1
        self.scale = lcm(self.bracket_scale, self.action_scale)
        self.eps_gamma = [a.eps.eval(gamma, a.degree(i)) for i in range(a.dim)]
        # slot number of (T, w) -> the unit image ((slot number, y), ...):
        # its nonzero coordinates y / scale in ascending slot number
        self.images: dict[int, tuple] = {}

    def image(
        self, rep: Representation, T: tuple[int, ...], w: int
    ) -> tuple:
        """The unit image of slot (T, w), T a canonical n-tuple, on
        ``rep``, the module this coboundary belongs to (not stored here,
        so the memo makes no reference cycle), over ``scale``, as the
        flat tuple of (slot number, integer) pairs of the class note;
        memoized under the slot's number.

        The bracket scalars of :func:`_reach` are ints over S and the
        action columns ints over L_action; each is brought to ``scale``
        and summed per X.  An action column rho(alpha beta^(r+n-1)(e_x)) e_w is read
        through ``Matrix.apply`` on its first use for (x, w), then from
        the module's memo."""
        slot = self.arity.number[T] * rep.dimV + w
        hit = self.images.get(slot)
        if hit is None:
            terms = self.arity.reach.get(T)
            if terms is None:
                terms = self.arity.reach[T] = _reach(rep, self.n, T)
            eps_gamma = self.eps_gamma
            fs = self.scale // self.bracket_scale
            fa = self.scale // self.action_scale
            number, dimV = self.codomain.number, rep.dimV
            out = []
            for X, scalar, acts in terms:
                total = {w: scalar * fs} if scalar else {}
                for sign, xs in acts:
                    c = fa if sign * eps_gamma[xs] == 1 else -fa
                    for k, y in self._column(rep, xs, w):
                        total[k] = total.get(k, 0) + c * y
                base = number[X] * dimV
                out.extend(
                    sorted([(base + k, y) for k, y in total.items() if y])
                )
            hit = self.images[slot] = tuple(out)
        return hit

    def _column(self, rep: Representation, x: int, w: int) -> IntTerms:
        """The nonzero entries of rho(alpha beta^(r+n-1)(e_x)) e_w, as
        integers over ``action_scale``; memoized on the module."""
        hit = self.columns.get((x, w))
        if hit is None:
            unit = tuple(ONE if k == w else ZERO for k in range(rep.dimV))
            scale = self.action_scale
            hit = self.columns[x, w] = tuple(
                [
                    (k, y.numerator * (scale // y.denominator))
                    for k, y in enumerate(self.action[x].apply(unit))
                    if y
                ]
            )
        return hit


def _reach_rows(rep: Representation) -> tuple:
    """(bracket, beta): the tables on which :func:`_reach` evaluates a
    unit cochain, built once per module.  Each is (L, rows, pre): rows[key]
    a dense tuple of ints over L, and pre[u] the keys whose row is nonzero
    at u, in ascending key order.  The bracket rows, keyed (i, j), are the
    cells [alpha^-1 beta(e_i), e_j] of
    ``int_table("twisted_terms", -1, 1)``, and the beta rows, keyed i, the
    columns beta(e_i) of ``beta.int_column_terms()``.  The bracket rows
    need an invertible alpha, which only cochains of arity n >= 1 ask
    for."""
    hit = rep._reach_rows
    if hit is None:
        a = rep.algebra

        def index(scale: int, cells: dict) -> tuple:
            rows = {}
            pre: list[list] = [[] for _ in range(a.dim)]
            for key, terms in cells.items():
                row = [0] * a.dim
                for k, x in terms:
                    row[k] = x
                    pre[k].append(key)
                rows[key] = tuple(row)
            return scale, rows, tuple(map(tuple, pre))

        bracket_scale, table = a.int_table("twisted_terms", -1, 1)
        beta_scale, cols = a.beta.int_column_terms()
        cells = {
            (i, j): c for i, r in enumerate(table) for j, c in enumerate(r)
        }
        hit = rep._reach_rows = (
            index(bracket_scale, cells),
            index(beta_scale, dict(enumerate(cols))),
        )
    return hit


def _reach(rep: Representation, n: int, T: tuple[int, ...]) -> tuple:
    """How the value v = f(T) of an n-cochain f supported on the tuple T
    alone enters d f: for each (n+1)-tuple X it reaches, in lexicographic
    order, (X, s, acts) with

        (d f)(X) = (s / S) v + sum over (sign, x) in acts of
                   sign eps(gamma, e_x) rho(alpha beta^{r+n-1}(e_x)) v.

    acts lists the action terms, at the X that insert one index into T.
    s, an int over S = L_bracket L_beta^(n-1), collects the bracket
    terms.  The bracket term at s < t reads f on
    [alpha^-1 beta(x_s), x_t] and on beta(x_p) at every other p, so it
    reaches T only where the bracket row reaches one entry u of T and the
    other beta rows reach the other entries.  The terms are enumerated
    from the preimage indexes of :func:`_reach_rows`: for each distinct
    entry u of T, each key (i, j) with i <= j whose bracket row reaches
    u, and each choice of beta-preimages of the other entries, X sorts
    the preimages with i and j, and every s < t with X[s] = i and
    X[t] = j is a term.  Each distinct (X, s, t) is evaluated once, by
    :meth:`Cochain.eval` of the scalar cochain 1 at T on one bracket row
    and n - 1 beta rows.  Neither s nor acts depends on gamma or r.
    """
    a = rep.algebra
    eps = a.eps_table()
    canonical = _arity(rep, n + 1).number
    # X -> the bracket keys (i, j) whose terms reach T at X
    found: dict[tuple[int, ...], set] = {}
    for x in range(a.dim):
        X = tuple(sorted(T + (x,)))
        if X in canonical:
            found[X] = set()
    if n:
        (_, bracket, bracket_pre), (_, beta, beta_pre) = _reach_rows(rep)
        for q, u in enumerate(T):
            keys = [(i, j) for i, j in bracket_pre[u] if i <= j]
            if not keys or (q and T[q - 1] == u):
                continue
            rest = [beta_pre[v] for v in T[:q] + T[q + 1 :]]
            for others in iproduct(*rest):
                for key in keys:
                    X = tuple(sorted(others + key))
                    if X in found:
                        found[X].add(key)
                    elif X in canonical:
                        found[X] = {key}
        unit = Cochain(n, a.basis.group.zero(), {T: (1,)}, 1)
    out = []
    for X in sorted(found):
        scalar = 0
        for i, j in found[X]:
            for t in range(1, n + 1):
                if X[t] != j:
                    continue
                for s in range(t):
                    if X[s] != i:
                        continue
                    w = -1 if t % 2 else 1
                    for p in range(s + 1, t):
                        w *= eps[X[p]][j]
                    args = [
                        bracket[i, j] if p == s else beta[X[p]]
                        for p in range(n + 1)
                        if p != t
                    ]
                    c = unit.eval(rep, args)[0]
                    if c:
                        scalar += w * c
        acts = []
        for s in range(n + 1):
            if X[:s] + X[s + 1 :] != T:
                continue
            xs = X[s]
            w = -1 if s % 2 else 1
            for p in range(s):
                w *= eps[X[p]][xs]
            acts.append((w, xs))
        if scalar or acts:
            out.append((X, scalar, tuple(acts)))
    return tuple(out)


def apply_coboundary(
    rep: Representation, r: int, f: Cochain, *, validate: bool = True
) -> Cochain:
    """Coboundary of an n-cochain: the (n+1)-cochain

        (df)(x_0, ..., x_n)
          = sum_{s<t} (-1)^t eps(x_{s+1} + ... + x_{t-1}, x_t)
                f(beta x_0, ..., [alpha^{-1}beta(x_s), x_t], ..., ^x_t, ..., beta x_n)
          + sum_s (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s)
                rho(alpha beta^{r+n-1}(x_s)) f(x_0, ..., ^x_s, ..., x_n)

    The bracket replaces the slot of x_s, x_t is removed, and every other
    first-sum argument carries beta.  For a 0-cochain only the second sum
    contributes.

    d f is summed exactly from the images of the unit cochains of f's
    nonzero slots.  The module memoizes each unit image, with the tables
    the coboundary reads, so a slot's image is computed once per
    (n, r, gamma) and repeated queries reuse it.  A unit image visits
    only the tuples its slot reaches (see :func:`_reach`).

    The sum is taken in integers on slot numbers, and no Fraction or
    tuple is built: f is read as its slot numbers and integers over its
    D (see :func:`_slot_pairs`), directly when the library built it, and
    each nonzero entry x / D of f scales the integers of its unit image,
    all over the one scale M of the coboundary (see :class:`_Coboundary`).
    A cochain with one nonzero slot, as every basis cochain of the corpus
    is, takes its unit image times x as it is: in ascending slot number
    and free of zeros.  Several slots are summed into one dict keyed by
    slot number, the sums that cancelled to zero are dropped, and only
    the rest is sorted.  d f is returned on the slot numbers of the
    (n+1)-tuples over D * M (see :class:`Cochain`); its tuple rows and
    ``values`` are built only when a caller reads them.

    A cochain of negative arity, or whose values have another dimension
    than V, raises ValueError, with or without ``validate``.  With ``validate`` f must pass :func:`cochain_in_space`,
    else ValueError; the first validation on a fresh module solves and
    memoizes the n-cochain basis.  Without it, a stored tuple with an index
    outside the algebra's basis still raises ValueError with the reason of
    :func:`cochain_in_space`, before any unit image is built, and a
    non-canonical stored tuple, on which f is never evaluated, adds
    nothing.
    """
    if f.n < 0:
        raise ValueError("cochain arity must be nonnegative")
    if f.dimV != rep.dimV:
        raise ValueError(
            "cochain is outside the domain space: value dimension differs "
            "from the module"
        )
    if validate:
        ok, reason = cochain_in_space(rep, f)
        if not ok:
            raise ValueError(f"cochain is outside the domain space: {reason}")
    n = f.n
    # the library's cochains carry their reduced degree: reduce on a miss
    cob = rep._coboundaries.get((n, r, f.degree))
    if cob is None:
        gamma = rep.algebra.basis.group.reduce(f.degree)
        key = (n, r, gamma)
        if key not in rep._coboundaries:
            rep._coboundaries[key] = _Coboundary(rep, n, r, gamma)
        cob = rep._coboundaries[key]
    dimV = rep.dimV
    den, pairs, unnumbered = _slot_pairs(f, cob.arity, dimV)
    for T in unnumbered:
        reason = _outside_basis(rep.algebra, T)
        if reason:
            raise ValueError(f"cochain is outside the domain space: {reason}")
    # each nonzero entry m / D of f with the unit image of its slot
    images, tuples = cob.images, cob.arity.tuples
    scaled = []
    for s, m in pairs:
        image = images.get(s)
        if image is None:
            p, w = divmod(s, dimV)
            image = cob.image(rep, tuples[p], w)
        scaled.append((m, image))
    if len(scaled) == 1:
        # one slot: its image times m is in ascending slot number already,
        # with no zero
        m, image = scaled[0]
        out = image if m == 1 else tuple([(u, m * y) for u, y in image])
    else:
        # each image's integers times its m, over D * M, summed by slot
        # number; the sums that cancelled to zero are dropped unsorted
        acc: dict[int, int] = {}
        get = acc.get
        for m, image in scaled:
            for u, y in image:
                acc[u] = get(u, 0) + m * y
        out = [(u, y) for u, y in acc.items() if y]
        out.sort()
    return Cochain._of(
        n + 1, cob.gamma, den * cob.scale, out, cob.codomain.tuples, dimV
    )


def coboundary_matrix(
    rep: Representation, n: int, r: int, gamma: GroupElement
) -> Matrix:
    """Matrix of the coboundary from the degree-gamma n-cochain basis to
    the (n+1)-basis.  Raises RuntimeError if some image fails to land in
    the codomain space (the intertwining conditions guarantee it does, so
    a miss indicates a module that fails its axioms), naming the basis
    cochain and, where the image leaves the degree-gamma slots, the slot.

    Each image is read off the memoized codomain space by
    :func:`_coordinates`, the readout that :func:`cochain_in_space` also
    uses, on the slot numbers the image holds (see :class:`Cochain`): its
    coordinates are its integers at the free slots of the codomain basis
    (see :func:`cochain_basis`), and it must equal that combination
    exactly, checked in integers over its nonzero slots and the codomain
    basis terms it combines.  The matrix is built in its integer form,
    column k the image's integers at the free slots, brought from its D
    to the lcm of every D, and its Fraction views are built only when a
    caller reads them (see :meth:`Matrix.int_column_terms`); a tuple and
    a Fraction are built here only for the text of an error.
    """
    dom = cochain_basis(rep, n, gamma)
    cod_basis = cochain_basis(rep, n + 1, gamma)
    if not dom:
        return Matrix.zero(len(cod_basis), 0)
    cod = _space(rep, n + 1, gamma)  # the memo entry just read
    arity, dimV = _arity(rep, n + 1), rep.dimV
    cols = []
    for k, fb in enumerate(dom):
        img = apply_coboundary(rep, r, fb, validate=False)
        den, pairs, _ = _slot_pairs(img, arity, dimV)
        coords, stray = _coordinates(cod, pairs)
        if stray is not None:
            # the slot decoded to word the error
            s, x = stray
            p, w = divmod(s, dimV)
            names = rep.algebra.basis.names
            args = ", ".join(names[i] for i in arity.tuples[p])
            raise RuntimeError(
                f"coboundary image of basis cochain {k} has "
                f"coordinate {rep.space.names[w]} = "
                f"{Fraction(x, den)} on ({args}), outside the "
                f"degree-{tuple(gamma)} slots of the codomain"
            )
        if coords is None:
            raise RuntimeError(
                f"coboundary image of basis cochain {k} does not lie in "
                "the codomain cochain space"
            )
        cols.append((den, tuple(sorted(coords))))
    # the columns brought to the lcm of their scales: a common scale of
    # the matrix, not always the least
    common = lcm(*[den for den, _ in cols])
    return Matrix._of(
        common,
        [
            terms if den == common
            else [(u, x * (common // den)) for u, x in terms]
            for den, terms in cols
        ],
        len(cod_basis),
    )


class CohomologyResult(FrozenRecord):
    """Dimensions at one (n, r, degree) triple."""

    __slots__ = (
        "n",
        "r",
        "degree",
        "dim_cochains",
        "dim_cocycles",
        "dim_coboundaries",
        "dim_h",
    )

    def __init__(
        self,
        n: int,
        r: int,
        degree: GroupElement,
        dim_cochains: int,
        dim_cocycles: int,
        dim_coboundaries: int,
        dim_h: int,
    ) -> None:
        self._fill(
            n, r, degree, dim_cochains, dim_cocycles, dim_coboundaries, dim_h
        )

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
    rep: Representation, n: int, r: int, gamma: GroupElement
) -> CohomologyResult:
    """Cocycle, coboundary and quotient dimensions at degree gamma.

    Verifies the inclusion of coboundaries in cocycles directly, on every
    call: the coboundary of every (n-1)-basis cochain is fed through the
    next coboundary and must map to zero, else RuntimeError naming the
    basis cochain and the first tuple where the square is nonzero, with
    its value.  The re-check is exact and cheap: it reads the bases and
    unit-slot images memoized on the module, each basis cochain and each
    d f holds its slot numbers (see :class:`Cochain`), and each
    :func:`apply_coboundary` sums the numbered flat images in one integer
    accumulator keyed by slot number, which a vanishing d(d f) leaves
    with nothing to sort.  So only a nonzero d(d f) builds tuples and
    Fractions.

    dim C is the length of the memoized cochain basis, and the rank of
    each coboundary matrix is memoized under (n, r, degree):
    a matrix is built, with its checks, only on a rank miss, and its rank
    stored once it was built without error.  So a sweep over n builds the
    matrix shared by H^n and H^{n+1} once, and a repeated query builds
    none (see :class:`Representation`).
    """
    if n < 0:
        raise ValueError("cochain arity must be nonnegative")
    a = rep.algebra
    g = a.basis.group.reduce(gamma)
    dim_c = len(cochain_basis(rep, n, g))
    dim_z = dim_c - _rank_of(rep, n, r, g)
    if n == 0:
        dim_b = 0
    else:
        prev = cochain_basis(rep, n - 1, g)
        dim_b = _rank_of(rep, n - 1, r, g)
        for k, fb in enumerate(prev):
            mid = apply_coboundary(rep, r, fb, validate=False)
            again = apply_coboundary(rep, r, mid, validate=False)
            if not again.is_zero():
                X, val = next(iter(again.values.items()))
                args = ", ".join(a.basis.names[i] for i in X)
                raise RuntimeError(
                    "coboundary image escapes the cocycle space: the "
                    "square of the coboundary is nonzero at "
                    f"(n={n}, r={r}, degree={g}): on basis cochain {k} of "
                    f"arity {n - 1} it is {format_element(rep.space, val)} "
                    f"on ({args})"
                )
    return CohomologyResult(
        n=n,
        r=r,
        degree=g,
        dim_cochains=dim_c,
        dim_cocycles=dim_z,
        dim_coboundaries=dim_b,
        dim_h=dim_z - dim_b,
    )


def _rank_of(rep: Representation, n: int, r: int, g) -> int:
    """Rank of the coboundary matrix of (n, r, g), memoized."""
    key = (n, r, g)
    hit = rep._ranks.get(key)
    if hit is None:
        mat = coboundary_matrix(rep, n, r, g)
        hit = rep._ranks[key] = mat.rank()
    return hit
