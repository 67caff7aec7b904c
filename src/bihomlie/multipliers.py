"""Rescaling brackets by a multiplier sigma on the grading group.

A multiplier is a finite table of nonzero rationals indexed by ordered
pairs of degrees.  It is deliberately NOT a function: sigma need not be
bilinear, so there is no extension rule, and a lookup outside the table is
a hard error rather than a silent 1.

Two twists are provided.  sigma_twist rescales the structure constants by
a symmetric multiplier and keeps the bicharacter.  delta_twist rescales by
a (not necessarily symmetric) multiplier satisfying the cocycle identity
    sigma(x, y + z) sigma(y, z) = sigma(x, y) sigma(x + y, z)
and replaces the bicharacter by eps * delta where
    delta(x, y) = sigma(x, y) / sigma(y, x),
which must take values in {+1, -1}: any other ratio would leave the
scalars we support and aborts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from .algebra import (
    AxiomReport,
    CheckItem,
    ColourAlgebra,
    IntTable,
    Witness,
    _least,
    require_passing,
    to_fraction,
)
from .grading import Bicharacter, GradingGroup, GroupElement, format_degree
from .linalg import write_scalar

Scalar = int | Fraction | str


class MissingEntryError(KeyError):
    """A multiplier (or omega) lookup outside the stored table."""

    def __init__(self, what: str, key: str):
        super().__init__(f"{what} has no entry for {key}")
        self.what = what
        self.key = key

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


def _closure(group: GradingGroup, degrees: Iterable) -> tuple[set, set]:
    """(D, D ∪ (D + D)) for the reduced degrees D of ``degrees``: every
    degree a validator or twist looks a multiplier up at."""
    base = {group.reduce(d) for d in degrees}
    closed = set(base)
    closed.update(group.add(g, h) for g in base for h in base)
    return base, closed


class MultiplierTable:
    """Finite table sigma: pairs of degrees -> nonzero rationals; a string
    value is read by :func:`~bihomlie.algebra.to_fraction`."""

    __slots__ = ("group", "entries")

    def __init__(
        self,
        group: GradingGroup,
        entries: Mapping[tuple[GroupElement, GroupElement], Scalar],
    ):
        reduced: dict[tuple[GroupElement, GroupElement], Fraction] = {}
        for (g, h), v in entries.items():
            v = to_fraction(v)
            if not v:
                raise ValueError(
                    "multiplier value 0 at "
                    f"({format_degree(g)}, {format_degree(h)})"
                )
            reduced[group.reduce(g), group.reduce(h)] = v
        self.group = group
        self.entries = reduced

    def value(self, g: GroupElement, h: GroupElement) -> Fraction:
        key = (self.group.reduce(g), self.group.reduce(h))
        try:
            return self.entries[key]
        except KeyError:
            pair = f"({format_degree(key[0])}, {format_degree(key[1])})"
            raise MissingEntryError("multiplier", pair) from None

    __call__ = value

    def __contains__(self, pair: tuple[GroupElement, GroupElement]) -> bool:
        g, h = pair
        return (self.group.reduce(g), self.group.reduce(h)) in self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiplierTable):
            return NotImplemented
        return self.group == other.group and self.entries == other.entries

    def __repr__(self) -> str:
        return f"MultiplierTable({len(self.entries)} entries)"

    @classmethod
    def constant(
        cls,
        group: GradingGroup,
        degrees: Iterable[GroupElement],
        value: Scalar = 1,
    ) -> "MultiplierTable":
        """sigma == value on every pair reachable from `degrees`.

        Covers all pairs of elements of D and D+D, which is what the
        validators and both twists ever look up.
        """
        _, closed = _closure(group, degrees)
        return cls(
            group, {(g, h): value for g in closed for h in closed}
        )


def _degree_witness(
    positions: tuple[int, ...],
    degrees: Sequence[GroupElement],
    defect: Fraction,
) -> Witness:
    """The witness at ``positions``; ValueError naming the degrees for a
    defect too large to write (see :func:`~bihomlie.linalg.write_scalar`)."""
    names = tuple(format_degree(degrees[p]) for p in positions)
    where = "; ".join(f"({n})" for n in names)
    return Witness(
        indices=positions,
        names=names,
        defect=(defect,),
        defect_str=write_scalar(defect, f"the defect at degrees {where}"),
    )


def validate_multiplier(
    s: MultiplierTable,
    degrees: Sequence[GroupElement],
    mode: str = "symmetric",
) -> AxiomReport:
    """Check the multiplier conditions on a finite degree list.

    symmetric mode: sigma(x,y) = sigma(y,x) for all pairs, and
    sigma(x,y) sigma(z,x+y) unchanged under cyclic rotation of (x,y,z).
    cocycle mode: sigma(x,y+z) sigma(y,z) = sigma(x,y) sigma(x+y,z).
    Missing table entries raise MissingEntryError; they are a usage error,
    not a failed verdict.
    """
    if mode not in ("symmetric", "cocycle"):
        raise ValueError(f"unknown multiplier mode {mode!r}")
    grp = s.group
    value = s.value
    ds = [grp.reduce(d) for d in degrees]

    def scan(
        name: str, arity: int, defect: Callable[..., Fraction]
    ) -> CheckItem:
        """First position tuple (lexicographic) with a nonzero defect."""
        for pos in iproduct(range(len(ds)), repeat=arity):
            d = defect(*(ds[p] for p in pos))
            if d:
                return CheckItem(name, False, _degree_witness(pos, ds, d))
        return CheckItem(name, True)

    if mode == "symmetric":

        def cyclic(x, y, z) -> Fraction:
            v0 = value(x, y) * value(z, grp.add(x, y))
            v1 = value(y, z) * value(x, grp.add(y, z))
            v2 = value(z, x) * value(y, grp.add(z, x))
            return v1 - v0 if v1 != v0 else v2 - v0

        return AxiomReport(
            [
                scan("symmetric", 2, lambda x, y: value(x, y) - value(y, x)),
                scan("cyclic_invariance", 3, cyclic),
            ]
        )
    return AxiomReport(
        [
            scan(
                "cocycle",
                3,
                lambda x, y, z: value(x, grp.add(y, z)) * value(y, z)
                - value(x, y) * value(grp.add(x, y), z),
            )
        ]
    )


def multiplier_from_omega(
    group: GradingGroup,
    omega: Mapping[GroupElement, Scalar],
    degrees: Sequence[GroupElement],
) -> MultiplierTable:
    """tau(x, y) = omega(x+y) / (omega(x) omega(y)).

    omega must cover the degree list and its pairwise sums; tau is then
    built on every pair whose three omega lookups resolve, which always
    includes all pairs from the degree list itself.  The result passes
    symmetric-mode validation by construction (both conditions reduce to
    identical omega products).  A string value is read by
    :func:`~bihomlie.algebra.to_fraction`.
    """
    om: dict[GroupElement, Fraction] = {}
    for g, v in omega.items():
        v = to_fraction(v)
        if not v:
            raise ValueError(f"omega value 0 at {format_degree(g)}")
        om[group.reduce(g)] = v

    def w(g: GroupElement) -> Fraction:
        try:
            return om[g]
        except KeyError:
            raise MissingEntryError("omega", format_degree(g)) from None

    base, closed = _closure(group, degrees)
    entries = {}
    for g in closed:
        for h in closed:
            gh = group.add(g, h)
            if g in base and h in base:
                entries[g, h] = w(gh) / (w(g) * w(h))
            elif g in om and h in om and gh in om:
                entries[g, h] = om[gh] / (om[g] * om[h])
    return MultiplierTable(group, entries)


def _rescaled_product(a: ColourAlgebra, s: MultiplierTable) -> IntTable:
    """The integer table of the structure constants of ``a`` with cell
    [i][j] times s(deg e_i, deg e_j): the cells of
    ``int_table("product_terms")`` times the numerators, over the scale
    times the lcm of the denominators, brought to the least scale that
    ``ColourAlgebra._of`` takes.  s is read at every pair (i, j) in row
    order, so a missing entry raises MissingEntryError at the first pair
    that needs it."""
    scale, terms = a.int_table("product_terms")
    degs = a.basis.degrees
    values = [[s.value(g, h) for h in degs] for g in degs]
    # lcm of a list, not of a generator: see scale_to_ints
    common = lcm(*[v.denominator for row in values for v in row])
    factors = [
        [v.numerator * (common // v.denominator) for v in row]
        for row in values
    ]
    table = [
        [tuple([(k, x * c) for k, x in ts]) for ts, c in zip(cells, row)]
        for cells, row in zip(terms, factors)
    ]
    return _least(scale * common, table)


def sigma_twist(a: ColourAlgebra, s: MultiplierTable) -> ColourAlgebra:
    """Rescale the bracket by a symmetric multiplier, same eps and maps."""
    require_passing(a, "lie", context="sigma_twist")
    if s.group != a.basis.group:
        raise ValueError("multiplier is over a different grading group")
    occurring = sorted(set(a.basis.degrees))
    verdict = validate_multiplier(s, occurring, mode="symmetric")
    if not verdict.passed:
        bad = ", ".join(it.name for it in verdict.failures())
        raise ValueError(f"multiplier fails symmetric-mode validation: {bad}")
    return ColourAlgebra._of(
        a.basis, a.eps, _rescaled_product(a, s), a.alpha, a.beta, a.kind
    )


def delta_table(
    s: MultiplierTable, degrees: Sequence[GroupElement]
) -> dict[tuple[GroupElement, GroupElement], Fraction]:
    """delta(x, y) = sigma(x, y) / sigma(y, x) on all pairs of `degrees`."""
    grp = s.group
    ds = [grp.reduce(d) for d in degrees]
    return {(g, h): s.value(g, h) / s.value(h, g) for g in ds for h in ds}


def delta_twist(a: ColourAlgebra, s: MultiplierTable) -> ColourAlgebra:
    """Rescale the bracket and replace eps by eps*delta.

    Validates the cocycle identity on the occurring degrees, computes
    delta on generator pairs of the group (so the table must cover those
    pairs), requires every delta value to be +1 or -1, assembles the new
    bicharacter from eps and delta on generators, and finally checks that
    the assembled bicharacter really equals eps*delta on every occurring
    pair; a mismatch means delta is not bimultiplicative there and the
    twist is refused.
    """
    require_passing(a, "lie", context="delta_twist")
    grp = a.basis.group
    if s.group != grp:
        raise ValueError("multiplier is over a different grading group")
    occurring = sorted(set(a.basis.degrees))
    verdict = validate_multiplier(s, occurring, mode="cocycle")
    if not verdict.passed:
        w = verdict.item("cocycle").witness
        where = (
            " at degrees " + "; ".join(f"({n})" for n in w.names) if w else ""
        )
        raise ValueError(f"multiplier fails the cocycle identity{where}")

    gens = [
        grp.reduce(tuple(1 if t == k else 0 for t in range(grp.rank)))
        for k in range(grp.rank)
    ]
    new_gen_values = []
    for i, g in enumerate(gens):
        row = []
        for j, h in enumerate(gens):
            d = s.value(g, h) / s.value(h, g)
            if d not in (1, -1):
                raise ValueError(
                    f"delta({format_degree(g)}, {format_degree(h)}) = {d} "
                    "is not +1 or -1; unsupported field extension"
                )
            row.append(a.eps.gen_values[i][j] * int(d))
        new_gen_values.append(row)
    new_eps = Bicharacter(grp, new_gen_values)
    new_eps.validate()

    for (g, h), d in delta_table(s, occurring).items():
        if d not in (1, -1):
            raise ValueError(
                f"delta({format_degree(g)}, {format_degree(h)}) = {d} "
                "is not +1 or -1; unsupported field extension"
            )
        if new_eps.eval(g, h) != a.eps.eval(g, h) * int(d):
            raise ValueError(
                "delta is not a bicharacter: value at "
                f"({format_degree(g)}, {format_degree(h)}) is not the "
                "product of its generator values"
            )

    return ColourAlgebra._of(
        a.basis, new_eps, _rescaled_product(a, s), a.alpha, a.beta, a.kind
    )
