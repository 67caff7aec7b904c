"""Grading groups, degrees, and skewsymmetric bicharacters.

Degrees live in a finitely generated abelian group Z^r x Z_{m1} x ... x Z_{mk}
and are stored as plain int tuples with torsion components reduced into
[0, m_i).  A bicharacter is determined by its values on generator pairs;
values are restricted to +1/-1, the only roots of unity in the rationals.
"""

from __future__ import annotations

from collections.abc import Iterable

GroupElement = tuple[int, ...]


class FrozenRecord:
    """Base of the library's record types: a value whose fields are the
    ``__slots__`` of its class, in constructor order.

    It gives what ``dataclasses.dataclass(frozen=True)`` would: ``==``
    field by field against the same class only, a hash over the fields,
    the repr ``Name(field=value, ...)``, assignment that raises
    AttributeError, and a ``__reduce__`` through the constructor, so that
    pickle and copy work.  The library does not import ``dataclasses``,
    which loads ``inspect`` and ``ast``, and whose decorators generate
    code at import: the two took two thirds of ``import bihomlie``.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the fields, in slot order; for the constructors."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class GroupMismatchError(ValueError):
    """Raised when elements of different grading groups are combined."""


class GradingGroup(FrozenRecord):
    """Z^free_rank x prod_i Z_torsion[i], in that generator order."""

    __slots__ = ("free_rank", "torsion")

    def __init__(
        self, free_rank: int = 0, torsion: tuple[int, ...] = ()
    ) -> None:
        if free_rank < 0:
            raise ValueError("negative free rank")
        for m in torsion:
            if m < 2:
                raise ValueError(f"torsion modulus {m} < 2")
        self._fill(free_rank, torsion)

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def reduce(self, coords: Iterable[int]) -> GroupElement:
        c = tuple(int(x) for x in coords)
        if len(c) != self.rank:
            raise GroupMismatchError(
                f"expected {self.rank} coordinates, got {len(c)}"
            )
        free = c[: self.free_rank]
        tors = tuple(
            x % m for x, m in zip(c[self.free_rank :], self.torsion)
        )
        return free + tors

    def zero(self) -> GroupElement:
        return (0,) * self.rank

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.reduce(a + b for a, b in zip(self._chk(g), self._chk(h)))

    def neg(self, g: GroupElement) -> GroupElement:
        return self.reduce(-a for a in self._chk(g))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g - h, reduced once; h is checked first, as add(g, neg(h))
        checks it."""
        self._chk(h)
        return self.reduce(a - b for a, b in zip(self._chk(g), h))

    def sum(self, elements: Iterable[GroupElement]) -> GroupElement:
        total = self.zero()
        for g in elements:
            total = self.add(total, g)
        return total

    def _chk(self, g: GroupElement) -> GroupElement:
        if len(g) != self.rank:
            raise GroupMismatchError(
                f"element {g} does not live in {format_group(self)}"
            )
        return g


def parse_group(token: str) -> GradingGroup:
    """Parse a group description like "0", "Z2", "Z x Z3", "Z x Z x Z2".

    >>> parse_group("Z2")
    GradingGroup(free_rank=0, torsion=(2,))
    >>> parse_group("Z x Z3").rank
    2
    """
    token = token.strip()
    if token == "0":
        return GradingGroup(0, ())
    free = 0
    torsion: list[int] = []
    for part in token.split("x"):
        part = part.strip()
        if part == "Z":
            if torsion:
                raise ValueError(
                    "free factors must precede torsion factors"
                )
            free += 1
        elif part.startswith("Z") and part[1:].isdigit():
            torsion.append(int(part[1:]))
        else:
            raise ValueError(f"bad group factor {part!r}")
    return GradingGroup(free, tuple(torsion))


def format_group(group: GradingGroup) -> str:
    parts = ["Z"] * group.free_rank + [f"Z{m}" for m in group.torsion]
    return " x ".join(parts) if parts else "0"


def parse_degree(group: GradingGroup, token: str) -> GroupElement:
    """Parse a comma-separated degree tuple; "" is allowed for rank 0."""
    token = token.strip()
    if not token:
        coords: list[int] = []
    else:
        coords = [int(p) for p in token.split(",")]
    return group.reduce(coords)


def format_degree(g: GroupElement) -> str:
    return ",".join(str(x) for x in g)


class Bicharacter:
    """Skewsymmetric bicharacter eps: Gamma x Gamma -> {+1, -1}.

    gen_values[i][j] is the value on the (i-th, j-th) generator pair.  For
    +-1 values skewsymmetry eps(a,b)eps(b,a)=1 forces the table to be
    symmetric, and a -1 on a torsion generator is only consistent when the
    modulus is even.
    """

    __slots__ = ("group", "gen_values", "_cache")

    def __init__(
        self, group: GradingGroup, gen_values: Iterable[Iterable[int]]
    ) -> None:
        self.group = group
        self.gen_values = tuple(tuple(int(v) for v in row) for row in gen_values)
        if len(self.gen_values) != group.rank or any(
            len(row) != group.rank for row in self.gen_values
        ):
            raise ValueError("gen_values must be rank x rank")
        self._cache: dict[tuple[GroupElement, GroupElement], int] = {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bicharacter)
            and self.group == other.group
            and self.gen_values == other.gen_values
        )

    def __hash__(self) -> int:
        return hash((self.group, self.gen_values))

    def __repr__(self) -> str:
        return f"Bicharacter({format_group(self.group)}, {self.gen_values})"

    def problems(self) -> list[str]:
        """All invariant violations, as human-readable strings."""
        out = []
        n = self.group.rank
        for i in range(n):
            for j in range(n):
                v = self.gen_values[i][j]
                if v not in (1, -1):
                    out.append(f"value on (e{i+1},e{j+1}) is {v}, not +-1")
        for i in range(n):
            for j in range(i, n):
                if self.gen_values[i][j] * self.gen_values[j][i] != 1:
                    out.append(
                        f"eps(e{i+1},e{j+1})*eps(e{j+1},e{i+1}) != 1"
                    )
        for j in range(self.group.free_rank, n):
            m = self.group.torsion[j - self.group.free_rank]
            if m % 2 == 1:
                for i in range(n):
                    if self.gen_values[i][j] != 1 or self.gen_values[j][i] != 1:
                        out.append(
                            f"-1 on odd-order generator e{j+1} (Z{m})"
                        )
                        break
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError("invalid bicharacter: " + "; ".join(problems))

    def eval(self, g: GroupElement, h: GroupElement) -> int:
        """eps(g, h).  The cache holds reduced pairs only, so reduced
        tuples are answered before any reduction; other coordinate
        sequences, such as (3,) in Z2 or a list, are reduced first."""
        try:
            hit = self._cache.get((g, h))
        except TypeError:  # an unhashable coordinate sequence
            hit = None
        if hit is not None:
            return hit
        g = self.group.reduce(g)
        h = self.group.reduce(h)
        key = (g, h)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        sign = 1
        for i, gi in enumerate(g):
            if not gi:
                continue
            row = self.gen_values[i]
            for j, hj in enumerate(h):
                if row[j] == -1 and (gi * hj) % 2:
                    sign = -sign
        self._cache[key] = sign
        return sign

    def eval_many(self, gs: Iterable[GroupElement], h: GroupElement) -> int:
        """eps(g1 + g2 + ..., h) without materializing the sum."""
        total = self.group.sum(gs)
        return self.eval(total, h)


def trivial_bicharacter(group: GradingGroup) -> Bicharacter:
    n = group.rank
    return Bicharacter(group, [[1] * n for _ in range(n)])


def super_bicharacter() -> Bicharacter:
    """The sign rule of superalgebras: Z2 grading, eps(1,1) = -1."""
    return Bicharacter(GradingGroup(0, (2,)), [[-1]])


class GradedBasis(FrozenRecord):
    """Named basis vectors with homogeneous degrees in one group."""

    __slots__ = ("group", "names", "degrees")

    def __init__(
        self,
        group: GradingGroup,
        names: tuple[str, ...],
        degrees: tuple[GroupElement, ...],
    ) -> None:
        if len(names) != len(degrees):
            raise ValueError("names and degrees differ in length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self._fill(group, names, tuple(group.reduce(d) for d in degrees))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown basis vector {name!r}") from None


def homogeneous_degree(
    basis: GradedBasis, coords: Iterable
) -> tuple[bool, GroupElement | None]:
    """(is_homogeneous, degree) of a coordinate vector.

    The zero vector is homogeneous of every degree; its degree is None.
    """
    seen: GroupElement | None = None
    for c, d in zip(coords, basis.degrees):
        if not c:
            continue
        if seen is None:
            seen = d
        elif seen != d:
            return False, None
    return True, seen
