"""The `.alg` text format, multiplier side files, and JSON report helpers.

An algebra file is line-oriented and sectioned:

    version 1
    [group]
    Z x Z2
    [bicharacter]
    e2 e2 -1
    [basis]
    H 0 0
    F 0 1
    [product]
    H F -> -1 F
    F H -> F
    [alpha]
    H -> H
    F -> 2 F
    [kind]
    lie

`#` starts a comment.  Every stated product pair is literal (nothing is
completed by skewsymmetry); unstated pairs multiply to zero.  [alpha] and
[beta] default to the identity when absent.  serialize_algebra emits a
canonical form (fixed section order, declaration-order lines, lowest-term
coefficients) so that serialize(parse(serialize(a))) == serialize(a).

The parser reads each right-hand side as sparse terms and builds the
integer forms the library holds, with no dense table: the product goes to
``ColourAlgebra._of`` as the integer table of ``int_table("product_terms")``
and each map to ``Matrix._of`` as its integer columns, so parsing builds
no ``Fraction`` view.  serialize_algebra writes from the same forms.

Multiplier tables arrive as side files of `g h v` lines, with degrees
written as comma-separated tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MAX_DIM, ColourAlgebra, read_scalar
from .grading import (
    Bicharacter,
    GradedBasis,
    GradingGroup,
    format_degree,
    format_group,
    parse_degree,
    parse_group,
)
from .linalg import (
    ONE,
    Matrix,
    Terms,
    first_off_block,
    scale_to_ints,
    write_scalar,
)
from .multipliers import MultiplierTable

FORMAT_VERSION = 1

_SECTIONS = ("group", "bicharacter", "basis", "product", "alpha", "beta", "kind")


class ParseError(ValueError):
    """Malformed or inconsistent input text, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((no, body))
    return out


def _split_sections(
    lines: list[tuple[int, str]]
) -> dict[str, list[tuple[int, str]]]:
    if not lines:
        raise ParseError("empty input")
    no, first = lines[0]
    if first.split() != ["version", str(FORMAT_VERSION)]:
        raise ParseError(
            f"expected 'version {FORMAT_VERSION}' header, got {first!r}", no
        )
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for no, body in lines[1:]:
        if body.startswith("[") and body.endswith("]"):
            name = body[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", no)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", no)
            sections[name] = []
            current = name
        elif current is None:
            raise ParseError(f"content before any section: {body!r}", no)
        else:
            sections[current].append((no, body))
    return sections


def _scalar(tok: str, no: int, what: str) -> Fraction:
    """read_scalar, with a refusal raised as a ParseError at line no."""
    try:
        c = read_scalar(tok)
    except ValueError as e:
        raise ParseError(str(e), no) from None
    if c is None:
        raise ParseError(f"bad {what} {tok!r}", no)
    return c


def _parse_expr(rhs: str, basis: GradedBasis, no: int) -> Terms:
    """The nonzero terms (k, c) of the right side ``rhs``, in ascending k."""
    rhs = rhs.strip()
    if rhs == "0":
        return ()
    acc: dict[int, Fraction] = {}
    for term in rhs.split("+"):
        toks = term.split()
        if len(toks) == 1:
            c, name = Fraction(1), toks[0]
        elif len(toks) == 2:
            c, name = _scalar(toks[0], no, "coefficient"), toks[1]
        else:
            raise ParseError(f"bad term {term.strip()!r}", no)
        try:
            k = basis.index(name)
        except KeyError:
            raise ParseError(f"unknown basis vector {name!r}", no) from None
        acc[k] = acc.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _format_expr(basis: GradedBasis, terms: Terms, entry: str) -> str:
    """The right side of the line ``entry`` (such as "[product] x y") for
    the nonzero ``terms`` (k, c): ValueError, naming the entry and the
    basis vector, for a coefficient the reader would refuse, one of more
    than MAX_SCALAR_DIGITS digits (:func:`~bihomlie.linalg.write_scalar`)."""
    out = []
    for k, c in terms:
        name = basis.names[k]
        if c == 1:
            out.append(name)
        else:
            text = write_scalar(c, f"{entry}: the coefficient of {name}")
            out.append(f"{text} {name}")
    return " + ".join(out) if out else "0"


def _parse_map_section(
    lines: list[tuple[int, str]], basis: GradedBasis, what: str
) -> Matrix:
    n = len(basis)
    cols: dict[int, Terms] = {}
    for no, body in lines:
        if "->" not in body:
            raise ParseError(f"[{what}] line needs '->': {body!r}", no)
        lhs, rhs = body.split("->", 1)
        toks = lhs.split()
        if len(toks) != 1:
            raise ParseError(
                f"[{what}] line must map a single basis vector", no
            )
        try:
            j = basis.index(toks[0])
        except KeyError:
            raise ParseError(f"unknown basis vector {toks[0]!r}", no) from None
        if j in cols:
            raise ParseError(f"duplicate [{what}] line for {toks[0]}", no)
        cols[j] = _parse_expr(rhs, basis, no)
    # an unlisted basis vector maps to itself
    scale, ints = scale_to_ints([cols.get(j, ((j, ONE),)) for j in range(n)])
    return Matrix._of(scale, ints, n)


def parse_linear_map(text: str, basis: GradedBasis, what: str = "map") -> Matrix:
    """Parse a headerless side file of `x -> expr` lines into a matrix.

    Unlisted basis vectors map to themselves.
    """
    return _parse_map_section(_logical_lines(text), basis, what)


def parse_algebra(text: str) -> ColourAlgebra:
    """Parse `.alg` text; raises ParseError with a line number on bad input.

    Validates the bicharacter and the evenness of the product and both
    maps, so the returned algebra is structurally sound (the deeper axiom
    suites remain the caller's choice).  The evenness of a product line is
    checked on its terms, against the degree sum of its pair of degrees,
    formed once per pair; the product and the maps are built in their
    integer forms (see the module docstring).
    """
    sections = _split_sections(_logical_lines(text))

    if "group" not in sections:
        raise ParseError("missing [group] section")
    glines = sections["group"]
    if len(glines) != 1:
        raise ParseError(
            "[group] must contain exactly one line",
            glines[0][0] if glines else None,
        )
    no, body = glines[0]
    try:
        group = parse_group(body)
    except ValueError as e:
        raise ParseError(str(e), no) from None

    rank = group.rank
    gen_values = [[1] * rank for _ in range(rank)]
    for no, body in sections.get("bicharacter", []):
        toks = body.split()
        if len(toks) != 3:
            raise ParseError("expected 'ei ej value'", no)
        idx = []
        for t in toks[:2]:
            if not (t.startswith("e") and t[1:].isdigit()):
                raise ParseError(f"bad generator {t!r}", no)
            i = int(t[1:])
            if not 1 <= i <= rank:
                raise ParseError(
                    f"generator {t} out of range for {format_group(group)}",
                    no,
                )
            idx.append(i - 1)
        if toks[2] not in ("1", "-1"):
            raise ParseError("bicharacter value must be 1 or -1", no)
        gen_values[idx[0]][idx[1]] = int(toks[2])
    eps = Bicharacter(group, gen_values)
    problems = eps.problems()
    if problems:
        raise ParseError("invalid bicharacter: " + "; ".join(problems))

    if "basis" not in sections or not sections["basis"]:
        raise ParseError("missing or empty [basis] section")
    if len(sections["basis"]) > MAX_DIM:
        raise ParseError(f"[basis] has more than {MAX_DIM} elements")
    names: list[str] = []
    degrees: list = []
    for no, body in sections["basis"]:
        toks = body.split()
        name = toks[0]
        try:
            ambiguous = read_scalar(name) is not None
        except ValueError:
            ambiguous = True
        if ambiguous:
            raise ParseError(
                f"basis name {name!r} would be ambiguous in expressions", no
            )
        if name in names:
            raise ParseError(f"duplicate basis name {name!r}", no)
        if len(toks) != 1 + rank:
            raise ParseError(
                f"expected {rank} degree components for {name}", no
            )
        try:
            deg = group.reduce(int(t) for t in toks[1:])
        except ValueError:
            raise ParseError(f"bad degree components for {name}", no) from None
        names.append(name)
        degrees.append(deg)
    basis = GradedBasis(group, tuple(names), tuple(degrees))
    n = len(basis)

    # (i, j) -> the terms of e_i e_j, for each stated pair
    cells: dict[tuple[int, int], Terms] = {}
    sums: dict[tuple, tuple] = {}
    for no, body in sections.get("product", []):
        if "->" not in body:
            raise ParseError(f"[product] line needs '->': {body!r}", no)
        lhs, rhs = body.split("->", 1)
        toks = lhs.split()
        if len(toks) != 2:
            raise ParseError("[product] left side must name two vectors", no)
        try:
            i, j = basis.index(toks[0]), basis.index(toks[1])
        except KeyError as e:
            raise ParseError(str(e.args[0]), no) from None
        if (i, j) in cells:
            raise ParseError(
                f"duplicate product line for {toks[0]} {toks[1]}", no
            )
        cell = cells[i, j] = _parse_expr(rhs, basis, no)
        pair = (degrees[i], degrees[j])
        want = sums.get(pair)
        if want is None:
            want = sums[pair] = group.add(*pair)
        for k, _ in cell:
            if degrees[k] != want:
                raise ParseError(
                    f"product {toks[0]} {toks[1]} is not even: component "
                    f"{names[k]} has degree {format_degree(degrees[k])}, "
                    f"expected {format_degree(want)}",
                    no,
                )
    scale, ints = scale_to_ints(list(cells.values()))
    table = [[()] * n for _ in range(n)]
    for (i, j), terms in zip(cells, ints):
        table[i][j] = terms
    product = (scale, tuple(map(tuple, table)))

    alpha = _parse_map_section(sections.get("alpha", []), basis, "alpha")
    beta = _parse_map_section(sections.get("beta", []), basis, "beta")
    for what, m in (("alpha", alpha), ("beta", beta)):
        bad = first_off_block(m, degrees, degrees)
        if bad is not None:
            u, t = bad
            raise ParseError(
                f"[{what}] is not even: sends {names[t]} "
                f"(degree {format_degree(degrees[t])}) into "
                f"{names[u]} (degree {format_degree(degrees[u])})"
            )

    kind = "generic"
    klines = sections.get("kind", [])
    if klines:
        if len(klines) > 1:
            raise ParseError("[kind] must contain one line", klines[1][0])
        kind = klines[0][1].strip()
        if kind not in ("lie", "associative", "generic"):
            raise ParseError(f"unknown kind {kind!r}", klines[0][0])

    return ColourAlgebra._of(basis, eps, product, alpha, beta, kind)


def serialize_algebra(a: ColourAlgebra) -> str:
    """Canonical `.alg` text; a fixpoint of parse-then-serialize."""
    lines = [f"version {FORMAT_VERSION}"]
    lines.append("[group]")
    lines.append(format_group(a.basis.group))

    rank = a.basis.group.rank
    bic = [
        f"e{i + 1} e{j + 1} {a.eps.gen_values[i][j]}"
        for i in range(rank)
        for j in range(rank)
        if a.eps.gen_values[i][j] != 1
    ]
    if bic:
        lines.append("[bicharacter]")
        lines.extend(bic)

    lines.append("[basis]")
    for name, deg in zip(a.basis.names, a.basis.degrees):
        lines.append(" ".join([name] + [str(x) for x in deg]))

    names = a.basis.names
    prod = []
    scale, table = a.int_table("product_terms")
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell:
                pair = f"{names[i]} {names[j]}"
                terms = [(k, Fraction(x, scale)) for k, x in cell]
                expr = _format_expr(a.basis, terms, f"[product] {pair}")
                prod.append(f"{pair} -> {expr}")
    if prod:
        lines.append("[product]")
        lines.extend(prod)

    ident = Matrix.identity(a.dim)
    for what, m in (("alpha", a.alpha), ("beta", a.beta)):
        if m == ident:
            continue
        lines.append(f"[{what}]")
        for name, terms in zip(names, m.column_terms()):
            expr = _format_expr(a.basis, terms, f"[{what}] {name}")
            lines.append(f"{name} -> {expr}")

    lines.append("[kind]")
    lines.append(a.kind)
    return "\n".join(lines) + "\n"


def parse_multiplier(text: str, group: GradingGroup) -> MultiplierTable:
    """Side file of `g h v` lines (degrees comma-separated, v rational).

    Over a group of rank 0 both degrees are the empty token, so a line of
    one token v, such as "  2", is the entry for ((), ())."""
    entries = {}
    for no, body in _logical_lines(text):
        toks = body.split()
        if len(toks) == 1 and not group.rank:
            toks = ["", "", toks[0]]
        if len(toks) != 3:
            raise ParseError("expected 'g h value'", no)
        try:
            g = parse_degree(group, toks[0])
            h = parse_degree(group, toks[1])
        except ValueError as e:
            raise ParseError(str(e), no) from None
        value = _scalar(toks[2], no, "value")
        key = (g, h)
        if key in entries:
            raise ParseError(f"duplicate entry for {toks[0]} {toks[1]}", no)
        entries[key] = value
    try:
        return MultiplierTable(group, entries)
    except ValueError as e:
        raise ParseError(str(e)) from None


def jsonable(obj):
    """Recursively rewrite report payloads for json.dump.

    Fractions become strings "p/q" (or "p"); tuples become lists.  A
    Fraction of more than MAX_SCALAR_DIGITS digits is refused with
    ValueError naming the keys and positions that lead to it
    (:func:`~bihomlie.linalg.write_scalar`).
    """
    return _jsonable(obj, "report value payload")


def _jsonable(obj, where: str):
    if isinstance(obj, Fraction):
        return write_scalar(obj, where)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x, f"{where}[{i}]") for i, x in enumerate(obj)]
    return obj
