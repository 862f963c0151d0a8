"""Surface file formats: OFF (R^3 polygonal) and PLC structured text.

OFF is the usual ASCII Object File Format restricted to what the checker
needs: a counts line, vertex rows, and facet rows with cyclic vertex order.
Vertex coordinates parse exactly; decimals are read as p/10^k and "p/q"
literals are accepted as a liberal extension.  The serializer only emits
plain OFF (integers or finite decimals) and refuses coordinates that have
no finite decimal form, pointing at PLC instead.

PLC is this project's structured-text format for both input forms in any
ambient dimension; the full grammar is documented in the README.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import count
from operator import itemgetter

from .complexes import StandardFormComplex
from .errors import InvalidInputError, ParseError
from .exact import Scalar, Vector, as_exact, format_rational, parse_rational
from .normals import TraditionalFormComplex


# ---------------------------------------------------------------------------
# Row fields
# ---------------------------------------------------------------------------


def _int(token: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", ln) from None


def _coordinates(fields, ln: int) -> Vector:
    """Exact coordinates of one row: int first, parse_rational if int fails.

    Exact: a token int accepts has no '/', '.', 'e' or 'E', so
    parse_rational would return that same int.
    """
    try:
        return tuple(map(int, fields))
    except ValueError:
        pass
    try:
        return tuple(map(parse_rational, fields))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate: {exc}", ln) from None


# ---------------------------------------------------------------------------
# OFF
# ---------------------------------------------------------------------------


def parse_off(text: str) -> TraditionalFormComplex:
    """Parse an OFF document into an R^3 polygonal traditional complex.

    Edges are derived from consecutive facet-boundary pairs, keyed by their
    ordered (min, max) vertex pair, in order of first appearance; every
    vertex becomes a corner.  Structural and geometric validation (manifold
    edges, exact facet planarity) happens in the traditional-form validator
    invoked by the conversion step; this parser only enforces the file
    syntax.  One pass over the lines; of several faults, a wrong row count
    is reported first, then the first bad row, then the first degenerate
    edge.
    """
    records = _records(text)
    record = next(records, None)
    if record is None:
        raise ParseError("empty OFF document")
    ln, tok = record
    if tok != ["OFF"]:
        header = text.splitlines()[ln - 1].split("#", 1)[0].strip()
        raise ParseError(f"expected OFF header, got {header!r}", ln)
    record = next(records, None)
    if record is None:
        raise ParseError("missing counts line", ln)
    counts_ln, parts = record
    if len(parts) != 3:
        raise ParseError("counts line must be 'V F E'", counts_ln)
    try:
        nv, nf, _ne = map(int, parts)
    except ValueError as exc:
        raise ParseError(f"bad counts line: {exc}", counts_ln) from None
    if nv < 0 or nf < 0:
        raise ParseError("bad counts line: negative count", counts_ln)
    expected = nv + nf
    vertices: list[Vector] = []
    facets: list[tuple[int, ...]] = []
    edges: dict[tuple[int, int], None] = {}
    degenerate = None  # the first, raised once every row has parsed
    got = 0
    try:
        for ln, tok in records:
            got += 1
            if got <= nv:
                if len(tok) != 3:
                    raise ParseError("vertex line needs 3 coordinates", ln)
                vertices.append(_coordinates(tok, ln))
                continue
            if got > expected:
                break
            try:
                nums = tuple(map(int, tok))
            except ValueError as exc:
                raise ParseError(f"bad facet line: {exc}", ln) from None
            if len(nums) != nums[0] + 1:
                raise ParseError("facet line must be 'k i1 ... ik'", ln)
            cycle = nums[1:]
            if nums[0] < 3:
                raise ParseError("facet needs at least 3 vertices", ln)
            for v in cycle:
                if not 0 <= v < nv:
                    raise ParseError(f"facet vertex {v} out of range", ln)
            facets.append(cycle)
            for a, b in zip(cycle, (*cycle[1:], cycle[0])):
                if a == b and degenerate is None:
                    degenerate = ParseError(
                        f"degenerate edge ({a},{b}) in a facet", ln
                    )
                edges[(a, b) if a < b else (b, a)] = None
    except ParseError as exc:
        fault = exc
    else:
        fault = degenerate
    got += sum(1 for _ in records)
    if got != expected:
        raise ParseError(
            f"expected {nv} vertex and {nf} facet lines, got {got}", counts_ln
        )
    if fault is not None:
        raise fault
    return TraditionalFormComplex(
        n=3,
        vertices=vertices,
        corners=[(v,) for v in range(nv)],
        ridges=list(edges),
        facets=facets,
    )


def _off_coord(x: Scalar) -> str:
    x = Fraction(as_exact(x))
    den = x.denominator
    k2 = k5 = 0
    while den % 2 == 0:
        den //= 2
        k2 += 1
    while den % 5 == 0:
        den //= 5
        k5 += 1
    if den != 1:
        raise InvalidInputError(
            f"coordinate {format_rational(x)} has no finite decimal form; "
            f"write this complex as PLC instead"
        )
    digits = max(k2, k5)
    if digits == 0:
        return str(x.numerator)
    scaled = x.numerator * 10**digits // x.denominator
    s = str(abs(scaled)).rjust(digits + 1, "0")
    body = f"{s[:-digits]}.{s[-digits:]}"
    return "-" + body if scaled < 0 else body


def serialize_off(t: TraditionalFormComplex) -> str:
    if t.n != 3:
        raise InvalidInputError("OFF output is limited to R^3 polygonal form")
    out = io.StringIO()
    out.write("OFF\n")
    out.write(f"{len(t.vertices)} {len(t.facets)} {len(t.ridges)}\n")
    for v in t.vertices:
        out.write(" ".join(_off_coord(c) for c in v) + "\n")
    for cycle in t.facets:
        out.write(" ".join(str(x) for x in (len(cycle), *cycle)) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# PLC
# ---------------------------------------------------------------------------


def _records(text: str):
    """(line number, tokens) of each line of text with content.

    Comments run from '#' to the end of the line.  Built from iterators
    that run in C, so a document without comments costs no Python-level
    step per line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return filter(itemgetter(1), zip(count(1), map(str.split, lines)))


def parse_plc(text: str) -> StandardFormComplex | TraditionalFormComplex:
    """Parse a PLC document into the declared in-memory form.

    One pass over the lines: one _records iterator yields the header and
    the declarations, and the body parser finishes it.
    """
    records = _records(text)
    record = next(records, None)
    if record is None or record[1][0] != "plc":
        raise ParseError("missing 'plc' header", record[0] if record else 1)
    ln, head = record
    if len(head) != 2 or head[1] != "1":
        raise ParseError("unsupported plc version", ln)
    form = None
    n = None
    decl_ln = {}
    while form is None or n is None:
        record = next(records, None)
        if record is None:
            break
        ln, tok = record
        if tok[0] in decl_ln:
            raise ParseError(f"repeated {tok[0]!r} declaration", ln)
        if tok[0] == "form" and len(tok) == 2:
            form = tok[1]
        elif tok[0] == "n" and len(tok) == 2:
            n = _int(tok[1], ln)
        else:
            raise ParseError(f"expected form/n declarations, got {tok[0]!r}", ln)
        decl_ln[tok[0]] = ln
    # A missing declaration is reported at the last line read.
    if form not in ("standard", "traditional"):
        raise ParseError(f"unknown form {form!r}", decl_ln.get("form", ln))
    if n is None or n < 3:
        raise ParseError(f"bad ambient dimension {n!r}", decl_ln.get("n", ln))
    if form == "traditional":
        return _parse_plc_traditional(n, records, text)
    return _parse_plc_standard(n, records, ln, text)


def _unknown_record(kind: str, ln: int) -> ParseError:
    """The error for a body line of no known kind; form and n come once."""
    if kind in ("form", "n"):
        return ParseError(f"repeated {kind!r} declaration", ln)
    return ParseError(f"unknown record {kind!r}", ln)


def _parse_plc_traditional(n, records, text) -> TraditionalFormComplex:
    vertices = {}
    cells = {"corner": {}, "ridge": {}, "facet": {}}
    for ln, tok in records:
        kind = tok[0]
        if kind in cells:
            if len(tok) < 2:
                raise ParseError(f"{kind} line needs an id", ln)
            table = cells[kind]
            try:
                row = tuple(map(int, tok[1:]))
            except ValueError:
                row = (_int(tok[1], ln),)
            idx = row[0]
            if idx in table:
                raise ParseError(f"duplicate {kind} id {idx}", ln)
            # After a fallback the generator raises at the first bad entry.
            table[idx] = row[1:] or tuple(_int(p, ln) for p in tok[2:])
        elif kind == "vertex":
            if len(tok) != n + 2:
                raise ParseError(f"vertex line needs id + {n} coordinates", ln)
            try:
                row = tuple(map(int, tok[1:]))
            except ValueError:  # a bad id, or a rational coordinate
                row = (_int(tok[1], ln),)
            vid = row[0]
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid}", ln)
            vertices[vid] = row[1:] or _coordinates(tok[2:], ln)
        else:
            raise _unknown_record(kind, ln)
    for name, table in (("vertex", vertices),) + tuple(cells.items()):
        # Ids are distinct, so they are dense iff they run from 0 to len - 1.
        if table and (min(table) != 0 or max(table) != len(table) - 1):
            # Report the line of the first id out of place; found only now,
            # so valid input keeps no line per record.
            ids = sorted(table)
            bad = next(idx for pos, idx in enumerate(ids) if idx != pos)
            ln = next(ln for ln, tok in _records(text)
                      if tok[0] == name and int(tok[1]) == bad)
            raise ParseError(f"{name} ids must be dense from 0", ln)
    coords = [vertices[i] for i in range(len(vertices))]
    return TraditionalFormComplex(
        n=n,
        vertices=coords,
        corners=[cells["corner"][i] for i in range(len(cells["corner"]))],
        ridges=[cells["ridge"][i] for i in range(len(cells["ridge"]))],
        facets=[cells["facet"][i] for i in range(len(cells["facet"]))],
    )


def _parse_plc_standard(n, records, ln, text) -> StandardFormComplex:
    counts = {}
    incidences = {"corner_ridge": [], "corner_facet": [], "ridge_facet": []}
    normals = {"ridge": {}, "facet": {}}
    for ln, tok in records:
        kind = tok[0]
        if kind == "incidence":
            if len(tok) != 4 or tok[1] not in incidences:
                raise ParseError("incidence line: kind id id", ln)
            try:
                pair = (int(tok[2]), int(tok[3]))
            except ValueError:
                pair = (_int(tok[2], ln), _int(tok[3], ln))
            incidences[tok[1]].append(pair)
        elif kind == "normal":
            if len(tok) != 4 + n or tok[1] not in normals:
                raise ParseError(
                    f"normal line: ridge|facet cid id + {n} coordinates", ln
                )
            try:
                row = tuple(map(int, tok[2:]))
            except ValueError:  # a bad id, or a rational coordinate
                row = (_int(tok[2], ln), _int(tok[3], ln))
            key = row[:2]
            table = normals[tok[1]]
            if key in table:
                raise ParseError(f"duplicate normal for incidence {key}", ln)
            table[key] = row[2:] or _coordinates(tok[4:], ln)
        elif kind in ("corners", "ridges", "facets"):
            if len(tok) != 2:
                raise ParseError(f"{kind} line needs one count", ln)
            if kind in counts:
                raise ParseError(f"repeated {kind} count", ln)
            counts[kind] = _int(tok[1], ln)
        else:
            raise _unknown_record(kind, ln)
    for kind in ("corners", "ridges", "facets"):
        if kind not in counts:
            raise ParseError(f"missing {kind} count", ln)
    # The complex takes its corner incidences from the normals' keys, so
    # the incidence lines must name the same pairs, each once.  Equal sizes
    # and equal sets mean that no pair repeats.
    for kind, table in normals.items():
        pairs = incidences[f"corner_{kind}"]
        if len(pairs) != len(table) or table.keys() != set(pairs):
            _raise_unpaired(text, incidences, normals)
    return StandardFormComplex(
        n=n,
        num_corners=counts["corners"],
        num_ridges=counts["ridges"],
        num_facets=counts["facets"],
        ridge_facet_pairs=incidences["ridge_facet"],
        ridge_normals=normals["ridge"],
        facet_normals=normals["facet"],
    )


def _raise_unpaired(text, incidences, normals):
    """Raise at the first line whose corner incidence repeats or has no
    normal line, or whose normal has no incidence line.

    Found only once the pairs are known not to match, so valid input keeps
    no line per record.
    """
    listed = {kind: set(incidences[f"corner_{kind}"]) for kind in normals}
    seen = set()
    for ln, tok in _records(text):
        if tok[0] == "incidence" and tok[1] != "ridge_facet":
            kind = tok[1].removeprefix("corner_")
            key = (int(tok[2]), int(tok[3]))
            if (kind, key) in seen:
                raise ParseError(
                    f"duplicate corner-{kind} incidence pair {key}", ln
                )
            seen.add((kind, key))
            if key not in normals[kind]:
                raise ParseError(
                    f"missing {kind} normal for incidence {key}", ln
                )
        elif tok[0] == "normal":
            key = (int(tok[2]), int(tok[3]))
            if key not in listed[tok[1]]:
                raise ParseError(
                    f"{tok[1]} normal without incidence: {key}", ln
                )


def serialize_plc(obj: StandardFormComplex | TraditionalFormComplex) -> str:
    out = io.StringIO()
    out.write("plc 1\n")
    if isinstance(obj, TraditionalFormComplex):
        out.write("form traditional\n")
        out.write(f"n {obj.n}\n")
        for i, v in enumerate(obj.vertices):
            out.write(
                f"vertex {i} " + " ".join(format_rational(c) for c in v) + "\n"
            )
        for name, cells in (
            ("corner", obj.corners),
            ("ridge", obj.ridges),
            ("facet", obj.facets),
        ):
            for i, cell in enumerate(cells):
                out.write(f"{name} {i} " + " ".join(map(str, cell)) + "\n")
        return out.getvalue()
    out.write("form standard\n")
    out.write(f"n {obj.n}\n")
    out.write(f"corners {obj.num_corners}\n")
    out.write(f"ridges {obj.num_ridges}\n")
    out.write(f"facets {obj.num_facets}\n")
    for c in range(obj.num_corners):
        for r in sorted(obj.corner_ridges[c]):
            out.write(f"incidence corner_ridge {c} {r}\n")
        for f in sorted(obj.corner_facets[c]):
            out.write(f"incidence corner_facet {c} {f}\n")
    for r in range(obj.num_ridges):
        for f in sorted(obj.ridge_facets[r]):
            out.write(f"incidence ridge_facet {r} {f}\n")
    for (c, r), v in sorted(obj.ridge_normals.items()):
        out.write(
            f"normal ridge {c} {r} "
            + " ".join(format_rational(x) for x in v)
            + "\n"
        )
    for (c, f), v in sorted(obj.facet_normals.items()):
        out.write(
            f"normal facet {c} {f} "
            + " ".join(format_rational(x) for x in v)
            + "\n"
        )
    return out.getvalue()


def parse_path(path: str, fmt: str | None = None):
    """Parse a surface file, inferring the format from the extension."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII", line
        ) from None
    if fmt is None:
        fmt = "off" if path.lower().endswith(".off") else "plc"
    if fmt == "off":
        return parse_off(text)
    if fmt == "plc":
        return parse_plc(text)
    raise ParseError(f"unknown format {fmt!r}")
