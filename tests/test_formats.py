import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plconvex.formats
from conftest import CUBE_OFF, cube_traditional, simplex_boundary
from plconvex import (
    Convex,
    InvalidInput,
    NotConvex,
    check_complex,
    check_convexity,
    to_standard,
)
from plconvex.errors import InvalidInputError, ParseError
from plconvex.exact import parse_rational
from plconvex.formats import (
    _coordinates,
    parse_off,
    parse_path,
    parse_plc,
    serialize_off,
    serialize_plc,
)

DATA = Path(__file__).parent / "data"


def test_parse_off_cube():
    t = parse_off(CUBE_OFF)
    assert len(t.vertices) == 8
    assert len(t.facets) == 6
    assert len(t.ridges) == 12
    verdict = check_complex(t).verdict
    assert isinstance(verdict, Convex)


def test_parse_off_rejects_bad_header():
    with pytest.raises(ParseError, match="OFF header"):
        parse_off("NOFF\n1 0 0\n0 0 0\n")


def test_parse_off_reports_line_numbers():
    bad = CUBE_OFF.replace("0 0 2", "0 0 x", 1)
    with pytest.raises(ParseError, match="line 7"):
        parse_off(bad)


def test_parse_off_line_numbers_count_comment_and_blank_lines():
    # A comment line and a blank line before the second facet row, which
    # also carries a trailing comment: that row is line 14.
    bad = CUBE_OFF.replace(
        "4 7 6 5 4", "# the top\n\n4 7 6 x 4  # top", 1
    )
    with pytest.raises(ParseError) as caught:
        parse_off(bad)
    assert str(caught.value) == (
        "line 14: bad facet line: invalid literal for int() with base 10: 'x'"
    )


@pytest.mark.parametrize("counts", ["-1 1 0", "8 -6 12"])
def test_parse_off_rejects_negative_counts(counts):
    with pytest.raises(ParseError) as caught:
        parse_off(CUBE_OFF.replace("8 6 12", counts, 1))
    assert str(caught.value) == "line 2: bad counts line: negative count"


def test_parse_off_edge_in_three_facets():
    text = CUBE_OFF.strip() + "\n3 0 1 5\n"
    text = text.replace("8 6 12", "8 7 12")
    t = parse_off(text)
    verdict = check_complex(t).verdict
    assert isinstance(verdict, InvalidInput)


def test_parse_off_nonplanar_facet():
    bad = CUBE_OFF.replace("2 2 0", "2 2 1", 1)
    t = parse_off(bad)
    verdict = check_complex(t).verdict
    assert isinstance(verdict, InvalidInput)
    assert "plane" in verdict.reason or "planar" in verdict.reason.lower()


def test_off_round_trip():
    t = parse_off(CUBE_OFF)
    again = parse_off(serialize_off(t))
    assert again.vertices == t.vertices
    assert again.facets == t.facets
    assert again.ridges == t.ridges


def test_off_exact_decimals_and_fractions():
    text = (
        "OFF\n4 4 6\n0 0 0\n1.5 0 0\n0 2/3 0\n0 0 1\n"
        "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"
    )
    t = parse_off(text)
    assert t.vertices[1] == (Fraction(3, 2), 0, 0)
    assert t.vertices[2] == (0, Fraction(2, 3), 0)
    # 2/3 has no finite decimal form: the OFF serializer must refuse.
    with pytest.raises(InvalidInputError, match="PLC"):
        serialize_off(t)


def test_plc_standard_round_trip():
    std = to_standard(cube_traditional())
    text = serialize_plc(std)
    again = parse_plc(text)
    assert serialize_plc(again) == text
    assert isinstance(check_convexity(again), Convex)


def test_plc_traditional_round_trip():
    t = simplex_boundary(4)
    text = serialize_plc(t)
    again = parse_plc(text)
    assert serialize_plc(again) == text
    assert again.vertices == t.vertices
    verdict = check_complex(again).verdict
    assert isinstance(verdict, Convex)


def test_golden_cube_standard_file():
    # Frozen output of the normal-derivation run on the canonical cube.
    text = (DATA / "cube_standard.plc").read_text()
    std = parse_plc(text)
    assert isinstance(check_convexity(std), Convex)
    assert serialize_plc(std) == text


def _cube_lines():
    """The converted cube's standard-form text, as a list of lines."""
    return serialize_plc(to_standard(cube_traditional())).splitlines()


def _line(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _unpair(fault, lines):
    """Put one incidence-normal fault into lines; return its line number
    and message.  The cube's corner 0 has ridges 0, 1, 2 and facets
    0, 2, 5."""
    if fault == "duplicate ridge pair":
        at = _line(lines, "incidence corner_ridge 0 1") + 1
        lines.insert(at, lines[at - 1])
        return at + 1, "duplicate corner-ridge incidence pair (0, 1)"
    if fault == "duplicate facet pair":
        lines.append(lines[_line(lines, "incidence corner_facet 3 4")])
        return len(lines), "duplicate corner-facet incidence pair (3, 4)"
    if fault == "missing ridge normal":
        del lines[_line(lines, "normal ridge 0 2 ")]
        at = _line(lines, "incidence corner_ridge 0 2")
        return at + 1, "missing ridge normal for incidence (0, 2)"
    if fault == "stray ridge normal":
        lines.append("normal ridge 0 99 1 0 0")
        return len(lines), "ridge normal without incidence: (0, 99)"
    if fault == "stray facet normal":
        at = _line(lines, "normal facet 1 0 ")
        lines.insert(at, "normal facet 1 99 1 0 0")
        return at + 1, "facet normal without incidence: (1, 99)"
    raise AssertionError(fault)


@pytest.mark.parametrize("fault", [
    "duplicate ridge pair",
    "duplicate facet pair",
    "missing ridge normal",
    "stray ridge normal",
    "stray facet normal",
])
def test_unpaired_incidence_or_normal_names_its_line(fault):
    lines = _cube_lines()
    at, message = _unpair(fault, lines)
    with pytest.raises(ParseError) as caught:
        parse_plc("\n".join(lines) + "\n")
    assert caught.value.line == at
    assert str(caught.value) == f"line {at}: {message}"


def test_plc_missing_normal_rejected():
    lines = _cube_lines()
    del lines[_line(lines, "normal facet 0 0 ")]
    at = _line(lines, "incidence corner_facet 0 0") + 1
    with pytest.raises(ParseError) as caught:
        parse_plc("\n".join(lines))
    assert str(caught.value) == (
        f"line {at}: missing facet normal for incidence (0, 0)"
    )


@pytest.mark.parametrize("early, late", [
    ("stray facet normal", "stray ridge normal"),
    ("missing ridge normal", "duplicate facet pair"),
])
def test_first_unpaired_line_is_named(early, late):
    # Of two faults the one on the earlier line is named, whatever its
    # kind.  The later fault goes in first, so the early line stays put.
    lines = _cube_lines()
    _unpair(late, lines)
    at, message = _unpair(early, lines)
    with pytest.raises(ParseError, match=rf"^line {at}: {re.escape(message)}$"):
        parse_plc("\n".join(lines) + "\n")


def test_unpaired_lines_come_before_complex_faults():
    # The declared counts and the range of the normals' keys are checked
    # when the complex is built, after the pairing.
    lines = _cube_lines()
    lines[lines.index("corners 8")] = "corners 100000000000"
    lines.append("normal ridge 99 0 1 0 0")
    with pytest.raises(ParseError, match=r"^line \d+: ridge normal without"):
        parse_plc("\n".join(lines) + "\n")


def test_plc_duplicate_normal_rejected():
    std = to_standard(cube_traditional())
    text = serialize_plc(std)
    dup = next(
        line for line in text.splitlines() if line.startswith("normal ridge")
    )
    with pytest.raises(ParseError, match="duplicate"):
        parse_plc(text + dup + "\n")


def test_plc_traditional_4simplex_verdict():
    text = serialize_plc(simplex_boundary(4))
    verdict = check_complex(parse_plc(text)).verdict
    assert isinstance(verdict, Convex)


def test_plc_rejects_bad_headers():
    with pytest.raises(ParseError, match="plc"):
        parse_plc("form standard\nn 3\n")
    with pytest.raises(ParseError, match="version"):
        parse_plc("plc 2\nform standard\nn 3\n")
    with pytest.raises(ParseError, match="unknown form"):
        parse_plc("plc 1\nform sideways\nn 3\n")
    with pytest.raises(ParseError, match="dimension"):
        parse_plc("plc 1\nform standard\nn 2\n")
    with pytest.raises(ParseError, match="unknown record"):
        parse_plc("plc 1\nform traditional\nn 3\nblob 0\n")


def test_plc_sparse_ids_rejected():
    with pytest.raises(ParseError, match="dense"):
        parse_plc("plc 1\nform traditional\nn 3\nvertex 1 0 0 0\n")


def test_check_equivalence_between_forms():
    # The PLC-standard serialization of a converted surface must give the
    # same verdict and witness as checking the traditional file directly.
    from plconvex.oracle import dent, gen_convex_surface

    t = gen_convex_surface(seed=77, n=3, num_points=12, coord_bound=60)
    for surface in (t, dent(t, 3, Fraction(3, 4))):
        direct = check_complex(surface).verdict
        std = parse_plc(serialize_plc(to_standard(surface)))
        via_std = check_convexity(std)
        assert type(direct) is type(via_std)
        if isinstance(direct, NotConvex):
            assert direct.witness == via_std.witness


# ---------------------------------------------------------------------------
# Integer-first field conversion
# ---------------------------------------------------------------------------

_NUMERIC = st.text(alphabet=" +-_0123456789./eE", max_size=8)


@given(st.lists(_NUMERIC, min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_coordinates_match_parse_rational(tokens):
    # The int-first converter gives parse_rational's values and types, or
    # fails with the message of the first token parse_rational rejects.
    try:
        want = tuple(parse_rational(t) for t in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as caught:
            _coordinates(tokens, 1)
        assert str(caught.value) == f"line 1: bad coordinate: {exc}"
        return
    got = _coordinates(tokens, 1)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def _integer_documents():
    """All-integer OFF, traditional PLC and standard PLC documents."""
    from plconvex.oracle import gen_convex_surface

    docs = [(p.name, p.read_text()) for p in sorted(DATA.iterdir())
            if p.is_file()]
    docs.append(("cube.plc", serialize_plc(cube_traditional())))
    docs.append(("simplex4.plc", serialize_plc(simplex_boundary(4))))
    hull = gen_convex_surface(seed=5, n=3, num_points=30, coord_bound=100)
    docs.append(("hull.off", serialize_off(hull)))
    docs.append(("hull.plc", serialize_plc(hull)))
    docs.append(("hull_standard.plc", serialize_plc(to_standard(hull))))
    return [pytest.param(name, text, id=name) for name, text in docs]


def _parse(name, text):
    return parse_off(text) if name.endswith(".off") else parse_plc(text)


@pytest.mark.parametrize("name, text", _integer_documents())
def test_integer_documents_never_call_parse_rational(name, text, monkeypatch):
    want = vars(_parse(name, text))

    def refuse(token):
        raise AssertionError(f"parse_rational called on {token!r}")

    monkeypatch.setattr(plconvex.formats, "parse_rational", refuse)
    assert vars(_parse(name, text)) == want


_STD_BODY = """\
plc 1
# a standard-form body with comments and blank lines between the rows
form standard
n 3

corners 1   # one corner
ridges 3

facets 3
incidence corner_ridge 0 0
# ridge normals follow

normal ridge 0 0 1 0 0
{row}
incidence corner_ridge 0 1
incidence corner_facet 0 0
normal facet 0 0 0 0 1
incidence ridge_facet 0 0
incidence ridge_facet 1 0
incidence ridge_facet 2 0
"""


@pytest.mark.parametrize("row, message", [
    ("normal ridge 0 1 0 x 0",
     "bad coordinate: invalid literal for int() with base 10: 'x'"),
    ("incidence corner_ridge 0 q", "expected an integer, got 'q'"),
    ("normal ridge 0 0 1 1 0   # again", "duplicate normal for incidence (0, 0)"),
    ("normal facet 0 1 1 0", "normal line: ridge|facet cid id + 3 coordinates"),
    ("nromal ridge 0 1 0 1 0", "unknown record 'nromal'"),
], ids=["bad_coordinate", "bad_incidence_id", "duplicate_normal",
        "normal_width", "unknown_record"])
def test_standard_form_errors_name_their_line(row, message):
    with pytest.raises(ParseError) as caught:
        parse_plc(_STD_BODY.format(row=row))
    assert caught.value.line == 14
    assert str(caught.value).startswith(f"line 14: {message}")


def test_standard_form_rational_normal_parses_exactly():
    std = parse_plc(_STD_BODY.format(row="normal ridge 0 1 1/2 -0.25 3e1"))
    assert std.ridge_normals[(0, 1)] == (Fraction(1, 2), Fraction(-1, 4), 30)
    assert [type(x) for x in std.ridge_normals[(0, 1)]] == [Fraction, Fraction, int]
    assert std.ridge_normals[(0, 0)] == (1, 0, 0)
    assert std.corner_ridges == [[0, 1]] and std.corner_facets == [[0]]


def test_parse_path_refuses_unknown_format():
    with pytest.raises(ParseError, match=r"^unknown format 'xyz'$"):
        parse_path(str(DATA / "cube.off"), "xyz")


def test_serialize_off_refuses_n4():
    with pytest.raises(InvalidInputError,
                       match=r"^OFF output is limited to R\^3 polygonal form$"):
        serialize_off(simplex_boundary(4))
