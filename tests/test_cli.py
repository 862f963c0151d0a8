import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import plconvex.checker
import plconvex.cli
import plconvex.normals
from conftest import (
    CUBE_OFF,
    csaszar_torus,
    cube_traditional,
    rim_flips,
    tetrahedron_traditional,
)
from plconvex import (
    Convex,
    NotConvex,
    check_convexity,
    corner_report,
    to_standard,
)
from plconvex.cli import main
from plconvex.complexes import CellId
from plconvex.formats import parse_off, parse_plc, serialize_off, serialize_plc
from test_normals import _cyclic_polytope_4d

DATA = Path(__file__).parent / "data"


@pytest.fixture
def cube_off_file(tmp_path):
    path = tmp_path / "cube.off"
    path.write_text(CUBE_OFF)
    return path


def test_check_cube(cube_off_file, capsys):
    code = main(["check", str(cube_off_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: convex" in out


def test_check_json_report(cube_off_file, capsys):
    code = main(["check", str(cube_off_file), "--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["verdict"] == "convex"
    assert payload["witness"] is None
    assert payload["corners_checked"] == 8
    assert payload["counts"]["f"]["0"] == 8


def test_gen_check_dent_pipeline(tmp_path, capsys):
    surface = tmp_path / "s.off"
    dented = tmp_path / "d.plc"
    assert main(["gen", "--seed", "9", "--points", "12", "--out", str(surface)]) == 0
    assert main(["check", str(surface)]) == 0
    assert main([
        "dent", str(surface), "--vertex", "0", "--factor", "3/4",
        "--out", str(dented),
    ]) == 0
    capsys.readouterr()
    code = main(["check", str(dented), "--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "not_convex"
    assert payload["reason"] == "non_convex_cone"
    assert payload["witness"] is not None


def test_exhaustive_report(tmp_path, capsys):
    surface = tmp_path / "s.off"
    dented = tmp_path / "d.plc"
    main(["gen", "--seed", "9", "--points", "12", "--out", str(surface)])
    main(["dent", str(surface), "--vertex", "0", "--factor", "4/5",
          "--out", str(dented)])
    capsys.readouterr()
    code = main(["check", str(dented), "--report", "json", "--exhaustive"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    entries = payload["exhaustive"]
    assert len(entries) == payload["corners_checked"]
    assert any(not e["passed"] for e in entries)
    # Exhaustive mode still reports the fail-fast witness (lowest index).
    first_fail = min(e["index"] for e in entries if not e["passed"])
    assert payload["witness"]["index"] == first_fail


def test_exhaustive_runs_one_local_test_per_corner(tmp_path, capsys, monkeypatch):
    surface = tmp_path / "s.off"
    dented = tmp_path / "d.plc"
    main(["gen", "--seed", "9", "--points", "12", "--out", str(surface)])
    main(["dent", str(surface), "--vertex", "0", "--factor", "4/5",
          "--out", str(dented)])
    capsys.readouterr()
    calls = []
    reduce_to_3d = plconvex.checker.reduce_to_3d

    def counting(star):
        calls.append(star.corner.index)
        return reduce_to_3d(star)

    monkeypatch.setattr(plconvex.checker, "reduce_to_3d", counting)
    code = main(["check", str(dented), "--report", "json", "--exhaustive"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["witness"] is not None
    assert calls == list(range(len(payload["exhaustive"])))
    assert len(calls) == payload["corners_checked"]


def test_exhaustive_invalid_standard_input(tmp_path, capsys):
    text = (DATA / "cube_standard.plc").read_text()
    assert "normal ridge 0 0 2 0 0\n" in text
    path = tmp_path / "bad.plc"
    path.write_text(text.replace("normal ridge 0 0 2 0 0\n",
                                 "normal ridge 0 0 0 0 0\n", 1))
    code = main(["check", str(path), "--report", "json", "--exhaustive"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "invalid_input"
    assert payload["reason"] == "bad ridge normal at (0, 0)"
    assert payload["corners_checked"] == 0
    assert "exhaustive" not in payload


_HEADER = "plc 1\nform standard\nn 3\n"


@pytest.mark.parametrize("body", [
    "corners 0\nridges 1\nfacets 2\n"
    "incidence ridge_facet 0 0\nincidence ridge_facet 0 1\n",
    "corners 0\nridges 0\nfacets 1\n",
])
def test_complex_without_corners_exits_2(body, tmp_path, capsys):
    # Neither is a closed surface.  The first is rejected by validation;
    # the second declares a facet that no ridge-facet pair can fill, so
    # it is rejected as the complex is built, before any report.
    path = tmp_path / "empty.plc"
    path.write_text(_HEADER + body)
    code = main(["check", str(path), "--report", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    if "ridge_facet" in body:
        payload = json.loads(out)
        assert payload["verdict"] == "invalid_input"
        assert payload["reason"] == "complex has no corners"
    else:
        assert err == ("error: bad facets count 1: want 0..0, the number "
                       "of ridge-facet pairs\n")


def _one_corner_plc(ridge_facet, ridge_normals, facet_normals):
    """A standard PLC file with one corner on every ridge and facet."""
    lines = [f"corners 1\nridges {len(ridge_normals)}\n"
             f"facets {len(facet_normals)}"]
    lines += [f"incidence corner_ridge 0 {r}" for r in range(len(ridge_normals))]
    lines += [f"incidence corner_facet 0 {f}" for f in range(len(facet_normals))]
    lines += [f"incidence ridge_facet {r} {f}" for r, f in ridge_facet]
    lines += [f"normal ridge 0 {r} " + " ".join(map(str, v))
              for r, v in enumerate(ridge_normals)]
    lines += [f"normal facet 0 {f} " + " ".join(map(str, v))
              for f, v in enumerate(facet_normals)]
    return _HEADER + "\n".join(lines) + "\n"


@pytest.mark.parametrize("body", [
    # An open trihedral cone: facet i joins ridges i and i + 1.
    _one_corner_plc(
        [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    # A digon star: ridges +-e1, both on facets +-e2.
    _one_corner_plc(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(1, 0, 0), (-1, 0, 0)],
        [(0, 1, 0), (0, -1, 0)]),
], ids=["trihedral_cone", "digon_star"])
def test_open_one_corner_complex_exits_2(body, tmp_path, capsys):
    # Every corner's star is one wheel, but each ridge ends at a single
    # corner: the surface has a boundary, so it is invalid input.
    path = tmp_path / "open.plc"
    path.write_text(body)
    code = main(["check", str(path), "--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "invalid_input"
    assert payload["reason"] == "ridge 0 lies on 1 corners, expected 2"


_LIMITED_CHECK = """\
import resource, sys
limit = 256 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from plconvex.cli import main
sys.exit(main(["check", sys.argv[1], "--report", "json"]))
"""


@pytest.mark.parametrize("kind", ["corners", "ridges", "facets"])
def test_huge_counts_exit_2_without_allocating(kind, tmp_path):
    # A count of 10^11 in a six-line file.  Rows for it would need
    # hundreds of gigabytes, so the child runs under a 256 MB address
    # space limit: a build that allocates them fails here instead of
    # exhausting the machine.
    counts = {"corners": 0, "ridges": 0, "facets": 0, kind: 10**11}
    path = tmp_path / "huge.plc"
    path.write_text(_HEADER + "".join(f"{k} {v}\n" for k, v in counts.items()))
    src = Path(plconvex.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHECK, str(path)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert child.returncode == 2, child.stderr
    source = "ridge normals" if kind == "corners" else "ridge-facet pairs"
    assert child.stderr == (
        f"error: bad {kind} count {10**11}: want 0..0, the number of {source}\n"
    )
    assert elapsed < 2.0


def _shuffled_normals(text, seed):
    """text with its normal lines in a shuffled order, in their slots."""
    lines = text.splitlines(keepends=True)
    slots = [i for i, line in enumerate(lines) if line.startswith("normal ")]
    moved = [lines[i] for i in slots]
    random.Random(seed).shuffle(moved)
    for i, line in zip(slots, moved):
        lines[i] = line
    return "".join(lines)


@pytest.mark.parametrize("name", ["cube_standard.plc", "cyclic_12_4.plc"])
def test_normal_line_order_does_not_change_reports(name, tmp_path, capsys):
    # Corner rows follow the normal lines, and validation puts each in rim
    # order, so the order of the normal lines changes no report.
    if name == "cube_standard.plc":
        text = (DATA / name).read_text()
    else:
        text = serialize_plc(to_standard(_cyclic_polytope_4d(12)))
    path = tmp_path / name
    path.write_text(text)
    expected = _reports(path, capsys)
    shuffled = _shuffled_normals(text, seed=20)
    assert shuffled != text
    path.write_text(shuffled)
    assert _reports(path, capsys) == expected


def test_l_prism_reflex_corners_fail(capsys):
    # Prism over the L hexagon (0,0),(2,0),(2,1),(1,1),(1,2),(0,2): the
    # reflex cap angle sits at vertices 3 = (1,1,0) and 9 = (1,1,2), whose
    # ridge rays span R^3, so only a wedge test can tell them from the
    # convex sector between the same rays.
    path = DATA / "l_prism.off"
    t = parse_off(path.read_text())
    assert (t.vertices[3], t.vertices[9]) == ((1, 1, 0), (1, 1, 2))
    assert main(["check", str(path), "--report", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "inconsistent"
    assert payload["witness"] == {"dim": 0, "index": 3}
    assert main(["check", str(path), "--report", "json", "--exhaustive"]) == 1
    entries = json.loads(capsys.readouterr().out)["exhaustive"]
    assert [e["index"] for e in entries if not e["passed"]] == [3, 9]
    assert all("reflex" in e["detail"] for e in entries if not e["passed"])
    std = to_standard(t)
    assert check_convexity(std) == NotConvex("inconsistent", CellId(0, 3))
    failed = [r.corner.index for r in corner_report(std) if not r.passed]
    assert failed == [3, 9]
    assert rim_flips(std) == []


def _reports(path, capsys):
    """Exit code and JSON report of check, without its elapsed time."""
    out = []
    for extra in ([], ["--exhaustive"]):
        code = main(["check", str(path), "--report", "json", *extra])
        payload = json.loads(capsys.readouterr().out)
        del payload["elapsed_seconds"]
        out.append((code, payload))
    return out


@pytest.mark.parametrize("name, code, hexagons", [
    ("split_top_cube.off", 0, 1), ("l_prism.off", 1, 2)])
def test_non_convex_facets_any_cycle_directions(name, code, hexagons,
                                                tmp_path, capsys,
                                                monkeypatch):
    # Non-convex facets through the CLI: the L hexagon on the split top of
    # a convex cube, with a reflex corner (10) and straight ones on two
    # side faces, and the L prism, which fails at its reflex edge.  No
    # convex certificate covers an L hexagon, so the pairwise test runs.
    # The paper needs no coherent facet orientation: reversing any set of
    # facet cycles leaves both reports as they are.
    fallback = []
    check_simple = plconvex.normals._check_simple
    monkeypatch.setattr(plconvex.normals, "_check_simple",
                        lambda *a: fallback.append(a) or check_simple(*a))
    lines = (DATA / name).read_text().splitlines()
    num_facets = int(lines[1].split()[1])
    head, facets = lines[:-num_facets], lines[-num_facets:]
    expected = _reports(DATA / name, capsys)
    assert [c for c, _ in expected] == [code, code]
    assert len(fallback) == 2 * hexagons  # each L hexagon, in both runs
    path = tmp_path / name
    for mask in range(1, 2 ** num_facets):
        cycles = [
            line if not mask >> i & 1
            else " ".join([line.split()[0], *reversed(line.split()[1:])])
            for i, line in enumerate(facets)
        ]
        path.write_text("\n".join(head + cycles) + "\n")
        assert _reports(path, capsys) == expected, mask


def test_double_octahedron_fails_at_its_apex(capsys):
    # The octahedron's double cover branched at its apexes (ROADMAP item 1):
    # the link of vertex 0 = (0, 0, 1) winds twice around the axis.
    path = DATA / "double_octahedron.off"
    assert main(["check", str(path), "--report", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "non_convex_cone"
    assert payload["witness"] == {"dim": 0, "index": 0}
    assert main(["oracle", str(path)]) == 1
    std = to_standard(parse_off(path.read_text()))
    assert check_convexity(std) == NotConvex("non_convex_cone", CellId(0, 0))
    assert rim_flips(std) == []


@pytest.mark.parametrize("name, code, verdict", [
    ("digon_seam", 0, Convex()),
    ("digon_offplane", 1, NotConvex("inconsistent", CellId(0, 8))),
])
def test_bent_seam_digon(capsys, name, code, verdict):
    # The cube [0,4]^3 with its top face split along the bent seam
    # (0,0,4) -> (1,3,4) -> (4,4,4): corner 8 = (1,3,4) is a digon whose
    # ridge normals (-1,-3,0), (3,1,0) span a plane.  Facet 6's normal
    # there is (1,2,0), inside that facet's reflex angle, or (1,2,1), off
    # the plane.
    path = DATA / f"{name}.plc"
    assert main(["check", str(path), "--report", "json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == (None if code == 0 else {"dim": 0, "index": 8})
    std = parse_plc(path.read_text())
    assert check_convexity(std) == verdict
    assert rim_flips(std) == []


def test_exhaustive_text_shows_detail(tmp_path, capsys):
    # The corrupted tetrahedron of test_m3_corners_still_run_full_test.
    tet = to_standard(tetrahedron_traditional())
    key = next(iter(tet.facet_normals))
    tet.facet_normals[key] = tet.ridge_normals[(key[0], tet.corner_ridges[key[0]][0])]
    path = tmp_path / "tet.plc"
    path.write_text(serialize_plc(tet))
    code = main(["check", str(path), "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 1
    assert "corner 0: FAIL (inconsistent): facet normal 0 lies on a ridge ray" in out
    assert "corner 1: pass (cone)\n" in out


def test_oracle_command(tmp_path, capsys):
    surface = tmp_path / "s.off"
    main(["gen", "--seed", "4", "--points", "10", "--out", str(surface)])
    assert main(["oracle", str(surface)]) == 0
    dented = tmp_path / "d.plc"
    main(["dent", str(surface), "--vertex", "1", "--factor", "3/4",
          "--out", str(dented)])
    assert main(["oracle", str(dented)]) == 1


def test_oracle_rejects_polygonal(tmp_path, capsys):
    path = tmp_path / "cube.off"
    path.write_text(CUBE_OFF)
    assert main(["oracle", str(path)]) == 2
    assert "simplicial" in capsys.readouterr().err


def test_torus_precheck_short_circuits(tmp_path, capsys):
    path = tmp_path / "torus.off"
    path.write_text(serialize_off(csaszar_torus()))
    code = main(["check", str(path), "--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["reason"] == "edge_count_exceeded"
    assert payload["corners_checked"] == 0
    assert payload["witness"] is None


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text("not an off file\n")
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "non_ascii"])
def test_unreadable_path_exit_code(tmp_path, capsys, kind):
    path = tmp_path / "surface.off"
    if kind == "directory":
        path.mkdir()
    elif kind == "non_ascii":
        path.write_bytes(b"OFF\n\xff\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


_TRAD = "plc 1\nform traditional\nn 3\nvertex 0 0 0 0\n"
_STD = "plc 1\nform standard\nn 3\ncorners 1\n"


@pytest.mark.parametrize("text", [
    "plc 1\nform traditional\nn 3\nvertex x 0 0 0\n",
    _TRAD + "corner\n",
    "plc 1\nform traditional\nn three\n",
    "plc 1\nform standard\nn 3\ncorners x\n",
    _STD + "incidence corner_ridge a 0\n",
    _TRAD + "facet 0 1 2 q\n",
], ids=["vertex_id", "bare_corner", "n_word", "corners_count",
        "incidence_id", "facet_vertex"])
def test_malformed_plc_record_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.plc"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, text, line", [
    ("bad.plc", "plc 1\nform traditional\nn 2\n", 3),
    ("bad.plc", "plc 1\nform traditional\nn 3\nvertex 1 0 0 0\n", 4),
    ("bad.plc", "# no header\nform traditional\nn 3\n", 2),
    ("bad.plc", "plc 1\nform bogus\nn 3\n", 2),
    ("bad.plc", _STD, 4),
    ("bad.off", "OFF\n4 1 0\n0 0 0\n", 2),
    ("bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 0 1\n", 6),
], ids=["dimension", "sparse_vertex_ids", "no_header", "unknown_form",
        "missing_count", "short_off", "degenerate_off_edge"])
def test_parse_error_line_numbers(tmp_path, capsys, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


def _plc4(vertices, corners, ridges, facets):
    """A traditional PLC document in R^4 from its cell lists."""
    lines = ["plc 1", "form traditional", "n 4"]
    lines += [f"vertex {i} " + " ".join(map(str, v))
              for i, v in enumerate(vertices)]
    for kind, cells in (("corner", corners), ("ridge", ridges),
                        ("facet", facets)):
        lines += [f"{kind} {i} " + " ".join(map(str, c))
                  for i, c in enumerate(cells)]
    return "\n".join(lines) + "\n"


_V4 = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
_F4 = list(combinations(range(5), 4))
_R4 = list(combinations(range(5), 3))
_C4 = list(combinations(range(5), 2))
_TRIANGLE = "0 0 0\n1 0 0\n0 1 0\n"


# Parse errors go to stderr; conversion errors are the report's reason.
@pytest.mark.parametrize("name, text, stderr, reason", [
    ("x.off", "# nothing\n", "empty OFF document", None),
    ("x.off", "OFF\n", "line 1: missing counts line", None),
    ("x.off", "OFF\n1 2\n", "line 2: counts line must be 'V F E'", None),
    ("x.off", "OFF\n1 x 0\n", "line 2: bad counts line: invalid literal "
     "for int() with base 10: 'x'", None),
    ("x.off", "OFF\n3 1 0\n0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     "line 3: vertex line needs 3 coordinates", None),
    ("x.off", "OFF\n3 1 0\n" + _TRIANGLE + "4 0 1 2\n",
     "line 6: facet line must be 'k i1 ... ik'", None),
    ("x.off", "OFF\n3 1 0\n" + _TRIANGLE + "-1\n",
     "line 6: facet line must be 'k i1 ... ik'", None),
    ("x.off", "OFF\n3 1 0\n" + _TRIANGLE + "2 0 1\n",
     "line 6: facet needs at least 3 vertices", None),
    ("x.off", "OFF\n3 1 0\n" + _TRIANGLE + "3 0 1 9\n",
     "line 6: facet vertex 9 out of range", None),
    ("x.plc", "plc 1\nvertex 0 0 0 0\n",
     "line 2: expected form/n declarations, got 'vertex'", None),
    ("x.plc", _TRAD + "corner 0 0\ncorner 0 0\n",
     "line 6: duplicate corner id 0", None),
    ("x.plc", _TRAD + "vertex 1 0 0\n",
     "line 5: vertex line needs id + 3 coordinates", None),
    ("x.plc", _TRAD + "vertex 0 1 0 0\n", "line 5: duplicate vertex id 0",
     None),
    ("x.plc", _STD + "incidence bogus 0 0\n",
     "line 5: incidence line: kind id id", None),
    ("x.plc", "plc 1\nform standard\nn 3\ncorners 1 2\n",
     "line 4: corners line needs one count", None),
    ("x.plc", _plc4(_V4, _C4, _R4[:-1], _F4), None,
     "facet 3 boundary ridge (2, 3, 4) missing from input"),
    ("x.plc", _plc4(_V4, _C4[:-1], _R4, _F4), None,
     "facet 2 boundary corner (3, 4) missing from input"),
    ("x.plc", _plc4([*_V4, (1, 1, 1, 1)], _C4, [*_R4, (0, 1, 5)], _F4), None,
     "ridge 10 boundary corner (0, 5) missing from input"),
    ("x.plc", _plc4(_V4, [(0, 0), *_C4[1:]], _R4, _F4), None,
     "simplicial cell (0, 0) needs 2 distinct vertices"),
    ("x.off", "OFF\n3 1 3\n" + _TRIANGLE + "3 0 1 2\n", None,
     "closed surface needs >= 4 vertices, got 3"),
    ("x.off", "OFF\n4 4 6\n" + _TRIANGLE + "0 0 1\n3 0 1 2\n3 0 1 3\n"
     "3 0 2 3\n3 1 2 3\n3 0 1 2\n",
     "line 2: expected 4 vertex and 4 facet lines, got 9", None),
    ("x.plc", "plc 1\nform standard\n",
     "line 2: bad ambient dimension None", None),
    ("x.plc", "plc 1\n", "line 1: unknown form None", None),
], ids=["off_empty", "off_no_counts", "off_counts_shape", "off_counts_value",
        "off_vertex_short", "off_facet_shape", "off_facet_negative",
        "off_facet_small", "off_facet_range", "plc_declarations",
        "plc_duplicate_corner", "plc_vertex_short", "plc_duplicate_vertex",
        "plc_incidence", "plc_corners_line", "ridge_missing",
        "facet_corner_missing", "ridge_corner_missing", "cell_size",
        "three_vertices", "off_extra_row", "plc_ends_before_n",
        "plc_ends_before_form"])
def test_malformed_input_messages(tmp_path, capsys, name, text, stderr,
                                  reason):
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path), "--report", "json"]) == 2
    captured = capsys.readouterr()
    if stderr is not None:
        assert captured.err == f"error: {stderr}\n"
        assert captured.out == ""
    else:
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["verdict"], payload["reason"]) == (
            "invalid_input", reason)


@pytest.mark.parametrize("command, message", [
    (["dent", "--vertex", "0", "--factor", "1/2", "--out", "x.plc"],
     "dent needs traditional-form input"),
    (["oracle"], "the hull oracle needs traditional-form input"),
], ids=["dent", "oracle"])
def test_standard_input_refused_by_traditional_commands(tmp_path, capsys,
                                                        command, message):
    out = tmp_path / "x.plc"
    argv = [str(out) if a == "x.plc" else a for a in command]
    assert main([*argv, str(DATA / "cube_standard.plc")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def _insert_after(text, line, extra):
    lines = text.splitlines(keepends=True)
    at = lines.index(line + "\n") + 1
    return "".join(lines[:at] + [extra + "\n"] + lines[at:])


@pytest.mark.parametrize("after, extra, at, kind", [
    ("plc 1", "form standard", 3, "form"),
    ("n 3", "n 3", 4, "n"),
    ("n 3", "form traditional", 4, "form"),
], ids=["form", "n", "form_after_n"])
def test_repeated_declaration_is_parse_error(tmp_path, capsys, after, extra,
                                             at, kind):
    # A second declaration, before the body or in it, is refused instead of
    # overriding the first: the cube with "form standard" first would
    # otherwise check as a convex traditional complex.
    text = _insert_after(serialize_plc(cube_traditional()), after, extra)
    path = tmp_path / "cube.plc"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {at}: repeated {kind!r} declaration\n"
    )


@pytest.mark.parametrize("kind", ["corners", "ridges", "facets"])
def test_repeated_count_is_parse_error(tmp_path, capsys, kind):
    text = (DATA / "cube_standard.plc").read_text()
    line = next(x for x in text.splitlines() if x.startswith(kind + " "))
    path = tmp_path / "cube.plc"
    path.write_text(_insert_after(text, line, line))
    at = text.splitlines().index(line) + 2
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {at}: repeated {kind} count\n"
    )


@pytest.mark.parametrize("name, text, line", [
    ("huge.off", "OFF\n3 1 0\n0 0 0\n1e10000000 0 0\n0 1 0\n3 0 1 2\n", 4),
    ("huge.plc", _TRAD + "vertex 1 0 -2.5E-10000000 0\n", 5),
    ("huge.plc", _STD + "normal ridge 0 0 1 1e10000000 0\n", 5),
], ids=["off_vertex", "plc_vertex", "plc_normal"])
def test_huge_decimal_exponent_rejected_fast(tmp_path, capsys, name, text, line):
    # 10^(10^7) alone would take seconds to build from these few bytes.
    path = tmp_path / name
    path.write_text(text)
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: bad coordinate: decimal exponent")
    assert "Traceback" not in err


@pytest.mark.parametrize("factor, message", [
    ("abc", "invalid literal"),
    ("1/0", "Fraction(1, 0)"),
    ("1e10000000", "decimal exponent exceeds the limit"),
], ids=["word", "zero_denominator", "huge_exponent"])
def test_dent_bad_factor_is_parse_error(cube_off_file, tmp_path, capsys,
                                        factor, message):
    out = tmp_path / "d.off"
    start = time.perf_counter()
    code = main(["dent", str(cube_off_file), "--vertex", "0",
                 "--factor", factor, "--out", str(out)])
    assert code == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad --factor {factor!r}: ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("vertex", [99, -1, 8])
def test_dent_vertex_out_of_range_is_parse_error(capsys, tmp_path, vertex):
    out = tmp_path / "d.off"
    code = main(["dent", str(DATA / "cube.off"), "--vertex", str(vertex),
                 "--factor", "1/2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: bad --vertex {vertex}: want a vertex id in 0..7\n"
    assert not out.exists()


def test_internal_error_exit_code(cube_off_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(plconvex.cli, "check_complex", broken)
    assert main(["check", str(cube_off_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError('broken')\n"
    assert captured.out == ""


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = CUBE_OFF.replace("2 2 0", "2 2 1", 1)  # non-planar facet
    path = tmp_path / "bad.off"
    path.write_text(bad)
    assert main(["check", str(path)]) == 2


def test_stats_command(tmp_path, capsys):
    path = tmp_path / "cube.plc"
    path.write_text(serialize_plc(cube_traditional()))
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "f_0 = 8" in out
    assert "traditional" in out


def test_stats_standard_form(capsys):
    assert main(["stats", str(DATA / "cube_standard.plc")]) == 0
    assert capsys.readouterr().out == (
        "form: standard, n=3\nf_0 = 8\nf_1 = 12\nf_2 = 6\n"
        "corner-ridge incidences = 24\n"
    )


def test_bench_command_smoke(capsys):
    assert main(["bench", "--sizes", "300", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "f0" in out and "check-s" in out


@pytest.mark.parametrize("args, message", [
    (["--sizes", "abc"], "bad --sizes 'abc': want comma-separated integers"),
    (["--sizes", "-5"], "bad --sizes -5: want an integer >= 4"),
    (["--sizes", "3"], "bad --sizes 3: want an integer >= 4"),
    (["--sizes", "4,3"], "bad --sizes 3: want an integer >= 4"),
    (["--sizes", "4", "--seed", "-1"], "bad --seed -1: want an integer >= 0"),
], ids=["word", "negative", "too_few", "second_too_few", "negative_seed"])
def test_bench_bad_numbers_are_parse_errors(capsys, args, message):
    assert main(["bench", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bench_smallest_hull(capsys):
    assert main(["bench", "--sizes", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4\t12\t")


@pytest.mark.parametrize("args, message", [
    (["--dim", "2"], "bad --dim 2: want an integer >= 3"),
    (["--bound", "-3"], "bad --bound -3: want an integer >= 1"),
    (["--bound", "0"], "bad --bound 0: want an integer >= 1"),
    (["--points", "2"], "bad --points 2: want an integer >= 4"),
    (["--dim", "4", "--points", "4"], "bad --points 4: want an integer >= 5"),
], ids=["dim", "negative_bound", "zero_bound", "points", "points_dim4"])
def test_gen_bad_numbers_are_parse_errors(tmp_path, capsys, args, message):
    out = tmp_path / "g.off"
    assert main(["gen", "--seed", "1", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_smallest_arguments(tmp_path, capsys):
    out = tmp_path / "g.off"
    args = ["--dim", "3", "--points", "4", "--bound", "1"]
    assert main(["gen", "--seed", "1", *args, "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0


@pytest.mark.parametrize("command", [
    ["gen", "--seed", "1"],
    ["dent", str(DATA / "cube.off"), "--vertex", "0", "--factor", "1/2"],
], ids=["gen", "dent"])
@pytest.mark.parametrize("where, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command, where,
                                          reason):
    # An --out path that cannot be opened is user input, like a file that
    # cannot be read: exit 2 with one line, not an internal error.
    out = tmp_path / "no_such_dir" / "x.plc" if where == "missing" else tmp_path
    assert main([*command, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def _degenerate_cross_polytope(n, case):
    """The cross-polytope boundary at n with one degenerate cell or more.

    Vertex 2i is +(i + 2) e_i and 2i + 1 is -(i + 2) e_i, and facets are
    sorted, so (0, 2, ..., 2n - 2) comes first.
    """
    from test_normals import _cross_polytope

    t = _cross_polytope(n)
    vertices, corners, ridges = list(t.vertices), list(t.corners), t.ridges
    if case == "flat_facet":
        # Vertex 2n - 2 moves to sum(p_i, i < n - 2) - (n - 3) p_(n-2) for
        # p_i = vertex 2i: the first facet is flat, and since no coefficient
        # is 0, every proper face of it stays independent.
        p = vertices[0:2 * n - 2:2]
        vertices[2 * n - 2] = tuple(
            sum(x[:-1]) - (n - 3) * x[-1] for x in zip(*p)
        )
    elif case == "coincident":
        # Vertices 3 and 5 share facets from (0, 3, 5, 6, ...) on.
        vertices[3] = vertices[5]
    elif case == "stray_corner":
        # A dependent corner on no ridge or facet: two coincident points at
        # n = 4, three collinear ones (+-2 e_0 and the origin) at n = 5.
        vertices.append(vertices[0] if n == 4 else (0,) * n)
        corners.append((0, 2 * n) if n == 4 else (0, 1, 2 * n))
    elif case == "stray_ridge":
        # A dependent ridge on no facet whose corners are independent:
        # +-2 e_0 and the origin at n = 4, the rhombus +-2 e_0, +-3 e_1 at
        # n = 5; its corners are added with it.
        ridge = (0, 1, 2 * n) if n == 4 else (0, 1, 2, 3)
        if n == 4:
            vertices.append((0,) * n)
        corners += [c for c in combinations(ridge, n - 2) if c not in corners]
        ridges = [*ridges, ridge]
    return dataclasses.replace(t, vertices=vertices, corners=corners,
                               ridges=ridges)


_DEGENERATE_CASES = [
    (4, "flat_facet", "cell (0, 2, 4, 6) is not cellwise-flat"),
    (5, "flat_facet", "cell (0, 2, 4, 6, 8) is not cellwise-flat"),
    (4, "coincident", "cell (0, 3, 5, 6) is not cellwise-flat"),
    (5, "coincident", "cell (0, 3, 5, 6, 8) is not cellwise-flat"),
    (4, "stray_corner", "cell (0, 8) is not cellwise-flat"),
    (5, "stray_corner", "cell (0, 1, 10) is not cellwise-flat"),
    (4, "stray_ridge", "ridge 32 is incident to 0 facets, expected 2"),
    (5, "stray_ridge", "ridge 80 is incident to 0 facets, expected 2"),
]


@pytest.mark.parametrize("n, case, reason", _DEGENERATE_CASES,
                         ids=[f"{case}_n{n}" for n, case, _ in
                              _DEGENERATE_CASES])
def test_degenerate_cells_named_once(n, case, reason, tmp_path, capsys):
    # Conversion checks flatness once per fact: each facet by one echelon,
    # which covers every face on a facet, and each corner by its own Gram
    # elimination, whose failure names the corner, never the Gram system.
    # A dependent ridge on no facet is left to the standard-form checks.
    path = tmp_path / f"{case}_{n}.plc"
    path.write_text(serialize_plc(_degenerate_cross_polytope(n, case)))
    for code, payload in _reports(path, capsys):
        assert code == 2
        assert payload["verdict"] == "invalid_input"
        assert payload["reason"] == reason
        assert payload["corners_checked"] == 0
