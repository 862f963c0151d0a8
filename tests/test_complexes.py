import gc
import time

import pytest

import plconvex.complexes
from conftest import (
    cube_traditional,
    octahedron_traditional,
    polygonal_surface,
    reversed_star,
    simplex_boundary,
    tetrahedron_traditional,
)
from plconvex import (
    Convex,
    StandardFormComplex,
    face_counts,
    to_standard,
    validate_standard,
    wheel_star,
)
from plconvex.checker import check_complex
from plconvex.errors import InvalidInputError
from plconvex.formats import parse_plc, serialize_plc
from plconvex.oracle import gen_convex_surface


def test_validate_cube(cube_standard):
    validate_standard(cube_standard)  # no exception


def test_validate_missing_ridge_facet_incidence(cube):
    std = to_standard(cube)
    # Drop one ridge->facet incidence: that ridge now has a single facet.
    std.ridge_facets[0] = std.ridge_facets[0][:1]
    with pytest.raises(InvalidInputError, match="expected 2"):
        validate_standard(std)


def test_validate_rejects_missing_normal(cube):
    # A normal's key is its incidence, so a complex built without the cube's
    # facet normal (0, 0) lacks corner 0's incidence with facet 0 too; the
    # closure check names it.  The parser names the missing normal line
    # (test_formats.test_plc_missing_normal_rejected).
    full = to_standard(cube)
    facet_normals = dict(full.facet_normals)
    del facet_normals[(0, 0)]
    std = StandardFormComplex(
        full.n, full.num_corners, full.num_ridges, full.num_facets,
        [(r, f) for r, fs in enumerate(full.ridge_facets) for f in fs],
        full.ridge_normals, facet_normals,
    )
    assert 0 not in std.corner_facets[0]
    with pytest.raises(
        InvalidInputError,
        match=r"^incidence not closed: corner 0 on ridge \d+ but not on its "
              r"facet 0$",
    ):
        validate_standard(std)


def test_validate_rejects_pinched_vertex():
    # Two cones glued at a shared corner: the star's ridge-facet graph has
    # two disjoint cycles.  Build it directly in standard form.
    # Corner 0 with ridges 0..5; facets 0..5; cycles (0,1,2) and (3,4,5).
    rf = []
    for base in (0, 3):
        for i in range(3):
            r = base + i
            f1 = base + i
            f2 = base + (i + 1) % 3
            rf.append((r, f1))
            rf.append((r, f2))
    rn = {(0, r): (1, r + 1, 1) for r in range(6)}
    fn = {(0, f): (1, 1, f + 1) for f in range(6)}
    std = StandardFormComplex(
        n=3,
        num_corners=1,
        num_ridges=6,
        num_facets=6,
        ridge_facet_pairs=rf,
        ridge_normals=rn,
        facet_normals=fn,
    )
    with pytest.raises(InvalidInputError, match="cycles"):
        validate_standard(std)


@pytest.mark.parametrize("pairs, message", [
    ([(0, 0), (0, 5), (-1, 0)], "ridge index 5 out of range"),
    ([(0, 0), (2, 9), (0, 1)], "corner index 2 out of range"),
    ([(0, 0), (0, -1)], "ridge index -1 out of range"),
])
def test_first_out_of_range_index_is_reported(pairs, message):
    # Key order first, and within a key the corner before the ridge.
    normals = dict.fromkeys(pairs, (1, 0, 0))
    rf = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        StandardFormComplex(3, 2, 3, 1, rf, normals, {})


_NORMALS = "the number of ridge normals"
_PAIRS = "the number of ridge-facet pairs"


@pytest.mark.parametrize("counts, message", [
    ((3, 1, 1), f"bad corners count 3: want 0..2, {_NORMALS}"),
    ((1, 3, 1), f"bad ridges count 3: want 0..2, {_PAIRS}"),
    ((1, 1, 3), f"bad facets count 3: want 0..2, {_PAIRS}"),
    ((-1, 1, 1), f"bad corners count -1: want 0..2, {_NORMALS}"),
])
def test_count_past_its_data_is_rejected(counts, message):
    # Large counts are run in a child process with a memory limit, in
    # test_cli.test_huge_counts_exit_2_without_allocating.
    rn = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0)}
    rf = [(0, 0), (0, 1)]
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        StandardFormComplex(3, *counts, rf, rn, {})


def _break_cube(fault):
    """The cube's standard form with one fault; returns (complex, message)."""
    std = to_standard(cube_traditional())
    r, f = std.corner_ridges[0][0], std.corner_facets[0][0]
    if fault == "ridge facet twice":
        std.ridge_facets[r] = (std.ridge_facets[r][0],) * 2
        return std, f"ridge {r} lists facet {std.ridge_facets[r][0]} twice"
    if fault == "zero ridge normal":
        std.ridge_normals[(0, r)] = (0, 0, 0)
        return std, f"bad ridge normal at (0, {r})"
    if fault == "short facet normal":
        std.facet_normals[(0, f)] = (1, 1)
        return std, f"bad facet normal at (0, {f})"
    if fault == "not closed":
        std.corner_facets[0].remove(f)
        del std.facet_normals[(0, f)]
        ridge = next(x for x in std.corner_ridges[0] if f in std.ridge_facets[x])
        return std, (
            f"incidence not closed: corner 0 on ridge {ridge} "
            f"but not on its facet {f}"
        )
    if fault == "extra star facet":
        g = next(x for x in range(std.num_facets) if x not in std.corner_facets[0])
        std.corner_facets[0].append(g)
        std.facet_normals[(0, g)] = (1, 1, 1)
        return std, "corner 0 star has 3 ridges but 4 facets"
    raise AssertionError(fault)


@pytest.mark.parametrize("fault", [
    "ridge facet twice",
    "zero ridge normal",
    "short facet normal",
    "not closed",
    "extra star facet",
])
def test_validate_standard_messages(fault):
    std, message = _break_cube(fault)
    with pytest.raises(InvalidInputError) as caught:
        validate_standard(std)
    assert str(caught.value) == message


def test_star_facet_on_three_ridges_is_named():
    # Corner 0 has ridges 0, 1, 2 and facets 0, 1, 2; facet 0 lies on all
    # three ridges and facet 2 on one.
    rf = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]
    std = StandardFormComplex(
        3, 1, 3, 3, rf,
        {(0, r): (1, r, 0) for r in range(3)},
        {(0, f): (1, 0, f) for f in range(3)},
    )
    with pytest.raises(InvalidInputError) as caught:
        validate_standard(std)
    assert str(caught.value) == (
        "facet 0 meets corner 0's star in 3 ridges, expected 2 "
        "(pinched or broken star)"
    )


def test_complex_without_facets_is_rejected():
    std = StandardFormComplex(3, 0, 0, 0, [], {}, {})
    with pytest.raises(InvalidInputError, match="^complex has no facets$"):
        validate_standard(std)


def test_complex_without_corners_is_rejected():
    # One ridge joining two facets passes every other check.
    std = StandardFormComplex(3, 0, 1, 2, [(0, 0), (0, 1)], {}, {})
    with pytest.raises(InvalidInputError, match="^complex has no corners$"):
        validate_standard(std)


def test_validate_rejects_rank4_normals():
    # Single-corner star whose normals span 4 dimensions (bad data in R^4).
    rf = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rn = {(0, 0): (1, 0, 0, 0), (0, 1): (0, 1, 0, 0)}
    fn = {(0, 0): (0, 0, 1, 0), (0, 1): (0, 0, 0, 1)}
    std = StandardFormComplex(4, 1, 2, 2, rf, rn, fn)
    with pytest.raises(InvalidInputError, match="span more than 3"):
        validate_standard(std)


def _beach_ball(n, k):
    """n - 1 corners, k ridges each on every corner, and k facets, facet i
    on ridges i and i + 1: every corner's star is one wheel, but each facet
    lies on two ridges."""
    corners = n - 1
    rf = [(i, (i - 1) % k) for i in range(k)] + [(i, i) for i in range(k)]
    pad = (0,) * (n - 3)
    rn = {(c, i): (1, i, 0) + pad for c in range(corners) for i in range(k)}
    fn = {(c, i): (i, 1, 1) + pad for c in range(corners) for i in range(k)}
    return StandardFormComplex(n, corners, k, k, rf, rn, fn)


@pytest.mark.parametrize("n", [3, 4])
def test_facet_on_too_few_ridges_is_rejected(n):
    std = _beach_ball(n, 5)
    with pytest.raises(InvalidInputError, match=(
            f"^facet 0 lies on 2 ridges, expected at least {n}$")):
        validate_standard(std)


def test_open_star_in_r4_is_rejected():
    # One corner of the cross-polytope's star, alone: each ridge lies on
    # one corner where a closed surface in R^4 has at least three.
    rf = [(i, (i - 1) % 4) for i in range(4)] + [(i, i) for i in range(4)]
    u = [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1)]
    rn = {(0, i): v for i, v in enumerate(u)}
    fn = {(0, i): tuple(a + b for a, b in zip(u[i], u[(i + 1) % 4]))
          for i in range(4)}
    std = StandardFormComplex(4, 1, 4, 4, rf, rn, fn)
    with pytest.raises(InvalidInputError, match=(
            "^ridge 0 lies on 1 corners, expected at least 3$")):
        validate_standard(std)


def test_facet_of_two_cycles_is_rejected(cube):
    # The cube with two opposite faces given one facet index: every star is
    # still one wheel, but that facet's ridges and corners make two squares.
    std = to_standard(cube)
    faces = [{c for c, f in std.facet_normals if f == g} for g in range(6)]
    g = next(g for g in range(1, 6) if not faces[0] & faces[g])
    relabel = {f: f - (f > g) for f in range(6)}
    relabel[g] = 0
    rf = [(r, relabel[f]) for r in range(12) for f in std.ridge_facets[r]]
    fn = {(c, relabel[f]): v for (c, f), v in std.facet_normals.items()}
    merged = StandardFormComplex(3, 8, 12, 5, rf, std.ridge_normals, fn)
    with pytest.raises(InvalidInputError, match=(
            "^facet 0's ridges and corners form more than one cycle$")):
        validate_standard(merged)


def test_ridge_on_three_corners_is_rejected_at_n3():
    # Ridges 0 and 1 lie on corners 0, 1 and 2, ridges 2 and 3 on corners 3
    # and 4, and every ridge on facets 0 and 1: each corner's star is a
    # digon, and each facet lies on four ridges.
    rf = [(r, f) for r in range(4) for f in (0, 1)]
    on = {0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (2, 3), 4: (2, 3)}
    rn = {(c, r): (1 - 2 * (r % 2), 0, 0) for c, rs in on.items() for r in rs}
    fn = {(c, f): (0, 1 - 2 * f, 0) for c in on for f in (0, 1)}
    std = StandardFormComplex(3, 5, 4, 2, rf, rn, fn)
    with pytest.raises(InvalidInputError, match=(
            "^ridge 0 lies on 3 corners, expected 2$")):
        validate_standard(std)


def test_validate_rejects_disconnected(cube):
    # Two disjoint cubes in one container: every local test would pass, so
    # connectivity must be rejected up front.
    a = to_standard(cube)
    shift = 1000
    b_t = cube_traditional()
    b_t.vertices = [tuple(c + shift for c in v) for v in b_t.vertices]
    b = to_standard(b_t)

    def off(pairs, dc, dr):
        return [(c + dc, r + dr) for c, r in pairs]

    rf = []
    rn, fn = {}, {}
    for cx, dc, dr, df in ((a, 0, 0, 0), (b, 8, 12, 6)):
        for r in range(cx.num_ridges):
            rf += [(r + dr, f + df) for f in cx.ridge_facets[r]]
        rn.update({(c + dc, r + dr): v for (c, r), v in cx.ridge_normals.items()})
        fn.update({(c + dc, f + df): v for (c, f), v in cx.facet_normals.items()})
    both = StandardFormComplex(3, 16, 24, 12, rf, rn, fn)
    with pytest.raises(InvalidInputError, match="disconnected"):
        validate_standard(both)


def test_wheel_star_cube_corner(cube_standard):
    validate_standard(cube_standard)
    star = wheel_star(cube_standard, cube_standard.corner_id(0))
    assert star.m == 3
    assert sorted(star.rim_ridges) == sorted(cube_standard.corner_ridges[0])
    # Facet i joins rim ridges i and i+1 in the incidence relation.
    for i in range(star.m):
        r1 = star.rim_ridges[i]
        r2 = star.rim_ridges[(i + 1) % star.m]
        f = star.rim_facets[i]
        assert f in cube_standard.ridge_facets[r1]
        assert f in cube_standard.ridge_facets[r2]


def test_wheel_star_octahedron_vertex():
    std = to_standard(octahedron_traditional())
    validate_standard(std)
    star = wheel_star(std, std.corner_id(0))
    assert star.m == 4


def test_wheel_star_deterministic(cube_standard):
    validate_standard(cube_standard)
    c = cube_standard.corner_id(3)
    first = wheel_star(cube_standard, c)
    again = wheel_star(cube_standard, c)
    assert first.rim_ridges == again.rim_ridges
    assert first.rim_facets == again.rim_facets
    # The reversed rim of the tests keeps the start ridge, reverses the
    # rest, and still puts facet i between rim ridges i and i + 1.
    rev = reversed_star(first)
    assert rev.rim_ridges[0] == first.rim_ridges[0]
    assert rev.rim_ridges[1:] == first.rim_ridges[:0:-1]
    for i, f in enumerate(rev.rim_facets):
        ends = {rev.rim_ridges[i], rev.rim_ridges[(i + 1) % rev.m]}
        assert {r for r in ends if f in cube_standard.ridge_facets[r]} == ends


def test_wheel_star_covers_each_ridge_once(cube_standard):
    validate_standard(cube_standard)
    for corner in cube_standard.corners():
        star = wheel_star(cube_standard, corner)
        assert len(set(star.rim_ridges)) == star.m
        assert len(set(star.rim_facets)) == star.m


def test_wheel_star_digon():
    # Two facets sharing the same two ridges at a corner: a W_2 wheel.
    std = StandardFormComplex(
        n=3,
        num_corners=1,
        num_ridges=2,
        num_facets=2,
        ridge_facet_pairs=[(0, 0), (0, 1), (1, 0), (1, 1)],
        ridge_normals={(0, 0): (1, 0, 0), (0, 1): (0, 1, 0)},
        facet_normals={(0, 0): (1, 1, 0), (0, 1): (-1, -1, 0)},
    )
    # The complex is open (each ridge has one corner), so only its one
    # corner is walked, by the walk validate_standard runs per corner.
    rows = plconvex.complexes._walk_wheel(std, 0)
    std.corner_ridges[0][:], std.corner_facets[0][:] = rows
    star = wheel_star(std, std.corner_id(0))
    assert star.m == 2
    assert star.rim_ridges == (0, 1)


def test_single_ridge_star_rejected():
    std = StandardFormComplex(
        n=3,
        num_corners=1,
        num_ridges=1,
        num_facets=2,
        ridge_facet_pairs=[(0, 0), (0, 1)],
        ridge_normals={(0, 0): (1, 0, 0)},
        facet_normals={(0, 0): (1, 1, 0), (0, 1): (1, -1, 0)},
    )
    with pytest.raises(InvalidInputError, match="expected >= 2"):
        validate_standard(std)


def test_face_counts_cube(cube_standard):
    counts = face_counts(cube_standard)
    assert counts.by_dim == {0: 8, 1: 12, 2: 6}
    assert counts.corner_ridge == 24
    assert sum(map(len, cube_standard.corner_facets)) == 24


def test_face_counts_tetrahedron():
    counts = face_counts(to_standard(tetrahedron_traditional()))
    assert counts.by_dim == {0: 4, 1: 6, 2: 4}


def test_face_counts_4simplex():
    # Enumerated from the face lattice: C(5,2)=10 edges (corners),
    # C(5,3)=10 triangles (ridges), C(5,4)=5 tetrahedra (facets);
    # corner-ridge incidences: each triangle has 3 edges -> 30.
    std = to_standard(simplex_boundary(4))
    counts = face_counts(std)
    assert counts.by_dim == {1: 10, 2: 10, 3: 5}
    assert counts.corner_ridge == 30


def test_wheel_sizes_sum_to_incidences(cube_standard):
    validate_standard(cube_standard)
    counts = face_counts(cube_standard)
    total = sum(
        wheel_star(cube_standard, c).m for c in cube_standard.corners()
    )
    assert total == counts.corner_ridge


def test_validate_leaves_rim_order(cube_standard):
    validate_standard(cube_standard)
    ridges = [list(rr) for rr in cube_standard.corner_ridges]
    facets = [list(ff) for ff in cube_standard.corner_facets]
    validate_standard(cube_standard)
    assert cube_standard.corner_ridges == ridges
    assert cube_standard.corner_facets == facets
    for corner in cube_standard.corners():
        star = wheel_star(cube_standard, corner)
        assert list(star.rim_ridges) == ridges[corner.index]
        assert list(star.rim_facets) == facets[corner.index]


@pytest.mark.parametrize("exhaustive", [False, True])
def test_check_walks_each_wheel_once(monkeypatch, exhaustive):
    t = gen_convex_surface(seed=42, n=3, num_points=14, coord_bound=100)
    calls = []
    walk = plconvex.complexes._walk_wheel

    def counting(cx, c):
        calls.append(c)
        return walk(cx, c)

    monkeypatch.setattr(plconvex.complexes, "_walk_wheel", counting)
    run = check_complex(t, exhaustive=exhaustive)
    assert run.verdict == Convex()
    assert calls == list(range(run.standard.num_corners))


def _pyramid(k):
    """Pyramid over a convex lattice k-gon (k a multiple of 6): the apex is
    a corner of degree k."""
    from test_normals import _subdivided_ring

    ring = _subdivided_ring(k // 6)
    base = [(x, y, 0) for x, y in ring]
    facets = [tuple(reversed(range(k)))]
    facets += [(i, (i + 1) % k, k) for i in range(k)]
    return polygonal_surface(base + [(1, 1, 5)], facets)


def _best_seconds(run, repeat=3):
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def test_high_degree_corner_costs_linear_time():
    # Conversion, parsing and validation are linear in the incidences, also
    # for one corner of degree k: a list search of its row for each of its
    # normals made a tenfold k cost about thirty times as much, where a
    # linear pass costs 10-12 times as much.
    times = {"convert": [], "parse": []}
    for k in (60, 600, 6000):
        t = _pyramid(k)
        text = serialize_plc(to_standard(t))
        times["convert"].append(
            _best_seconds(lambda: validate_standard(to_standard(t))))
        times["parse"].append(
            _best_seconds(lambda: validate_standard(parse_plc(text))))
    for route, (small, mid, large) in times.items():
        assert mid / small < 20 and large / mid < 20, (route, small, mid, large)


def test_many_facets_on_one_ridge_cost_linear_time():
    # A ridge row is a tuple, and appending to a tuple copies it: one ridge
    # listed with 10,000 and 40,000 facets took 0.17 s and 3.8 s to group
    # (22 times as much) before validation could reject it.
    def build(d):
        pairs = [(0, f) for f in range(d)]
        return lambda: StandardFormComplex(3, 0, 1, d, pairs, {}, {})

    small, large = (_best_seconds(build(d)) for d in (20_000, 80_000))
    assert large / small < 8, (small, large)
    assert build(80_000)().ridge_facets == [tuple(range(80_000))]
    with pytest.raises(InvalidInputError,
                       match="^ridge 0 is incident to 80000 facets, expected 2$"):
        validate_standard(build(80_000)())
