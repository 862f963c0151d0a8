import dataclasses
import math
import random
import re
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plconvex.complexes
import plconvex.exact
import plconvex.normals
from conftest import (
    cube_traditional,
    octahedron_traditional,
    polygonal_surface,
    simplex_boundary,
    simplicial_surface,
    subdivided_cube,
)
from helpers_oracles import _ortho_residuals
from plconvex import (
    Convex,
    InvalidInput,
    NotConvex,
    check_convexity,
    to_standard,
)
from plconvex.errors import (
    DegenerateCell,
    DegenerateVertex,
    InvalidInputError,
    NotPlanar,
)
from plconvex.checker import check_complex
from plconvex.complexes import validate_standard
from plconvex.exact import dot, pivot_columns, quotient_residuals
from plconvex.normals import (
    TraditionalFormComplex,
    _check_simple,
    _convex_certificate,
    _flat_from,
    _link_residuals,
    validate_polygon,
    validate_traditional,
)
from plconvex.formats import parse_off
from plconvex.oracle import dent, gen_convex_surface, is_hull_boundary
from test_exact import (
    PlaneFrame,
    _multiple_pivot,
    collinearity_coefficient,
    rank_le3,
    same_ray,
    sign,
)

DATA = Path(__file__).parent / "data"


def _coords(table):
    return lambda v: table[v]


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def in_span(v, basis) -> bool:
    """Exact membership of v in the span of basis (rank at most 3)."""
    return rank_le3([*basis, v])[0] == rank_le3(basis)[0]


# ---------------------------------------------------------------------------
# Simplicial normals
# ---------------------------------------------------------------------------


def test_ridge_normal_r4_strips_corner_direction():
    coords = _coords({0: (0, 0, 0, 0), 1: (1, 0, 0, 0), 2: (1, 2, 0, 0)})
    assert _link_residuals((0, 1), [(0, 1, 2)], coords) == {2: (0, 2, 0, 0)}
    coords = _coords({0: (0, 0, 0, 0), 1: (1, 0, 0, 0), 2: (3, 4, 5, 0)})
    assert _link_residuals((0, 1), [(0, 1, 2)], coords) == {2: (0, 4, 5, 0)}


def test_ridge_normal_degenerate():
    # A ridge vertex in the corner's affine span has the zero residual,
    # and a facet through it is not flat there.  That is an answer, not an
    # error, in either order of the facet's two other vertices.
    coords = _coords({0: (0, 0, 0, 0), 1: (1, 0, 0, 0), 2: (5, 0, 0, 0),
                      3: (0, 0, 1, 0)})
    assert _link_residuals((0, 1), [(0, 1, 2)], coords) == {2: (0, 0, 0, 0)}
    res = _link_residuals((0, 1), [(0, 1, 2, 3)], coords)
    assert res == {2: (0, 0, 0, 0), 3: (0, 0, 1, 0)}
    assert not _flat_from(res, (0, 1, 2, 3))
    assert not _flat_from(res, (0, 1, 3, 2))
    assert _flat_from({2: (0, 2, 0, 0), 3: (0, 0, 1, 0)}, (0, 1, 2, 3))
    assert not _flat_from({2: (0, 2, 4, 0), 3: (0, -1, -2, 0)}, (0, 1, 2, 3))
    # A dependent corner fails its own elimination: no residuals, and any
    # facet read from it is not flat.  to_standard names the cell.
    coords = _coords({0: (1, 0, 0, 0), 1: (1, 0, 0, 0), 2: (5, 1, 0, 0),
                      3: (5, 0, 1, 0)})
    assert _link_residuals((0, 1), [(0, 1, 2)], coords) is None
    assert _link_residuals((0, 1), [(0, 1, 2, 3)], coords) is None
    assert not _flat_from(None, (0, 1, 2, 3))


def test_facet_normal_examples():
    # A facet's normal at a corner is the sum of its two extra vertices'
    # residuals, one per vertex however many cells share it.
    coords = _coords(
        {0: (0, 0, 0, 0), 1: (1, 0, 0, 0), 2: (1, 2, 0, 0), 3: (1, 0, 3, 0)}
    )
    assert _link_residuals((0, 1), [(0, 1, 2, 3)], coords) == {
        2: (0, 2, 0, 0), 3: (0, 0, 3, 0)}


def test_ridge_normal_zero_on_pivot_column_and_contained():
    # w is zero on the corner direction's pivot column, its first nonzero
    # entry, and lies in the ridge's direction space.
    rng = random.Random(13)
    produced = 0
    while produced < 100:
        pts = {
            i: tuple(rng.randrange(-6, 7) for _ in range(4)) for i in range(3)
        }
        coords = _coords(pts)
        try:
            w = _link_residuals((0, 1), [(0, 1, 2)], coords)[2]
        except DegenerateCell:
            continue
        if not any(w):
            continue
        produced += 1
        d1 = vsub(pts[1], pts[0])
        assert w[pivot_columns([d1], 1)[1][0]] == 0
        # Containment: w = d (p2 - p0) - lambda * d1, so w lies in the
        # ridge's direction span by construction; check it is a combination
        # of d1 and (p2 - p0) exactly.
        d2 = vsub(pts[2], pts[0])
        assert in_span(w, [d1, d2])


def _reference_component(x, basis):
    """x minus its orthogonal projection onto span(basis), in Fractions.

    Solves the Gram system by Gauss-Jordan elimination with row exchanges;
    returns None when the basis is dependent.
    """
    k = len(basis)
    a = [[Fraction(dot(p, q)) for q in basis] + [Fraction(dot(p, x))]
         for p in basis]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [p - factor * q for p, q in zip(a[r], a[col])]
    out = [Fraction(c) for c in x]
    for i, b in enumerate(basis):
        lam = a[i][k] / a[i][i]
        out = [o - lam * c for o, c in zip(out, b)]
    return tuple(out)


def _positive_multiple(w, v) -> bool:
    """w = lambda * v for some lambda > 0, or both are zero."""
    pivot = next((i for i, c in enumerate(v) if c != 0), None)
    if pivot is None:
        return all(c == 0 for c in w)
    lam = Fraction(w[pivot]) / Fraction(v[pivot])
    return lam > 0 and all(p == lam * q for p, q in zip(w, v))


_ENTRIES = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _projection_cases(draw):
    n = draw(st.integers(4, 6))
    k = draw(st.integers(1, n - 3))
    vector = st.tuples(*[_ENTRIES] * n)
    return draw(vector), draw(st.lists(vector, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(_projection_cases())
def test_orthogonal_component_positive_multiple_of_reference(case):
    # The quotient residual w of x represents a positive multiple of x's
    # class modulo span(basis), so the orthogonal component of w is a
    # positive multiple of x's.
    x, basis = case
    expected = _reference_component(x, basis)
    assume(expected is not None)
    # Denominators cleared once, as to_standard does.
    scale = math.lcm(*(Fraction(c).denominator for v in (x, *basis) for c in v))
    int_x, *int_basis = [
        tuple(int(c * scale) for c in v) for v in (x, *basis)
    ]
    (w,) = quotient_residuals(int_basis, [int_x])
    assert all(type(c) is int for c in w)
    assert all(w[c] == 0 for c in pivot_columns(int_basis, len(basis))[1])
    assert _positive_multiple(_reference_component(w, basis), expected)


def _cyclic_polytope(m, n):
    """Boundary of C(m, n) on the moment curve, facets by Gale evenness."""
    vertices = [tuple(t ** k for k in range(1, n + 1)) for t in range(m)]
    facets = []
    for s in combinations(range(m), n):
        members = set(s)
        outside = [i for i in range(m) if i not in members]
        if all(
            sum(1 for v in s if i < v < j) % 2 == 0
            for i, j in combinations(outside, 2)
        ):
            facets.append(s)
    return simplicial_surface(n, vertices, facets)


def _cyclic_polytope_4d(m):
    return _cyclic_polytope(m, 4)


def _cross_polytope(n):
    """Boundary of the cross-polytope with vertices +-(i + 2) e_i.

    Vertex 2i is +(i + 2) e_i and 2i + 1 is -(i + 2) e_i; each facet picks
    one of them on every axis.
    """
    vertices = []
    for i in range(n):
        for s in (1, -1):
            vertices.append(tuple(s * (i + 2) if j == i else 0
                                  for j in range(n)))
    facets = [
        tuple(2 * i + b for i, b in enumerate(bits))
        for bits in product((0, 1), repeat=n)
    ]
    return simplicial_surface(n, vertices, facets)


def test_to_standard_integer_normals_n4():
    cyclic = _cyclic_polytope_4d(12)
    dented = dent(cyclic, 5, Fraction(3, 4))
    assert any(isinstance(c, Fraction) for c in dented.vertices[5])
    for t, convex in ((cyclic, True), (dented, False)):
        before = list(t.vertices)
        std = to_standard(t)
        assert t.vertices == before
        for normals in (std.ridge_normals, std.facet_normals):
            assert all(
                type(c) is int for w in normals.values() for c in w
            )
        verdict = check_convexity(std)
        assert isinstance(verdict, Convex) == convex
        assert is_hull_boundary(t) == convex


# ---------------------------------------------------------------------------
# Polygon interior directions
# ---------------------------------------------------------------------------

SQUARE = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
L_POLY = [(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)]


def _point_in_polygon_2d(pt, cycle):
    """Exact strict point-in-polygon by winding over edge crossings.

    Works on rational 2D points (z dropped); boundary points return False.
    """
    x, y = pt
    inside = False
    k = len(cycle)
    for i in range(k):
        x1, y1 = cycle[i][0], cycle[i][1]
        x2, y2 = cycle[(i + 1) % k][0], cycle[(i + 1) % k][1]
        # On-edge test first.
        cr = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if cr == 0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return False
        if (y1 > y) != (y2 > y):
            t = Fraction(y - y1, y2 - y1)
            xc = x1 + t * (x2 - x1)
            if xc > x:
                inside = not inside
    return inside


def _assert_inner_direction(vid, cycle, table, expected_parallel=None):
    coords = _coords(table)
    d = validate_polygon(cycle, coords)[cycle.index(vid)]
    if expected_parallel is not None:
        lam = collinearity_coefficient(tuple(expected_parallel), d)
        assert lam is not None and lam > 0, (d, expected_parallel)
    assert d[2] == 0  # in the polygon's horizontal plane
    # Oracle: v + eps*d is strictly interior for all small rational eps;
    # check two tiny values well below any feature size of these polygons.
    v = table[vid]
    for eps in (Fraction(1, 2**20), Fraction(1, 2**40)):
        p = tuple(c + eps * dc for c, dc in zip(v, d))
        assert _point_in_polygon_2d((p[0], p[1]), [table[w] for w in cycle]), (
            vid,
            d,
            eps,
        )


def test_inner_direction_square_corner():
    table = dict(enumerate(SQUARE))
    _assert_inner_direction(0, (0, 1, 2, 3), table, expected_parallel=(2, 2, 0))


def test_inner_direction_triangle_corners():
    table = [(0, 0, 3), (6, 1, 3), (2, 5, 3)]
    for vid in range(3):
        _assert_inner_direction(vid, (0, 1, 2), table)
        _assert_inner_direction(vid, (2, 1, 0), table)
    collinear_table = [(0, 0, 0), (1, 1, 0), (3, 3, 0)]
    with pytest.raises(NotPlanar):
        validate_polygon((0, 1, 2), _coords(collinear_table))


def test_inner_direction_reflex_vertex():
    table = dict(enumerate(L_POLY))
    _assert_inner_direction(3, (0, 1, 2, 3, 4, 5), table,
                            expected_parallel=(-1, -1, 0))


def test_inner_direction_straight_vertex():
    table = dict(enumerate([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]))
    _assert_inner_direction(1, (0, 1, 2, 3, 4), table,
                            expected_parallel=(0, 1, 0))


def test_inner_direction_orientation_independent():
    table = dict(enumerate(L_POLY))
    coords = _coords(table)
    fwd = validate_polygon((0, 1, 2, 3, 4, 5), coords)[3]
    rev = validate_polygon((5, 4, 3, 2, 1, 0), coords)[2]  # vertex 3 again
    assert collinearity_coefficient(fwd, rev) is not None and \
        collinearity_coefficient(fwd, rev) > 0


def test_inner_direction_random_polygon_vertices():
    # Every produced direction must point strictly into the polygon.
    rng = random.Random(41)
    for _ in range(50):
        # Star-shaped polygon around the origin: random radii on a grid of
        # directions, ordered by angle; simple by construction.
        k = rng.randrange(4, 9)
        dirs = sorted(
            rng.sample(range(360), k)
        )
        cycle = []
        for ang in dirs:
            # Rational points on a circle via the tangent half-angle map
            # would be cleaner; integer approximations suffice here.
            import math

            r = rng.randrange(3, 12)
            x = round(r * 10 * math.cos(math.radians(ang)))
            y = round(r * 10 * math.sin(math.radians(ang)))
            cycle.append((x, y, 0))
        if len(set(cycle)) != len(cycle):
            continue
        table = dict(enumerate(cycle))
        try:
            validate_polygon(tuple(range(len(cycle))), _coords(table))
        except (InvalidInputError, NotPlanar, DegenerateVertex):
            continue
        for vid in range(len(cycle)):
            _assert_inner_direction(vid, tuple(range(len(cycle))), table)


def test_spike_vertex_rejected():
    table = dict(enumerate([(0, 0, 0), (4, 0, 0), (2, 0, 0), (2, 2, 0)]))
    with pytest.raises((DegenerateVertex, InvalidInputError)):
        validate_polygon((0, 1, 2, 3), _coords(table))


def test_nonplanar_polygon_rejected():
    table = dict(enumerate([(0, 0, 0), (2, 0, 0), (2, 2, 1), (0, 2, 0)]))
    with pytest.raises(NotPlanar):
        validate_polygon((0, 1, 2, 3), _coords(table))


def test_self_intersecting_polygon_rejected():
    # Crossing edges with nonzero signed area.
    table = dict(enumerate([(0, 0, 0), (4, 0, 0), (4, 4, 0), (2, -2, 0), (0, 4, 0)]))
    with pytest.raises(InvalidInputError, match="self-intersect"):
        validate_polygon((0, 1, 2, 3, 4), _coords(table))
    # A bowtie with equal lobes dies on the zero-area check instead.
    table = dict(enumerate([(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)]))
    with pytest.raises(InvalidInputError):
        validate_polygon((0, 1, 2, 3), _coords(table))


def test_star_polygon_winding_twice_rejected():
    # Every turn has one sign, but the directions wind twice.
    table = dict(enumerate(
        [(0, 10, 0), (6, -8, 0), (-10, 3, 0), (10, 3, 0), (-6, -8, 0)]
    ))
    coords = _coords(table)
    pts = [table[v] for v in range(5)]
    assert not _certify(pts, _framed(pts))
    with pytest.raises(InvalidInputError, match="self-intersect"):
        validate_polygon(tuple(range(5)), coords)


# ---------------------------------------------------------------------------
# The O(k) convex certificate against the O(k^2) pairwise test
# ---------------------------------------------------------------------------


def _hull_2d(points):
    """Strictly convex hull of lattice points, counter-clockwise."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


@st.composite
def _lattice_polygons(draw, kinds=("random", "convex", "dented", "star")):
    """(kind, R^3 points of a closed lattice polygon with 4..12 vertices).

    random: any lattice cycle; convex: a lattice hull; dented: a hull with
    one vertex moved; star: an odd hull visited every second vertex, so all
    turns agree but the directions wind twice.
    """
    kind = draw(st.sampled_from(kinds))
    grid = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    raw = draw(st.lists(grid, min_size=3, max_size=10))
    if kind == "random":
        ring = raw
    else:
        ring = _hull_2d(raw)
        assume(len(ring) >= 3)
        if kind == "dented":
            i = draw(st.integers(0, len(ring) - 1))
            dx, dy = draw(grid)
            ring[i] = (ring[i][0] + dx // 2, ring[i][1] + dy // 2)
        if kind == "star":
            assume(len(ring) % 2 == 1 and len(ring) >= 5)
            ring = [ring[(2 * i) % len(ring)] for i in range(len(ring))]
    # Doubled coordinates make every edge midpoint a lattice point; split
    # some edges there to get straight vertices, as on the prism caps.
    splits = draw(st.lists(st.booleans(), min_size=len(ring),
                           max_size=len(ring)))
    poly = []
    for i, (x, y) in enumerate(ring):
        nx, ny = ring[(i + 1) % len(ring)]
        poly.append((2 * x, 2 * y))
        if splits[i]:
            poly.append((x + nx, y + ny))
    assume(4 <= len(poly) <= 12)
    if draw(st.booleans()):
        poly.reverse()
    start = draw(st.integers(0, len(poly) - 1))
    poly = poly[start:] + poly[:start]
    # A random integer plane in R^3.
    vec = st.tuples(*[st.integers(-3, 3)] * 3)
    u, w, o = draw(vec), draw(vec), draw(vec)
    assume(rank_le3([u, w])[0] == 2)
    return kind, [
        tuple(oc + x * uc + y * wc for oc, uc, wc in zip(o, u, w))
        for x, y in poly
    ]


def _edges_and_turns(pts, normal):
    """Edge vectors of a closed point list and their turns about normal."""
    k = len(pts)
    edges = [vsub(pts[(i + 1) % k], pts[i]) for i in range(k)]
    turns = [sign(dot(normal, _cross(edges[i - 1], edges[i])))
             for i in range(k)]
    return edges, turns


def _certify(pts, normal):
    """_convex_certificate on a closed point list, with its edges and turns."""
    return _convex_certificate(*_edges_and_turns(pts, normal), normal)


def _framed(pts):
    """Plane normal e1 x e2 of the reference frame of a point list, or
    None if the list has no such frame."""
    k = len(pts)
    if any(pts[i] == pts[(i + 1) % k] for i in range(k)):
        return None
    try:
        frame, _ = _frame_polygon(tuple(range(k)), pts.__getitem__)
    except NotPlanar:
        return None
    return _cross(frame.e1, frame.e2)


@settings(max_examples=400, deadline=None)
@given(_lattice_polygons())
def test_convex_certificate_implies_pairwise_simple(case):
    _, pts = case
    normal = _framed(pts)
    assume(normal is not None)
    edges, turns = _edges_and_turns(pts, normal)
    if _convex_certificate(edges, turns, normal):
        _check_simple(tuple(range(len(pts))), pts, normal, edges, turns)


@settings(max_examples=200, deadline=None)
@given(_lattice_polygons(kinds=("convex",)))
def test_convex_certificate_fires_on_convex_polygons(case):
    _, pts = case
    normal = _framed(pts)
    assert normal is not None
    assert _certify(pts, normal)


# ---------------------------------------------------------------------------
# The plane-frame formulation as a reference
# ---------------------------------------------------------------------------
#
# validate_polygon reads every orientation as sign(N.(a x b)) against
# N = e1 x e2.  Here the same validation reads them through an exact
# PlaneFrame(e1, e2) per polygon, whose signs its docstring proves equal;
# its normals and messages must match validate_polygon's exactly.


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _frame_polygon(cycle, coords, parsed=None):
    """(PlaneFrame(e1, e2), orientation sign) of a polygon."""
    pts = [coords(v) for v in cycle]
    base = pts[0]
    e1 = e2 = None
    for p in pts[1:]:
        d = vsub(p, base)
        if not any(d):
            continue
        if e1 is None:
            e1 = d
        elif _multiple_pivot(e1, d) is None:
            e2 = d
            break
    if e1 is None or e2 is None:
        raise NotPlanar("polygon has collinear vertices only")
    frame = PlaneFrame(e1, e2)
    area2 = 0
    prev = vsub(pts[-1], base)
    for v, p in zip(cycle, pts):
        cur = vsub(p, base)
        if not frame.contains(cur):
            raise NotPlanar(
                f"polygon vertex {(parsed or coords)(v)} off the facet plane"
            )
        # The frame's cross value: the sign of orient, a positive multiple
        # of the determinant in the frame.
        i, j = frame._pi, frame._pj
        area2 += (prev[i] * cur[j] - prev[j] * cur[i]) * frame._psign
        prev = cur
    orientation = sign(area2)
    if orientation == 0:
        raise NotPlanar("polygon has zero area")
    return frame, orientation


def _frame_certificate(edges, turns, frame) -> bool:
    k = len(edges)
    start = next((i for i, t in enumerate(turns) if t), None)
    if start is None:
        return False
    sense = turns[start]
    for i, t in enumerate(turns):
        if t == -sense or (t == 0 and dot(edges[i - 1], edges[i]) <= 0):
            return False
    far = False
    for i in range(start + 1, start + k):
        side = sense * frame.orient(edges[start], edges[i % k])
        if side < 0:
            far = True
        elif far:
            return False
    return True


def _frame_check_simple(cycle, pts, frame) -> None:
    def orient(a, b, c):
        return frame.orient(vsub(b, a), vsub(c, a))

    def on_segment(a, b, c):
        return all(min(x, y) <= z <= max(x, y) for x, y, z in zip(a, b, c))

    def touch(p1, p2, q1, q2):
        d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
        d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
        return (d1 * d2 < 0 and d3 * d4 < 0) or (
            (d1 == 0 and on_segment(q1, q2, p1))
            or (d2 == 0 and on_segment(q1, q2, p2))
            or (d3 == 0 and on_segment(p1, p2, q1))
            or (d4 == 0 and on_segment(p1, p2, q2))
        )

    k = len(cycle)
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        if same_ray(vsub(pts[i - 1], a1), vsub(a2, a1)):
            raise DegenerateVertex(f"zero interior angle at vertex {cycle[i]}")
        for j in range(i + 2, k):
            if (j + 1) % k != i and touch(a1, a2, pts[j], pts[(j + 1) % k]):
                raise InvalidInputError(
                    f"facet polygon self-intersects between edges {i} and {j}"
                )


def _frame_corner_normal(a, b, turn, frame, orientation):
    if turn:
        d = vsub(b, a)
        return d if orientation * turn > 0 else tuple(-c for c in d)
    # N x a for the frame's N = e1 x e2: in the plane, perpendicular to a.
    d = _cross(_cross(frame.e1, frame.e2), a)
    return d if frame.orient(a, d) == orientation else tuple(-c for c in d)


def _frame_validate_polygon(cycle, coords, parsed=None):
    """validate_polygon for k > 3 with every sign read through a PlaneFrame."""
    k = len(cycle)
    assert k > 3
    if len(set(cycle)) != k:
        raise InvalidInputError(f"facet cycle repeats a vertex: {cycle}")
    pts = [coords(v) for v in cycle]
    if any(pts[i - 1] == pts[i] for i in range(k)):
        raise InvalidInputError("coincident consecutive polygon vertices")
    frame, orientation = _frame_polygon(cycle, coords, parsed)
    edges = [vsub(pts[(i + 1) % k], pts[i]) for i in range(k)]
    turns = [frame.orient(edges[i - 1], edges[i]) for i in range(k)]
    if not _frame_certificate(edges, turns, frame):
        _frame_check_simple(cycle, pts, frame)
    return [
        _frame_corner_normal(edges[i - 1], edges[i], turns[i], frame,
                             orientation)
        for i in range(k)
    ]


def _outcome(validate, cycle, coords):
    """The corner normals, or the type and message of the rejection."""
    try:
        return validate(cycle, coords)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def _agree(pts) -> bool:
    """validate_polygon and the frame reference agree on pts, in both
    orientations and from every start vertex; True if pts is valid."""
    k = len(pts)
    valid = True
    for ring in (pts, pts[::-1]):
        for s in range(k):
            cycle = tuple(range(s, k)) + tuple(range(s))
            coords = ring.__getitem__
            mine = _outcome(validate_polygon, cycle, coords)
            assert mine == _outcome(_frame_validate_polygon, cycle, coords)
            valid = valid and isinstance(mine, list)
    return valid


@settings(max_examples=300, deadline=None)
@given(_lattice_polygons())
def test_validate_polygon_matches_frame_reference(case):
    _, pts = case
    _agree(pts)


def _oblique(ring, rng, den=1):
    """A 2-D lattice ring on a random integer plane of R^3, divided by den."""
    while True:
        u, w, o = ([rng.randrange(-4, 5) for _ in range(3)] for _ in "uwo")
        if any(_cross(u, w)):
            break
    return [
        tuple(Fraction(oc + x * uc + y * wc, den) if den > 1
              else oc + x * uc + y * wc for oc, uc, wc in zip(o, u, w))
        for x, y in ring
    ]


def _star_ring(rng, k):
    """A star-shaped lattice ring (simple unless it repeats a point), some
    of whose edges are split at their midpoints into straight vertices."""
    dirs = sorted(rng.sample(range(360), k))
    ring = []
    for ang in dirs:
        r = rng.randrange(2, 9)
        x = round(r * math.cos(math.radians(ang)))
        y = round(r * math.sin(math.radians(ang)))
        ring.append((2 * x, 2 * y))
    out = []
    for i, (x, y) in enumerate(ring):
        out.append((x, y))
        if rng.random() < 0.4:
            nx, ny = ring[(i + 1) % k]
            out.append(((x + nx) // 2, (y + ny) // 2))
    return out


# Faults with a known message on a fixed ring, each placed on a random
# oblique plane by the test below.
_SQUARE8 = [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)]
_FAULT_RINGS = {
    "collinear": [(0, 0), (1, 0), (3, 0), (2, 0)],
    "zero_area": [(0, 0), (2, 2), (2, 0), (0, 2)],
    "spike": [(0, 0), (4, 0), (2, 0), (2, 2)],
    "self_touching": [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],
    "crossing": [(0, 0), (4, 0), (4, 4), (2, -2), (0, 4)],
    "coincident_vertex": [(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)],
    "coincident_consecutive": [(0, 0), (4, 0), (4, 0), (0, 4)],
    "winding_twice": [(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)],
    "reflex": [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)],
}


def test_validate_polygon_matches_frame_reference_seeded():
    rng = random.Random(2024)
    valid = faulty = 0
    for trial in range(120):
        den = 3 if trial % 4 == 0 else 1  # Fraction coordinates
        pts = _oblique(_star_ring(rng, rng.randrange(3, 8)), rng, den)
        if len(pts) < 4:
            continue
        if trial % 3 == 0:  # one vertex lifted off the plane
            i = rng.randrange(len(pts))
            pts[i] = (pts[i][0], pts[i][1], pts[i][2] + 1)
        if _agree(pts):
            valid += 1
        else:
            faulty += 1
    for name, ring in _FAULT_RINGS.items():
        for den in (1, 5):
            pts = _oblique(ring, rng, den)
            assert _agree(pts) == (name == "reflex"), name
            if name != "reflex":
                faulty += 1
    assert valid >= 40 and faulty >= 40


# ---------------------------------------------------------------------------
# Validation in integers, once
# ---------------------------------------------------------------------------


def _prism(ring, levels=1):
    """Prism over a counter-clockwise lattice ring, side walls in bands."""
    k = len(ring)
    vertices = [(x, y, 2 * z) for z in range(levels + 1) for x, y in ring]
    facets = [tuple(reversed(range(k))),
              tuple(levels * k + i for i in range(k))]
    for lv in range(levels):
        for i in range(k):
            j = (i + 1) % k
            facets.append((lv * k + i, lv * k + j, (lv + 1) * k + j,
                           (lv + 1) * k + i))
    return polygonal_surface(vertices, facets)


def _subdivided_ring(subdiv):
    """Convex hexagon whose edges are cut into subdiv lattice segments."""
    dirs = [(1, 0), (1, 1), (0, 1)]
    ring, x, y = [], 0, 0
    for a, b in dirs + [(-a, -b) for a, b in dirs]:
        for _ in range(subdiv):
            ring.append((x, y))
            x, y = x + a, y + b
    return ring


def _split_top_cube():
    """Cube whose top is cut into an L hexagon and a square: convex, with a
    reflex polygon vertex and straight vertices on two side faces."""
    vertices = [
        (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0),
        (0, 0, 2), (2, 0, 2), (2, 2, 2), (0, 2, 2),
        (2, 1, 2), (1, 2, 2), (1, 1, 2),
    ]
    facets = [
        (0, 1, 2, 3), (4, 5, 8, 10, 9, 7), (10, 8, 6, 9), (0, 4, 5, 1),
        (1, 5, 8, 6, 2), (2, 6, 9, 7, 3), (3, 7, 4, 0),
    ]
    return polygonal_surface(vertices, facets)


def _divided(t, d):
    return dataclasses.replace(
        t, vertices=[tuple(Fraction(c) / d for c in v) for v in t.vertices]
    )


def test_rational_input_matches_integer_original():
    cyclic = _cyclic_polytope_4d(12)
    cases = [
        (_prism(_subdivided_ring(3), levels=3), 3),
        (_split_top_cube(), 3),
        (cyclic, 7),
        (dent(cyclic, 5, Fraction(3, 4)), 7),
    ]
    for t, d in cases:
        original, scaled = check_complex(t), check_complex(_divided(t, d))
        assert scaled.verdict == original.verdict
        for attr in ("ridge_normals", "facet_normals"):
            mine = getattr(scaled.standard, attr)
            assert mine == getattr(original.standard, attr)
            assert all(type(c) is int for w in mine.values() for c in w)
    assert [isinstance(check_complex(t).verdict, Convex) for t, _ in cases] \
        == [True, True, True, False]


def test_off_plane_message_prints_parsed_coordinates():
    third = Fraction(1, 3)
    t = polygonal_surface(
        [(0, 0, 0), (2 * third, 0, 0), (2 * third, 2 * third, third),
         (0, 2 * third, 0)],
        [(0, 1, 2, 3)],
    )
    message = f"polygon vertex {t.vertices[3]} off the facet plane"
    assert "Fraction(2, 3)" in message
    with pytest.raises(NotPlanar, match=re.escape(message)):
        validate_traditional(t)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_conversion_builds_no_plane_frame(monkeypatch):
    # Polygons are read against one plane normal with inline products; no
    # coordinate frame is built for any facet, polygon or triangle.
    calls = _count_calls(monkeypatch, PlaneFrame, "__post_init__")
    for t in (_prism(_subdivided_ring(2), levels=2), _split_top_cube(),
              cube_traditional(), subdivided_cube()):
        to_standard(t)
    assert calls == []


def test_convex_prism_skips_pairwise_segment_test(monkeypatch):
    calls = _count_calls(monkeypatch, plconvex.normals, "_segments_intersect")
    run = check_complex(_prism(_subdivided_ring(4), levels=2))
    assert run.verdict == Convex()
    assert calls == []


class _Counted(int):
    """An int coordinate that counts the products it takes part in.

    Sums, differences and products of counted values stay counted, so every
    multiplication computed from the coordinates adds one to products.
    """

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _Counted(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Counted(int(self) - int(other))

    def __rsub__(self, other):
        return _Counted(int(other) - int(self))

    def __neg__(self):
        return _Counted(-int(self))


# validate_polygon's products on a prism cap, the hexagon of
# _subdivided_ring with all but six vertices straight: 15 at every vertex
# (3 for the plane test and 9 for the turn in one pass over the edges, and
# 3 for the winding sweep, which skips one vertex) and 9 more at a
# straight vertex (3 for the straight-on test, 6 for its normal M x a);
# the search for e2 takes 6 per vertex on the first side, and the sweep's
# cross product and M = orientation * N take 9 per polygon.  The cap is
# certified convex, so its orientation is +1 and no area is summed.
# That is 25k - 48 on a k-gon: 21.0, 23.0, 24.0, 24.5 and 25.0 per cap
# vertex for k = 12, 24, 48, 96 and 2,004, approaching 25.  The bound is
# tight on purpose: one more cross product per vertex (N recomputed at
# each vertex, say) exceeds it at every k tested.
PRODUCTS_PER_CAP_VERTEX = 25
PRODUCTS_PER_POLYGON = 12


@pytest.mark.parametrize("cap", [12, 24, 48, 96, 2004])
def test_prism_orient_calls_linear_in_cap_size(monkeypatch, cap):
    # Orientations are inline products now; count those on the prism's cap.
    ring = _subdivided_ring(cap // 6)
    table = [tuple(_Counted(c) for c in (x, y, 0)) for x, y in ring]
    monkeypatch.setattr(_Counted, "products", 0)
    normals = validate_polygon(tuple(range(cap)), table.__getitem__)
    assert normals == validate_polygon(
        tuple(range(cap)), [(x, y, 0) for x, y in ring].__getitem__
    )
    assert _Counted.products <= (
        PRODUCTS_PER_CAP_VERTEX * cap + PRODUCTS_PER_POLYGON
    )


class _IndexCountingCycle(tuple):
    """A facet cycle that counts calls of its O(k) vertex search."""

    def index(self, *args):
        self.index_calls = getattr(self, "index_calls", 0) + 1
        return super().index(*args)


@pytest.mark.parametrize("cap", [12, 24, 48, 96, 2004])
def test_prism_conversion_searches_no_cycle(cap):
    # Validation builds each corner normal in its pass over the cycle, so
    # conversion never looks a vertex up in a cycle: one such search per
    # cap vertex would make a k-gon cost O(k^2).
    prism = _prism(_subdivided_ring(cap // 6))
    facets = [_IndexCountingCycle(f) for f in prism.facets]
    std = to_standard(dataclasses.replace(prism, facets=facets))
    assert len(std.facet_normals) == sum(map(len, facets))
    assert [getattr(f, "index_calls", 0) for f in facets] == [0] * len(facets)


def _conversion_counts(monkeypatch, t):
    """The standard complex of t, validated, and the calls conversion and
    validation make to each elimination: _link_residuals,
    quotient_residuals, pivot_columns and in_span3."""
    with monkeypatch.context() as m:
        calls = {
            name: _count_calls(m, owner, name)
            for owner, name in (
                (plconvex.normals, "_link_residuals"),
                (plconvex.normals, "quotient_residuals"),
                (plconvex.complexes, "pivot_columns"),
                (plconvex.complexes, "in_span3"),
            )
        }
        std = to_standard(t)
        validate_standard(std)
    return std, {name: len(c) for name, c in calls.items()}


def test_conversion_one_elimination_per_corner(monkeypatch):
    # Each corner's elimination proves that corner flat while it builds
    # the corner's normals, and each facet is proven flat from its first
    # corner's result, so conversion eliminates once per corner and runs
    # no echelon; the converted normals then give each corner's axes
    # without one.
    cyclic = _cyclic_polytope_4d(12)
    cases = [(cyclic, True), (dent(cyclic, 5, Fraction(3, 4)), False)]
    cases += [(_cross_polytope(n), True) for n in range(4, 8)]
    for t, convex in cases:
        std, counts = _conversion_counts(monkeypatch, t)
        assert counts == {
            "_link_residuals": std.num_corners,
            "quotient_residuals": std.num_corners,
            "pivot_columns": 0,
            "in_span3": 0,
        }
        assert std.num_corners == len(t.corners)
        assert isinstance(check_convexity(std), Convex) is convex


@pytest.mark.parametrize("n, sizes", [(4, range(8, 25)), (5, range(8, 13))],
                         ids=["n4", "n5"])
def test_conversion_counts_over_growth(monkeypatch, n, sizes):
    # The paper's cost is linear in the corner incidences.  On C(N, n) as
    # N grows, conversion makes one quotient_residuals call per corner,
    # and neither it nor validate_standard runs an echelon or a span
    # check.
    for m in sizes:
        t = _cyclic_polytope(m, n)
        std, counts = _conversion_counts(monkeypatch, t)
        assert counts["quotient_residuals"] == std.num_corners, m
        assert counts["pivot_columns"] == counts["in_span3"] == 0, m
        assert isinstance(check_convexity(std), Convex), m


@pytest.mark.parametrize("n", [7, 8])
def test_to_standard_corners_with_more_than_three_directions(n):
    # A corner has n - 3 directions, so the elimination must not cap the
    # corner basis at rank 3: the residual is zero on all n - 3 pivot
    # columns.  A sheared simplex keeps the directions off the axes.
    t = simplex_boundary(n)
    t.vertices = [tuple(sum(v[:i + 1]) for i in range(n)) for v in t.vertices]
    assert check_complex(t).verdict == Convex()
    coords = _coords(dict(enumerate(t.vertices)))
    corner, ridge = tuple(range(n - 2)), tuple(range(n - 1))
    w = _link_residuals(corner, [ridge], coords)[n - 2]
    basis = [vsub(t.vertices[v], t.vertices[0]) for v in corner[1:]]
    pivots = pivot_columns(basis, n - 3)[1]
    assert len(pivots) == n - 3 and all(w[c] == 0 for c in pivots)
    x = vsub(t.vertices[n - 2], t.vertices[0])
    assert _positive_multiple(_reference_component(w, basis),
                              _reference_component(x, basis))
    if n == 7:
        hull = gen_convex_surface(seed=0, n=7, num_points=9, coord_bound=20)
        dented = dent(hull, 0, Fraction(1, 2))
        assert check_complex(hull).verdict == Convex()
        assert isinstance(check_complex(dented).verdict, NotConvex)
        assert is_hull_boundary(hull) and not is_hull_boundary(dented)


# ---------------------------------------------------------------------------
# to_standard
# ---------------------------------------------------------------------------


def test_to_standard_cube_is_convex(cube):
    assert isinstance(check_convexity(to_standard(cube)), Convex)


def test_to_standard_4simplex_is_convex():
    assert isinstance(check_convexity(to_standard(simplex_boundary(4))), Convex)


def test_to_standard_dented_octahedron():
    # Apex reflected through the centroid of the equator square: it lands on
    # the opposite apex, the upper facets fold onto the lower cone.
    t = octahedron_traditional()
    t.vertices[4] = (0, 0, -2)
    verdict = check_convexity(to_standard(t))
    assert isinstance(verdict, NotConvex)
    assert not is_hull_boundary(t)


def test_to_standard_preserves_cell_indexing(cube):
    std = to_standard(cube)
    assert std.num_corners == len(cube.corners)
    assert std.num_ridges == len(cube.ridges)
    assert std.num_facets == len(cube.facets)
    # Polygonal ridge normals are vertex differences.
    for (c, r), w in std.ridge_normals.items():
        v = cube.corners[c][0]
        a, b = cube.ridges[r]
        other = b if a == v else a
        assert w == vsub(cube.vertices[other], cube.vertices[v])


# An L hexagon in doubled coordinates with two edges split at their
# midpoints: a reflex vertex (2, 2) and straight vertices (2, 0), (0, 2).
_L_RING = [(0, 0), (2, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4), (0, 2)]


def _polygonal_builder_cases():
    from plconvex.bench import sphere_hull_surface

    files = [parse_off((DATA / name).read_text())
             for name in ("l_prism.off", "split_top_cube.off",
                          "double_octahedron.off")]
    integer = [
        *files,
        octahedron_traditional(),
        _split_top_cube(),
        _prism(_subdivided_ring(3), levels=2),  # straight cap vertices
        _prism(_L_RING, levels=2),  # reflex and straight, both orientations
        _prism(_L_RING[::-1], levels=2),
        sphere_hull_surface(200, seed=3),
    ]
    # Rational input: to_standard clears the denominator 3 and must build
    # the integer original's normals.
    return [(t, t) for t in integer] + [(_divided(_split_top_cube(), 3),
                                         _split_top_cube())]


def _simplicial_oracle_cases():
    cyclic = _cyclic_polytope_4d(12)
    yield cyclic
    yield dent(cyclic, 5, Fraction(3, 4))
    for n in range(4, 9):
        yield _cross_polytope(n)
        yield simplex_boundary(n)
    # The n = 6 hull of the golden reports.
    yield gen_convex_surface(seed=3, n=6, num_points=10, coord_bound=20)


def test_to_standard_normals_equal_public_builders():
    # to_standard skips the checks validation has already made.  Each
    # polygonal normal is exactly what the checked public rules give: a
    # vertex difference for each ridge, and validate_polygon's direction
    # at the corner's place in the cycle for each facet.  The facet case
    # also pins the pairing of validation's per-polygon lists, in cycle
    # order, with the corner-facet pairs.
    for t, original in _polygonal_builder_cases():
        std = to_standard(t)
        assert len(std.ridge_normals) == 2 * len(t.ridges)
        assert len(std.facet_normals) == sum(map(len, t.facets))
        for (c, r), w in std.ridge_normals.items():
            v = t.corners[c][0]
            (other,) = (u for u in t.ridges[r] if u != v)
            assert w == vsub(original.coords(other), original.coords(v))
        for (c, f), w in std.facet_normals.items():
            cycle = t.facets[f]
            directions = validate_polygon(cycle, original.coords)
            assert w == directions[cycle.index(t.corners[c][0])]


def test_to_standard_simplicial_normals_match_oracle_residuals():
    # The reference Fraction elimination is written apart from normals.py.
    # Against the orthogonal residuals r(v) of the corner's link vertices
    # over its direction basis, the orthogonal residual of each ridge
    # normal is a positive multiple of r(v) for the ridge's extra vertex
    # v, and that of each facet normal of r(v) + r(w) for the facet's
    # extra vertices v and w: each normal represents that multiple's class
    # modulo the corner's span.  Conversion has proven every corner
    # independent, so its vertex differences are the basis.  One reference
    # elimination per corner serves its link vertices and normals.
    for t in _simplicial_oracle_cases():
        std = to_standard(t)
        at = [[] for _ in t.corners]
        for cells, normals in ((t.ridges, std.ridge_normals),
                               (t.facets, std.facet_normals)):
            for (c, i), w in normals.items():
                at[c].append((w, set(cells[i]) - set(t.corners[c]), (c, i)))
        for c, normals in enumerate(at):
            base, *others = (t.vertices[u] for u in t.corners[c])
            basis = [vsub(u, base) for u in others]
            vs = sorted(set().union(*(extra for _, extra, _ in normals)))
            xs = [vsub(t.vertices[v], base) for v in vs]
            refs = _ortho_residuals(xs + [w for w, _, _ in normals], basis)
            residual = dict(zip(vs, refs))
            for (_, extra, key), got in zip(normals, refs[len(vs):]):
                want = tuple(map(sum, zip(*(residual[v] for v in extra))))
                assert _positive_multiple(got, want), key


def test_converted_normals_within_hadamard_bound():
    # Each entry of a ridge normal is, up to sign, an (n - 2)-minor of the
    # rows u - base, over the corner's other vertices and the ridge's extra
    # vertex, base the corner's first vertex; Hadamard's inequality bounds
    # its square by the product of those rows' squared lengths.  A facet
    # normal, the sum of two such residuals, has entries of at most the sum
    # of the two roots: e^2 - b1 - b2 <= 2 sqrt(b1 b2), checked squared.
    # Orthogonal residuals carry a det(G) factor and break this bound.
    cases = [_cyclic_polytope_4d(12),
             gen_convex_surface(seed=3, n=6, num_points=10, coord_bound=20)]
    for n in range(4, 9):
        cases += [_cross_polytope(n), simplex_boundary(n)]
    for t in cases:
        std = to_standard(t)

        def bound(c, v):
            base, *others = (t.vertices[u] for u in t.corners[c])
            rows = [vsub(u, base) for u in (*others, t.vertices[v])]
            return math.prod(dot(r, r) for r in rows)

        for (c, r), w in std.ridge_normals.items():
            (v,) = set(t.ridges[r]) - set(t.corners[c])
            b = bound(c, v)
            assert all(e * e <= b for e in w), (t.n, c, r)
        for (c, f), w in std.facet_normals.items():
            v, x = set(t.facets[f]) - set(t.corners[c])
            b1, b2 = bound(c, v), bound(c, x)
            for e in w:
                excess = e * e - b1 - b2
                assert excess <= 0 or excess ** 2 <= 4 * b1 * b2, (t.n, c, f)


@pytest.mark.parametrize("n, given", [
    (3, "simplicial"), (4, "polygonal"), (5, "polygonal"), (3, "bogus"),
])
def test_mode_follows_dimension(n, given):
    cells = dict(vertices=[], corners=[], ridges=[], facets=[])
    want = "polygonal" if n == 3 else "simplicial"
    assert TraditionalFormComplex(n, **cells).mode == want
    assert TraditionalFormComplex(n, **cells, mode=want).mode == want
    message = f"mode {given!r} does not fit n = {n}: want {want!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        TraditionalFormComplex(n, **cells, mode=given)


def test_to_standard_propagates_degenerate_cells():
    t = TraditionalFormComplex(
        n=3,
        vertices=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)],
        corners=[(0,), (1,), (2,), (3,)],
        ridges=[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)],
        facets=[(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
        mode="polygonal",
    )
    with pytest.raises(InvalidInputError):
        to_standard(t)


# ---------------------------------------------------------------------------
# Polygonal conversion: one message per fault
# ---------------------------------------------------------------------------


def _cube_with(vertices=(), **changes):
    """The cube of conftest with cells replaced and vertices 8, 9, ... added.

    Each change is a function of the cube's cell list of that name.
    """
    t = cube_traditional()
    cells = {name: fn(getattr(t, name)) for name, fn in changes.items()}
    return dataclasses.replace(t, vertices=[*t.vertices, *vertices], **cells)


def _first_replaced(cell):
    return lambda cells: [cell, *cells[1:]]


def _added(*extra):
    return lambda cells: [*cells, *extra]


def _removed(cell):
    return lambda cells: [c for c in cells if c != cell]


# The cube's vertices 0 = (0, 0, 0) and 1 = (2, 0, 0); its first ridge is
# (0, 1) and its first facet (0, 1, 2, 3).
_POLYGONAL_FAULTS = {
    "vertex_dimension": (
        _cube_with(vertices=[(0, 2)]), "vertex of dimension 2, want 3"),
    "unknown_vertex_id": (
        _cube_with(facets=_first_replaced((0, 1, 2, 9))), "unknown vertex id 9"),
    "corner_not_single": (
        _cube_with(corners=_first_replaced((0, 1))),
        "polygonal corners are single vertices"),
    "bad_edge_loop": (
        _cube_with(ridges=_first_replaced((0, 0))), "bad edge (0, 0)"),
    "bad_edge_triple": (
        _cube_with(ridges=_first_replaced((0, 1, 2))), "bad edge (0, 1, 2)"),
    "coincident_endpoints": (
        _cube_with(ridges=_added((0, 8)), vertices=[(0, 0, 0)]),
        "edge (0, 8) has coincident endpoints"),
    "short_cycle": (
        _cube_with(facets=_added((0, 1))), "facet cycle of length 2"),
    "repeated_vertex": (
        _cube_with(facets=_first_replaced((0, 1, 2, 1))),
        "facet cycle repeats a vertex: (0, 1, 2, 1)"),
    "repeated_vertex_triangle": (
        _cube_with(facets=_added((0, 1, 0))),
        "facet cycle repeats a vertex: (0, 1, 0)"),
    "coincident_triangle_vertices": (
        _cube_with(facets=_added((0, 8, 1)), vertices=[(0, 0, 0)]),
        "coincident consecutive polygon vertices"),
    "coincident_polygon_vertices": (
        _cube_with(facets=_first_replaced((0, 8, 1, 2, 3)),
                   vertices=[(0, 0, 0)]),
        "coincident consecutive polygon vertices"),
    "collinear_triangle": (
        _cube_with(facets=_added((0, 8, 1)), vertices=[(1, 0, 0)]),
        "polygon has collinear vertices only"),
    "collinear_quad": (
        _cube_with(facets=_added((0, 8, 1, 9)),
                   vertices=[(1, 0, 0), (3, 0, 0)]),
        "polygon has collinear vertices only"),
    "duplicate_corner": (
        _cube_with(corners=_added((3,))), "duplicate corner (3,)"),
    "duplicate_ridge": (
        _cube_with(ridges=_added((1, 0))), "duplicate ridge (1, 0)"),
    "edge_vertex_not_corner": (
        _cube_with(corners=_removed((7,))), "edge vertex 7 is not a corner"),
    "edge_not_listed": (
        _cube_with(ridges=_removed((0, 1))),
        "facet 0 uses edge (0,1) not in the ridge list"),
    # Validation runs before incidences: the degenerate triangle is
    # reported although the cube's first edge is missing from the list.
    "triangle_before_missing_edge": (
        _cube_with(ridges=_removed((0, 1)), facets=_added((0, 8, 1)),
                   vertices=[(1, 0, 0)]),
        "polygon has collinear vertices only"),
}


@pytest.mark.parametrize("name", _POLYGONAL_FAULTS)
def test_polygonal_conversion_messages(name):
    t, reason = _POLYGONAL_FAULTS[name]
    verdict = check_complex(t).verdict
    assert isinstance(verdict, InvalidInput)
    assert verdict.reason == reason


def test_edge_listing_a_vertex_twice_is_a_bad_edge():
    # Three entries with two distinct ids are still not an edge.
    t = _cube_with(ridges=_first_replaced((0, 1, 0)))
    verdict = check_complex(t).verdict
    assert isinstance(verdict, InvalidInput)
    assert verdict.reason == "bad edge (0, 1, 0)"
