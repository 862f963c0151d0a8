"""Traditional-form complexes and exact Euclidean inner-normal construction.

Traditional input is a face poset equipped with vertex coordinates.  Two
modes are supported: simplicial complexes in any ambient dimension n >= 3
(normals via exact orthogonal projection against the corner's direction
space), and arbitrary polygonal facets in R^3, where corner-ridge normals
are vertex differences and corner-facet normals are in-plane interior
directions that work for non-convex polygons too.

Normals are never normalized to unit length: the checker only consumes
signs, and unit vectors would leave the rational field.  Any positive
scaling is free for the same reason, and the construction uses it to stay
in integers: to_standard clears the coordinate denominators once, the Gram
projection is fraction-free, and straight polygon vertices multiply instead
of dividing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .complexes import StandardFormComplex
from .errors import (
    DegenerateCell,
    DegenerateVertex,
    InvalidInputError,
    NotPlanar,
)
from .exact import (
    PlaneFrame,
    Scalar,
    Vector,
    as_exact,
    collinearity_coefficient,
    dot,
    exact_quotient,
    is_zero,
    rank_le3,
    sign,
    vadd,
    vsub,
)

POLYGONAL = "polygonal"
SIMPLICIAL = "simplicial"


@dataclass
class TraditionalFormComplex:
    """Face poset P[0, n-3, n-2, n-1] with exact vertex coordinates.

    Cells are given by vertex-id tuples; polygonal facets list their boundary
    cycle in order.  Incidences are derived: by vertex containment for
    simplicial cells, and by consecutive boundary pairs for polygon edges.
    """

    n: int
    vertices: list[Vector]
    corners: list[tuple[int, ...]]
    ridges: list[tuple[int, ...]]
    facets: list[tuple[int, ...]]
    mode: str

    def __post_init__(self):
        if self.mode not in (POLYGONAL, SIMPLICIAL):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.mode == POLYGONAL and self.n != 3:
            raise InvalidInputError("polygonal mode is R^3 only")
        self.vertices = [tuple(as_exact(c) for c in v) for v in self.vertices]

    @property
    def is_simplicial(self) -> bool:
        if self.mode == SIMPLICIAL:
            return True
        return all(len(f) == 3 for f in self.facets)

    def coords(self, vid: int) -> Vector:
        return self.vertices[vid]


# ---------------------------------------------------------------------------
# Exact projection helpers
# ---------------------------------------------------------------------------


def _adjugate_solve(g: list[list[Scalar]],
                    rhs: list[Scalar]) -> tuple[Scalar, list[Scalar]]:
    """(det G, adj(G) rhs) for a positive definite G, fraction-free.

    Gauss-Jordan form of Bareiss elimination (Bareiss 1968): every entry
    after step p is a minor of [G | rhs], so each division by the previous
    pivot is exact, and the pivots are the leading principal minors of G.
    Those are positive for a Gram matrix of independent vectors, so no row
    exchange is needed.  At the end the left block is det(G) times the
    identity and the right column is det(G) G^-1 rhs = adj(G) rhs.
    """
    k = len(g)
    a = [[*row, r] for row, r in zip(g, rhs)]
    prev = 1
    for p in range(k):
        top = a[p]
        pv = top[p]
        if pv <= 0:
            raise DegenerateCell("singular Gram system")
        for i in range(k):
            if i == p:
                continue
            row = a[i]
            f = row[p]
            a[i] = [
                0 if j == p else exact_quotient(pv * x - f * y, prev)
                for j, (x, y) in enumerate(zip(row, top))
            ]
        prev = pv
    return prev, [row[k] for row in a]


def orthogonal_component(x: Vector, basis: list[Vector]) -> Vector:
    """det(G) times x minus its exact orthogonal projection onto span(basis).

    G is the Gram matrix of the (independent) basis, so det(G) > 0 and the
    result lies on the ray of the true residual.  Integer input gives an
    integer result; the factor is the same for every x against one basis.
    """
    if not basis:
        return x
    gram = [[dot(a, b) for b in basis] for a in basis]
    rhs = [dot(a, x) for a in basis]
    det, coeffs = _adjugate_solve(gram, rhs)
    out = tuple(det * c for c in x)
    for coeff, b in zip(coeffs, basis):
        out = vsub(out, tuple(coeff * c for c in b))
    return out


def _direction_basis(vertex_ids, coords) -> list[Vector]:
    base = coords(vertex_ids[0])
    vectors = [vsub(coords(v), base) for v in vertex_ids[1:]]
    rank, basis = rank_le3(vectors)  # corners have dim <= n-3 <= 2 here
    if rank != len(vectors):
        raise DegenerateCell(
            f"affinely dependent cell vertices {tuple(vertex_ids)}"
        )
    return list(basis)


def ridge_normal_simplicial(corner, ridge, coords) -> Vector:
    """Euclidean inner normal to the ridge at the corner (simplicial cells).

    The extra ridge vertex is projected orthogonally off the corner's
    direction space; the residual points from the corner into the ridge.
    """
    extra = [v for v in ridge if v not in corner]
    if len(extra) != 1 or not set(corner) <= set(ridge):
        raise DegenerateCell("ridge is not corner plus one vertex")
    basis = _direction_basis(corner, coords)
    w = orthogonal_component(vsub(coords(extra[0]), coords(corner[0])), basis)
    if is_zero(w):
        raise DegenerateCell(
            f"ridge vertex {extra[0]} lies in the corner's affine span"
        )
    return w


def facet_normal_simplicial(corner, facet, coords) -> Vector:
    """Euclidean inner normal to the facet at the corner (simplicial cells).

    Sum of the orthogonal components of the facet's two extra vertices: a
    strictly positive combination of the wedge's extreme directions, hence
    interior.
    """
    extra = [v for v in facet if v not in corner]
    if len(extra) != 2 or not set(corner) <= set(facet):
        raise DegenerateCell("facet is not corner plus two vertices")
    basis = _direction_basis(corner, coords)
    base = coords(corner[0])
    parts = []
    for v in extra:
        w = orthogonal_component(vsub(coords(v), base), basis)
        if is_zero(w):
            raise DegenerateCell(
                f"facet vertex {v} lies in the corner's affine span"
            )
        parts.append(w)
    out = vadd(parts[0], parts[1])
    if is_zero(out):
        raise DegenerateCell(
            f"facet {tuple(facet)} degenerates to a line at the corner"
        )
    return out


# ---------------------------------------------------------------------------
# Polygon facets in R^3
# ---------------------------------------------------------------------------


def polygon_frame(cycle, coords) -> tuple[PlaneFrame, int]:
    """Exact plane frame of a polygon plus its cyclic orientation sign.

    Raises NotPlanar if the vertices are not exactly coplanar or the polygon
    has no area.
    """
    pts = [coords(v) for v in cycle]
    base = pts[0]
    e1 = None
    e2 = None
    for p in pts[1:]:
        d = vsub(p, base)
        if is_zero(d):
            continue
        if e1 is None:
            e1 = d
        elif collinearity_coefficient(e1, d) is None:
            e2 = d
            break
    if e1 is None or e2 is None:
        raise NotPlanar("polygon has collinear vertices only")
    frame = PlaneFrame(e1, e2)
    area2 = 0
    prev = vsub(pts[-1], base)
    for p in pts:
        cur = vsub(p, base)
        if not frame.contains(cur):
            raise NotPlanar(f"polygon vertex {p} off the facet plane")
        area2 += frame.cross_value(prev, cur)
        prev = cur
    orientation = sign(area2)
    if orientation == 0:
        raise NotPlanar("polygon has zero area")
    return frame, orientation


def _segments_intersect(frame, p1, p2, q1, q2) -> bool:
    """Exact any-contact test for in-plane segments (shared plane frame)."""
    def orient(a, b, c):
        return frame.orient(vsub(b, a), vsub(c, a))

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a, b, c):
        # c collinear with (a, b): is it within the box?
        return all(
            min(x, y) <= z <= max(x, y)
            for x, y, z in zip(a, b, c, strict=True)
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def validate_polygon(cycle, coords) -> None:
    """Simple planar polygon with positive area and no spikes."""
    k = len(cycle)
    if k < 3:
        raise InvalidInputError(f"facet cycle of length {k}")
    if len(set(cycle)) != k:
        raise InvalidInputError(f"facet cycle repeats a vertex: {cycle}")
    pts = [coords(v) for v in cycle]
    for i in range(k):
        if is_zero(vsub(pts[(i + 1) % k], pts[i])):
            raise InvalidInputError("coincident consecutive polygon vertices")
    if k == 3:
        # Triangles only need nonzero area.
        polygon_frame(cycle, coords)
        return
    frame, _ = polygon_frame(cycle, coords)
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        lam = collinearity_coefficient(vsub(pts[(i - 1) % k], pts[i]),
                                       vsub(a2, pts[i]))
        if lam is not None and lam > 0:
            raise DegenerateVertex(
                f"zero interior angle at vertex {cycle[i]}"
            )
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue  # adjacent edges share only their endpoint
            b1, b2 = pts[j], pts[(j + 1) % k]
            if _segments_intersect(frame, a1, a2, b1, b2):
                raise InvalidInputError(
                    f"facet polygon self-intersects between edges {i} and {j}"
                )


def facet_inner_direction_polygon(vid: int, cycle, coords) -> Vector:
    """In-plane direction d with vid + eps*d interior to the polygon.

    Convex corner: sum of the edge vectors.  Reflex corner: its negation.
    Straight corner: in-plane perpendicular to the edge, on the interior
    side fixed by the polygon's orientation.  Avoids angle bisectors, which
    would need square roots.
    """
    return _inner_direction(vid, cycle, coords)


def _inner_direction(vid: int, cycle, coords, framed=None) -> Vector:
    """facet_inner_direction_polygon with the polygon_frame result given.

    framed is polygon_frame(cycle, coords), or None to compute it here when
    the polygon is not a triangle.
    """
    k = len(cycle)
    j = cycle.index(vid)
    v = coords(vid)
    a = vsub(coords(cycle[(j - 1) % k]), v)
    b = vsub(coords(cycle[(j + 1) % k]), v)
    if is_zero(a) or is_zero(b):
        raise DegenerateVertex(f"zero-length edge at vertex {vid}")
    if k == 3:
        # Triangle corners are always convex.
        d = vadd(a, b)
        if is_zero(d) or collinearity_coefficient(a, b) is not None:
            raise NotPlanar(f"degenerate triangle at vertex {vid}")
        return d
    frame, orientation = framed or polygon_frame(cycle, coords)
    chi = frame.orient(a, b)
    if chi != 0:
        d = vadd(a, b)
        return d if orientation * chi < 0 else tuple(-c for c in d)
    lam = collinearity_coefficient(a, b)
    if lam is None or lam > 0:
        raise DegenerateVertex(f"zero interior angle at vertex {vid}")
    # Straight vertex: perpendicular to the edge on the interior side,
    # scaled by |a|^2 so that no division is needed.
    x = frame.e1 if collinearity_coefficient(a, frame.e1) is None else frame.e2
    aa, xa = dot(a, a), dot(x, a)
    d = tuple(aa * xc - xa * ac for xc, ac in zip(x, a))
    travel = tuple(-c for c in a)
    if frame.orient(travel, d) != orientation:
        d = tuple(-c for c in d)
    return d


# ---------------------------------------------------------------------------
# Validation and conversion
# ---------------------------------------------------------------------------


def _cell_key(vertices) -> frozenset:
    return frozenset(vertices)


def derive_incidences(t: TraditionalFormComplex):
    """Corner-ridge, corner-facet, and ridge-facet incidence pairs.

    Polygonal mode matches edges to consecutive boundary pairs; simplicial
    mode uses vertex-set containment.
    """
    corner_of = {}
    for ci, c in enumerate(t.corners):
        key = _cell_key(c)
        if key in corner_of:
            raise InvalidInputError(f"duplicate corner {c}")
        corner_of[key] = ci
    ridge_of = {}
    for ri, r in enumerate(t.ridges):
        key = _cell_key(r)
        if key in ridge_of:
            raise InvalidInputError(f"duplicate ridge {r}")
        ridge_of[key] = ri

    cr, cf, rf = [], [], []
    if t.mode == POLYGONAL:
        for ri, r in enumerate(t.ridges):
            if len(set(r)) != 2:
                raise InvalidInputError(f"edge {r} needs two distinct vertices")
            for v in r:
                ci = corner_of.get(frozenset((v,)))
                if ci is None:
                    raise InvalidInputError(f"edge vertex {v} is not a corner")
                cr.append((ci, ri))
        for fi, cycle in enumerate(t.facets):
            k = len(cycle)
            for idx in range(k):
                a, b = cycle[idx], cycle[(idx + 1) % k]
                ri = ridge_of.get(frozenset((a, b)))
                if ri is None:
                    raise InvalidInputError(
                        f"facet {fi} uses edge ({a},{b}) not in the ridge list"
                    )
                rf.append((ri, fi))
            for v in cycle:
                ci = corner_of.get(frozenset((v,)))
                if ci is None:
                    raise InvalidInputError(f"facet vertex {v} is not a corner")
                cf.append((ci, fi))
    else:
        n = t.n
        for fi, fverts in enumerate(t.facets):
            fset = set(fverts)
            if len(fset) != n:
                raise InvalidInputError(f"facet {fi} needs {n} distinct vertices")
            for sub in combinations(sorted(fset), n - 1):
                ri = ridge_of.get(frozenset(sub))
                if ri is None:
                    raise InvalidInputError(
                        f"facet {fi} boundary ridge {sub} missing from input"
                    )
                rf.append((ri, fi))
            for sub in combinations(sorted(fset), n - 2):
                ci = corner_of.get(frozenset(sub))
                if ci is None:
                    raise InvalidInputError(
                        f"facet {fi} boundary corner {sub} missing from input"
                    )
                cf.append((ci, fi))
        for ri, rverts in enumerate(t.ridges):
            rset = set(rverts)
            if len(rset) != n - 1:
                raise InvalidInputError(
                    f"ridge {ri} needs {n - 1} distinct vertices"
                )
            for sub in combinations(sorted(rset), n - 2):
                ci = corner_of.get(frozenset(sub))
                if ci is None:
                    raise InvalidInputError(
                        f"ridge {ri} boundary corner {sub} missing from input"
                    )
                cr.append((ci, ri))
    return cr, cf, rf


def validate_traditional(t: TraditionalFormComplex) -> None:
    """Mode rules: cell sizes, cellwise-flatness, polygon validity."""
    for v in t.vertices:
        if len(v) != t.n:
            raise InvalidInputError(f"vertex of dimension {len(v)}, want {t.n}")
    all_ids = range(len(t.vertices))
    for cells in (t.corners, t.ridges, t.facets):
        for cell in cells:
            for v in cell:
                if v not in all_ids:
                    raise InvalidInputError(f"unknown vertex id {v}")
    if t.mode == POLYGONAL:
        for c in t.corners:
            if len(c) != 1:
                raise InvalidInputError("polygonal corners are single vertices")
        for r in t.ridges:
            if len(set(r)) != 2:
                raise InvalidInputError(f"bad edge {r}")
            if is_zero(vsub(t.coords(r[0]), t.coords(r[1]))):
                raise DegenerateCell(f"edge {r} has coincident endpoints")
        for cycle in t.facets:
            validate_polygon(cycle, t.coords)
    else:
        n = t.n
        sizes = ((t.corners, n - 2), (t.ridges, n - 1), (t.facets, n))
        for cells, want in sizes:
            for cell in cells:
                if len(set(cell)) != want:
                    raise InvalidInputError(
                        f"simplicial cell {cell} needs {want} distinct vertices"
                    )
                _check_affinely_independent(cell, t.coords)


def _check_affinely_independent(cell, coords) -> None:
    base = coords(cell[0])
    vectors = [vsub(coords(v), base) for v in cell[1:]]
    if _full_rank(vectors) != len(vectors):
        raise DegenerateCell(f"cell {tuple(cell)} is not cellwise-flat")


def _full_rank(vectors) -> int:
    # Fraction-free echelon; uncapped (cells can have up to n-1 directions).
    echelon: list[tuple[Vector, int]] = []
    for v in vectors:
        for row, pivot in echelon:
            if v[pivot] != 0:
                rp, vp = row[pivot], v[pivot]
                v = tuple(a * rp - b * vp for a, b in zip(v, row, strict=True))
        pivot = next((i for i, c in enumerate(v) if c != 0), None)
        if pivot is not None:
            echelon.append((v, pivot))
    return len(echelon)


def _integer_coords(t: TraditionalFormComplex):
    """Coordinate lookup over the vertices scaled by their common denominator.

    A uniform positive scaling keeps every ray, so normals built from the
    scaled table are positive multiples of the true ones; integer
    coordinates keep the whole construction in int arithmetic.  t.vertices
    itself is left as it is.
    """
    scale = math.lcm(*(c.denominator for v in t.vertices for c in v))
    table = [
        tuple(c.numerator * (scale // c.denominator) for c in v)
        for v in t.vertices
    ]
    return table.__getitem__


def to_standard(t: TraditionalFormComplex) -> StandardFormComplex:
    """Populate all corner-ridge and corner-facet normals exactly.

    Normals are built from the vertices scaled to integers, so every normal
    of every traditional input is an integer vector.  Cell indices carry
    over unchanged, so witnesses agree between a traditional check and a
    converted standard-form check.
    """
    validate_traditional(t)
    cr, cf, rf = derive_incidences(t)
    coords = _integer_coords(t)
    ridge_normals = {}
    facet_normals = {}
    try:
        if t.mode == POLYGONAL:
            for ci, ri in cr:
                v = t.corners[ci][0]
                a, b = t.ridges[ri]
                other = b if a == v else a
                ridge_normals[(ci, ri)] = vsub(coords(other), coords(v))
            frames = [
                polygon_frame(cycle, coords) if len(cycle) > 3 else None
                for cycle in t.facets
            ]
            for ci, fi in cf:
                v = t.corners[ci][0]
                facet_normals[(ci, fi)] = _inner_direction(
                    v, t.facets[fi], coords, frames[fi]
                )
        else:
            for ci, ri in cr:
                ridge_normals[(ci, ri)] = ridge_normal_simplicial(
                    t.corners[ci], t.ridges[ri], coords
                )
            for ci, fi in cf:
                facet_normals[(ci, fi)] = facet_normal_simplicial(
                    t.corners[ci], t.facets[fi], coords
                )
    except (DegenerateCell, DegenerateVertex, NotPlanar) as exc:
        raise InvalidInputError(f"normal construction failed: {exc}") from exc
    return StandardFormComplex(
        n=t.n,
        num_corners=len(t.corners),
        num_ridges=len(t.ridges),
        num_facets=len(t.facets),
        corner_ridge_pairs=cr,
        corner_facet_pairs=cf,
        ridge_facet_pairs=rf,
        ridge_normals=ridge_normals,
        facet_normals=facet_normals,
    )
