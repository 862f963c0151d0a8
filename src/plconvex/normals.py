"""Traditional-form complexes and exact inner-normal construction.

Traditional input is a face poset equipped with vertex coordinates.  Two
modes are supported: simplicial complexes in any ambient dimension n >= 4
(each normal is an integer representative of a class in the quotient by
the corner's direction space), and arbitrary polygonal facets in R^3,
where corner-ridge normals are vertex differences and corner-facet
normals are in-plane interior directions that work for non-convex
polygons too.  Each polygon is read against one plane normal N, the cross
product of two of its vertex differences: in-plane orientations are
sign(N.(a x b)), fixed-size products written out inline, so no coordinate
frame is built.

Normals are never normalized to unit length: the checker only consumes
signs, and unit vectors would leave the rational field.  Any positive
scaling is free for the same reason, and the construction uses it to stay
in integers: to_standard clears the coordinate denominators once, each
simplicial corner's quotient residuals come from one fraction-free
elimination whose entries are minors of coordinate differences, and
straight polygon vertices multiply instead of dividing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import add, sub

from .complexes import StandardFormComplex
from .errors import (
    DegenerateCell,
    DegenerateVertex,
    InvalidInputError,
    NotPlanar,
)
from .exact import (
    Vector,
    as_exact,
    quotient_residuals,
)

POLYGONAL = "polygonal"
SIMPLICIAL = "simplicial"


@dataclass
class TraditionalFormComplex:
    """Face poset P[0, n-3, n-2, n-1] with exact vertex coordinates.

    Cells are given by vertex-id tuples; polygonal facets list their boundary
    cycle in order.  Incidences are derived: by vertex containment for
    simplicial cells, and by consecutive boundary pairs for polygon edges.

    The mode follows from n: POLYGONAL at n = 3, where facets may be any
    simple planar polygons (triangles included) and corners are single
    vertices, and SIMPLICIAL at n >= 4.  mode need not be given; a given
    mode that differs from the one n implies is an InvalidInputError.
    """

    n: int
    vertices: list[Vector]
    corners: list[tuple[int, ...]]
    ridges: list[tuple[int, ...]]
    facets: list[tuple[int, ...]]
    mode: str | None = None

    def __post_init__(self):
        mode = POLYGONAL if self.n == 3 else SIMPLICIAL
        if self.mode not in (None, mode):
            raise InvalidInputError(
                f"mode {self.mode!r} does not fit n = {self.n}: want {mode!r}"
            )
        self.mode = mode
        self.vertices = [tuple(as_exact(c) for c in v) for v in self.vertices]

    @property
    def is_simplicial(self) -> bool:
        return self.n > 3 or all(len(f) == 3 for f in self.facets)

    def coords(self, vid: int) -> Vector:
        return self.vertices[vid]


# ---------------------------------------------------------------------------
# Polygon facets in R^3
# ---------------------------------------------------------------------------


def _turn(normal, a, b, c) -> int:
    """sign(N.((b - a) x (c - a))), the turn a -> b -> c in the plane of N."""
    n0, n1, n2 = normal
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    d = (n0 * (uy * vz - uz * vy) + n1 * (uz * vx - ux * vz)
         + n2 * (ux * vy - uy * vx))
    return (d > 0) - (d < 0)


def _convex_certificate(edges, turns, normal) -> bool:
    """True only if the closed in-plane polygon is simple (it is convex).

    edges are its edge vectors e_i = p_(i+1) - p_i in cycle order, turns
    the signs sign(N.(e_(i-1) x e_i)) and normal the plane normal N.  An
    exact O(k) sufficient test: no turn is negative, every zero turn goes
    straight on (dot > 0), and the edge directions wind exactly once.  The
    winding is measured from the edge after the first strict turn.  From
    there the direction angle only grows, by less than pi per vertex, so it
    reaches 2*pi exactly when the sweep, having entered the far half-plane
    of that edge, comes back to its side; directions that wind once close
    the polygon before that.  False means "don't know".

    Asking for positive turns loses no polygon that turns one way, for
    validate_polygon's N = d_1 x d_j, where d = p - p_0 and d_j is the
    first one off the line of d_1.  If every zero turn goes straight on,
    p_0 .. p_(j-1) run along d_1, so e_(j-2) = mu d_1 with mu > 0, and the
    turn at p_(j-1) is sign(N.(mu d_1 x (d_j - d_(j-1)))) = sign(mu |N|^2),
    as d_(j-1) is a multiple of d_1: positive.  A certified polygon is
    convex with p_0, p_1 and p_j in cycle order, so its orientation is that
    of the triangle they span, sign(N.(d_1 x d_j)) = +1.
    """
    k = len(edges)
    # Some turn is strict: validate_polygon has found two independent
    # vertex differences, and with every turn zero all edges, and so all
    # vertices, would lie on one line.
    start = next(i for i, t in enumerate(turns) if t)
    for t, (ax, ay, az), (bx, by, bz) in zip(turns, edges[-1:] + edges, edges):
        if t < 0 or (t == 0 and ax * bx + ay * by + az * bz <= 0):
            return False
    # N.(r x e) = (N x r).e: one cross product serves the whole sweep.
    n0, n1, n2 = normal
    rx, ry, rz = edges[start]
    cx, cy, cz = n1 * rz - n2 * ry, n2 * rx - n0 * rz, n0 * ry - n1 * rx
    far = False
    for i in range(start + 1, start + k):
        ex, ey, ez = edges[i % k]
        if cx * ex + cy * ey + cz * ez < 0:
            far = True
        elif far:
            return False
    return True


def _segments_intersect(normal, p1, p2, q1, q2) -> bool:
    """Exact any-contact test for segments in the plane of normal N."""
    d1 = _turn(normal, q1, q2, p1)
    d2 = _turn(normal, q1, q2, p2)
    d3 = _turn(normal, p1, p2, q1)
    d4 = _turn(normal, p1, p2, q2)
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


def validate_polygon(cycle, coords, parsed=None) -> list[Vector]:
    """Simple planar polygon with positive area and no spikes.

    Returns the inner direction of each corner, in cycle order.  A triangle
    needs only one cross product, and its normals come from the same two
    edge vectors.  parsed is the lookup whose coordinates the messages print
    (default coords), for callers that compute on a scaled table.

    Any other polygon is read against one plane normal N = e1 x e2, where,
    with d = p - p0 for the vertices p in cycle order, e1 is the first
    nonzero d and e2 the first later d with e1 x d nonzero (none: the
    vertices are collinear); the d are partial sums of the edge vectors
    e_i = p_(i+1) - p_i.  One pass over the edges takes the turns
    sign(N.(e_(i-1) x e_i)) and checks every edge in the plane: since
    N.d_j = N.e_0 + ... + N.e_(j-1), the first edge e_i off the plane ends
    at p_(i+1), the first vertex off it.  The turns feed the O(k) convex
    certificate and the corner rule.  A polygon the certificate proves
    convex turns positively about N, its orientation (see
    _convex_certificate).  Any other takes the sign of N.(sum of
    p_i x p_(i+1)), which equals N.(sum of d_i x d_(i+1)) since the cycle
    closes: twice the area times |N|^2 in the sense of (e1, e2), zero for
    a polygon of zero area.  It then goes through _check_simple's pairwise
    spike and segment tests, which read the same edges and turns.  So a
    vertex off the plane is named before zero area, and zero area before a
    spike or a crossing.  A turning vertex gets e_i - e_(i-1), negated at
    a reflex one; a straight vertex gets orientation * (N x e_(i-1)), in
    the plane and perpendicular to its edges.

    Every sign here is an orientation in the frame (e1, e2).  In-plane
    vectors a = alpha*e1 + beta*e2 and b = gamma*e1 + delta*e2 have
    a x b = (alpha*delta - beta*gamma) N, so sign(N.(a x b)) is the sign of
    their determinant in that frame, and the area sum is |N|^2 times the
    sum of those determinants.  Any other exact reading of the same frame,
    such as 2 x 2 minors on a coordinate pair where it is nonsingular
    (positive multiples of the same determinants after a fixed sign), gives
    the same turns and orientation; the corner normals and messages follow
    from those signs and N, so they are the same too, without even a global
    sign change.
    """
    k = len(cycle)
    if k < 3:
        raise InvalidInputError(f"facet cycle of length {k}")
    if len(set(cycle)) != k:
        raise InvalidInputError(f"facet cycle repeats a vertex: {cycle}")
    pts = [coords(v) for v in cycle]
    prev = pts[-1]
    for p in pts:
        if p == prev:
            raise InvalidInputError("coincident consecutive polygon vertices")
        prev = p
    if k == 3:
        (px, py, pz), (qx, qy, qz), (rx, ry, rz) = pts
        ux, uy, uz = qx - px, qy - py, qz - pz
        vx, vy, vz = rx - px, ry - py, rz - pz
        if uy * vz == uz * vy and uz * vx == ux * vz and ux * vy == uy * vx:
            raise NotPlanar("polygon has collinear vertices only")
        # Every triangle corner is convex, so prev + next - 2v points inside.
        return [
            (ux + vx, uy + vy, uz + vz),
            (vx - 2 * ux, vy - 2 * uy, vz - 2 * uz),
            (ux - 2 * vx, uy - 2 * vy, uz - 2 * vz),
        ]
    edges = [
        (qx - px, qy - py, qz - pz)
        for (px, py, pz), (qx, qy, qz) in zip(pts, pts[1:] + pts[:1])
    ]
    # d_j = p_j - p_0 = e_0 + ... + e_(j-1); consecutive vertices differ,
    # so e1 is d_1 = e_0.
    ux, uy, uz = vx, vy, vz = edges[0]
    for ex, ey, ez in edges[1:-1]:
        vx, vy, vz = vx + ex, vy + ey, vz + ez
        n0, n1, n2 = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if n0 or n1 or n2:
            break
    else:
        raise NotPlanar("polygon has collinear vertices only")
    # Edge e_i off the plane names p_(i+1).  The last edge,
    # e_(k-1) = -d_(k-1), is in the plane once every other one is, so p_0
    # is never named.
    turns = []
    ax, ay, az = edges[-1]
    for v, (bx, by, bz) in zip(cycle[1:] + cycle[:1], edges):
        if n0 * bx + n1 * by + n2 * bz:
            raise NotPlanar(
                f"polygon vertex {(parsed or coords)(v)} off the facet plane"
            )
        t = (n0 * (ay * bz - az * by) + n1 * (az * bx - ax * bz)
             + n2 * (ax * by - ay * bx))
        turns.append((t > 0) - (t < 0))
        ax, ay, az = bx, by, bz
    normal = (n0, n1, n2)
    if _convex_certificate(edges, turns, normal):
        orientation = 1
    else:
        sx = sy = sz = 0
        px, py, pz = pts[-1]
        for qx, qy, qz in pts:
            sx += py * qz - pz * qy
            sy += pz * qx - px * qz
            sz += px * qy - py * qx
            px, py, pz = qx, qy, qz
        area2 = n0 * sx + n1 * sy + n2 * sz
        if not area2:
            raise NotPlanar("polygon has zero area")
        orientation = 1 if area2 > 0 else -1
        _check_simple(cycle, pts, normal, edges, turns)
    # A straight vertex entered along a gets M x a, with M = orientation*N:
    # N x a lies in the plane and is perpendicular to a, and since N.a = 0,
    # N.(a x (N x a)) = |N|^2 |a|^2 > 0, so M x a turns from a with the
    # polygon's orientation, to the interior side.
    m0, m1, m2 = orientation * n0, orientation * n1, orientation * n2
    out = []
    for t, (ax, ay, az), (bx, by, bz) in zip(turns, edges[-1:] + edges, edges):
        # b - a, the sum of the edge vectors pointing away from the vertex:
        # inside at a convex vertex (turn with the orientation), outside at
        # a reflex one, where it is negated.
        if t == orientation:
            out.append((bx - ax, by - ay, bz - az))
        elif t:
            out.append((ax - bx, ay - by, az - bz))
        else:
            out.append(
                (m1 * az - m2 * ay, m2 * ax - m0 * az, m0 * ay - m1 * ax)
            )
    return out


def _check_simple(cycle, pts, normal, edges, turns) -> None:
    """Pairwise O(k^2) test: no spike vertex, no contact between edges.

    edges and turns are validate_polygon's: e_i = p_(i+1) - p_i, nonzero
    and in the plane of N, and sign(N.(e_(i-1) x e_i)).  Two such edges are
    collinear exactly when their turn is 0, so vertex i is a spike (its
    two edges leave it along one ray) exactly when turns[i] == 0 and
    e_(i-1).e_i < 0.  Vertex i's spike test runs before edge i's contact
    tests, so the first fault in cycle order is the one named.
    """
    k = len(cycle)
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        (ax, ay, az), (bx, by, bz) = edges[i - 1], edges[i]
        if not turns[i] and ax * bx + ay * by + az * bz < 0:
            raise DegenerateVertex(
                f"zero interior angle at vertex {cycle[i]}"
            )
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue  # adjacent edges share only their endpoint
            b1, b2 = pts[j], pts[(j + 1) % k]
            if _segments_intersect(normal, a1, a2, b1, b2):
                raise InvalidInputError(
                    f"facet polygon self-intersects between edges {i} and {j}"
                )


# ---------------------------------------------------------------------------
# Validation and conversion
# ---------------------------------------------------------------------------


def _index(cells, keys, kind) -> dict:
    """Position of each cell by its key; a key that repeats is an error."""
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        seen = set()
        for cell, key in zip(cells, keys):
            if key in seen:
                raise InvalidInputError(f"duplicate {kind} {cell}")
            seen.add(key)
    return index


def derive_incidences(t: TraditionalFormComplex):
    """Corner-ridge, corner-facet, and ridge-facet incidence pairs.

    Both modes need the cell shapes validate_traditional checks, which
    to_standard runs first.  Polygonal mode matches edges to consecutive
    boundary pairs by their ordered (min, max) vertex pair and corners by
    their one vertex.  It lists both corners of each edge in edge order,
    then each facet's edges and corners in cycle order.  Simplicial mode
    uses vertex-set containment over the n - 1 and n - 2 subsets of each
    facet and the n - 2 subsets of each ridge, whose distinct vertex ids
    validation has counted.
    """
    if t.mode == POLYGONAL:
        # Vertex ids are checked, so a list by vertex finds each corner.
        # The dict of _index would serve both modes, but made this function
        # 10-15% slower on a 100k-vertex sphere hull (2 cores, Python 3.11).
        corner_of = [None] * len(t.vertices)
        for ci, c in enumerate(t.corners):
            if corner_of[c[0]] is not None:
                raise InvalidInputError(f"duplicate corner {c}")
            corner_of[c[0]] = ci
        ridge_keys = [(a, b) if a < b else (b, a) for a, b in t.ridges]
    else:
        corner_of = _index(
            t.corners, [frozenset(c) for c in t.corners], "corner"
        )
        ridge_keys = [frozenset(r) for r in t.ridges]
    ridge_of = _index(t.ridges, ridge_keys, "ridge")

    cr, cf, rf = [], [], []
    if t.mode == POLYGONAL:
        for ri, r in enumerate(t.ridges):
            for v in r:
                ci = corner_of[v]
                if ci is None:
                    raise InvalidInputError(f"edge vertex {v} is not a corner")
                cr.append((ci, ri))
        for fi, cycle in enumerate(t.facets):
            for a, b in zip(cycle, (*cycle[1:], cycle[0])):
                ri = ridge_of.get((a, b) if a < b else (b, a))
                if ri is None:
                    raise InvalidInputError(
                        f"facet {fi} uses edge ({a},{b}) not in the ridge list"
                    )
                rf.append((ri, fi))
            # Each vertex ends an edge just found, so it is a corner.
            cf.extend((corner_of[v], fi) for v in cycle)
    else:
        n = t.n
        for fi, fverts in enumerate(t.facets):
            fverts = sorted(fverts)
            for sub in combinations(fverts, n - 1):
                ri = ridge_of.get(frozenset(sub))
                if ri is None:
                    raise InvalidInputError(
                        f"facet {fi} boundary ridge {sub} missing from input"
                    )
                rf.append((ri, fi))
            for sub in combinations(fverts, n - 2):
                ci = corner_of.get(frozenset(sub))
                if ci is None:
                    raise InvalidInputError(
                        f"facet {fi} boundary corner {sub} missing from input"
                    )
                cf.append((ci, fi))
        for ri, rverts in enumerate(t.ridges):
            for sub in combinations(sorted(rverts), n - 2):
                ci = corner_of.get(frozenset(sub))
                if ci is None:
                    raise InvalidInputError(
                        f"ridge {ri} boundary corner {sub} missing from input"
                    )
                cr.append((ci, ri))
    return cr, cf, rf


def validate_traditional(t: TraditionalFormComplex):
    """Mode rules: cell sizes, cellwise-flatness, polygon validity.

    Every geometric predicate runs on the vertex table scaled to integers
    (_integer_coords): a uniform positive scaling keeps coplanarity,
    orientation, segment contact and rank, and messages still print the
    parsed coordinates.  Returns (table, corner_normals, edges) for
    to_standard: the integer coordinate table, validate_polygon's inner
    direction at each polygon corner (facet by facet, each in cycle order),
    and per polygonal edge (a, b) the vector b - a; corner_normals and
    edges are empty in simplicial mode.

    Simplicial mode checks the size of every cell.  Flatness is left to
    to_standard, whose per-corner eliminations prove each facet and each
    corner flat, and validate_standard rejects a ridge on no facet.
    """
    for v in t.vertices:
        if len(v) != t.n:
            raise InvalidInputError(f"vertex of dimension {len(v)}, want {t.n}")
    all_ids = range(len(t.vertices))
    for cells in (t.corners, t.ridges, t.facets):
        for cell in cells:
            for v in cell:
                if v not in all_ids:
                    raise InvalidInputError(f"unknown vertex id {v}")
    table = _integer_coords(t)
    coords = table.__getitem__
    if t.mode == POLYGONAL:
        for c in t.corners:
            if len(c) != 1:
                raise InvalidInputError("polygonal corners are single vertices")
        edges = []
        for r in t.ridges:
            if len(r) != 2 or r[0] == r[1]:
                raise InvalidInputError(f"bad edge {r}")
            (ax, ay, az), (bx, by, bz) = table[r[0]], table[r[1]]
            d = (bx - ax, by - ay, bz - az)
            if not (d[0] or d[1] or d[2]):
                raise DegenerateCell(f"edge {r} has coincident endpoints")
            edges.append(d)
        corner_normals = []
        for cycle in t.facets:
            corner_normals += validate_polygon(cycle, coords, t.coords)
        return table, corner_normals, edges
    n = t.n
    sizes = ((t.corners, n - 2), (t.ridges, n - 1), (t.facets, n))
    for cells, want in sizes:
        for cell in cells:
            if len(set(cell)) != want:
                raise InvalidInputError(
                    f"simplicial cell {cell} needs {want} distinct vertices"
                )
    return table, [], []


def _integer_coords(t: TraditionalFormComplex) -> list[Vector]:
    """The vertices scaled by their common denominator.

    A uniform positive scaling keeps every ray, so normals built from the
    scaled table are positive multiples of the true ones; integer
    coordinates keep the whole construction in int arithmetic.  t.vertices
    itself is left as it is.
    """
    scale = math.lcm(*(c.denominator for v in t.vertices for c in v))
    if scale == 1:  # as_exact has already made every coordinate an int
        return t.vertices
    return [
        tuple(c.numerator * (scale // c.denominator) for c in v)
        for v in t.vertices
    ]


def _link_residuals(corner, cells, coords) -> dict[int, Vector] | None:
    """Residual of each vertex of cells outside the corner, by vertex id.

    A vertex's residual represents its class modulo the corner's direction
    space, the quotient the local test reads: quotient_residuals gives
    d (v - base) minus a combination of the directions, zero on the pivot
    columns, with one positive factor |d| for the whole corner.  So one
    elimination per corner serves every ridge and facet residual there.
    It is also the corner's flatness check: it finds a pivot at every step
    exactly when the corner's directions are independent, and returns None
    for a dependent corner.  The directions are integer vertex differences
    of equal length n, as validate_traditional has checked for every
    vertex of the scaled table.
    """
    base = coords(corner[0])
    basis = [tuple(map(sub, coords(v), base)) for v in corner[1:]]
    link = list(dict.fromkeys(
        v for cell in cells for v in cell if v not in corner
    ))
    xs = [tuple(map(sub, coords(v), base)) for v in link]
    residuals = quotient_residuals(basis, xs)
    return None if residuals is None else dict(zip(link, residuals))


def _flat_from(residuals, facet) -> bool:
    """Is the facet flat, given _link_residuals at one of its corners?

    The facet's directions are independent exactly when its corner's are
    and the classes of its two other vertices modulo the corner's
    direction space are.  Residuals vanish on the pivot columns, whose
    complement maps one-to-one onto that quotient, so two classes are
    independent exactly when their residuals are: when b is no multiple
    of a.  A zero residual is a multiple of anything.
    """
    if residuals is None:
        return False
    a, b = (residuals[v] for v in facet if v in residuals)
    i = next((i for i, x in enumerate(a) if x), None)
    if i is None:
        return False
    ai, bi = a[i], b[i]
    return any(ai * y != bi * x for x, y in zip(a, b))


def to_standard(t: TraditionalFormComplex) -> StandardFormComplex:
    """Populate all corner-ridge and corner-facet normals exactly.

    Normals are built from the vertices scaled to integers, so every normal
    of every traditional input is an integer vector.  Validation has
    checked every cell's size and every polygon, and has built each
    polygon's corner normals.  Each simplicial corner's one elimination
    builds the corner's normals and proves the corner flat or dependent,
    and every flatness fact is read from it: each facet, in facet order,
    is flat by _flat_from at its first corner, or DegenerateCell names it.
    A corner on a flat facet is flat, so a dependent corner lies on no
    facet; it is named once every facet has passed.

    The normals at a simplicial corner are read in the quotient by its
    direction space, where each residual stands for its vertex's class
    times the corner's one positive factor.  A ridge's normal is the
    residual of its one extra vertex, which points from the corner into
    the ridge; a facet's is the sum of the residuals of its two extra
    vertices, a strictly positive combination of the wedge's extreme
    directions and hence interior.  Cell indices carry over unchanged, so
    witnesses agree between a traditional check and a converted
    standard-form check.
    """
    table, corner_normals, edges = validate_traditional(t)
    cr, cf, rf = derive_incidences(t)
    ridge_normals = {}
    facet_normals = {}
    if t.mode == POLYGONAL:
        # Edge (a, b) gives b - a at a and a - b at b, in cr's order; cf
        # lists each facet's corners in cycle order, as validation does.
        pairs = iter(cr)
        for d, at_a, at_b in zip(edges, pairs, pairs):
            ridge_normals[at_a] = d
            ridge_normals[at_b] = (-d[0], -d[1], -d[2])
        facet_normals.update(zip(cf, corner_normals))
    else:
        coords = table.__getitem__
        cells_at = [[] for _ in t.corners]
        for ci, ri in cr:
            cells_at[ci].append(t.ridges[ri])
        for ci, fi in cf:
            cells_at[ci].append(t.facets[fi])
        residuals = [
            _link_residuals(c, cells, coords)
            for c, cells in zip(t.corners, cells_at)
        ]
        # derive_incidences lists each facet's C(n, 2) corners in turn, its
        # first corner first.
        per_facet = t.n * (t.n - 1) // 2
        for facet, (ci, _) in zip(t.facets, cf[::per_facet]):
            if not _flat_from(residuals[ci], facet):
                raise DegenerateCell(
                    f"cell {tuple(facet)} is not cellwise-flat"
                )
        for c, res in zip(t.corners, residuals):
            if res is None:
                raise DegenerateCell(f"cell {tuple(c)} is not cellwise-flat")
        for ci, ri in cr:
            res = residuals[ci]
            ridge_normals[(ci, ri)] = next(
                res[v] for v in t.ridges[ri] if v in res
            )
        for ci, fi in cf:
            res = residuals[ci]
            facet_normals[(ci, fi)] = tuple(map(
                add, *(res[v] for v in t.facets[fi] if v in res)
            ))
    return StandardFormComplex(
        n=t.n,
        num_corners=len(t.corners),
        num_ridges=len(t.ridges),
        num_facets=len(t.facets),
        ridge_facet_pairs=rf,
        ridge_normals=ridge_normals,
        facet_normals=facet_normals,
    )
