"""Traditional-form complexes and exact Euclidean inner-normal construction.

Traditional input is a face poset equipped with vertex coordinates.  Two
modes are supported: simplicial complexes in any ambient dimension n >= 3
(normals via exact orthogonal projection against the corner's direction
space), and arbitrary polygonal facets in R^3, where corner-ridge normals
are vertex differences and corner-facet normals are in-plane interior
directions that work for non-convex polygons too.  Each polygon is read
against one plane normal N, the cross product of two of its vertex
differences: in-plane orientations are sign(N.(a x b)), fixed-size
products written out inline, so no coordinate frame is built.

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
from operator import add, mul, sub

from .complexes import StandardFormComplex
from .errors import (
    DegenerateCell,
    DegenerateVertex,
    InvalidInputError,
    NotPlanar,
)
from .exact import (
    Scalar,
    Vector,
    as_exact,
    exact_quotient,
    pivot_columns,
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
# Exact projection helpers
# ---------------------------------------------------------------------------


def _adjugate_solve(
    g: list[list[Scalar]], columns: list[list[Scalar]]
) -> tuple[Scalar, list[list[Scalar]]]:
    """(det G, [adj(G) r for r in columns]) for a positive definite G.

    Gauss-Jordan form of Bareiss elimination (Bareiss 1968), fraction-free:
    every entry after step p is a minor of [G | columns], so each division by
    the previous pivot is exact, and the pivots are the leading principal
    minors of G.  Those are positive for a Gram matrix of independent
    vectors, so no row exchange is needed.  At the end the left block is
    det(G) times the identity and each right column r has become
    det(G) G^-1 r = adj(G) r.  Columns do not mix, so one pass solves them all.
    """
    k = len(g)
    a = [[*row, *(col[i] for col in columns)] for i, row in enumerate(g)]
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
    return prev, [[row[k + c] for row in a] for c in range(len(columns))]


def orthogonal_components(xs, basis: list[Vector]) -> list[Vector]:
    """det(G) times each x minus its exact orthogonal projection on span(basis).

    G is the Gram matrix of the (independent) basis, so det(G) > 0 and each
    result lies on the ray of the true residual.  Integer input gives integer
    results; the factor is the same for every x, and one elimination of G
    serves them all.  Each coordinate c of a residual is
    det(G) x_c - sum(coeff * b_c), one comprehension over the basis's
    columns.  The products pair entries without a length check: every x
    and basis vector is a difference of two vertices, and
    validate_traditional checks that every vertex has n coordinates.

    The basis is never empty: _link_residuals passes the differences of a
    simplicial corner's vertices, and validate_traditional has checked
    that such a corner has n - 2 distinct vertices, at least 2 since
    simplicial mode is n >= 4 (an R^3 complex is polygonal).
    """
    gram = [[sum(map(mul, a, b)) for b in basis] for a in basis]
    rhs = [[sum(map(mul, a, x)) for a in basis] for x in xs]
    det, coeffs = _adjugate_solve(gram, rhs)
    columns = list(zip(*basis))
    return [
        tuple(det * xc - sum(map(mul, cs, bc)) for xc, bc in zip(x, columns))
        for x, cs in zip(xs, coeffs)
    ]


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
    exact O(k) sufficient test: every nonzero turn has one sign, every zero
    turn goes straight on (dot > 0), and the edge directions wind exactly
    once.  The winding is measured from the edge after the first strict
    turn.  From there the direction angle only grows, by less than pi per
    vertex, so it reaches 2*pi exactly when the sweep, having entered the
    far half-plane of that edge, comes back to its side; directions that
    wind once close the polygon before that.  False means "don't know".
    """
    k = len(edges)
    # Some turn is strict: validate_polygon has rejected zero area, and
    # with every turn zero all edges would lie on one line.
    start = next(i for i, t in enumerate(turns) if t)
    sense = turns[start]
    for t, (ax, ay, az), (bx, by, bz) in zip(turns, edges[-1:] + edges, edges):
        if t == -sense or (t == 0 and ax * bx + ay * by + az * bz <= 0):
            return False
    # N.(r x e) = (N x r).e: one cross product serves the whole sweep.
    n0, n1, n2 = normal
    rx, ry, rz = edges[start]
    cx, cy, cz = n1 * rz - n2 * ry, n2 * rx - n0 * rz, n0 * ry - n1 * rx
    far = False
    for i in range(start + 1, start + k):
        ex, ey, ez = edges[i % k]
        side = sense * (cx * ex + cy * ey + cz * ez)
        if side < 0:
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
    vertices are collinear).  One pass over the d checks N.d = 0 (in the
    plane) and sums N.(d_prev x d), twice the area times |N|^2 in the
    sense of (e1, e2); its sign is the polygon's orientation.  The turns
    sign(N.(e_(i-1) x e_i)) of the edge vectors e_i = p_(i+1) - p_i feed
    the O(k) convex certificate and the corner rule; a polygon the
    certificate cannot vouch for goes through _check_simple's pairwise
    spike and segment tests, which read the same edges and turns.  A
    turning vertex gets e_i - e_(i-1), negated at a reflex one; a straight
    vertex gets orientation * (N x e_(i-1)), in the plane and perpendicular
    to its edges.

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
    bx, by, bz = pts[0]
    ds = [(x - bx, y - by, z - bz) for x, y, z in pts]
    # Consecutive vertices differ, so e1 is d_1.
    ux, uy, uz = ds[1]
    for vx, vy, vz in ds[2:]:
        n0, n1, n2 = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if n0 or n1 or n2:
            break
    else:
        raise NotPlanar("polygon has collinear vertices only")
    sx = sy = sz = 0
    px, py, pz = ds[-1]
    for v, (dx, dy, dz) in zip(cycle, ds):
        if n0 * dx + n1 * dy + n2 * dz:
            raise NotPlanar(
                f"polygon vertex {(parsed or coords)(v)} off the facet plane"
            )
        sx += py * dz - pz * dy
        sy += pz * dx - px * dz
        sz += px * dy - py * dx
        px, py, pz = dx, dy, dz
    area2 = n0 * sx + n1 * sy + n2 * sz
    if not area2:
        raise NotPlanar("polygon has zero area")
    orientation = 1 if area2 > 0 else -1
    edges = [
        (qx - px, qy - py, qz - pz)
        for (px, py, pz), (qx, qy, qz) in zip(pts, pts[1:] + pts[:1])
    ]
    turns = []
    for (ax, ay, az), (bx, by, bz) in zip(edges[-1:] + edges, edges):
        t = (n0 * (ay * bz - az * by) + n1 * (az * bx - ax * bz)
             + n2 * (ax * by - ay * bx))
        turns.append((t > 0) - (t < 0))
    normal = (n0, n1, n2)
    if not _convex_certificate(edges, turns, normal):
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

    Simplicial mode checks the size of every cell first, then the
    flatness of each facet with one echelon.  The faces of an affinely
    independent facet are independent too, so this covers every ridge and
    corner on a facet.  The rest is shown later: each corner's Gram
    elimination in _link_residuals fails exactly when the corner is
    dependent, and validate_standard rejects a ridge on no facet.
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
    for facet in t.facets:
        base = coords(facet[0])
        vectors = [vsub(coords(v), base) for v in facet[1:]]
        if len(pivot_columns(vectors, n - 1)[1]) != n - 1:
            raise DegenerateCell(f"cell {tuple(facet)} is not cellwise-flat")
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


def _link_residuals(corner, cells, coords) -> dict[int, Vector]:
    """Residual of each vertex of cells outside the corner, by vertex id.

    One direction basis and one Gram elimination per corner serve every
    ridge and facet residual there.  That elimination is also the corner's
    flatness check: its pivots are the leading principal minors of the
    Gram matrix, all positive exactly when the corner's directions are
    independent, so a dependent corner raises here as not cellwise-flat.
    The directions are vertex differences of equal length n, as
    validate_traditional has checked for every vertex.
    """
    base = coords(corner[0])
    basis = [tuple(map(sub, coords(v), base)) for v in corner[1:]]
    link = list(dict.fromkeys(
        v for cell in cells for v in cell if v not in corner
    ))
    xs = [tuple(map(sub, coords(v), base)) for v in link]
    try:
        residuals = orthogonal_components(xs, basis)
    except DegenerateCell:
        raise DegenerateCell(
            f"cell {tuple(corner)} is not cellwise-flat"
        ) from None
    return dict(zip(link, residuals))


def to_standard(t: TraditionalFormComplex) -> StandardFormComplex:
    """Populate all corner-ridge and corner-facet normals exactly.

    Normals are built from the vertices scaled to integers, so every normal
    of every traditional input is an integer vector.  Validation has
    checked every cell's size, every polygon and the flatness of every
    simplicial facet, and has built each polygon's corner normals.  Each
    simplicial corner's Gram elimination then proves that corner flat
    while it builds the corner's normals, and raises DegenerateCell for a
    dependent corner, which can only be one that lies on no facet.  So
    each fact is checked once.  A simplicial ridge's normal at a corner is
    the residual of its one extra vertex, which points from the corner
    into the ridge; a facet's is the sum of the residuals of its two extra
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
