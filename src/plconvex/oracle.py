"""Exact convex-hull ground truth and instance generators.

Everything here is desk-scale and written apart from the checker's
predicates, so that checker-oracle agreement in the tests is evidence, not
tautology.  The one checker function used is normals.validate_traditional,
which gates is_hull_boundary's input; the oracle ranks each facet itself.

All exact algebra is one local fraction-free Gauss-Jordan elimination on
integer rows (_bareiss): its pivot columns give ranks and a one-to-one
chart of an affine hull, its last pivot gives a determinant, and its
reduced rows give the normal of the hyperplane through n points, so each
costs a polynomial in n.

There is one support enumeration, gift wrapping: from a first facet, each
ridge is pivoted across once to the facet beyond it, so the cost grows
with the number of facets times the number of points.  It records the
points on each supporting hyperplane (SupportSet.points_on), and
everything else reads them from it.  The ridges of a facet with more than
n points, and the proper faces of a hull facet, are the supports of its
points in their own chart, found by the same enumeration one dimension
down; each hull facet is measured in one chart, which serves both sides of
its volume equality.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import (
    DegenerateCell,
    GenerationFailed,
    NotFullDimensional,
    NotSimplicial,
)
from .normals import TraditionalFormComplex, validate_traditional

Scalar = int | Fraction
Point = tuple[Scalar, ...]

@dataclass(frozen=True)
class SupportSet:
    """The facet hyperplanes of conv(points), sorted: dot(normal, x) >=
    offset holds weakly for every input point, each hyperplane contains at
    least n affinely independent input points, and (normal, offset) are
    coprime integers.  points_on[i] is the set of indices of the input
    points on hyperplanes[i]."""

    hyperplanes: tuple[tuple[Point, Scalar], ...]
    points_on: tuple[frozenset[int], ...]

    def __len__(self):
        return len(self.hyperplanes)


# ---------------------------------------------------------------------------
# Local exact arithmetic (kept separate from the checker's kernel on purpose)
# ---------------------------------------------------------------------------


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dotp(u, v):
    return sum(map(mul, u, v))


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss, 1968).

    Returns the reduced rows, the pivot columns and the last pivot.  Each
    step multiplies every other row by the new pivot and divides by the last
    one; every entry stays a minor of the input, so the floor division is
    exact.  The first rank rows carry the last pivot in their own pivot
    column and zero in the others, and the last pivot is, up to sign, the
    minor on the pivot rows and columns: the determinant of a square matrix
    of full rank.
    """
    rows = [list(r) for r in rows]
    pivots = []
    last = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        a = top[col]
        for i, row in enumerate(rows):
            if i != r:
                b = row[col]
                rows[i] = [(a * x - b * y) // last for x, y in zip(row, top)]
        pivots.append(col)
        last = a
    return rows, pivots, last


# ---------------------------------------------------------------------------
# Hull supports: gift wrapping
# ---------------------------------------------------------------------------


def hull_supports(points) -> SupportSet:
    """The supporting hyperplanes of conv(points) that hold a facet.

    Gift wrapping (Chand and Kapur, 1970; Swart, 1985): one elimination
    per ridge and a few products per ridge and point, each polynomial in
    n.  Raises NotFullDimensional
    when the points do not span R^n.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    n = len(pts[0])
    if len(pts) < n + 1:
        raise NotFullDimensional(f"need at least {n + 1} points")
    # The elimination divides exactly on integers only: scale by the common
    # denominator here and divide each offset by it on the way out.
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    pts = [tuple(int(c * scale) for c in p) for p in pts]
    if _rank(pts) != n:
        raise NotFullDimensional("points do not span the ambient space")
    pairs = sorted(
        (_canonical_plane(normal, offset, scale), on)
        for on, (normal, offset) in _supports(pts, n).items()
    )
    return SupportSet(
        hyperplanes=tuple(h for h, _ in pairs),
        points_on=tuple(on for _, on in pairs),
    )


def _rank(points):
    """Dimension of the points' affine hull."""
    return len(_bareiss([_sub(p, points[0]) for p in points[1:]])[1])


def _normal_through(subset_pts, n):
    """Null vector of the points' differences, read off the reduced rows:
    a normal of their hyperplane, or zero when they span less.
    """
    base = subset_pts[0]
    rows, pivots, last = _bareiss([_sub(p, base) for p in subset_pts[1:]])
    if len(pivots) != n - 1:
        return (0,) * n
    (free,) = set(range(n)) - set(pivots)
    normal = [0] * n
    normal[free] = last
    for row, col in zip(rows, pivots):
        normal[col] = -row[free]
    return tuple(normal)


def _plane_through(points, w):
    """The hyperplane the points span, as a primitive integer normal and its
    offset, oriented so that w is on its positive side."""
    normal = _normal_through(points, len(w))
    g = math.gcd(*normal)
    if _dotp(normal, w) < _dotp(normal, points[0]):
        g = -g
    normal = tuple(c // g for c in normal)
    return normal, _dotp(normal, points[0])


def _canonical_plane(normal, offset, scale=1):
    """The plane dot(normal, x) = offset of points scaled by scale, as
    coprime integers in the unscaled coordinates."""
    g = math.gcd(scale * math.gcd(*normal), offset)
    return tuple(scale * c // g for c in normal), offset // g


def _supports(pts, n):
    """{indices of the points on a supporting hyperplane: (normal, offset),
    the inner side dot(normal, x) >= offset} for integer points spanning
    R^n.  From a first facet, each ridge is pivoted across once; the points
    on a support span it, so they name it."""
    if n == 1:
        lo, hi = min(pts)[0], max(pts)[0]
        return {
            frozenset(i for i, p in enumerate(pts) if p[0] == c): ((s,), s * c)
            for s, c in ((1, lo), (-1, hi))
        }
    on, plane = _first_facet(pts, n)
    planes = {on: plane}
    todo, done = [on], set()
    while todo:
        on = todo.pop()
        inner = _inner(planes[on], pts, on)
        for ridge in _ridges(on, pts, n):
            if ridge in done:
                continue
            done.add(ridge)
            w = pts[min(on - ridge)]
            ridge_pts = [pts[i] for i in ridge]
            plane, new = _pivot(ridge_pts, w, planes[on], inner, pts)
            facet = ridge.union(new)
            if facet not in planes:
                planes[facet] = plane
                todo.append(facet)
    return planes


def _first_facet(pts, n):
    """The support x_0 >= min x_0, turned until its points span a facet.

    Each turn is about a pseudo-ridge: the flat of the support's points,
    padded to n - 2 dimensions by in-plane vectors h_p e_j - h_j e_p, with
    the next independent one as w.  Each turn adds at least one dimension.
    """
    low = min(p[0] for p in pts)
    plane = ((1,) + (0,) * (n - 1), low)
    on = frozenset(i for i, p in enumerate(pts) if p[0] == low)
    while (rank := _rank(flat := [pts[i] for i in on])) < n - 1:
        normal = plane[0]
        p = next(j for j, c in enumerate(normal) if c)
        for j in range(n):
            w = list(flat[0])
            w[j] += normal[p]
            w[p] -= normal[j]
            w = tuple(w)
            if _rank([*flat, w]) > rank:
                if rank == n - 2:
                    break
                flat.append(w)
                rank += 1
        plane, new = _pivot(flat, w, plane, _inner(plane, pts, on), pts)
        on = on.union(new)
    return on, plane


def _ridges(on, pts, n):
    """Point sets of a facet's ridges: its (n-1)-subsets when it holds n
    points, else the supports of its points in their own chart."""
    if len(on) == n:
        return [on - {i} for i in on]
    return _proper_faces(_span_chart(sorted(on), pts), n - 1)


def _pivot(ridge, w, plane, inner, pts):
    """Turn a support about a ridge on it (points spanning an (n-2)-flat),
    away from w (a point on it off the ridge), to the support beyond: its
    plane and the inner points on it.

    inner pairs the index of each point strictly inside the old plane f
    with its height f(q) > 0.  The planes through the ridge form a pencil:
    with g one of them, oriented so that g(w) > 0, the one through q is
    f(q) g - g(q) f, and w is on its positive side.  A point p is on that plane's negative
    side exactly when g(p) / f(p) < g(q) / f(q), so the turn stops at the
    least ratio: one elimination per ridge, then a few products per point.
    """
    g = _plane_through([*ridge, pts[inner[0][0]]], w)
    (least, height), on = (0, inner[0][1]), []
    for i, f in inner:
        gq = _dotp(g[0], pts[i]) - g[1]
        c = gq * height - least * f
        if c < 0:
            (least, height), on = (gq, f), [i]
        elif c == 0:
            on.append(i)
    normal = [height * a - least * b for a, b in zip(g[0], plane[0])]
    d = math.gcd(*normal)
    normal = tuple(c // d for c in normal)
    return (normal, _dotp(normal, ridge[0])), on


def _inner(plane, pts, on):
    """(index, height) of each point off the support, strictly inside it."""
    normal, offset = plane
    return [
        (i, _dotp(normal, p) - offset) for i, p in enumerate(pts) if i not in on
    ]


# ---------------------------------------------------------------------------
# Surface-is-hull-boundary decision
# ---------------------------------------------------------------------------


def _simplex_volume(ids, chart):
    base = chart[ids[0]]
    rows = [_sub(chart[i], base) for i in ids[1:]]
    _, pivots, last = _bareiss(rows)
    return abs(last) if len(pivots) == len(rows) else 0


def _lex_min(ids, coords):
    return min(ids, key=lambda i: coords[i])


def _span_chart(ids, coords):
    """Each id's offset from the first, kept on the pivot columns of those
    offsets: a one-to-one chart of aff(ids), in which it is full-dimensional.
    """
    base = coords[ids[0]]
    diffs = [_sub(coords[i], base) for i in ids]
    pivots = _bareiss(diffs)[1]
    return {i: tuple(d[c] for c in pivots) for i, d in zip(ids, diffs)}


def _proper_faces(chart, dim):
    """Proper (dim-1)-faces of the hull of a full-dimensional chart: the
    point sets of the supports of its points."""
    if dim == 0:
        return set()  # coincident points
    ids = list(chart)
    on_sets = _supports([chart[i] for i in ids], dim)
    return {frozenset(ids[j] for j in on) for on in on_sets}


def _triangulate_face(ids, coords, apex_rule):
    """Cone triangulation of conv(ids) into simplices of its own dimension.

    apex_rule "index" fans from the lowest id (valid when every id is a
    vertex, as in generated hull facets); "lex" fans from the coordinatewise
    smallest point, which is always a vertex.
    """
    ids = sorted(ids)
    chart = _span_chart(ids, coords)
    dim = len(chart[ids[0]])
    if len(ids) == dim + 1:
        return [tuple(ids)]
    apex = ids[0] if apex_rule == "index" else _lex_min(ids, coords)
    simplices = []
    for face in _proper_faces(chart, dim):
        if apex in face:
            continue
        for sub in _triangulate_face(face, coords, apex_rule):
            simplices.append((apex, *sub))
    return simplices


def is_hull_boundary(t: TraditionalFormComplex) -> bool:
    """Does this simplicial surface embed onto the boundary of its vertex hull?

    True iff every vertex lies on the hull boundary, every facet lies inside
    a supporting hyperplane, and the facets assigned to each supporting
    hyperplane cover its hull facet exactly (certified by exact volume sums,
    which also rules out folds and double covers).  A facet whose vertices
    are affinely dependent raises DegenerateCell, as the checker does.
    """
    if not t.is_simplicial:
        raise NotSimplicial("hull-boundary oracle needs simplicial input")
    validate_traditional(t)
    # Scaled to integers: a uniform positive scaling keeps the hull, each
    # support's point set, every rank and both sides of every volume
    # equality, and gives the elimination the integers it divides exactly.
    scale = math.lcm(*(c.denominator for v in t.vertices for c in v))
    pts = [tuple(int(c * scale) for c in v) for v in t.vertices]
    for f in t.facets:
        if _rank([pts[v] for v in f]) < len(f) - 1:
            raise DegenerateCell(f"cell {tuple(f)} is not cellwise-flat")
    on_sets = hull_supports(pts).points_on
    if len(frozenset().union(*on_sets)) != len(pts):
        return False  # some vertex is strictly inside the hull

    facet_sets = [frozenset(f) for f in t.facets]
    assignment = {}
    for fi, fset in enumerate(facet_sets):
        home = next(
            (si for si, s in enumerate(on_sets) if fset <= s), None
        )
        if home is None:
            return False  # facet not inside any supporting hyperplane
        assignment.setdefault(home, []).append(fi)

    # One chart per hull facet measures both sides: the charts of a
    # hyperplane are one-to-one linear images of each other, so an equality
    # of volumes holds in one exactly when it holds in any other.
    for si, on in enumerate(on_sets):
        chart = _span_chart(sorted(on), pts)
        hull_vol = sum(
            _simplex_volume(simplex, chart)
            for simplex in _triangulate_face(on, pts, "lex")
        )
        facet_vol = sum(
            _simplex_volume(t.facets[fi], chart)
            for fi in assignment.get(si, [])
        )
        if facet_vol != hull_vol:
            return False
    return True


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _extreme_points(pts, supports):
    n = len(pts[0])
    normals = [h[0] for h in supports.hyperplanes]
    extreme = []
    for i in range(len(pts)):
        mine = [
            normals[si] for si, s in enumerate(supports.points_on) if i in s
        ]
        if len(mine) >= n and len(_bareiss(mine)[1]) == n:
            extreme.append(i)
    return extreme


def _assemble_complex(
    n, coords, facet_simplices
) -> TraditionalFormComplex | None:
    """The complex of the facet simplices, or None unless every ridge lies
    on exactly two facets (a degenerate triangulation)."""
    used = sorted({v for f in facet_simplices for v in f})
    remap = {old: new for new, old in enumerate(used)}
    vertices = [coords[old] for old in used]
    facets = sorted(tuple(sorted(remap[v] for v in f)) for f in facet_simplices)
    ridges = Counter(sub for f in facets for sub in combinations(f, n - 1))
    if any(c != 2 for c in ridges.values()):
        return None
    corners = {sub for f in facets for sub in combinations(f, n - 2)}
    return TraditionalFormComplex(
        n=n,
        vertices=vertices,
        corners=sorted(corners),
        ridges=sorted(ridges),
        facets=facets,
    )


def gen_convex_surface(
    seed: int, n: int, num_points: int, coord_bound: int
) -> TraditionalFormComplex:
    """Deterministic simplicial hull boundary from seeded integer samples.

    Samples integer points in a box, keeps the extreme ones, and fan
    triangulates every supporting facet from its lowest-index vertex
    (recursively, so shared faces triangulate consistently).  The PRNG is
    Python's random.Random (Mersenne Twister) used through randrange only.
    """
    if n < 3:
        raise GenerationFailed("dimension must be >= 3")
    rng = random.Random(seed)
    for _attempt in range(64):
        raw = [
            tuple(rng.randrange(-coord_bound, coord_bound + 1) for _ in range(n))
            for _ in range(num_points)
        ]
        pts = list(dict.fromkeys(raw))
        try:
            supports = hull_supports(pts)
        except NotFullDimensional:
            continue
        extreme = set(_extreme_points(pts, supports))
        facet_simplices = []
        for s in supports.points_on:
            facet_simplices.extend(
                _triangulate_face(sorted(s & extreme), pts, "index")
            )
        complex = _assemble_complex(n, pts, facet_simplices)
        if complex is not None:
            return complex  # else a degenerate triangulation; resample
    raise GenerationFailed(
        f"no full-dimensional sample after retries "
        f"(seed={seed}, n={n}, points={num_points}, bound={coord_bound})"
    )


def dent(
    t: TraditionalFormComplex, vertex: int, factor
) -> TraditionalFormComplex:
    """Move one vertex toward the centroid of the others; keep combinatorics.

    The target is the centroid of the remaining vertices, which lies strictly
    inside their hull, so factors approaching 1 always bury the vertex and
    break convexity at some incident corner.  factor 0 keeps the surface.
    """
    f = Fraction(factor)
    k = len(t.vertices)
    n = t.n
    v = t.vertices[vertex]
    centroid = tuple(
        Fraction(sum(w[i] for w in t.vertices) - v[i], k - 1) for i in range(n)
    )
    moved = tuple(c + f * (g - c) for c, g in zip(v, centroid))
    vertices = list(t.vertices)
    vertices[vertex] = moved
    return TraditionalFormComplex(
        n=t.n,
        vertices=vertices,
        corners=list(t.corners),
        ridges=list(t.ridges),
        facets=list(t.facets),
    )
