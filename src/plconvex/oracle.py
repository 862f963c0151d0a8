"""Brute-force convex-hull ground truth and instance generators.

Everything here is desk-scale and written apart from the checker's
predicates, so that checker-oracle agreement in the tests is evidence, not
tautology.  The one checker function used is normals.validate_traditional,
which gates is_hull_boundary's input; the oracle ranks each facet itself.

All exact algebra is one local fraction-free Gauss-Jordan elimination on
integer rows (_bareiss): its pivot columns give ranks and a one-to-one
chart of an affine hull, its last pivot gives a determinant, and its
reduced rows give the normal of the hyperplane through n points.  Each
n-subset therefore costs a polynomial in n; the oracle is exponential only
in the number of points.

There is one side test: the support enumeration records the points on
each supporting hyperplane (SupportSet.points_on), and everything else
reads them from it.  The proper faces of a hull facet are the supports of
its points in their own chart, and each hull facet is measured in one
chart, which serves both sides of its volume equality.

The only optimization is a vectorized int64 fast path for hyperplane
enumeration, guarded by proven magnitude bounds so it stays exact.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DegenerateCell,
    GenerationFailed,
    NotFullDimensional,
    NotSimplicial,
)
from .normals import TraditionalFormComplex, validate_traditional

Scalar = int | Fraction
Point = tuple[Scalar, ...]

# Largest |coordinate| per dimension for which every int64 intermediate in
# the vectorized path provably fits: side values are bounded by
# 2 * n * (n-1)! * (2B)^(n-1) * B < 2^63.
_INT64_COORD_LIMIT = {3: 500_000, 4: 12_000, 5: 4_500}


@dataclass(frozen=True)
class SupportSet:
    """Supporting hyperplanes of conv(points): dot(normal, x) >= offset holds
    weakly for every input point, and each hyperplane contains at least n
    affinely independent input points.  points_on[i] is the set of indices
    of the input points on hyperplanes[i]."""

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
    return sum(a * b for a, b in zip(u, v))


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
# Hull supports
# ---------------------------------------------------------------------------


def brute_hull_supports(points) -> SupportSet:
    """All supporting hyperplanes spanned by n-subsets of the input.

    Exponential in the number of points by design (every n-subset is
    tried), polynomial in n per subset; intended for at most a few dozen
    points.  Raises NotFullDimensional when the points do not span R^n.
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
    diffs = [_sub(p, pts[0]) for p in pts[1:]]
    if len(_bareiss(diffs)[1]) != n:
        raise NotFullDimensional("points do not span the ambient space")

    limit = _INT64_COORD_LIMIT.get(n)
    if limit and max(abs(c) for p in pts for c in p) <= limit:
        planes = _supports_int64(pts, n)
    else:
        planes = _supports_exact(pts, n)
    pairs = sorted(
        (_canonical_plane(normal, Fraction(offset, scale)), on)
        for on, (normal, offset) in planes.items()
    )
    return SupportSet(
        hyperplanes=tuple(h for h, _ in pairs),
        points_on=tuple(on for _, on in pairs),
    )


def _normal_through(subset_pts, n):
    """Null vector of the points' differences, read off the reduced rows:
    a normal of their hyperplane, or zero when they are affinely dependent.
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


def _canonical_plane(normal, offset):
    """The plane as coprime integers: denominators cleared, gcd divided out."""
    values = [Fraction(c) for c in (*normal, offset)]
    scale = math.lcm(*(f.denominator for f in values))
    ints = [int(f * scale) for f in values]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def _supports_exact(pts, n):
    """{indices of the points on a supporting hyperplane: its canonical
    inner plane}.  The points on a support span it, so they determine it."""
    planes = {}
    for subset in combinations(range(len(pts)), n):
        normal = _normal_through([pts[i] for i in subset], n)
        if not any(normal):
            continue
        offset = _dotp(normal, pts[subset[0]])
        on, lo, hi = [], False, False
        for i, q in enumerate(pts):
            s = _dotp(normal, q) - offset
            if s == 0:
                on.append(i)
            elif s > 0:
                hi = True
            else:
                lo = True
            if lo and hi:
                break
        else:
            on = frozenset(on)
            if on not in planes:
                if lo:  # flip to the inner orientation: all sides >= 0
                    normal = tuple(-c for c in normal)
                    offset = -offset
                planes[on] = _canonical_plane(normal, offset)
    return planes


def _np_det(a):
    d = a.shape[-1]
    if d == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = None
    for j in range(d):
        cols = [c for c in range(d) if c != j]
        term = ((-1) ** j) * a[..., 0, j] * _np_det(a[..., 1:, cols])
        out = term if out is None else out + term
    return out


def _supports_int64(pts, n):
    import numpy as np

    arr = np.array(pts, dtype=np.int64)
    k = len(pts)
    combos = np.array(list(combinations(range(k), n)), dtype=np.intp)
    base = arr[combos[:, 0]]
    diffs = arr[combos[:, 1:]] - base[:, None, :]
    normals = np.empty((len(combos), n), dtype=np.int64)
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        normals[:, j] = ((-1) ** j) * _np_det(diffs[:, :, cols])
    nz = np.any(normals != 0, axis=1)
    normals, base = normals[nz], base[nz]
    offsets = np.einsum("sj,sj->s", normals, base)
    sides = normals @ arr.T - offsets[:, None]
    mins = sides.min(axis=1)
    maxs = sides.max(axis=1)
    keep = (mins >= 0) | (maxs <= 0)
    normals, offsets, sides = normals[keep], offsets[keep], sides[keep]
    flip = maxs[keep] <= 0
    normals[flip] *= -1
    offsets[flip] *= -1
    g = np.gcd.reduce(
        np.concatenate([np.abs(normals), np.abs(offsets)[:, None]], axis=1),
        axis=1,
    )
    normals //= g[:, None]
    offsets //= g
    return {
        frozenset(np.flatnonzero(row == 0).tolist()):
            (tuple(nrm.tolist()), int(off))
        for row, nrm, off in zip(sides, normals, offsets)
    }


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
    on_sets = _supports_exact([chart[i] for i in ids], dim)
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
        base = pts[f[0]]
        if len(_bareiss([_sub(pts[v], base) for v in f[1:]])[1]) < len(f) - 1:
            raise DegenerateCell(f"cell {tuple(f)} is not cellwise-flat")
    on_sets = brute_hull_supports(pts).points_on
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
            supports = brute_hull_supports(pts)
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
