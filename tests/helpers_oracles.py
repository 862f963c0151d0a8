"""Independent exact oracles used only by the tests.

Angular-interval oracle for planar stars: decide whether the facet angles
tile the circle of directions exactly once by counting coverage of every
elementary arc between consecutive distinct ray directions.  A planar star
with one half-plane facet out of the plane is decided by folding that facet
into the plane on either side of its ridge line.

Spherical oracle for 3D cones: a wheel realization lies on a convex cone
boundary iff some orientation puts every rim point weakly on one side of
every consecutive-pair plane; the rim is simple iff its minor arcs meet
only at shared endpoints.

Orthogonal residuals: the reference that converted simplicial normals are
checked against.

Support point sets: the points on each supporting hyperplane, by direct
evaluation; the reference for SupportSet.points_on.

None of this shares code with the library's predicates.
"""

from fractions import Fraction
from functools import cmp_to_key


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def same_dir2(a, b):
    return cross2(a, b) == 0 and dot2(a, b) > 0


def _half(v):
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _circ_cmp(a, b):
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha - hb
    c = cross2(a, b)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _angle_contains(u, marker, w, x):
    """Open angle <u|marker|w>: does it contain direction x strictly?"""
    s = cross2(u, w)
    if s == 0:
        sm = cross2(u, marker)
        return cross2(u, x) * sm > 0
    def in_minor(y):
        return cross2(u, y) * s > 0 and cross2(y, w) * s > 0
    if in_minor(marker):
        return in_minor(x)
    return not (in_minor(x) or same_dir2(x, u) or same_dir2(x, w))


def planar_star_tiles(rays, markers):
    """True iff the angles (rays[i] -> rays[i+1], through markers[i]) tile
    the circle exactly once.  rays and markers are exact 2D vectors."""
    m = len(rays)
    for i in range(m):
        if same_dir2(rays[i], rays[(i + 1) % m]):
            return False
    distinct = []
    for r in rays:
        if not any(same_dir2(r, d) for d in distinct):
            distinct.append(r)
    distinct.sort(key=cmp_to_key(_circ_cmp))
    mids = []
    k = len(distinct)
    if k == 1:
        return False
    for i in range(k):
        a, b = distinct[i], distinct[(i + 1) % k]
        c = cross2(a, b)
        if c > 0:
            mids.append((a[0] + b[0], a[1] + b[1]))
        elif c < 0:
            mids.append((-(a[0] + b[0]), -(a[1] + b[1])))
        else:
            mids.append((-a[1], a[0]))
    for mid in mids:
        count = sum(
            1
            for i in range(m)
            if _angle_contains(rays[i], markers[i], rays[(i + 1) % m], mid)
        )
        if count != 1:
            return False
    return True


def half_plane_star_tiles(rays, markers, j):
    """Planar star whose facet j is a half-plane out of the plane, at the
    antiparallel pair (rays[j], rays[j+1]): the in-plane facets must tile
    one side of that ridge line, so the star passes iff marker j replaced by
    either in-plane perpendicular of the line tiles the circle."""
    x, y = rays[j]
    return any(
        planar_star_tiles(rays, markers[:j] + [side] + markers[j + 1:])
        for side in ((-y, x), (y, -x))
    )


# ---------------------------------------------------------------------------
# 3D cone oracle
# ---------------------------------------------------------------------------


def det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _cone_coeffs(x, a, b):
    """Solve x = alpha*a + beta*b exactly, or None if x leaves span{a,b}."""
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    for i, j in pairs:
        d = a[i] * b[j] - a[j] * b[i]
        if d == 0:
            continue
        alpha = Fraction(x[i] * b[j] - x[j] * b[i], d)
        beta = Fraction(a[i] * x[j] - a[j] * x[i], d)
        for k in range(3):
            if alpha * a[k] + beta * b[k] != x[k]:
                return None
        return alpha, beta
    return None


def _in_minor_arc(x, a, b):
    co = _cone_coeffs(x, a, b)
    return co is not None and co[0] >= 0 and co[1] >= 0


def _arcs_conflict(a, b, c, d, shared):
    """Do minor arcs (a,b) and (c,d) meet outside an allowed shared endpoint?"""
    n1 = cross3(a, b)
    n2 = cross3(c, d)
    u = cross3(n1, n2)
    if u != (0, 0, 0):
        for cand in (u, tuple(-t for t in u)):
            if _in_minor_arc(cand, a, b) and _in_minor_arc(cand, c, d):
                if shared is not None and same_dir3(cand, shared):
                    continue
                return True
        return False
    # Same great circle: overlap iff either arc's endpoint sits strictly in
    # the other, or they are the same arc.
    for x, y, z in ((a, c, d), (b, c, d), (c, a, b), (d, a, b)):
        co = _cone_coeffs(x, y, z)
        if co is not None and co[0] > 0 and co[1] > 0:
            return True
    if (same_dir3(a, c) and same_dir3(b, d)) or (
        same_dir3(a, d) and same_dir3(b, c)
    ):
        return True
    return False


def same_dir3(a, b):
    return cross3(a, b) == (0, 0, 0) and sum(x * y for x, y in zip(a, b)) > 0


def cone_supported(rim):
    """Some orientation has every rim point weakly inside every wedge plane."""
    m = len(rim)
    for s in (1, -1):
        ok = True
        for i in range(m):
            a, b = rim[i], rim[(i + 1) % m]
            for q in rim:
                if s * det3(a, b, q) < 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def rim_simple(rim):
    m = len(rim)
    for i in range(m):
        a, b = rim[i], rim[(i + 1) % m]
        for j in range(i + 1, m):
            c, d = rim[j], rim[(j + 1) % m]
            shared = None
            if j == i + 1:
                shared = b
            elif i == 0 and j == m - 1:
                shared = a
            if _arcs_conflict(a, b, c, d, shared):
                return False
    return True


def oracle_cone_convex(rim):
    return cone_supported(rim) and rim_simple(rim)


# ---------------------------------------------------------------------------
# Orthogonal residuals
# ---------------------------------------------------------------------------


def _dotp(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ortho_residuals(xs, basis):
    """Each x minus its orthogonal projection onto span(basis), exactly.

    One Fraction elimination of the Gram matrix serves every x: its
    right-hand sides are carried along as columns.
    """
    if not basis:
        return [tuple(x) for x in xs]
    k = len(basis)
    gram = [
        [Fraction(_dotp(a, b)) for b in basis] + [_dotp(a, x) for x in xs]
        for a in basis
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if gram[r][col] != 0)
        gram[col], gram[pivot] = gram[pivot], gram[col]
        for r in range(k):
            if r != col and gram[r][col] != 0:
                f = gram[r][col] / gram[col][col]
                gram[r] = [x_ - f * y_ for x_, y_ in zip(gram[r], gram[col])]
    out = []
    for j, x in enumerate(xs, start=k):
        res = list(x)
        for i, b in enumerate(basis):
            coeff = gram[i][j] / gram[i][i]
            res = [o - coeff * c for o, c in zip(res, b)]
        out.append(tuple(res))
    return out


# ---------------------------------------------------------------------------
# Support point sets
# ---------------------------------------------------------------------------


def _support_point_sets(pts, supports):
    out = []
    for normal, offset in supports.hyperplanes:
        out.append(
            frozenset(
                i for i, p in enumerate(pts) if _dotp(normal, p) == offset
            )
        )
    return out
