"""Per-corner local convexity test.

A corner's star is a wheel of ridge rays and facet wedges inside the
3-dimensional orthogonal complement of the corner.  The test below first
settles all configurations whose ridge rays stay inside a 2-plane (the star
must then tile the circle of directions exactly once, up to one out-of-plane
half-plane facet at an antiparallel ridge pair), and otherwise reduces the
star to a cone over rim points in R^3 whose convexity is decided by exact
3x3 determinant signs.

Angle conventions: <v|u|w> is the plane angle with extreme rays v, w whose
interior contains u.  All predicates work on exact rational vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .complexes import WheelStar
from .errors import DegenerateCone, NotInPlane, PreconditionViolated, ZeroVector
from .exact import (
    PlaneFrame,
    Vector,
    _multiple_pivot,
    coords_in_basis,
    dot,
    is_zero,
    rank_le3,
    same_ray,
    sign_det3,
)


@dataclass(frozen=True)
class ConeRealization3D:
    """Rim points p(1..m) of a wheel realization; the hub sits at the origin."""

    rim: tuple[Vector, ...]

    def __post_init__(self):
        for p in self.rim:
            if len(p) != 3 or is_zero(p):
                raise ValueError("rim points must be nonzero 3-vectors")

    @classmethod
    def _unchecked(cls, rim: tuple[Vector, ...]) -> ConeRealization3D:
        """A cone whose caller has already shown every rim point valid."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "rim", rim)
        return cone

    @property
    def m(self) -> int:
        return len(self.rim)


@dataclass(frozen=True)
class Inconsistent:
    """Immersion or data-integrity violation at this corner."""

    reason: str


@dataclass(frozen=True)
class FlatPass:
    """Star passed with ridge rays spanning at most 2 dimensions."""


@dataclass(frozen=True)
class Cone:
    """Star reduced to a genuinely 3-dimensional cone, still to be checked."""

    realization: ConeRealization3D


LocalVerdict = Inconsistent | FlatPass | Cone


# ---------------------------------------------------------------------------
# Angle predicates
# ---------------------------------------------------------------------------


def _angles_equal(frame: PlaneFrame, v, u1, u2, w) -> bool:
    """Sign recipe for P(v|u1,u2|w): do u1 and u2 pick the same angle?

    Total on in-plane vectors.  For sgn[v,w] = 0 (v, w antiparallel) the
    sign recipe degenerates and the angles-equal test becomes "u1, u2 on
    the same side of line(v)", the unique continuous extension.
    """
    s = frame.orient(v, w)
    if s == 0:
        return frame.orient(v, u1) == frame.orient(v, u2)
    in1 = frame.orient(u1, w) == s and frame.orient(v, u1) == s
    in2 = frame.orient(u2, w) == s and frame.orient(v, u2) == s
    return in1 == in2


def _require_in_plane(frame: PlaneFrame, vectors) -> None:
    for x in vectors:
        if is_zero(x):
            raise PreconditionViolated("zero vector in angle predicate")
        if not frame.contains(x):
            raise PreconditionViolated(f"vector {x} not in the frame plane")


def predicate_P(v: Vector, u1: Vector, u2: Vector, w: Vector,
                frame: PlaneFrame) -> bool:
    """True iff the angles <v|u1|w> and <v|u2|w> coincide.

    Preconditions: coplanar nonzero vectors, v and w on distinct rays, and
    neither u_i on ray(v) or ray(w).
    """
    _require_in_plane(frame, (v, u1, u2, w))
    if same_ray(v, w):
        raise PreconditionViolated("v and w lie on the same ray")
    for u in (u1, u2):
        if same_ray(u, v) or same_ray(u, w):
            raise PreconditionViolated("u_i lies on an extreme ray")
    return _angles_equal(frame, v, u1, u2, w)


def is_folded(a: Vector, b: Vector, c: Vector, d: Vector, e: Vector,
              frame: PlaneFrame) -> bool:
    """True iff the interiors of <a|b|c> and <c|d|e> intersect.

    Preconditions: coplanar nonzero vectors, with a, b, c on pairwise
    distinct rays and c, d, e on pairwise distinct rays.
    """
    _require_in_plane(frame, (a, b, c, d, e))
    for x, y in ((a, b), (a, c), (b, c)):
        if same_ray(x, y):
            raise PreconditionViolated("a, b, c must span pairwise distinct rays")
    for x, y in ((c, d), (c, e), (d, e)):
        if same_ray(x, y):
            raise PreconditionViolated("c, d, e must span pairwise distinct rays")
    return _folded(a, b, c, d, e, frame)


def _folded(a, b, c, d, e, frame: PlaneFrame) -> bool:
    """is_folded without its precondition checks; callers guarantee them.

    A shared extreme ray (a, e) is handled via P(c|b,d|a); otherwise the
    angles are disjoint exactly when P(a|b,e|c) is false while P(c|d,e|a)
    and P(b|c,d|e) hold.  The inner P calls use the raw sign recipe;
    short-circuit order keeps their arguments within the recipe's valid
    range.
    """
    if same_ray(a, e):
        return _angles_equal(frame, c, b, d, a)
    return not (
        not _angles_equal(frame, a, b, e, c)
        and _angles_equal(frame, c, d, e, a)
        and _angles_equal(frame, b, c, d, e)
    )


def _ray_in_interior(frame: PlaneFrame, g, v, marker, w) -> bool:
    """Is ray(g) strictly inside the angle <v|marker|w>?  All in-plane."""
    s = frame.orient(v, w)
    if s == 0:
        # Half-plane angle: interior is the open side holding the marker.
        return frame.orient(v, g) == frame.orient(v, marker)
    minor = frame.orient(v, marker) == s and frame.orient(marker, w) == s
    g_minor = frame.orient(v, g) == s and frame.orient(g, w) == s
    if minor:
        return g_minor
    return not (g_minor or same_ray(g, v) or same_ray(g, w))


# ---------------------------------------------------------------------------
# Reduce-to-3D
# ---------------------------------------------------------------------------


def reduce_to_3d(star: WheelStar) -> LocalVerdict:
    """Classify a wheel star: Inconsistent, FlatPass, or a 3D cone.

    Ridge normals are scanned in rim order for a maximal independent set;
    stars whose ridge rays stay in a 2-plane are decided by the
    circle-tiling criterion, and a third basis vector sends the star to the
    cone check, via Gram coordinates when n >= 4.
    """
    for x in star.ridge_normals + star.facet_normals:
        if is_zero(x):
            return Inconsistent("zero normal vector")

    try:
        return _reduce(star)
    except (PreconditionViolated, NotInPlane, ZeroVector) as exc:
        # Angle preconditions only break on degenerate normal data; that is
        # an integrity violation of the input, not an internal error.
        return Inconsistent(f"degenerate normal data: {exc}")


def _reduce(star: WheelStar) -> LocalVerdict:
    m = star.m
    u = star.ridge_normals
    f = star.facet_normals
    if m == 1:
        return Inconsistent("wheel of size 1")

    # One pass over the consecutive ridge pairs.  A repeated ray is a
    # zero-angle wedge (a spike); antiparallel pairs are recorded for the
    # verdicts below.
    antiparallel = []
    for i, (a, b) in enumerate(zip(u, u[1:] + u[:1])):
        pivot = _multiple_pivot(a, b)
        if pivot is not None:
            if a[pivot] * b[pivot] > 0:
                return Inconsistent(
                    f"consecutive ridge normals {i} and {(i + 1) % m} "
                    f"positively collinear"
                )
            antiparallel.append(i)

    if m == 2:
        return _check_digon(u, f)

    rank, basis = rank_le3(u)
    if rank > 3:
        return Inconsistent("ridge normals span more than 3 dimensions")
    if rank == 1:
        # m >= 3 rays on one line must repeat a ray.
        return Inconsistent("ridge normals span a single line")
    frame = PlaneFrame(basis[0], basis[1])
    if rank == 2:
        return _planar_verdict(u, f, frame, antiparallel)

    # Genuinely 3-dimensional star.  A straight ridge pair forces the whole
    # star into two half-planes through that line, i.e. a 2-plane worth of
    # ridge rays; with rank 3 this is impossible for a locally convex star.
    if antiparallel:
        i = antiparallel[0]
        return Inconsistent(
            f"antiparallel consecutive ridge normals {i}, {(i + 1) % m} "
            f"in a 3-dimensional star"
        )
    escape = u.index(basis[2])

    # The planar prefix (everything before the third basis vector appeared)
    # is a chain of coplanar wedges; folds there are genuine
    # self-intersections no matter what the rest of the star does.
    for j in range(escape - 1):
        if not frame.contains(f[j]):
            return Inconsistent(
                f"facet normal {j} outside the plane of its ridge rays"
            )
    for j in range(escape - 1):
        if same_ray(f[j], u[j]) or same_ray(f[j], u[j + 1]):
            return Inconsistent(f"facet normal {j} lies on a ridge ray")
    for j in range(escape - 2):
        if _folded(u[j], f[j], u[j + 1], f[j + 1], u[j + 2], frame):
            return Inconsistent(f"planar prefix folds at ridge {j + 1}")
    # Monotone open chains self-intersect exactly when they sweep past
    # their starting ray.
    if escape >= 2:
        g = u[0]
        for j in range(1, escape):
            if j >= 2 and same_ray(u[j], g):
                return Inconsistent("planar prefix wraps past its start")
        for j in range(escape - 1):
            if _ray_in_interior(frame, g, u[j], f[j], u[j + 1]):
                return Inconsistent("planar prefix wraps past its start")

    # At n = 3 the Gram map is invertible: it scales every rim determinant by
    # one sign, which check_cone_convex cannot see.  It is linear, so a facet
    # normal keeps its coefficients on its two ridge rays, and each wedge is
    # tested on the rim's coordinates.
    n3 = len(u[0]) == 3
    p = u if n3 else tuple(coords_in_basis(x, *basis) for x in u)
    for j, (a, b, g) in enumerate(zip(u, u[1:] + u[:1], f)):
        # Triangles, convex polygon corners and simplicial facets all get
        # f = u_j + u_(j+1) from the converter: strictly inside the sector.
        if g == tuple(map(add, a, b)):
            continue
        if not n3:
            g = coords_in_basis(g, *basis)
        fault = _wedge_fault(j, (j + 1) % m, p, g)
        if fault is not None:
            return Inconsistent(fault)
    # Every u_j is nonzero, and the rank check put it in the basis's span,
    # so its n = 3 point or its Gram coordinates are a nonzero 3-vector.
    return Cone(ConeRealization3D._unchecked(p))


def _cross(a: Vector, b: Vector) -> Vector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _wedge_fault(j: int, k: int, p, g: Vector) -> str | None:
    """None iff g = alpha*p[j] + beta*p[k] with alpha, beta > 0, else why not.

    3-vectors, p[j] and p[k] independent.  With c = p[j] x p[k], g is in
    their plane iff c.g = 0, and then c.(g x p[k]) and c.(p[j] x g) are
    alpha and beta times |c|^2.  A convex cone over a rank-3 wheel has no
    reflex wedge, so a facet normal outside the open sector of its ridge
    rays rules the star out.
    """
    a, b = p[j], p[k]
    c = _cross(a, b)
    if dot(c, g):
        return f"facet normal {j} outside the plane of its ridge rays"
    alpha = dot(c, _cross(g, b))
    beta = dot(c, _cross(a, g))
    if alpha > 0 and beta > 0:
        return None
    if alpha >= 0 and beta >= 0:
        return f"facet normal {j} lies on a ridge ray"
    return f"facet angle {j} between ridges {j} and {k} is reflex"


def _check_digon(u, f) -> LocalVerdict:
    """m = 2: two facets sharing both ridges.

    The star folds exactly when both facet wedges occupy the same half-plane:
    rank{n1, n12, n21} = 2 with both facet normals strictly on the same side
    of line(n1).  Everything else (complementary planar wedges, or a lune of
    two half-planes in distinct planes) is convex.
    """
    rank, basis = rank_le3([u[0], f[0], f[1]])
    if rank == 2:
        frame = PlaneFrame(basis[0], basis[1])
        if not (frame.contains(f[0]) and frame.contains(f[1])):
            return Inconsistent("degenerate digon data")
        s0 = frame.orient(u[0], f[0])
        s1 = frame.orient(u[0], f[1])
        if s0 == s1 and s0 != 0:
            return Inconsistent(
                "digon facets on the same side of the ridge line"
            )
    return FlatPass()


def _planar_verdict(u, f, frame: PlaneFrame, antiparallel) -> LocalVerdict:
    """Ridge rays span exactly 2 dimensions: decide by circle tiling.

    A closed chain of in-plane wedges passes iff adjacent wedges never fold
    over each other and the chain winds around the circle exactly once.  One
    facet normal may leave the plane when its ridge pair is antiparallel
    (an out-of-plane half-plane facet: the star is a subdivided dihedral
    corner); the remaining in-plane chain must then sweep a half-circle
    monotonically.  Two or more such facets can never bound a convex cone.
    antiparallel lists the indices i whose ridge pair (i, i + 1) is
    antiparallel.
    """
    m = len(u)

    jumps = []
    for j in range(m):
        if not frame.contains(f[j]):
            if j not in antiparallel:
                return Inconsistent(
                    f"facet normal {j} outside the plane of its ridge rays"
                )
            jumps.append(j)
        elif same_ray(f[j], u[j]) or same_ray(f[j], u[(j + 1) % m]):
            return Inconsistent(f"facet normal {j} lies on a ridge ray")

    if len(jumps) > 1:
        return Inconsistent(
            "more than one out-of-plane half-plane facet in a planar star"
        )

    if not jumps:
        for j in range(m):
            k, l = (j + 1) % m, (j + 2) % m
            if _folded(u[j], f[j], u[k], f[k], u[l], frame):
                return Inconsistent(f"facet angles fold at ridge {k}")
        winding = 0
        g = tuple(-c for c in u[0])
        for j in range(m):
            if j > 0 and same_ray(u[j], g):
                winding += 1
            if _ray_in_interior(frame, g, u[j], f[j], u[(j + 1) % m]):
                winding += 1
        if winding != 1:
            return Inconsistent(
                f"facet angles cover the circle {winding} times, expected 1"
            )
        return FlatPass()

    # One out-of-plane half-plane facet: the in-plane chain runs from ray w
    # to ray -w and may not revisit any direction.
    J = jumps[0]
    start = (J + 1) % m
    chain = [(J + 1 + t) % m for t in range(m - 1)]  # in-plane angle indices
    for a, b in zip(chain, chain[1:]):
        shared = (a + 1) % m
        if _folded(u[a], f[a], u[shared], f[b], u[(b + 1) % m], frame):
            return Inconsistent(f"facet angles fold at ridge {shared}")
    w0 = u[start]
    for t, j in enumerate(chain):
        if t > 0 and same_ray(u[j], w0):
            return Inconsistent("planar chain revisits its starting ray")
        if _ray_in_interior(frame, w0, u[j], f[j], u[(j + 1) % m]):
            return Inconsistent("planar chain wraps past its starting ray")
    return FlatPass()


# ---------------------------------------------------------------------------
# Cone convexity (the 3D endgame)
# ---------------------------------------------------------------------------


def check_cone_convex(cone: ConeRealization3D) -> bool:
    """True iff the wheel surface over the rim lies on a convex cone boundary.

    Base the orientation on the first consecutive rim triple with nonzero
    sign; then every consecutive triple must have sign s or 0 (turning the
    same way, with 0 for flat ridges) and every fan triple from the base
    point must have sign s or 0 (no self-intersection).
    """
    p = cone.rim
    m = len(p)
    if m < 3:
        raise DegenerateCone("cone check needs at least 3 rim points")
    base = None
    s = 0
    for i in range(m):
        s = sign_det3(p[i], p[(i + 1) % m], p[(i + 2) % m])
        if s != 0:
            base = i
            break
    if base is None:
        raise DegenerateCone("all consecutive rim triples are singular")
    for i in range(m):
        t = sign_det3(p[i], p[(i + 1) % m], p[(i + 2) % m])
        if t not in (0, s):
            return False
    pb = p[base]
    for i in range(m):
        j = (i + 1) % m
        if i == base or j == base:
            continue
        t = sign_det3(pb, p[i], p[j])
        if t not in (0, s):
            return False
    return True
