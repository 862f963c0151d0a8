"""Per-corner local convexity test.

A corner's star is a wheel of ridge rays and facet wedges inside the
3-dimensional orthogonal complement of the corner.  The test below first
settles all configurations whose ridge rays stay inside a 2-plane (the star
must then tile the circle of directions exactly once, up to one out-of-plane
half-plane facet at an antiparallel ridge pair), and otherwise reduces the
star to a cone over rim points in R^3.  There every facet normal must lie
strictly inside the convex sector of its two ridge rays, and one winding
rule decides the rim: it turns one way, an interior axis lies strictly
inside every wedge plane, and the rim winds exactly once about that axis.
All of it reads exact 3x3 determinant signs.

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
    if rank == 2:
        return _planar_verdict(
            u, f, PlaneFrame(basis[0], basis[1]), antiparallel
        )

    # Genuinely 3-dimensional star.  A straight ridge pair forces the whole
    # star into two half-planes through that line, i.e. a 2-plane worth of
    # ridge rays; with rank 3 this is impossible for a locally convex star.
    if antiparallel:
        i = antiparallel[0]
        return Inconsistent(
            f"antiparallel consecutive ridge normals {i}, {(i + 1) % m} "
            f"in a 3-dimensional star"
        )

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

    Precondition: no two consecutive rim points are collinear (on one ray or
    on opposite rays); reduce_to_3d rejects such stars before building a
    cone.  With e_i = p_i x p_(i+1), the normal of wedge plane i, the test is:

    1. every turn det(p_(i-1), p_i, p_(i+1)) has sign s or 0, where s is
       the sign of a strict turn (the first one found), at rim point b;
    2. the axis c = s(p_(b-1) + p_b + p_(b+1)) lies strictly on the
       positive side of every wedge plane: e_i.c > 0;
    3. the rim winds exactly once about c: exactly one step i -> i+1 has
       det(c, p_0, p_i) < 0 <= det(c, p_0, p_(i+1)).

    Necessity.  On a convex cone every rim point lies weakly on the s side
    of every wedge plane, which gives 1.  The three rays at a strict turn
    are independent, so they span a full-dimensional subcone and no wedge
    plane holds all three: c is interior, which is 2.  Each half-plane
    bounded by the line of c meets the cone's boundary in one ray, and the
    rim is a simple closed curve on that boundary, so it winds once: 3.

    Sufficiency.  By 2 each step turns about c by an angle in (0, pi), so
    the angle swept from p_0 grows in steps below pi to 2*pi*k, and a step
    takes det(c, p_0, .) from < 0 to >= 0 exactly when it reaches a
    multiple of 2*pi: 3 says k = 1.  The rim is then a radial graph about
    c.  In polar coordinates (theta, phi) about c, psi = cot(phi) is a
    2*pi-periodic function of theta whose pieces are sinusoids
    alpha cos(theta) + beta sin(theta) (wedge planes, none through c by
    2), with c above each.  A turn of sign s or 0 bends psi upward, so
    psi'' + psi = mu >= 0 as a measure.  The difference d between psi and
    wedge i's sinusoid vanishes on that wedge's arc, shorter than pi, and
    d(theta) is the integral of sin(|theta - t|) dmu(t) for up to pi past
    either end; that covers the circle, so d >= 0 and every rim point lies
    weakly on the c side of every wedge plane.  A radial graph is simple,
    so the rim is a convex spherical polygon.
    """
    p = cone.rim
    if len(p) < 3:
        raise DegenerateCone("cone check needs at least 3 rim points")
    (a0, a1, a2), (b0, b1, b2) = p[-2], p[-1]
    for d0, d1, d2 in p:
        turn = (
            (a1 * b2 - a2 * b1) * d0
            + (a2 * b0 - a0 * b2) * d1
            + (a0 * b1 - a1 * b0) * d2
        )
        if turn:
            break
        a0, a1, a2, b0, b1, b2 = b0, b1, b2, d0, d1, d2
    else:
        raise DegenerateCone("all consecutive rim triples are singular")
    s = 1 if turn > 0 else -1
    c0, c1, c2 = s * (a0 + b0 + d0), s * (a1 + b1 + d1), s * (a2 + b2 + d2)
    # det(c, p_0, x) = w.x tells which side of the plane (c, p_0) x is on.
    z0, z1, z2 = p[0]
    w0, w1, w2 = c1 * z2 - c2 * z1, c2 * z0 - c0 * z2, c0 * z1 - c1 * z0

    # One pass over the steps b -> d, starting at p_(m-1) -> p_0.  On entry
    # e is the previous wedge's normal, so e.d is the turn at b; then e
    # becomes b x d.  h = w.b.
    (a0, a1, a2), (b0, b1, b2) = p[-2], p[-1]
    e0, e1, e2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    h = w0 * b0 + w1 * b1 + w2 * b2
    crossings = 0
    for d0, d1, d2 in p:
        if s * (e0 * d0 + e1 * d1 + e2 * d2) < 0:
            return False
        e0, e1, e2 = b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0
        if e0 * c0 + e1 * c1 + e2 * c2 <= 0:
            return False
        g = w0 * d0 + w1 * d1 + w2 * d2
        if h < 0 <= g:
            crossings += 1
        b0, b1, b2, h = d0, d1, d2, g
    return crossings == 1
