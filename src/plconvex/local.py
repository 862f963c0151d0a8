"""Per-corner local convexity test.

A corner's star is a wheel of ridge rays and facet wedges inside the
3-dimensional quotient of R^n by the corner's direction space.  wheel_star
hands it over as 3-vectors at every n (at n >= 4, the normals' coordinates
on three axes injective on their span), so every test here runs in R^3.  One
pass over the consecutive ridge pairs computes e_i = u_i x u_(i+1) inline
and classifies the star from those vectors alone: e_i = 0 marks a
collinear pair, the first nonzero e_i is a plane normal N, and the ridge
rays span three dimensions exactly when some N.u_k is nonzero.  A star
whose ridge rays stay inside a 2-plane, digons included, must tile the
circle of directions exactly once, up to one out-of-plane half-plane facet
at an antiparallel ridge pair.  One turning pass decides it, with
orientations sign(N.(a x b)): every in-plane wedge turns the same way, and
the sweep reaches its start ray only when it closes.  Every other star is
a cone over its rim of ridge normals.  There every facet normal must lie
strictly inside the convex sector of its two ridge rays, and one winding
rule decides the rim: it turns one way, an interior axis lies strictly
inside every wedge plane, and the rim winds exactly once about that axis.
All of it reads the signs of exact 3x3 determinants and dot products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import WheelStar
from .errors import DegenerateCone, PreconditionViolated
from .exact import Vector, dot


@dataclass(frozen=True)
class Inconsistent:
    """Immersion or data-integrity violation at this corner."""

    reason: str


@dataclass(frozen=True)
class FlatPass:
    """Star passed with ridge rays spanning at most 2 dimensions."""


@dataclass(frozen=True)
class Cone:
    """Star reduced to a genuinely 3-dimensional cone, still to be checked.

    rim holds the star's ridge normals p(1..m), nonzero 3-vectors with no
    two consecutive ones collinear; the hub sits at the origin.
    """

    rim: tuple[Vector, ...]


LocalVerdict = Inconsistent | FlatPass | Cone


# ---------------------------------------------------------------------------
# Reduce-to-3D
# ---------------------------------------------------------------------------


def reduce_to_3d(star: WheelStar) -> LocalVerdict:
    """Classify a wheel star of 3-vectors: Inconsistent, FlatPass, or a cone.

    One pass over the m consecutive ridge pairs computes each
    e_i = u_i x u_(i+1) and reads everything from those vectors.  Every
    normal is checked nonzero first, so e_i = 0 exactly when the pair is
    collinear: on one ray when u_i.u_(i+1) > 0 (a zero-angle wedge, which
    fails the star), antiparallel when u_i.u_(i+1) < 0.  The first nonzero
    e_i is a normal N of the plane of its pair, and the ridge rays span
    three dimensions exactly when N.u_k != 0 for some k.  With no nonzero
    e_i every ridge ray lies on one line: m >= 3 such rays repeat a ray,
    and a digon takes N = u_0 x (its first facet normal not collinear with
    u_0).  Stars whose ridge rays span at most a plane go to
    _planar_verdict with N, the e_i and the wedges whose facet normal is
    not u_i + u_(i+1); a rank-3 star sends the rim of ridge normals itself
    to the cone check once every facet normal lies strictly inside the
    sector of its two ridge rays.  Normals of any other length raise
    PreconditionViolated: wheel_star reads them on three axes at n >= 4.
    """
    m = star.m
    u = star.ridge_normals
    f = star.facet_normals
    for x in u + f:
        if len(x) != 3:
            raise PreconditionViolated("wheel star normals must be 3-vectors")
        if not any(x):
            return Inconsistent("zero normal vector")
    if m == 1:
        return Inconsistent("wheel of size 1")

    # Antiparallel pairs are recorded for the verdicts below, and wedges
    # whose facet normal is not u_i + u_(i+1) for the sector test.
    crosses, antiparallel, off_sum = [], [], []
    pairs = zip(u, u[1:] + u[:1], f)
    for i, ((a0, a1, a2), (b0, b1, b2), g) in enumerate(pairs):
        e = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        crosses.append(e)
        if not any(e):
            if a0 * b0 + a1 * b1 + a2 * b2 > 0:
                return Inconsistent(
                    f"consecutive ridge normals {i} and {(i + 1) % m} "
                    f"positively collinear"
                )
            antiparallel.append(i)
        if g != (a0 + b0, a1 + b1, a2 + b2):
            off_sum.append(i)

    normal = next(filter(any, crosses), None)
    if normal is None:
        if m > 2:
            # m >= 3 rays on one line must repeat a ray.
            return Inconsistent("ridge normals span a single line")
        # A digon on one ridge line: its plane holds that line and the
        # first facet normal off it.
        normal = next(filter(any, (_cross(u[0], g) for g in f)), None)
        if normal is None:
            return Inconsistent("facet normal 0 lies on a ridge ray")
    n0, n1, n2 = normal
    if not any(n0 * x0 + n1 * x1 + n2 * x2 for x0, x1, x2 in u):
        return _planar_verdict(u, f, normal, antiparallel, crosses, off_sum)

    # Genuinely 3-dimensional star.  A straight ridge pair forces the whole
    # star into two half-planes through that line, i.e. a 2-plane worth of
    # ridge rays; with rank 3 this is impossible for a locally convex star.
    if antiparallel:
        i = antiparallel[0]
        return Inconsistent(
            f"antiparallel consecutive ridge normals {i}, {(i + 1) % m} "
            f"in a 3-dimensional star"
        )

    # Triangles, convex polygon corners and simplicial facets all get
    # f = u_j + u_(j+1) from the converter: strictly inside the sector.
    for j in off_sum:
        fault = _wedge_fault(j, (j + 1) % m, u, f[j], crosses[j])
        if fault is not None:
            return Inconsistent(fault)
    # Every u_j is a nonzero 3-vector and no consecutive pair is collinear,
    # both checked above.
    return Cone(u)


def _cross(a: Vector, b: Vector) -> Vector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _wedge_fault(j: int, k: int, p, g: Vector, c: Vector) -> str | None:
    """None iff g = alpha*p[j] + beta*p[k] with alpha, beta > 0, else why not.

    3-vectors, p[j] and p[k] independent, and c = p[j] x p[k].  g is in
    their plane iff c.g = 0, and then c.(g x p[k]) and c.(p[j] x g) are
    alpha and beta times |c|^2.  A convex cone over a rank-3 wheel has no
    reflex wedge, so a facet normal outside the open sector of its ridge
    rays rules the star out.
    """
    a, b = p[j], p[k]
    if dot(c, g):
        return f"facet normal {j} outside the plane of its ridge rays"
    alpha = dot(c, _cross(g, b))
    beta = dot(c, _cross(a, g))
    if alpha > 0 and beta > 0:
        return None
    if alpha >= 0 and beta >= 0:
        return f"facet normal {j} lies on a ridge ray"
    return f"facet angle {j} between ridges {j} and {k} is reflex"


def _planar_verdict(
    u, f, normal: Vector, antiparallel, crosses, off_sum
) -> LocalVerdict:
    """Ridge rays span a plane with normal N: one turning pass decides it.

    A facet normal g lies in the plane iff N.g = 0, and in-plane vectors
    a, b have orient(a, b) = sign(N.(a x b)).  Wedge j turns from u_j to
    u_(j+1) through its facet normal f_j.  With s = orient(u_j, u_(j+1)) it
    turns by the minor angle in sense s when f_j lies strictly inside that
    angle, else by the major angle in sense -s; a half-plane (s = 0) turns
    in sense orient(u_j, f_j).  The star tiles the circle exactly once iff
    every in-plane wedge turns the same way and the sweep first reaches its
    start ray when it closes: two wedges turning opposite ways overlap next
    to their shared ray, and wedges laid end to end in one sense cover the
    circle as often as the sweep passes its start.  One facet normal may
    leave the plane, and only at an antiparallel ridge pair (an out-of-plane
    half-plane facet: the star is a subdivided dihedral corner); the sweep
    then runs from the ray after that facet to the opposite ray and may not
    reach its start at all.  Two or more such facets can never bound a
    convex cone.  antiparallel lists the indices i whose ridge pair
    (i, i + 1) is antiparallel.

    reduce_to_3d's products serve the pass.  crosses holds
    e_j = u_j x u_(j+1), so s_j = sign(N.e_j).  off_sum lists the wedges
    whose f_j is not u_j + u_(j+1); for every other wedge N.f_j =
    N.u_j + N.u_(j+1) = 0, the star being planar, and
    u_j x f_j = f_j x u_(j+1) = e_j, so orient(u_j, f_j) =
    orient(f_j, u_(j+1)) = s_j.  When s_j != 0 such a wedge turns by its
    minor angle in sense s_j with no further product; at s_j = 0 it takes
    the general rule, which finds f_j on a ridge ray.  The sweep reads
    orient(r, b) = sign(N.(r x b)) = sign((N x r).b), one cross product
    q = N x r for the whole pass, and r.b only where q.b = 0.

    The verdict and its message do not depend on which normal of the plane
    N is.  Two normals differ by a nonzero factor lambda, which multiplies
    every orient by one sign sigma = sign(lambda) and leaves N.g = 0 as it
    is.  Then s, orient(u_j, f_j) and orient(f_j, u_(j+1)) all change by
    sigma, so the on-ray tests (which ask whether an orient is 0) do not
    change; each turn changes by sigma, so whether it turns by pi or more
    (turn != s) does not; the sweep's sense changes by sigma, so the fold
    test (turn != sense) does not.  The half-turn flags, the pass count
    (next paragraph) and every message are therefore the same for N and
    -N, and for the orientation of any frame of the plane, which is
    sign(N'.(a x b)) for its own normal N'.

    The pass count reads orient(r, b) in the plane's sense, not the
    sweep's.  Measure the sweep's angle theta from r in its own sense.
    When the two senses agree, the marked half-turn (orient(r, b) < 0, or
    b on -r) is theta in [pi, 2*pi), and each pass is one crossing of r.
    When they differ, it is theta in (0, pi], and each pass is one crossing
    of -r.  A sweep that closes after turning 2*pi*W crosses r W times and
    -r W times.  A chain from r that ends on -r after pi + 2*pi*J crosses
    each J times before its end.  So both readings give the same count.
    """
    m = len(u)
    n0, n1, n2 = normal

    def orient(a, b):
        d = (
            n0 * (a[1] * b[2] - a[2] * b[1])
            + n1 * (a[2] * b[0] - a[0] * b[2])
            + n2 * (a[0] * b[1] - a[1] * b[0])
        )
        return (d > 0) - (d < 0)

    off_sum = set(off_sum)
    # Each wedge's turn, and whether it turns by pi or more; None for the
    # out-of-plane half-plane facets.
    turns, jumps = [], []
    pairs = zip(u, u[1:] + u[:1], f, crosses)
    for j, (a, b, g, (e0, e1, e2)) in enumerate(pairs):
        s = n0 * e0 + n1 * e1 + n2 * e2
        s = (s > 0) - (s < 0)
        if s and j not in off_sum:
            turns.append((s, False))
            continue
        if n0 * g[0] + n1 * g[1] + n2 * g[2]:
            if j not in antiparallel:
                return Inconsistent(
                    f"facet normal {j} outside the plane of its ridge rays"
                )
            jumps.append(j)
            turns.append(None)
            continue
        ag = orient(a, g)
        if s:
            gb = orient(g, b)
            if (ag == 0 and dot(a, g) > 0) or (gb == 0 and dot(g, b) > 0):
                return Inconsistent(f"facet normal {j} lies on a ridge ray")
            turn = s if ag == s == gb else -s
        elif ag:
            turn = ag
        else:
            return Inconsistent(f"facet normal {j} lies on a ridge ray")
        turns.append((turn, turn != s))
    if len(jumps) > 1:
        return Inconsistent(
            "more than one out-of-plane half-plane facet in a planar star"
        )

    # Sweep from r in the first wedge's sense.  upper: the sweep stands in
    # the half-turn where orient(r, .) < 0, or on -r.  A wedge passes the
    # boundary ray (r or -r, see above) when it drops from the upper
    # half-turn to the lower one, or turns by pi or more and ends in the
    # half-turn it started in.
    start = jumps[0] + 1 if jumps else 0
    r0, r1, r2 = u[start % m]
    q0, q1, q2 = n1 * r2 - n2 * r1, n2 * r0 - n0 * r2, n0 * r1 - n1 * r0
    sense, upper, passes = turns[start % m][0], False, 0
    for t in range(start, start + m - len(jumps)):
        turn, wide = turns[t % m]
        if turn != sense:
            return Inconsistent(f"facet angles fold at ridge {t % m}")
        b0, b1, b2 = u[(t + 1) % m]
        h = q0 * b0 + q1 * b1 + q2 * b2
        b_upper = h < 0 or (h == 0 and r0 * b0 + r1 * b1 + r2 * b2 < 0)
        passes += upper > b_upper or (upper == b_upper and wide)
        upper = b_upper
    if jumps and passes:
        return Inconsistent("planar chain wraps past its starting ray")
    if not jumps and passes != 1:
        return Inconsistent(
            f"facet angles cover the circle {passes} times, expected 1"
        )
    return FlatPass()


# ---------------------------------------------------------------------------
# Cone convexity (the 3D endgame)
# ---------------------------------------------------------------------------


def check_cone_convex(rim: tuple[Vector, ...]) -> bool:
    """True iff the wheel surface over the rim lies on a convex cone boundary.

    rim holds the rim points p(1..m) about a hub at the origin.
    Precondition: they are nonzero 3-vectors and no two consecutive ones
    are collinear (on one ray or on opposite rays); reduce_to_3d proves
    both before it returns Cone(rim), so they are not checked here.  A rim
    of fewer than 3 points, or one with no strict turn, raises
    DegenerateCone.  With e_i = p_i x p_(i+1), the normal of wedge plane
    i, the test is:

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
    if len(rim) < 3:
        raise DegenerateCone("cone check needs at least 3 rim points")
    (a0, a1, a2), (b0, b1, b2) = rim[-2], rim[-1]
    for d0, d1, d2 in rim:
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
    z0, z1, z2 = rim[0]
    w0, w1, w2 = c1 * z2 - c2 * z1, c2 * z0 - c0 * z2, c0 * z1 - c1 * z0

    # One pass over the steps b -> d, starting at p_(m-1) -> p_0.  On entry
    # e is the previous wedge's normal, so e.d is the turn at b; then e
    # becomes b x d.  h = w.b.
    (a0, a1, a2), (b0, b1, b2) = rim[-2], rim[-1]
    e0, e1, e2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    h = w0 * b0 + w1 * b1 + w2 * b2
    crossings = 0
    for d0, d1, d2 in rim:
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
