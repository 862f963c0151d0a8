"""Seeded input generators for the four benchmark workloads.

Every generator here is independent of plconvex: no call into its
generators, its converter or its serializers, so a change to the program
cannot change the bytes it is asked to check.  Each generator returns the
file text plus what the benchmark expects the checker to say about it.

    sphere_n3        triangulated hull of rounded sphere samples (PLC, n=3)
    cyclic_n4        cyclic polytope C(N,4) from Gale's evenness (PLC, n=4)
    prism_flat       prism over a subdivided convex lattice polygon (OFF)
    dent_exhaustive  sphere hull with one vertex pushed to half radius,
                     written in standard form with its own normals (PLC)
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cmp_to_key
from math import gcd

import numpy as np
from scipy.spatial import ConvexHull

SPHERE_RADIUS = 100_000


@dataclass
class Surface:
    """One generated input file and the verdict the checker must return."""

    text: str
    ext: str  # "plc" or "off"
    corners: int  # input corners, f_{n-3}
    expect: str  # "convex" or "not_convex"
    tail_start: int | None = None  # first relabelled corner (dent only)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _sphere_hull(rng, num_points: int):
    """Integer points near a sphere, their hull triangles, all strictly convex.

    Returns (points, triangles) with points an int64 array of hull vertices
    only and triangles oriented outward.  Every triangle's plane is checked
    in exact int64 arithmetic to leave every other vertex strictly inside,
    so the surface bounds a convex body whatever Qhull did.  A sample that
    fails the check is redrawn from the same generator, so the result is
    still a function of the seed.
    """
    for _attempt in range(8):
        hull = _try_sphere_hull(rng, num_points)
        if hull is not None:
            return hull
    raise RuntimeError("no sphere sample in strictly convex position")


def _try_sphere_hull(rng, num_points: int):
    x = rng.standard_normal((num_points, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    pts = np.unique(np.rint(x * SPHERE_RADIUS).astype(np.int64), axis=0)
    hull = ConvexHull(pts.astype(float))
    used = np.sort(hull.vertices)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    pts = pts[used]
    tri = remap[hull.simplices]
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    normal = np.cross(b - a, c - a)  # |entries| <= 8e10, exact in int64
    flip = np.einsum("ij,ij->i", normal, a) < 0  # centre is the origin
    tri[flip] = tri[flip][:, [0, 2, 1]]
    normal[flip] = -normal[flip]
    offset = np.einsum("ij,ij->i", normal, a)
    # side[f, v] = normal_f . p_v - offset_f <= 0, with equality exactly on
    # the triangle's own three vertices; |values| < 2^62.
    for start in range(0, len(tri), 2048):
        side = normal[start:start + 2048] @ pts.T - offset[start:start + 2048, None]
        on = np.count_nonzero(side == 0, axis=1)
        if np.any(side > 0) or np.any(on != 3):
            return None  # rounding left four points coplanar: resample
    return pts, tri


def _edges_of(triangles) -> list[tuple[int, int]]:
    edges = set()
    for f in triangles:
        for i in range(3):
            a, b = int(f[i]), int(f[(i + 1) % 3])
            edges.add((a, b) if a < b else (b, a))
    return sorted(edges)


def _plc_traditional(n: int, vertices, corners, ridges, facets) -> str:
    out = io.StringIO()
    out.write(f"plc 1\nform traditional\nn {n}\n")
    for i, v in enumerate(vertices):
        out.write(f"vertex {i} " + " ".join(str(int(c)) for c in v) + "\n")
    for name, cells in (("corner", corners), ("ridge", ridges), ("facet", facets)):
        for i, cell in enumerate(cells):
            out.write(f"{name} {i} " + " ".join(str(int(c)) for c in cell) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------


def sphere_n3(rng, num_points: int) -> Surface:
    pts, tri = _sphere_hull(rng, num_points)
    text = _plc_traditional(
        3, pts.tolist(), [(i,) for i in range(len(pts))], _edges_of(tri),
        tri.tolist(),
    )
    return Surface(text, "plc", len(pts), "convex",
                   info={"vertices": len(pts), "facets": len(tri)})


def cyclic_facets(num: int) -> list[tuple[int, ...]]:
    """Facets of C(num, 4) by Gale's evenness: two disjoint cyclic pairs."""
    pairs = [(i, (i + 1) % num) for i in range(num)]
    facets = set()
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            if not set(p) & set(q):
                facets.add(tuple(sorted(p + q)))
    if len(facets) != num * (num - 3) // 2:
        raise RuntimeError("Gale evenness produced a wrong facet count")
    return sorted(facets)


def cyclic_n4(rng, num: int, max_gap: int) -> Surface:
    gaps = rng.integers(1, max_gap + 1, size=num)
    params = np.cumsum(gaps).tolist()  # strictly increasing positive integers
    vertices = [(t, t**2, t**3, t**4) for t in params]
    facets = cyclic_facets(num)
    ridges = sorted({tuple(f[:k] + f[k + 1:]) for f in facets for k in range(4)})
    corners = sorted({(a, b) for f in facets for i, a in enumerate(f)
                      for b in f[i + 1:]})
    text = _plc_traditional(4, vertices, corners, ridges, facets)
    return Surface(text, "plc", len(corners), "convex",
                   info={"vertices": num, "facets": len(facets),
                         "max_param": params[-1]})


def _primitive_directions(max_coord: int) -> list[tuple[int, int]]:
    """Primitive lattice vectors with angle in [0, pi), sorted by angle."""
    pool = [(a, b) for a in range(-max_coord, max_coord + 1)
            for b in range(0, max_coord + 1)
            if (b > 0 or a > 0) and gcd(a, b) == 1]

    def by_angle(u, v):
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(pool, key=cmp_to_key(by_angle))


def prism_flat(rng, half_sides: int, subdiv: int, levels: int) -> Surface:
    """Prism over a strictly convex lattice polygon with subdivided edges.

    The polygon has 2*half_sides corners (directions d and -d, so the edges
    sum to zero); each edge is cut into `subdiv` lattice segments, giving
    straight cap vertices, and the side wall is cut into `levels` bands.
    """
    pool = _primitive_directions(6)
    pick = sorted(rng.choice(len(pool), size=half_sides, replace=False).tolist())
    dirs = [pool[i] for i in pick]
    dirs += [(-a, -b) for a, b in dirs]  # angle order continues past pi
    ring = []
    x = y = 0
    for a, b in dirs:
        for _ in range(subdiv):
            ring.append((x, y))
            x, y = x + a, y + b
    if (x, y) != (0, 0):
        raise RuntimeError("prism polygon does not close")
    heights = np.cumsum(rng.integers(1, 6, size=levels + 1)).tolist()
    k = len(ring)
    vertices = [(px, py, z) for z in heights for px, py in ring]

    def vid(level, i):
        return level * k + i % k

    facets = [tuple(vid(0, i) for i in reversed(range(k))),
              tuple(vid(levels, i) for i in range(k))]
    for level in range(levels):
        for i in range(k):
            facets.append((vid(level, i), vid(level, i + 1),
                           vid(level + 1, i + 1), vid(level + 1, i)))
    edges = k * (levels + 1) + k * levels
    out = io.StringIO()
    out.write(f"OFF\n{len(vertices)} {len(facets)} {edges}\n")
    for v in vertices:
        out.write(" ".join(map(str, v)) + "\n")
    for f in facets:
        out.write(f"{len(f)} " + " ".join(map(str, f)) + "\n")
    return Surface(out.getvalue(), "off", len(vertices), "convex",
                   info={"vertices": len(vertices), "cap_sides": k})


def dent_exhaustive(rng, num_points: int) -> Surface:
    """Sphere hull with one vertex moved to half radius, in standard form.

    The dented vertex and its neighbours get the last corner indices, so the
    fail-fast pass runs through every untouched corner first.  Normals follow
    the construction the traditional-form converter uses for triangles: the
    edge vector for a corner-ridge incidence, and the sum of the two edge
    vectors for a corner-facet incidence.
    """
    pts, tri = _sphere_hull(rng, num_points)
    nv = len(pts)
    victim = int(rng.integers(nv))
    ring = sorted({int(v) for f in tri if victim in f for v in f} - {victim})
    tail = ring + [victim]
    moved = set(tail)
    order = [v for v in range(nv) if v not in moved] + tail
    label = {old: new for new, old in enumerate(order)}
    coords = [tuple(int(c) for c in pts[old]) for old in order]
    coords[label[victim]] = tuple(c // 2 for c in coords[label[victim]])
    facets = [tuple(label[int(v)] for v in f) for f in tri]
    edges = _edges_of(facets)
    edge_id = {e: i for i, e in enumerate(edges)}

    def sub(p, q):
        return tuple(a - b for a, b in zip(coords[p], coords[q]))

    corner_ridge = [[] for _ in range(nv)]
    corner_facet = [[] for _ in range(nv)]
    ridge_facet = [[] for _ in edges]
    facet_normals = []
    for fi, f in enumerate(facets):
        for i in range(3):
            c, a, b = f[i], f[(i + 1) % 3], f[(i + 2) % 3]
            corner_facet[c].append(fi)
            facet_normals.append((c, fi, tuple(
                x + y for x, y in zip(sub(a, c), sub(b, c)))))
            ridge_facet[edge_id[(c, a) if c < a else (a, c)]].append(fi)
    ridge_normals = []
    for ri, (a, b) in enumerate(edges):
        corner_ridge[a].append(ri)
        corner_ridge[b].append(ri)
        ridge_normals.append((a, ri, sub(b, a)))
        ridge_normals.append((b, ri, sub(a, b)))

    out = io.StringIO()
    out.write(f"plc 1\nform standard\nn 3\ncorners {nv}\n"
              f"ridges {len(edges)}\nfacets {len(facets)}\n")
    for c in range(nv):
        for r in sorted(corner_ridge[c]):
            out.write(f"incidence corner_ridge {c} {r}\n")
        for f in sorted(corner_facet[c]):
            out.write(f"incidence corner_facet {c} {f}\n")
    for r, fs in enumerate(ridge_facet):
        for f in sorted(fs):
            out.write(f"incidence ridge_facet {r} {f}\n")
    for kind, rows in (("ridge", ridge_normals), ("facet", facet_normals)):
        for c, x, v in sorted(rows):
            out.write(f"normal {kind} {c} {x} " + " ".join(map(str, v)) + "\n")
    return Surface(out.getvalue(), "plc", nv, "not_convex",
                   tail_start=nv - len(tail),
                   info={"vertices": nv, "facets": len(facets),
                         "dented": label[victim]})


# Workload name -> (generator, size parameters).  Sizes are chosen so that
# one surface takes well under a second on a 2-core box, which gives each
# timed run enough samples for a median and a tail.
WORKLOADS = {
    "sphere_n3": (sphere_n3, {"num_points": 600}),
    "cyclic_n4": (cyclic_n4, {"num": 16, "max_gap": 3}),
    "prism_flat": (prism_flat, {"half_sides": 8, "subdiv": 3, "levels": 8}),
    "dent_exhaustive": (dent_exhaustive, {"num_points": 600}),
}


def generate(workload: str, seed: int, index: int) -> Surface:
    """Surface number `index` of a workload; a pure function of its arguments."""
    make, params = WORKLOADS[workload]
    rng = np.random.default_rng([seed, index, sorted(WORKLOADS).index(workload)])
    return make(rng, **params)


# ---------------------------------------------------------------------------
# Desk-scale self-test against the independent hull oracle
# ---------------------------------------------------------------------------


def _traditional(n, vertices, facets):
    """TraditionalFormComplex for the oracle, built from our own cell lists."""
    from plconvex.normals import POLYGONAL, SIMPLICIAL, TraditionalFormComplex

    ridges = sorted({f[:k] + f[k + 1:] for f in facets for k in range(n)})
    corners = sorted({c for r in ridges for c in
                      (r[:k] + r[k + 1:] for k in range(n - 1))})
    return TraditionalFormComplex(
        n=n, vertices=[tuple(int(c) for c in v) for v in vertices],
        corners=list(corners), ridges=ridges,
        facets=[tuple(int(v) for v in f) for f in facets],
        mode=POLYGONAL if n == 3 else SIMPLICIAL,
    )


def self_test(seed: int) -> list[str]:
    """Check the simplicial generators on small instances with is_hull_boundary.

    Returns a list of failure messages (empty when every check passes).
    """
    from plconvex.oracle import is_hull_boundary

    rng = np.random.default_rng([seed, 999])
    problems = []
    pts, tri = _sphere_hull(rng, 24)
    facets = [tuple(sorted(int(v) for v in f)) for f in tri]
    if not is_hull_boundary(_traditional(3, pts.tolist(), facets)):
        problems.append("sphere hull is not its vertex hull's boundary")
    dented = pts.copy()
    victim = int(rng.integers(len(pts)))
    dented[victim] //= 2
    if is_hull_boundary(_traditional(3, dented.tolist(), facets)):
        problems.append("dented sphere hull still passes the hull oracle")
    params = np.cumsum(rng.integers(1, 4, size=8)).tolist()
    vertices = [(t, t**2, t**3, t**4) for t in params]
    if not is_hull_boundary(_traditional(4, vertices, cyclic_facets(8))):
        problems.append("Gale evenness facets do not bound C(8,4)")
    return problems
