import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plconvex import (
    FlatPass,
    Inconsistent,
    TraditionalFormComplex,
    check_cone_convex,
    reduce_to_3d,
    to_standard,
    validate_standard,
    wheel_star,
)

CUBE_OFF = """OFF
8 6 12
0 0 0
2 0 0
2 2 0
0 2 0
0 0 2
2 0 2
2 2 2
0 2 2
4 0 1 2 3
4 7 6 5 4
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""


def polygonal_surface(vertices, facets) -> TraditionalFormComplex:
    """R^3 traditional complex from vertex coords and facet cycles."""
    edges = sorted(
        {
            tuple(sorted((f[i], f[(i + 1) % len(f)])))
            for f in facets
            for i in range(len(f))
        }
    )
    return TraditionalFormComplex(
        n=3,
        vertices=list(vertices),
        corners=[(i,) for i in range(len(vertices))],
        ridges=edges,
        facets=[tuple(f) for f in facets],
    )


def simplicial_surface(n, vertices, facets) -> TraditionalFormComplex:
    """Simplicial traditional complex; ridges and corners are derived.

    At n = 3 the complex is polygonal, as every R^3 complex is: its
    triangles are polygons and its corners single vertices.
    """
    facets = sorted(tuple(sorted(f)) for f in facets)
    ridges = sorted({tuple(sorted(s)) for f in facets for s in combinations(f, n - 1)})
    corners = sorted({tuple(sorted(s)) for f in facets for s in combinations(f, n - 2)})
    return TraditionalFormComplex(
        n=n,
        vertices=list(vertices),
        corners=corners,
        ridges=ridges,
        facets=facets,
    )


def cube_traditional() -> TraditionalFormComplex:
    verts = [
        (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0),
        (0, 0, 2), (2, 0, 2), (2, 2, 2), (0, 2, 2),
    ]
    faces = [
        (0, 1, 2, 3), (7, 6, 5, 4), (0, 4, 5, 1),
        (1, 5, 6, 2), (2, 6, 7, 3), (3, 7, 4, 0),
    ]
    return polygonal_surface(verts, faces)


def octahedron_traditional() -> TraditionalFormComplex:
    verts = [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]
    tris = [
        tuple(sorted((x, y, z)))
        for x in (0, 1)
        for y in (2, 3)
        for z in (4, 5)
    ]
    return polygonal_surface(verts, tris)


def branched_bipyramid(k) -> TraditionalFormComplex:
    """k-fold cover of the square bipyramid, branched at its two apexes.

    Vertex 0 is the apex T = (0, 0, 1) and vertex 1 the apex B = (0, 0, -1);
    the equator e_0 .. e_(4k-1) puts e_i at the square's vertex i mod 4, and
    the triangles are (T, e_i, e_(i+1)) and (B, e_(i+1), e_i).  k = 1 is the
    octahedron.  Every k has Euler characteristic 2 and passes the edge-count
    precheck, but for k >= 2 the link of each apex winds k times around the
    axis, so the surface is not convex and corner 0 must fail.
    """
    square = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    r = 4 * k
    verts = [(0, 0, 1), (0, 0, -1)] + [square[i % 4] for i in range(r)]
    tris = [(0, 2 + i, 2 + (i + 1) % r) for i in range(r)]
    tris += [(1, 2 + (i + 1) % r, 2 + i) for i in range(r)]
    return polygonal_surface(verts, tris)


def tetrahedron_traditional() -> TraditionalFormComplex:
    verts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return polygonal_surface(verts, tris)


def simplex_boundary(n) -> TraditionalFormComplex:
    """Boundary of the standard n-simplex (n+1 vertices in R^n)."""
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(1 if j == i else 0 for j in range(n)))
    facets = list(combinations(range(n + 1), n))
    return simplicial_surface(n, verts, facets)


def subdivided_cube(lift=None) -> TraditionalFormComplex:
    """Cube with each facet split into 4 triangles at its centroid.

    lift=(face_index, vector) displaces that facet's centroid vertex.
    """
    verts = [
        (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0),
        (0, 0, 2), (2, 0, 2), (2, 2, 2), (0, 2, 2),
    ]
    faces = [
        (0, 1, 2, 3), (7, 6, 5, 4), (0, 4, 5, 1),
        (1, 5, 6, 2), (2, 6, 7, 3), (3, 7, 4, 0),
    ]
    centroids = [
        tuple(sum(verts[v][i] for v in f) // 4 for i in range(3)) for f in faces
    ]
    verts = verts + centroids
    tris = []
    for fi, f in enumerate(faces):
        c = 8 + fi
        for i in range(4):
            tris.append((f[i], f[(i + 1) % 4], c))
    if lift is not None:
        fi, vec = lift
        verts[8 + fi] = tuple(verts[8 + fi][i] + vec[i] for i in range(3))
    return polygonal_surface(verts, tris)


def csaszar_torus() -> TraditionalFormComplex:
    """7-vertex, 21-edge, 14-triangle torus (combinatorially K7)."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    verts = [
        (3, -3, 0), (-3, 3, 0), (-3, -3, 1), (3, 3, 1),
        (-1, -2, 3), (1, 2, 3), (0, 0, 15),
    ]
    return polygonal_surface(verts, tris)


def reversed_star(star):
    """The same star with its rim walked the other way.

    The start ridge stays first and the rest reverse, so facet i still
    joins rim ridges i and i + 1.
    """
    return replace(
        star,
        rim_ridges=star.rim_ridges[:1] + star.rim_ridges[:0:-1],
        rim_facets=star.rim_facets[::-1],
        ridge_normals=star.ridge_normals[:1] + star.ridge_normals[:0:-1],
        facet_normals=star.facet_normals[::-1],
    )


def local_outcome(star) -> str:
    """The kind the driver gives a corner with this star."""
    verdict = reduce_to_3d(star)
    if isinstance(verdict, Inconsistent):
        return "inconsistent"
    if isinstance(verdict, FlatPass):
        return "flat"
    return "cone" if check_cone_convex(verdict.rim) else "non_convex_cone"


def rim_flips(std):
    """Corners whose local outcome changes when their rim is reversed.

    Validates std first, so it needs a complex that validate_standard
    accepts.
    """
    validate_standard(std)
    stars = (wheel_star(std, corner) for corner in std.corners())
    return [
        star.corner.index for star in stars
        if local_outcome(star) != local_outcome(reversed_star(star))
    ]


@pytest.fixture
def cube():
    return cube_traditional()


@pytest.fixture
def cube_standard():
    return to_standard(cube_traditional())


@pytest.fixture
def octahedron():
    return octahedron_traditional()
