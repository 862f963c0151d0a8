import random
from fractions import Fraction

import pytest

from conftest import (
    cube_traditional,
    octahedron_traditional,
    simplex_boundary,
    simplicial_surface,
    subdivided_cube,
)
from plconvex import Convex, NotConvex, check_complex
from plconvex.errors import GenerationFailed, NotFullDimensional, NotSimplicial
from plconvex.oracle import (
    brute_hull_supports,
    dent,
    gen_convex_surface,
    is_hull_boundary,
)


def test_supports_tetrahedron():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(brute_hull_supports(pts)) == 4


def test_supports_cube():
    pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    supports = brute_hull_supports(pts)
    assert len(supports) == 6


def test_supports_interior_point_supports_nothing():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
    supports = brute_hull_supports(pts)
    assert len(supports) == 4
    for normal, offset in supports.hyperplanes:
        s = sum(n * c for n, c in zip(normal, (1, 1, 1))) - offset
        assert s > 0  # strictly inside every support


def test_supports_inner_side_invariant():
    rng = random.Random(17)
    for _ in range(20):
        pts = [
            tuple(rng.randrange(-50, 51) for _ in range(3)) for _ in range(10)
        ]
        try:
            supports = brute_hull_supports(pts)
        except NotFullDimensional:
            continue
        for normal, offset in supports.hyperplanes:
            for p in pts:
                assert sum(n * c for n, c in zip(normal, p)) >= offset


def test_supports_permutation_and_scaling_invariance():
    rng = random.Random(23)
    pts = [tuple(rng.randrange(-40, 41) for _ in range(3)) for _ in range(12)]
    base = brute_hull_supports(pts)
    perm = pts[::-1]
    assert brute_hull_supports(perm).hyperplanes == base.hyperplanes
    scaled = [tuple(3 * c for c in p) for p in pts]
    scaled_supports = brute_hull_supports(scaled)
    assert len(scaled_supports) == len(base)


def test_supports_exact_path_matches_int64_path():
    from plconvex.oracle import _supports_exact, _supports_int64

    rng = random.Random(5)
    for n in (3, 4):
        for _ in range(5):
            pts = [
                tuple(rng.randrange(-30, 31) for _ in range(n))
                for _ in range(n + 5)
            ]
            diffs_rank_ok = True
            try:
                assert _supports_int64(pts, n) == _supports_exact(pts, n)
            except NotFullDimensional:
                diffs_rank_ok = False


def test_supports_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        brute_hull_supports([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_is_hull_boundary_octahedron():
    assert is_hull_boundary(octahedron_traditional()) is True


def test_is_hull_boundary_moved_apex():
    t = octahedron_traditional()
    t.vertices[4] = (0, 0, -1)  # strictly inside the remaining hull
    assert is_hull_boundary(t) is False
    verdict = check_complex(t).verdict
    assert isinstance(verdict, NotConvex)


def test_is_hull_boundary_apex_flattened_onto_equator():
    # Apex at the origin sits exactly on the equator square: the four upper
    # triangles tile that square once and the map stays an embedding onto
    # the bottom-pyramid boundary, so this degenerate squash is convex.
    t = octahedron_traditional()
    t.vertices[4] = (0, 0, 0)
    assert is_hull_boundary(t) is True
    verdict = check_complex(t).verdict
    assert isinstance(verdict, Convex)


def test_is_hull_boundary_4simplex():
    assert is_hull_boundary(simplex_boundary(4)) is True
    assert is_hull_boundary(simplex_boundary(5)) is True


def test_is_hull_boundary_rejects_polygonal():
    with pytest.raises(NotSimplicial):
        is_hull_boundary(cube_traditional())


def test_is_hull_boundary_accepts_flat_vertices():
    # Subdivided cube facets: centroids are on the hull boundary but are not
    # hull vertices; the surface still embeds onto the boundary.
    assert is_hull_boundary(subdivided_cube()) is True


def test_is_hull_boundary_detects_missing_coverage():
    # Drop one facet: its support is no longer covered, and the checker
    # refuses the input as non-manifold before any geometry.
    t = simplex_boundary(3)
    t2 = simplicial_surface(3, t.vertices, t.facets[:-1])
    from plconvex import InvalidInput

    verdict = check_complex(t2).verdict
    assert isinstance(verdict, InvalidInput)
    assert is_hull_boundary(t2) is False


def test_gen_deterministic():
    a = gen_convex_surface(seed=11, n=3, num_points=10, coord_bound=100)
    b = gen_convex_surface(seed=11, n=3, num_points=10, coord_bound=100)
    assert a.vertices == b.vertices
    assert a.facets == b.facets
    c = gen_convex_surface(seed=12, n=3, num_points=10, coord_bound=100)
    assert c.vertices != a.vertices


def test_gen_output_is_hull_boundary_all_dims():
    for n, pts in ((3, 10), (4, 9), (5, 8)):
        t = gen_convex_surface(seed=n, n=n, num_points=pts, coord_bound=40)
        assert t.n == n
        assert is_hull_boundary(t) is True
        verdict = check_complex(t).verdict
        assert isinstance(verdict, Convex)


def test_gen_degenerate_bound_fails():
    with pytest.raises(GenerationFailed):
        gen_convex_surface(seed=1, n=3, num_points=10, coord_bound=0)


def test_dent_zero_factor_is_identity():
    t = octahedron_traditional()
    d = dent(t, 0, 0)
    assert d.vertices == t.vertices


def test_dent_triangulated_cube_corner():
    t = gen_convex_surface(seed=8, n=3, num_points=9, coord_bound=30)
    d = dent(t, 0, Fraction(1, 2))
    assert is_hull_boundary(d) is False


def test_dent_factor_half_breaks_convexity():
    # Module invariant: factor >= 1/2 buries the vertex for these surfaces.
    for seed in range(30, 38):
        t = gen_convex_surface(seed=seed, n=3, num_points=16, coord_bound=200)
        for factor in (Fraction(1, 2), Fraction(3, 4)):
            d = dent(t, seed % len(t.vertices), factor)
            verdict = check_complex(d).verdict
            assert isinstance(verdict, NotConvex), (seed, factor)
            assert is_hull_boundary(d) is False
