import random
import time
from fractions import Fraction

import pytest

from conftest import (
    cube_traditional,
    octahedron_traditional,
    simplex_boundary,
    simplicial_surface,
    subdivided_cube,
)
from helpers_oracles import _support_point_sets
from plconvex import Convex, NotConvex, check_complex
from plconvex.cli import main
from plconvex.errors import GenerationFailed, NotFullDimensional, NotSimplicial
from plconvex.formats import serialize_plc
from plconvex.oracle import (
    _INT64_COORD_LIMIT,
    _assemble_complex,
    _bareiss,
    _normal_through,
    _supports_exact,
    _supports_int64,
    brute_hull_supports,
    dent,
    gen_convex_surface,
    is_hull_boundary,
)
from test_exact import _gauss_rank


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
    # Grid sets (coordinates in -2..2) make many n-subsets dependent.
    rng = random.Random(5)
    for n in (3, 4, 5):
        for bound in (30, 30, 30, 30, 30, 2, 2, 2, 2, 2):
            pts = [
                tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
                for _ in range(n + 5)
            ]
            assert _supports_int64(pts, n) == _supports_exact(pts, n)


_f = Fraction
_RATIONAL_3 = [(0, 0, 0), (_f(1, 3), 0, 0), (0, _f(1, 3), 0), (0, 0, _f(1, 3)),
               (_f(1, 7), _f(1, 7), _f(1, 7))]
_RATIONAL_4 = [(0, 0, 0, 0), (_f(1, 2), 0, 0, 0), (0, _f(2, 3), 0, 0),
               (0, 0, _f(3, 5), 0), (0, 0, 0, _f(-5, 4)),
               (_f(1, 9), _f(1, 9), _f(1, 9), _f(-1, 9)),
               (_f(7, 5), _f(1, 2), _f(-1, 3), _f(1, 4))]


def test_supports_rational_points():
    # Recorded from the Fraction elimination the integer kernel replaced.
    assert brute_hull_supports(_RATIONAL_3).hyperplanes == (
        ((-3, -3, -1), -1), ((-3, -1, -3), -1), ((-1, -3, -3), -1),
        ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
    )
    assert brute_hull_supports(_RATIONAL_4).hyperplanes == (
        ((-905, -1890, -2100, 1008), -1260), ((-90, 94, -75, 36), -45),
        ((0, 1, 0, -2), 0), ((0, 1, 0, 0), 0), ((0, 2, 3, 0), 0),
        ((1, 0, 0, 0), 0), ((5, 0, 0, -28), 0), ((5, 0, 21, 0), 0),
    )


def test_points_on_match_direct_evaluation():
    # Both enumeration paths: coordinates the int64 path takes (and grid
    # sets with many points per support), coordinates beyond its limits,
    # and rational points.
    rng = random.Random(29)
    cases = [_RATIONAL_3, _RATIONAL_4]
    for n in (3, 4, 5):
        limit = _INT64_COORD_LIMIT[n]
        for bound in (2, 30, limit, 2 * limit):
            for _ in range(3):
                pts = [
                    tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
                    for _ in range(n + 5)
                ]
                beyond = max(abs(c) for p in pts for c in p) > limit
                assert beyond == (bound > limit)
                cases.append(pts)
    checked = 0
    for pts in cases:
        try:
            supports = brute_hull_supports(pts)
        except NotFullDimensional:
            continue
        assert len(supports.points_on) == len(supports.hyperplanes)
        assert list(supports.points_on) == _support_point_sets(pts, supports)
        checked += 1
    assert checked >= 30


def _laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a != 0
    )


def _planted_matrix(rng, n):
    """An n x n integer matrix whose rows past a random rank are integer
    combinations of the others, rows shuffled."""
    rank = rng.randrange(n + 1)
    rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rank)]
    while len(rows) < n:
        coeffs = [rng.randrange(-2, 3) for _ in range(rank)]
        rows.append([sum(c * r[k] for c, r in zip(coeffs, rows[:rank]))
                     for k in range(n)])
    rng.shuffle(rows)
    return rows


def test_bareiss_matches_reference_rank_det_and_normal():
    rng = random.Random(24)
    for n in [*range(1, 8)] * 8 + [8] * 4:
        rows = _planted_matrix(rng, n)
        _, pivots, last = _bareiss(rows)
        rank = _gauss_rank(rows)
        assert len(pivots) == rank, rows
        det = _laplace_det(rows)
        assert (abs(last) if rank == n else 0) == abs(det), rows
        normal = _normal_through([(0,) * n, *rows[:-1]], n)
        assert all(
            sum(a * b for a, b in zip(normal, r)) == 0 for r in rows[:-1]
        ), rows
        assert any(normal) == (_gauss_rank(rows[:-1]) == n - 1), rows
        assert abs(sum(a * b for a, b in zip(normal, rows[-1]))) == abs(det)


def test_supports_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        brute_hull_supports([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(NotFullDimensional, match=r"^no points$"):
        brute_hull_supports([])
    with pytest.raises(NotFullDimensional, match=r"^need at least 4 points$"):
        brute_hull_supports([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


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


def test_is_hull_boundary_coincident_vertices():
    # Vertex 1 moved onto vertex 0: the hull is a pyramid, and triangulating
    # its faces meets two ids at one point, which have no proper face.
    t = octahedron_traditional()
    t.vertices[1] = t.vertices[0]
    assert is_hull_boundary(t) is False


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
    with pytest.raises(GenerationFailed, match=r"^dimension must be >= 3$"):
        gen_convex_surface(seed=1, n=2, num_points=10, coord_bound=10)


def test_assemble_complex_refuses_a_ridge_on_three_facets():
    coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    tetrahedron = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    t = _assemble_complex(3, coords, tetrahedron)
    assert (t.facets, len(t.ridges), len(t.corners)) == (tetrahedron, 6, 4)
    # A fin on edge (0, 1): that ridge lies on three facets.
    assert _assemble_complex(3, coords, [*tetrahedron, (0, 1, 4)]) is None


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


def test_oracle_cost_is_polynomial_in_n(tmp_path, capsys):
    # An n = 10 simplex boundary.  On a 2-core x86 box a Laplace expansion
    # per minor took 43 s to generate it and 52 s to decide it; one
    # elimination per subset takes about 0.1 s for each.
    start = time.perf_counter()
    t = gen_convex_surface(seed=1, n=10, num_points=11, coord_bound=20)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    assert is_hull_boundary(t) is True
    assert time.perf_counter() - start < 2
    path = tmp_path / "hull.plc"
    path.write_text(serialize_plc(t))
    start = time.perf_counter()
    assert main(["oracle", str(path)]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "hull-boundary\n"
