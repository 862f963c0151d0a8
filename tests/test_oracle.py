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
from helpers_oracles import (
    _laplace_det,
    _support_point_sets,
    subset_enumeration,
)
from plconvex import Convex, NotConvex, check_complex, oracle
from plconvex.bench import sphere_hull_surface
from plconvex.cli import main
from plconvex.errors import GenerationFailed, NotFullDimensional, NotSimplicial
from plconvex.formats import serialize_plc
from plconvex.oracle import (
    _assemble_complex,
    _bareiss,
    _normal_through,
    dent,
    gen_convex_surface,
    hull_supports,
    is_hull_boundary,
)
from test_exact import _gauss_rank


def test_supports_tetrahedron():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(hull_supports(pts)) == 4


def test_supports_cube():
    pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    supports = hull_supports(pts)
    assert len(supports) == 6


def test_supports_interior_point_supports_nothing():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
    supports = hull_supports(pts)
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
            supports = hull_supports(pts)
        except NotFullDimensional:
            continue
        for normal, offset in supports.hyperplanes:
            for p in pts:
                assert sum(n * c for n, c in zip(normal, p)) >= offset


def test_supports_permutation_and_scaling_invariance():
    rng = random.Random(23)
    pts = [tuple(rng.randrange(-40, 41) for _ in range(3)) for _ in range(12)]
    base = hull_supports(pts)
    perm = pts[::-1]
    assert hull_supports(perm).hyperplanes == base.hyperplanes
    scaled = [tuple(3 * c for c in p) for p in pts]
    scaled_supports = hull_supports(scaled)
    assert len(scaled_supports) == len(base)


def _cube_vertex_sets(rng, n, bound, count):
    corners = [
        tuple(bound if (k >> j) & 1 else -bound for j in range(n))
        for k in range(2**n)
    ]
    for _ in range(count):
        yield rng.sample(corners, rng.randrange(n + 1, min(2**n, 2 * n + 6)))


def _differential_sets():
    # Grid sets (coordinates in -2..2) make many n-subsets dependent.
    rng = random.Random(5)
    for n in (3, 4, 5):
        for bound in (30, 30, 30, 30, 30, 2, 2, 2, 2, 2):
            yield [
                tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
                for _ in range(n + 5)
            ]
    # Coincident points: each set repeats three of its points.
    for n in (2, 3, 4, 5):
        for bound in (1, 3, 1000):
            pts = [
                tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
                for _ in range(n + 4)
            ]
            yield pts + rng.sample(pts, 3)
    yield _RATIONAL_3
    yield _RATIONAL_4
    for n in (3, 4, 5):
        yield from _cube_vertex_sets(rng, n, 1, 4)


def test_supports_match_subset_enumeration():
    checked = 0
    for pts in _differential_sets():
        try:
            wrapped = hull_supports(pts)
        except NotFullDimensional:
            continue
        with subset_enumeration():
            assert hull_supports(pts) == wrapped, pts
        checked += 1
    assert checked >= 50


def test_supports_of_cube_vertices_at_4500_in_r5():
    # Each side value here reaches about 10^21, past int64: a fast path
    # bounded at 4,500 per coordinate in R^5 wrapped around.
    rng = random.Random(28)
    for pts in _cube_vertex_sets(rng, 5, 4500, 12):
        with subset_enumeration():
            reference = hull_supports(pts)
        assert hull_supports(pts) == reference, pts


def test_oracle_accepts_the_seed_6_hull_in_r5(tmp_path, capsys):
    # The hull of the first sample; an int64 fast path bounded at 4,500
    # resampled past it, and called it not a hull boundary.
    t = gen_convex_surface(seed=6, n=5, num_points=9, coord_bound=4500)
    assert t.vertices[0] == (-3180, 3446, -214, -3897, -4493)
    assert len(t.vertices) == 9 and len(t.facets) == 26
    assert isinstance(check_complex(t).verdict, Convex)
    path = tmp_path / "hull.plc"
    path.write_text(serialize_plc(t))
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == "hull-boundary\n"


def test_supports_cost_is_output_sensitive(monkeypatch):
    # Gift wrapping makes at most about one elimination per facet and
    # point; trying every n-subset would take C(40, 4) = 91,390 at N = 40.
    calls = 0
    bareiss = oracle._bareiss

    def counted(rows):
        nonlocal calls
        calls += 1
        return bareiss(rows)

    monkeypatch.setattr(oracle, "_bareiss", counted)
    cases = [
        [(t, t * t, t**3, t**4) for t in range(n)] for n in (16, 24, 32, 40)
    ]
    cases.append(sphere_hull_surface(200, seed=0, radius=10**6).vertices)
    for pts in cases:
        calls = 0
        supports = hull_supports(pts)
        assert calls <= len(supports) * len(pts), (len(pts), calls)


_f = Fraction
_RATIONAL_3 = [(0, 0, 0), (_f(1, 3), 0, 0), (0, _f(1, 3), 0), (0, 0, _f(1, 3)),
               (_f(1, 7), _f(1, 7), _f(1, 7))]
_RATIONAL_4 = [(0, 0, 0, 0), (_f(1, 2), 0, 0, 0), (0, _f(2, 3), 0, 0),
               (0, 0, _f(3, 5), 0), (0, 0, 0, _f(-5, 4)),
               (_f(1, 9), _f(1, 9), _f(1, 9), _f(-1, 9)),
               (_f(7, 5), _f(1, 2), _f(-1, 3), _f(1, 4))]


def test_supports_rational_points():
    # Recorded from the Fraction elimination the integer kernel replaced.
    assert hull_supports(_RATIONAL_3).hyperplanes == (
        ((-3, -3, -1), -1), ((-3, -1, -3), -1), ((-1, -3, -3), -1),
        ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
    )
    assert hull_supports(_RATIONAL_4).hyperplanes == (
        ((-905, -1890, -2100, 1008), -1260), ((-90, 94, -75, 36), -45),
        ((0, 1, 0, -2), 0), ((0, 1, 0, 0), 0), ((0, 2, 3, 0), 0),
        ((1, 0, 0, 0), 0), ((5, 0, 0, -28), 0), ((5, 0, 21, 0), 0),
    )


def test_points_on_match_direct_evaluation():
    # Grid sets with many points per support, small and large coordinates,
    # and rational points.
    rng = random.Random(29)
    cases = [_RATIONAL_3, _RATIONAL_4]
    for n in (3, 4, 5):
        for bound in (2, 30, 4_500, 600_000):
            for _ in range(3):
                cases.append([
                    tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
                    for _ in range(n + 5)
                ])
    checked = 0
    for pts in cases:
        try:
            supports = hull_supports(pts)
        except NotFullDimensional:
            continue
        assert len(supports.points_on) == len(supports.hyperplanes)
        assert list(supports.points_on) == _support_point_sets(pts, supports)
        checked += 1
    assert checked >= 30


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
        hull_supports([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(NotFullDimensional, match=r"^no points$"):
        hull_supports([])
    with pytest.raises(NotFullDimensional, match=r"^need at least 4 points$"):
        hull_supports([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


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
