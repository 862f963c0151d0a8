from fractions import Fraction

import pytest

from conftest import (
    branched_bipyramid,
    csaszar_torus,
    cube_traditional,
    octahedron_traditional,
    rim_flips,
    simplex_boundary,
    subdivided_cube,
    tetrahedron_traditional,
)
from plconvex import (
    Convex,
    InvalidInput,
    NotConvex,
    check_convexity,
    corner_report,
    precheck_edge_count,
    to_standard,
)
from helpers_oracles import oracle_cone_convex
from plconvex.checker import EDGE_COUNT_EXCEEDED, check_complex
from plconvex.complexes import CellId, validate_standard, wheel_star
from plconvex.errors import InvalidInputError
from plconvex.local import Cone, reduce_to_3d
from plconvex.oracle import dent, gen_convex_surface, is_hull_boundary


def test_cube_convex(cube_standard):
    assert isinstance(check_convexity(cube_standard), Convex)


def test_invalid_input_verdict(cube_standard):
    cube_standard.ridge_facets[0] = cube_standard.ridge_facets[0][:1]
    verdict = check_convexity(cube_standard)
    assert isinstance(verdict, InvalidInput)


def test_dented_icosahedron_like_surface():
    # A generated 20-ish facet sphere with one vertex pulled deep inside:
    # every failing corner must touch the moved vertex.
    t = gen_convex_surface(seed=42, n=3, num_points=14, coord_bound=100)
    d = dent(t, 2, Fraction(9, 10))
    verdict = check_complex(d).verdict
    assert isinstance(verdict, NotConvex)
    touching = {v for f in d.facets if 2 in f for v in f}
    assert verdict.witness.index in touching
    assert not is_hull_boundary(d)


def test_verdict_independent_of_rim_direction(cube_standard):
    assert rim_flips(cube_standard) == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branched_bipyramid_covers(k):
    # Every closed surface that is not convex must fail at some corner.  At
    # the apex of a k-fold cover every consecutive rim triple turns one way,
    # so only the winding count tells k >= 2 from the octahedron (k = 1).
    t = branched_bipyramid(k)
    assert precheck_edge_count(t) == Convex()
    assert is_hull_boundary(t) is (k == 1)
    std = to_standard(t)
    validate_standard(std)
    apex = reduce_to_3d(wheel_star(std, std.corner_id(0)))
    assert isinstance(apex, Cone)
    assert oracle_cone_convex(apex.rim) is (k == 1)
    expect = Convex() if k == 1 else NotConvex("non_convex_cone", CellId(0, 0))
    assert check_convexity(std) == expect
    assert rim_flips(std) == []


def test_witness_is_first_failing_corner():
    t = octahedron_traditional()
    t.vertices[4] = (0, 0, -2)  # fold the apex onto the bottom vertex
    std = to_standard(t)
    verdict = check_convexity(std)
    assert isinstance(verdict, NotConvex)
    report = corner_report(std)
    failing = [r.corner.index for r in report if not r.passed]
    assert verdict.witness.index == min(failing)
    assert check_complex(std).corners_checked == verdict.witness.index + 1


def test_corner_report_cube(cube_standard):
    report = corner_report(cube_standard)
    assert len(report) == 8
    assert all(r.passed and r.kind == "cone" for r in report)


def test_corner_report_flat_subdivision():
    t = subdivided_cube()
    report = corner_report(to_standard(t))
    kinds = {r.corner.index: r.kind for r in report}
    # Centroid vertices 8..13 sit inside flat facets.
    for centroid in range(8, 14):
        assert kinds[centroid] == "flat"
        assert report[centroid].passed
    for corner in range(8):
        assert kinds[corner] == "cone"


def test_precheck_cube_and_tetrahedron():
    assert isinstance(precheck_edge_count(cube_traditional()), Convex)
    assert isinstance(precheck_edge_count(tetrahedron_traditional()), Convex)


def test_precheck_refuses_n4():
    with pytest.raises(InvalidInputError,
                       match=r"^edge-count precheck applies to R\^3 input only$"):
        precheck_edge_count(simplex_boundary(4))


def test_precheck_torus():
    torus = csaszar_torus()
    assert len(torus.vertices) == 7
    assert len(torus.ridges) == 21
    assert len(torus.facets) == 14
    # Euler characteristic 0: not a sphere.
    assert len(torus.vertices) - len(torus.ridges) + len(torus.facets) == 0
    verdict = precheck_edge_count(torus)
    assert isinstance(verdict, NotConvex)
    assert verdict.reason == EDGE_COUNT_EXCEEDED
    assert verdict.witness is None
    run = check_complex(torus)
    assert isinstance(run.verdict, NotConvex)
    assert run.verdict.reason == EDGE_COUNT_EXCEEDED
    assert run.corners_checked == 0


def test_check_complex_counts(cube):
    run = check_complex(cube)
    assert isinstance(run.verdict, Convex)
    assert run.corners_checked == 8


def test_verdict_invariance_under_scaling_and_permutation():
    import random

    rng = random.Random(99)
    for seed in (3, 4):
        t = gen_convex_surface(seed=seed, n=3, num_points=12, coord_bound=50)
        d = dent(t, 1, Fraction(4, 5))
        for surface in (t, d):
            base = check_complex(surface).verdict
            scaled = type(surface)(
                n=surface.n,
                vertices=[tuple(c * 10**6 for c in v) for v in surface.vertices],
                corners=surface.corners,
                ridges=surface.ridges,
                facets=surface.facets,
                mode=surface.mode,
            )
            got = check_complex(scaled).verdict
            assert type(got) is type(base)
            if isinstance(base, NotConvex):
                assert got.witness == base.witness
            # Permute facet and ridge indices; corner indices stay so the
            # witness is directly comparable.
            fp = list(range(len(surface.facets)))
            rp = list(range(len(surface.ridges)))
            rng.shuffle(fp)
            rng.shuffle(rp)
            permuted = type(surface)(
                n=surface.n,
                vertices=surface.vertices,
                corners=surface.corners,
                ridges=[surface.ridges[i] for i in rp],
                facets=[surface.facets[i] for i in fp],
                mode=surface.mode,
            )
            got2 = check_complex(permuted).verdict
            assert type(got2) is type(base)
            if isinstance(base, NotConvex):
                assert got2.witness == base.witness


def test_m3_corners_still_run_full_test():
    # Corollary: 3-facet corners of closed surfaces are automatically locally
    # convex, but the checker still runs the test to catch data corruption.
    tet = to_standard(tetrahedron_traditional())
    # Corrupt one facet normal to point along a ridge ray.
    key = next(iter(tet.facet_normals))
    tet.facet_normals[key] = tet.ridge_normals[(key[0], tet.corner_ridges[key[0]][0])]
    verdict = check_convexity(tet)
    assert isinstance(verdict, NotConvex)
