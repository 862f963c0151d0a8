"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3's outward lift (the subdivided 2-cube with its bottom
centroid moved to (1, 1, -1)) bounds the polytope cut out by nine integer
half-spaces, so the checker must call it Convex; the test certifies this
with plain integer arithmetic, independent of both the checker and the
hull oracle.  An outward lift that the checker must reject, with the apex
slid past the facet's slab, is part of the degeneracy suite.
"""

import random
import time
from fractions import Fraction
import pytest

from conftest import csaszar_torus, rim_flips, subdivided_cube
from helpers_oracles import planar_star_tiles
from plconvex import (
    Convex,
    FlatPass,
    NotConvex,
    TraditionalFormComplex,
    check_complex,
    check_convexity,
    corner_report,
    reduce_to_3d,
    to_standard,
)
from plconvex.formats import parse_plc, serialize_plc
from plconvex.local import Inconsistent
from plconvex.normals import derive_incidences
from plconvex.oracle import dent, gen_convex_surface, is_hull_boundary
from test_exact import PlaneFrame
from test_local import _random_planar_star, is_folded, make_star


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def _spin(seed):
    return random.Random(seed ^ 0xD5)


_INSTANCE_CACHE = {}


def _n3_instances():
    if "n3" not in _INSTANCE_CACHE:
        out = []
        for seed in range(1, 201):
            rng = _spin(seed)
            npts = rng.randrange(8, 51)
            t = gen_convex_surface(
                seed=seed, n=3, num_points=npts, coord_bound=1000
            )
            out.append((seed, t, rng.randrange(len(t.vertices))))
        _INSTANCE_CACHE["n3"] = out
    return _INSTANCE_CACHE["n3"]


def _high_dim_instances(n):
    key = f"n{n}"
    if key not in _INSTANCE_CACHE:
        out = []
        for seed in range(1, 51):
            rng = _spin(seed * 31 + n)
            npts = rng.randrange(8, 17)
            t = gen_convex_surface(
                seed=seed + 1000 * n, n=n, num_points=npts, coord_bound=1000
            )
            out.append((seed, t, rng.randrange(len(t.vertices))))
        _INSTANCE_CACHE[key] = out
    return _INSTANCE_CACHE[key]


def _incident_corners(t: TraditionalFormComplex, vertex: int):
    touching = {v for f in t.facets if vertex in f for v in f}
    out = set()
    for ci, c in enumerate(t.corners):
        if set(c) <= touching and any(
            vertex in f and set(c) <= set(f) for f in t.facets
        ):
            out.add(ci)
    return out


def test_criterion_1_oracle_agreement_n3():
    start = time.perf_counter()
    failures = []
    for seed, t, target in _n3_instances():
        verdict = check_complex(t).verdict
        if not isinstance(verdict, Convex) or not is_hull_boundary(t):
            failures.append((seed, "convex surface rejected"))
            continue
        d = dent(t, target, Fraction(3, 4))
        dv = check_complex(d).verdict
        do = is_hull_boundary(d)
        if not isinstance(dv, NotConvex):
            failures.append((seed, f"dent not detected: {dv}"))
            continue
        if do:
            failures.append((seed, "oracle accepts dented surface"))
            continue
        if dv.witness.index not in _incident_corners(d, target):
            failures.append((seed, "witness not incident to dented vertex"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "1 (n=3 oracle agreement, 200 seeds)",
        ok,
        f"failures={failures[:3]} elapsed={elapsed:.1f}s",
    )


@pytest.mark.parametrize("n", [4, 5])
def test_criterion_2_oracle_agreement_high_dim(n):
    disagreements = []
    for seed, t, target in _high_dim_instances(n):
        verdict = check_complex(t).verdict
        if isinstance(verdict, Convex) != is_hull_boundary(t):
            disagreements.append((seed, "base"))
        if not isinstance(verdict, Convex):
            disagreements.append((seed, "generated surface not convex"))
        d = dent(t, target, Fraction(3, 4))
        dv = check_complex(d).verdict
        if isinstance(dv, Convex) != is_hull_boundary(d):
            disagreements.append((seed, "dented"))
    _report(
        f"2 (n={n} oracle agreement, 50 seeds)",
        not disagreements,
        f"disagreements={disagreements[:3]}",
    )


def test_criterion_3_degeneracy_suite():
    flat = subdivided_cube()
    inward = subdivided_cube(lift=(0, (0, 0, 1)))  # into the solid
    # Apex (3, 1, -1) leaves the slab 0 <= x <= 2 over the bottom facet, so
    # the cube vertex (2, 0, 0) next to it becomes a reflex corner.
    slid = subdivided_cube(lift=(0, (2, 0, -1)))
    checks = []
    v_flat = check_complex(flat).verdict
    checks.append(("subdivided convex", isinstance(v_flat, Convex)))
    checks.append(("subdivided oracle", is_hull_boundary(flat) is True))
    v_in = check_complex(inward).verdict
    checks.append(("inward NotConvex", isinstance(v_in, NotConvex)))
    checks.append(("inward oracle", is_hull_boundary(inward) is False))
    checks.append(
        ("inward agreement", isinstance(v_in, Convex) == is_hull_boundary(inward))
    )
    v_slid = check_complex(slid).verdict
    checks.append(
        (
            "slid apex NotConvex at vertex 1",
            isinstance(v_slid, NotConvex)
            and v_slid.reason == "non_convex_cone"
            and v_slid.witness.index == 1
            and slid.vertices[slid.corners[1][0]] == (2, 0, 0),
        )
    )
    checks.append(("slid apex oracle", is_hull_boundary(slid) is False))
    checks.append(
        ("slid apex agreement", isinstance(v_slid, Convex) == is_hull_boundary(slid))
    )
    bad = [name for name, ok in checks if not ok]
    _report(
        "3 (degeneracy suite: flat + inward lift + slid outward apex)",
        not bad,
        str(bad),
    )


# The outward lift bounds {v : a . v <= b for (a, b) in _LIFTED_CUBE_HALFSPACES}:
# the box's side and top faces plus four tent planes through the apex
# (1, 1, -1) that replace its bottom face.
_LIFTED_CUBE_HALFSPACES = [
    ((-1, 0, 0), 0),  # 0 <= x
    ((1, 0, 0), 2),  # x <= 2
    ((0, -1, 0), 0),  # 0 <= y
    ((0, 1, 0), 2),  # y <= 2
    ((0, 0, 1), 2),  # z <= 2
    ((0, -1, -1), 0),  # y + z >= 0
    ((-1, 0, -1), 0),  # x + z >= 0
    ((1, 0, -1), 2),  # x - z <= 2
    ((0, 1, -1), 2),  # y - z <= 2
]


def _dot(a, v):
    return sum(ai * vi for ai, vi in zip(a, v))


def _supporting_planes(t, facet):
    """Indices of the certificate planes that contain every vertex of facet."""
    return [
        k
        for k, (a, b) in enumerate(_LIFTED_CUBE_HALFSPACES)
        if all(_dot(a, t.vertices[v]) == b for v in facet)
    ]


def test_criterion_3_outward_lift_as_stated():
    # Moving the bottom centroid outward to (1, 1, -1) gives the polytope
    # above.  Every vertex satisfies all nine inequalities and every facet
    # lies in one of the nine boundary planes, so the closed surface is the
    # boundary of a convex polytope and every corner is locally convex.  The
    # certificate is integer arithmetic on the input alone: should the
    # checker ever call this surface NotConvex, the checker is at fault.
    outward = subdivided_cube(lift=(0, (0, 0, -1)))  # away from the solid
    run = check_complex(outward)
    v_out, checked = run.verdict, run.corners_checked
    oracle = is_hull_boundary(outward)
    _report(
        "3-outward (verdict matches oracle)",
        isinstance(v_out, Convex) == oracle,
        f"checker={type(v_out).__name__} oracle={oracle}",
    )
    _report(
        "3-outward (Convex, all 14 corners checked, oracle agrees)",
        isinstance(v_out, Convex) and checked == 14 and oracle is True,
        f"checker={v_out} corners_checked={checked} oracle={oracle}",
    )

    outside = [
        (i, k)
        for i, p in enumerate(outward.vertices)
        for k, (a, b) in enumerate(_LIFTED_CUBE_HALFSPACES)
        if _dot(a, p) > b
    ]
    unsupported = [f for f in outward.facets if not _supporting_planes(outward, f)]
    _report(
        "3-outward (nine-half-space certificate)",
        len(outward.vertices) == 14 and not outside and not unsupported,
        f"vertices outside={outside} facets off every plane={unsupported}",
    )

    # False-negative guard: cube vertex 0 is a cone corner whose wheel mixes
    # coplanar subdivided triangles (pairs in x = 0 and y = 0) with the two
    # tilted tent faces x + z = 0 and y + z = 0.
    wheel_planes = [
        _supporting_planes(outward, f) for f in outward.facets if 0 in f
    ]
    mixed_wheel = sorted(p for ps in wheel_planes for p in ps) == [
        0, 0, 2, 2, 5, 6,
    ]
    corner0 = corner_report(to_standard(outward))[0]
    _report(
        "3-outward (mixed coplanar/tilted wheel at vertex 0 passes as a cone)",
        mixed_wheel and corner0.passed and corner0.kind == "cone",
        f"wheel planes={wheel_planes} corner 0={corner0}",
    )


def test_criterion_4_planar_fold_detection():
    frame = PlaneFrame((1, 0), (0, 1))
    stated = [
        (((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)), False),
        (((1, 0), (1, 1), (0, 1), (2, -1), (1, -1)), True),
        (((1, 0), (0, 1), (-1, 0), (0, 1), (1, 0)), True),
    ]
    for args, expect in stated:
        assert is_folded(*args, frame) is expect, args
    folded_star = make_star(
        [(1, 0, 0), (0, 1, 0), (1, -1, 0)],
        [(1, 1, 0), (2, -1, 0), (1, -2, 0)],
    )
    assert isinstance(reduce_to_3d(folded_star), Inconsistent)

    rng = random.Random(40_000)
    disagreements = 0
    checked = 0
    while checked < 1000:
        m = rng.randrange(3, 9)
        sample = _random_planar_star(rng, m)
        if sample is None:
            continue
        rays, markers = sample
        checked += 1
        expect = planar_star_tiles(rays, markers)
        star = make_star(
            [r + (0,) for r in rays], [mk + (0,) for mk in markers]
        )
        got = isinstance(reduce_to_3d(star), FlatPass)
        if got != expect:
            disagreements += 1
    _report(
        "4 (planar folds: stated examples + 1000 random stars)",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_criterion_5_scaling():
    from plconvex.bench import run_bench

    rows = run_bench([1000, 10_000, 100_000], seed=7)
    ratios = [
        rows[i + 1].total_seconds / rows[i].total_seconds
        for i in range(len(rows) - 1)
    ]
    ok = all(r <= 13.0 for r in ratios)
    _report(
        "5 (linear scaling across decades, x1.3 slack)",
        ok,
        "ratios=" + ", ".join(f"{r:.2f}" for r in ratios)
        + " times=" + ", ".join(f"{r.total_seconds:.2f}s" for r in rows),
    )


def _permute_cells(t: TraditionalFormComplex, rng):
    cp = list(range(len(t.corners)))
    rp = list(range(len(t.ridges)))
    fp = list(range(len(t.facets)))
    rng.shuffle(cp)
    rng.shuffle(rp)
    rng.shuffle(fp)
    permuted = TraditionalFormComplex(
        n=t.n,
        vertices=t.vertices,
        corners=[t.corners[i] for i in cp],
        ridges=[t.ridges[i] for i in rp],
        facets=[t.facets[i] for i in fp],
        mode=t.mode,
    )
    # corner_map[old_index] = new_index
    corner_map = {old: new for new, old in enumerate(cp)}
    return permuted, corner_map


def _robustness_instances():
    for seed, t, target in _n3_instances():
        yield t
        yield dent(t, target, Fraction(3, 4))
    for n in (4, 5):
        for seed, t, target in _high_dim_instances(n):
            yield t
            yield dent(t, target, Fraction(3, 4))
    yield subdivided_cube()
    yield subdivided_cube(lift=(0, (0, 0, -1)))
    yield subdivided_cube(lift=(0, (0, 0, 1)))


def test_criterion_6_exactness_robustness():
    rng = random.Random(606)
    bad = []
    count = 0
    for t in _robustness_instances():
        count += 1
        base = check_complex(t).verdict
        scaled = TraditionalFormComplex(
            n=t.n,
            vertices=[tuple(c * 10**6 for c in v) for v in t.vertices],
            corners=t.corners,
            ridges=t.ridges,
            facets=t.facets,
            mode=t.mode,
        )
        got = check_complex(scaled).verdict
        if got != base:
            bad.append(("scale", count))
        permuted, corner_map = _permute_cells(t, rng)
        got = check_complex(permuted).verdict
        if type(got) is not type(base):
            bad.append(("permute-kind", count))
        elif isinstance(base, NotConvex):
            # Fail-fast picks the lowest-index failing corner, and the
            # permutation renames corners, so compare the full per-corner
            # verdict sets through the index map instead.
            base_fails = {
                (corner_map[r.corner.index], r.kind)
                for r in corner_report(to_standard(t))
                if not r.passed
            }
            got_fails = {
                (r.corner.index, r.kind)
                for r in corner_report(to_standard(permuted))
                if not r.passed
            }
            if base_fails != got_fails:
                bad.append(("permute-corner-set", count))
            elif got.witness.index != min(i for i, _ in got_fails):
                bad.append(("permute-witness", count))
        if rim_flips(to_standard(t)):
            bad.append(("rim-reversal", count))
        if bad:
            break
    _report(
        "6 (verdicts invariant under scaling/permutation/rim flips)",
        not bad,
        f"instances={count} first_failure={bad[:1]}",
    )


def _grouped(pairs, rows):
    out = [[] for _ in range(rows)]
    for a, b in pairs:
        out[a].append(b)
    return out


def test_converted_rows_follow_derive_incidences():
    # The converted complex takes its corner rows from its normals' keys;
    # they must be derive_incidences' pairs, grouped in the order listed.
    for count, t in enumerate(_robustness_instances()):
        std = to_standard(t)
        cr, cf, _ = derive_incidences(t)
        assert std.corner_ridges == _grouped(cr, len(t.corners)), count
        assert std.corner_facets == _grouped(cf, len(t.corners)), count


def test_criterion_7_form_equivalence():
    bad = []
    count = 0
    for t in _robustness_instances():
        count += 1
        direct = check_complex(t).verdict
        std_text = serialize_plc(to_standard(t))
        via_std = check_convexity(parse_plc(std_text))
        if type(direct) is not type(via_std):
            bad.append(count)
        elif isinstance(direct, NotConvex) and direct.witness != via_std.witness:
            bad.append(count)
        if bad:
            break
    _report(
        "7 (traditional vs converted standard form)",
        not bad,
        f"instances={count} first_failure={bad[:1]}",
    )


def test_criterion_8_precheck_runs_no_geometry():
    from plconvex.cli import run_check

    torus = csaszar_torus()
    assert len(torus.vertices) == 7 and len(torus.ridges) == 21
    report, verdict = run_check(torus)
    ok = (
        isinstance(verdict, NotConvex)
        and verdict.reason == "edge_count_exceeded"
        and report.corners_checked == 0
    )
    _report(
        "8 (torus rejected by edge-count precheck, corners checked = 0)",
        ok,
        f"reason={report.reason} corners_checked={report.corners_checked}",
    )
