"""Scaling benchmark: large convex surfaces and wall-clock timings.

The brute-force generator is exponential, so scaling runs use an auxiliary
fast generator: random points on a sphere of large integer radius, rounded
to integers and hulled with Qhull (via scipy).  The sphere's curvature gap
at these sizes dwarfs the rounding perturbation, so the rounded points stay
in strictly convex position and the triangulated hull is exactly convex;
the checker re-verifies that on every run.  This path exists for benchmarks
and tests only and is not part of any verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .checker import Convex, check_convexity
from .normals import TraditionalFormComplex, to_standard


@dataclass(frozen=True)
class BenchRow:
    f0: int
    corner_ridge_incidences: int
    convert_seconds: float
    check_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.convert_seconds + self.check_seconds


def sphere_hull_surface(num_points: int, seed: int = 0,
                        radius: int = 100_000) -> TraditionalFormComplex:
    """Triangulated hull of rounded sphere samples (integer coordinates)."""
    import numpy as np
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_points, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    pts = np.unique(np.rint(x * radius).astype(np.int64), axis=0)
    hull = ConvexHull(pts.astype(float))
    used = hull.vertices
    remap = {int(old): new for new, old in enumerate(used)}
    vertices = [tuple(int(c) for c in pts[old]) for old in used]
    facets = [
        tuple(remap[int(v)] for v in simplex) for simplex in hull.simplices
    ]
    edges = set()
    for a, b, c in facets:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((u, v) if u < v else (v, u))
    ridges = sorted(edges)
    return TraditionalFormComplex(
        n=3,
        vertices=vertices,
        corners=[(i,) for i in range(len(vertices))],
        ridges=ridges,
        facets=facets,
    )


def run_bench(sizes, seed: int = 0) -> list[BenchRow]:
    """Generate, convert, and check one surface per requested vertex count."""
    rows = []
    warm = sphere_hull_surface(256, seed=seed)
    check_convexity(to_standard(warm))  # warm caches and allocator pools
    for f0 in sizes:
        t = sphere_hull_surface(f0, seed=seed)
        t0 = time.perf_counter()
        std = to_standard(t)
        t1 = time.perf_counter()
        verdict = check_convexity(std)
        t2 = time.perf_counter()
        if not isinstance(verdict, Convex):
            raise AssertionError(
                f"benchmark surface unexpectedly not convex: {verdict}"
            )
        rows.append(
            BenchRow(
                f0=len(t.vertices),
                corner_ridge_incidences=sum(2 for _ in t.ridges),
                convert_seconds=t1 - t0,
                check_seconds=t2 - t1,
            )
        )
    return rows


def format_bench(rows) -> str:
    lines = ["f0\tcorner-ridge\tconvert-s\tcheck-s\ttotal-s"]
    for r in rows:
        lines.append(
            f"{r.f0}\t{r.corner_ridge_incidences}\t"
            f"{r.convert_seconds:.3f}\t{r.check_seconds:.3f}\t"
            f"{r.total_seconds:.3f}"
        )
    return "\n".join(lines)
