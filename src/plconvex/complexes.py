"""Incidence poset of corners, ridges, and facets, plus wheel-star extraction.

The standard-form complex stores the three top dimensions of the face poset
together with one Euclidean inner normal per corner-ridge and corner-facet
incidence.  Geometry never enters this module beyond the normals' rank and
the coordinate axes that carry it; all structure checks are combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import InvalidInputError
from .exact import Vector, in_span3, pivot_columns


@dataclass(frozen=True, order=True)
class CellId:
    dim: int
    index: int


@dataclass(frozen=True)
class WheelStar:
    """A corner's star as a wheel: cyclically ordered rim of ridges and facets.

    rim_facets[i] is the facet joining rim_ridges[i] and rim_ridges[(i+1) % m];
    normals are attached in the same order, as 3-vectors: the complex's own
    normals at n = 3, their coordinates on the corner's three axes at n >= 4
    (see wheel_star).
    """

    corner: CellId
    rim_ridges: tuple[int, ...]
    rim_facets: tuple[int, ...]
    ridge_normals: tuple[Vector, ...]
    facet_normals: tuple[Vector, ...]

    @property
    def m(self) -> int:
        return len(self.rim_ridges)


@dataclass(frozen=True)
class FaceCounts:
    by_dim: dict[int, int]
    corner_ridge: int


class StandardFormComplex:
    """P[n-3, n-2, n-1] with normals per corner-ridge/corner-facet incidence.

    Cells are addressed by (dim, index) with indices dense per dimension.
    ridge_normals and facet_normals are keyed by the incidence (c, x) each
    normal sits on, and those keys are the complex's corner incidences.
    The complex owns the ridge_normals and facet_normals dicts it is given
    (no copy is made), so callers hand over dicts they no longer change.
    At n >= 4, validate_standard fills corner_axes with three coordinate
    axes per corner, on which wheel_star reads that corner's normals: the
    pivot columns of one echelon of the corner's normals, stopped at three
    pivots, whose minors then prove the rank at most 3.
    """

    def __init__(
        self,
        n: int,
        num_corners: int,
        num_ridges: int,
        num_facets: int,
        ridge_facet_pairs: list[tuple[int, int]],
        ridge_normals: dict[tuple[int, int], Vector],
        facet_normals: dict[tuple[int, int], Vector],
    ):
        if n < 3:
            raise InvalidInputError(f"ambient dimension must be >= 3, got {n}")
        # A valid complex has a ridge normal per corner and a ridge-facet
        # pair per ridge and per facet.  A larger count, or a negative one,
        # cannot be filled, and rejecting it before the rows are built keeps
        # a short file from allocating memory in proportion to its counts.
        pairs = len(ridge_facet_pairs)
        for count, kind, most, source in (
            (num_corners, "corners", len(ridge_normals), "ridge normals"),
            (num_ridges, "ridges", pairs, "ridge-facet pairs"),
            (num_facets, "facets", pairs, "ridge-facet pairs"),
        ):
            if not 0 <= count <= most:
                raise InvalidInputError(
                    f"bad {kind} count {count}: want 0..{most}, "
                    f"the number of {source}"
                )
        self.n = n
        self.num_corners = num_corners
        self.num_ridges = num_ridges
        self.num_facets = num_facets
        # Each corner incidence is the key of its normal.  Corner rows are
        # lists, which validate_standard puts in rim order; ridge rows are
        # tuples.
        self.corner_ridges = _group(
            ridge_normals, num_corners, num_ridges, "corner", "ridge", []
        )
        self.corner_facets = _group(
            facet_normals, num_corners, num_facets, "corner", "facet", []
        )
        self.ridge_facets = _group(
            ridge_facet_pairs, num_ridges, num_facets, "ridge", "facet", ()
        )
        self.ridge_normals = ridge_normals
        self.facet_normals = facet_normals
        self.corner_axes: list[tuple[int, int, int]] = []

    # -- cell id helpers -------------------------------------------------

    def corner_id(self, index: int) -> CellId:
        return CellId(self.n - 3, index)

    def corners(self):
        return (self.corner_id(i) for i in range(self.num_corners))


_SHORT_ROW = 8  # a valid ridge row holds 2 facets


def _group(pairs, rows: int, cols: int, row_kind: str, col_kind: str, empty):
    """The b of each pair (a, b), indexed by a, in pair order.

    Each row is a copy of empty, a list or a tuple.  Tuples of ints leave
    the garbage collector's view once it has seen them; lists stay in it.
    One pass with the range check inline; the first index out of range, in
    pair order and a before b, is reported.  A list row grows in place, but
    a tuple row is copied on each append, so a tuple row past _SHORT_ROW
    entries collects the rest in a side list, joined once at the end:
    linear for any row length, and no side list on input whose rows are
    short.
    """
    # List rows turned into tuples at the end would be shorter, but were
    # slower: converting a 100k-vertex sphere hull (seed 7) ran 5 full
    # collections instead of 3 and took 0.3 s longer (2 cores, Python 3.11).
    groups = [empty[:] for _ in range(rows)]
    copied = isinstance(empty, tuple)
    rest = {}
    for a, b in pairs:
        if not (0 <= a < rows and 0 <= b < cols):
            kind, i = (row_kind, a) if not 0 <= a < rows else (col_kind, b)
            raise InvalidInputError(f"{kind} index {i} out of range")
        if copied and len(groups[a]) >= _SHORT_ROW:
            rest.setdefault(a, []).append(b)
        else:
            groups[a] += (b,)
    for a, tail in rest.items():
        groups[a] += tuple(tail)
    return groups


def validate_standard(complex: StandardFormComplex) -> None:
    """Check manifold-star structure and the normals; raise on failure.

    Valid means: every ridge bounds exactly two facets, every normal is a
    nonzero n-vector, the incidence relation is closed (a corner on a ridge
    is on the ridge's facets), every corner's star walks as a single wheel
    with m >= 2, the normals at a corner span at most 3 dimensions
    (automatic at n = 3), the complex has facets and corners, the facet
    adjacency graph is connected, and the surface is closed (see
    _check_closed).  Each corner's corner_ridges and corner_facets are left
    in the walk's rim order, which wheel_star reads.  At n >= 4 one echelon
    of each corner's normals, stopped at three pivots, gives the corner's
    axes, and in_span3 proves the rank at most 3 from the three vectors it
    kept (see _corner_axes).  The axes still come from the echelon that
    chose them, so wheel_star's proof of exactness stands.
    """
    cx = complex
    for r in range(cx.num_ridges):
        k = len(cx.ridge_facets[r])
        if k != 2:
            raise InvalidInputError(
                f"ridge {r} is incident to {k} facets, expected 2"
            )
        a, b = cx.ridge_facets[r]
        if a == b:
            raise InvalidInputError(f"ridge {r} lists facet {a} twice")

    for kind, normals in (
        ("ridge", cx.ridge_normals), ("facet", cx.facet_normals)
    ):
        for key, v in normals.items():
            if len(v) != cx.n or not any(v):
                raise InvalidInputError(f"bad {kind} normal at {key}")

    axes = []
    for c in range(cx.num_corners):
        ridges, facets = cx.corner_ridges[c], cx.corner_facets[c]
        ridges[:], facets[:] = _walk_wheel(cx, c)
        if cx.n > 3:  # length-3 normals cannot span 4 dimensions
            axes.append(_corner_axes(cx, c))
    cx.corner_axes = axes

    _check_connected(cx)
    _check_closed(cx)


def _corner_axes(cx: StandardFormComplex, c: int) -> tuple[int, int, int]:
    """Corner c's three axes, from its normals in rim order (n >= 4).

    The normals of validate_standard's complex are nonzero n-vectors.  One
    echelon of corner c's normals, stopped at three pivots, gives the axes:
    those pivot columns, padded with the lowest other columns up to three
    when the rank is below 3.  With three pivots, in_span3 proves every
    normal in their span from the basis's minors, four products per normal
    and other column, or the rank exceeds 3.  The pivots are still the ones
    the echelon chose, and the first three a longer scan would keep, so
    wheel_star's proof of exactness stands.
    """
    normals = [cx.ridge_normals[(c, r)] for r in cx.corner_ridges[c]]
    normals += [cx.facet_normals[(c, f)] for f in cx.corner_facets[c]]
    basis, pivots = pivot_columns(normals, 3)
    if len(pivots) == 3 and not in_span3(basis, pivots, normals):
        raise InvalidInputError(
            f"normals at corner {c} span more than 3 dimensions"
        )
    return (*pivots, *(k for k in range(cx.n) if k not in pivots))[:3]


def _walk_wheel(cx: StandardFormComplex, c: int) -> tuple[list[int], list[int]]:
    """Walk the ridge-facet cycle of corner c's star; raise if not one cycle.

    Closure comes first: the star's facet set holds both facets of each of
    the corner's ridges.  Those ridges are distinct and give 2m facet ends,
    so each of the m facets has two of them exactly when each has a second.
    Each ridge has two distinct facets, so the star's ridge-facet graph is
    then 2-regular, a union of cycles.  A walk that takes m - 1 steps
    without coming back to r0 has visited all m ridges on r0's cycle, so
    that cycle is the whole star and its last facet joins the last ridge
    to r0: no check is needed at the end.
    """
    ridges = cx.corner_ridges[c]
    star = set(cx.corner_facets[c])
    first, second = {}, {}  # the two star ridges on each facet
    for r in ridges:
        for f in cx.ridge_facets[r]:
            if f not in star:
                raise InvalidInputError(
                    f"incidence not closed: corner {c} on ridge {r} "
                    f"but not on its facet {f}"
                )
            if f in first:
                second[f] = r
            else:
                first[f] = r
    m = len(ridges)
    if m < 2:
        raise InvalidInputError(f"corner {c} has {m} ridges, expected >= 2")
    if len(star) != m:
        raise InvalidInputError(
            f"corner {c} star has {m} ridges but {len(star)} facets"
        )
    if len(second) != m:
        ends = [f for r in ridges for f in cx.ridge_facets[r]]
        f = next(f for f in sorted(star) if ends.count(f) != 2)
        raise InvalidInputError(
            f"facet {f} meets corner {c}'s star in {ends.count(f)} ridges, "
            f"expected 2 (pinched or broken star)"
        )
    # Deterministic start and direction: lowest ridge, then its lower facet.
    r0 = min(ridges)
    f0 = min(cx.ridge_facets[r0])
    rim_r, rim_f = [r0], [f0]
    r, f = r0, f0
    for _ in range(m - 1):
        a = first[f]
        r = second[f] if a == r else a
        if r == r0:
            raise InvalidInputError(
                f"corner {c} star closes after {len(rim_r)} ridges of {m} "
                f"(multiple cycles)"
            )
        rim_r.append(r)
        fa, fb = cx.ridge_facets[r]
        f = fb if fa == f else fa
        rim_f.append(f)
    return rim_r, rim_f


def wheel_star(complex: StandardFormComplex, corner: CellId) -> WheelStar:
    """The corner's star as a wheel of 3-vectors, read from a validated complex.

    validate_standard leaves each corner's lists in rim order.

    At n = 3 the normals are handed over unchanged.  At n >= 4 each normal v
    becomes (v[i], v[j], v[k]) on the corner's axes (i, j, k) from
    validate_standard, and this is exact.  Each row of the echelon that
    chose the pivot columns is zero at the earlier pivots, so the minor on
    those columns is triangular with a nonzero diagonal: the projection is
    linear and injective on the span of the vectors the echelon kept.
    The echelon stops at three pivots: when it keeps three, in_span3 has
    proved every normal of the corner in their span, and when it keeps
    fewer it has scanned them all.  So the projection is injective on the
    span of the corner's normals, and padding columns keep it so.  Within
    one corner it therefore multiplies every 3x3 determinant of normals by
    one common nonzero factor, keeps which normals are collinear and on
    which ray, and keeps each facet normal's coefficients on its two ridge
    rays.  check_cone_convex, the wedge test and the turning pass read only
    those facts and cannot see that sign.
    """
    c = corner.index
    rim_r, rim_f = complex.corner_ridges[c], complex.corner_facets[c]
    u = tuple(complex.ridge_normals[(c, r)] for r in rim_r)
    f = tuple(complex.facet_normals[(c, x)] for x in rim_f)
    if complex.n > 3:
        axes = itemgetter(*complex.corner_axes[c])
        u, f = tuple(map(axes, u)), tuple(map(axes, f))
    return WheelStar(
        corner=corner,
        rim_ridges=tuple(rim_r),
        rim_facets=tuple(rim_f),
        ridge_normals=u,
        facet_normals=f,
    )


def face_counts(complex: StandardFormComplex) -> FaceCounts:
    cx = complex
    return FaceCounts(
        by_dim={
            cx.n - 3: cx.num_corners,
            cx.n - 2: cx.num_ridges,
            cx.n - 1: cx.num_facets,
        },
        corner_ridge=sum(len(r) for r in cx.corner_ridges),
    )


def _check_connected(cx: StandardFormComplex) -> None:
    """Raise unless there are facets and corners and the ridges join all
    facets into one component.

    Union-find over the ridges' facet pairs, with path halving.
    """
    if cx.num_facets == 0:
        raise InvalidInputError("complex has no facets")
    if cx.num_corners == 0:
        raise InvalidInputError("complex has no corners")
    root = list(range(cx.num_facets))
    parts = cx.num_facets
    for a, b in cx.ridge_facets:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            parts -= 1
    if parts != 1:
        raise InvalidInputError(
            "facet adjacency graph is disconnected (two surfaces glued?)"
        )


def _check_closed(cx: StandardFormComplex) -> None:
    """Raise unless the surface has no boundary, as far as the slice shows.

    Every ridge lies on at least n - 1 corners, every facet on at least n
    ridges, and at n = 3 each facet's ridges and corners form one cycle, so
    each ridge lies on exactly 2 corners.  At n >= 4 the slice
    P[n-3, n-2, n-1] has no (n-4)-faces, so only the counts can be checked.
    Each check is linear in the incidences.

    The cycle: the wheel walk has shown that each corner of a facet lies on
    exactly two of its ridges, and closure that each of those ridges lies
    only on corners of the facet.  With two corners per ridge the facet's
    ridges and corners make a 2-regular graph, one cycle when a walk from
    a ridge comes back to it after every ridge.  Three ridges cannot make
    two cycles, so only facets with more are walked.
    """
    n = cx.n
    on_ridge = [0] * cx.num_ridges
    for rim in cx.corner_ridges:
        for r in rim:
            on_ridge[r] += 1
    most = 2 if n == 3 else cx.num_corners
    if min(on_ridge) < n - 1 or max(on_ridge) > most:
        r, k = next((r, k) for r, k in enumerate(on_ridge)
                    if not n - 1 <= k <= most)
        want = 2 if n == 3 else f"at least {n - 1}"
        raise InvalidInputError(
            f"ridge {r} lies on {k} corners, expected {want}"
        )
    on_facet = [0] * cx.num_facets
    for f, g in cx.ridge_facets:
        on_facet[f] += 1
        on_facet[g] += 1
    if min(on_facet) < n:
        f, k = next((f, k) for f, k in enumerate(on_facet) if k < n)
        raise InvalidInputError(
            f"facet {f} lies on {k} ridges, expected at least {n}"
        )
    if n > 3 or max(on_facet) == 3:
        return
    # Rim position p holds ridge ridges[p] at its corner, and facets[p],
    # the facet between it and the next ridge of that rim, at nxt[p].
    # Each ridge has two positions, one per corner, and mate[p] is the
    # other one: an XOR of the two gives it from either.
    ridges = list(chain.from_iterable(cx.corner_ridges))
    facets = list(chain.from_iterable(cx.corner_facets))
    nxt = list(range(1, len(ridges) + 1))
    prv = list(range(-1, len(ridges) - 1))
    end = 0
    for rim in cx.corner_ridges:
        start, end = end, end + len(rim)
        nxt[end - 1], prv[start] = start, end - 1
    pair = [0] * cx.num_ridges
    for p, r in enumerate(ridges):
        pair[r] ^= p
    mate = [pair[r] ^ p for p, r in enumerate(ridges)]
    # Walk facet f from one of its corners: leave by the ridge at e, take
    # it to its other corner, where f lies after it (leave by the next
    # ridge) or before it (leave by the previous one).
    some = dict(zip(facets, range(len(facets))))
    for f in range(cx.num_facets):
        k = on_facet[f]
        if k == 3:
            continue
        e = e0 = nxt[some[f]]
        for steps in range(1, k + 1):
            q = mate[e]
            e = nxt[q] if facets[q] == f else prv[q]
            if e == e0:
                break
        if steps != k:
            raise InvalidInputError(
                f"facet {f}'s ridges and corners form more than one cycle"
            )
