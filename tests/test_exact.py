import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from helpers_oracles import det3
from plconvex.exact import (
    Vector,
    as_exact,
    exact_quotient,
    format_rational,
    in_span3,
    parse_rational,
    pivot_columns,
)
from plconvex.normals import TraditionalFormComplex


def sign(x):
    return (x > 0) - (x < 0)


class ZeroVector(Exception):
    """An operation received the zero vector where a direction was required."""


def _multiple_pivot(v: Vector, w: Vector) -> int | None:
    """Pivot index of v (its first nonzero entry) if w is a multiple of v.

    Returns None when w is not a multiple; raises ZeroVector for v == 0.
    The cross-multiplied comparison keeps everything division-free.
    """
    pivot = next((i for i, c in enumerate(v) if c != 0), None)
    if pivot is None:
        raise ZeroVector("collinearity against the zero vector")
    vp = v[pivot]
    wp = w[pivot]
    for a, b in zip(v, w, strict=True):
        if a * wp != b * vp:
            return None
    return pivot


def same_ray(v: Vector, w: Vector) -> bool:
    """True iff w = lambda * v with lambda > 0 (both nonzero)."""
    pivot = _multiple_pivot(v, w)
    return pivot is not None and v[pivot] * w[pivot] > 0


@dataclass(frozen=True)
class PlaneFrame:
    """An ordered pair of independent vectors fixing an oriented 2-subspace.

    Orientation signs of in-plane pairs are computed division-free through a
    nonsingular coordinate pair (pivot columns) found at construction.
    """

    e1: Vector
    e2: Vector

    def __post_init__(self):
        i = next((k for k, c in enumerate(self.e1) if c != 0), None)
        if i is None:
            raise ZeroVector("frame basis vector is zero")
        j = None
        for k in range(len(self.e1)):
            if k == i:
                continue
            if self.e1[i] * self.e2[k] - self.e1[k] * self.e2[i] != 0:
                j = k
                break
        if j is None:
            raise ValueError("frame basis vectors are linearly dependent")
        d = self.e1[i] * self.e2[j] - self.e1[j] * self.e2[i]
        object.__setattr__(self, "_pi", i)
        object.__setattr__(self, "_pj", j)
        object.__setattr__(self, "_psign", sign(d))

    def contains(self, v: Vector) -> bool:
        """Exact membership test for span{e1, e2}."""
        i, j = self._pi, self._pj
        d = self.e1[i] * self.e2[j] - self.e1[j] * self.e2[i]
        # Cramer numerators for v = alpha*e1 + beta*e2 on the pivot pair.
        alpha = v[i] * self.e2[j] - v[j] * self.e2[i]
        beta = self.e1[i] * v[j] - self.e1[j] * v[i]
        return all(
            v[k] * d == alpha * self.e1[k] + beta * self.e2[k]
            for k in range(len(v))
        )

    def orient(self, a: Vector, b: Vector) -> int:
        """Orientation sign of (a, b); caller guarantees both are in-plane."""
        i, j = self._pi, self._pj
        return sign(a[i] * b[j] - a[j] * b[i]) * self._psign


class NotInPlane(Exception):
    """A vector lies outside the span of a plane frame."""


def collinearity_coefficient(v, w):
    """Return lambda with w == lambda * v, or None if w is not a multiple.

    Raises ZeroVector for v == 0.
    """
    pivot = _multiple_pivot(v, w)
    if pivot is None:
        return None
    return as_exact(Fraction(w[pivot]) / Fraction(v[pivot]))


def rank_le3(vectors):
    """Greedy rank of a vector list, capped at 4.

    Returns (rank, basis) where basis is the maximal independent subset in
    first-seen order.  Rank 4 means "spans more than 3 dimensions" and comes
    back without a basis.  The scan stops once the basis spans the ambient
    space, so at n = 3 it ends at the first independent triple.
    """
    basis, _ = pivot_columns(vectors, 4)
    return (4, ()) if len(basis) == 4 else (len(basis), basis)


def orient2(frame: PlaneFrame, a, b) -> int:
    """Sign of det of the coordinates of (a, b) in the frame's basis.

    Raises NotInPlane for vectors outside span(frame).
    """
    if not frame.contains(a):
        raise NotInPlane(f"vector {a} outside the frame plane")
    if not frame.contains(b):
        raise NotInPlane(f"vector {b} outside the frame plane")
    return frame.orient(a, b)


def test_orient2_examples():
    frame = PlaneFrame((1, 0, 0), (0, 1, 0))
    assert orient2(frame, (1, 0, 0), (0, 1, 0)) == 1
    assert orient2(frame, (1, 0, 0), (2, 0, 0)) == 0
    assert orient2(frame, (0, 1, 0), (1, 0, 0)) == -1


def test_orient2_not_in_plane():
    frame = PlaneFrame((1, 0, 0), (0, 1, 0))
    with pytest.raises(NotInPlane):
        orient2(frame, (1, 0, 1), (0, 1, 0))


def test_orient2_oblique_frame():
    # Frame orientation is the ordered basis itself, whatever the plane.
    frame = PlaneFrame((1, 1, 0, 2), (0, 1, 1, 0))
    assert orient2(frame, (1, 1, 0, 2), (0, 1, 1, 0)) == 1
    assert orient2(frame, (0, 1, 1, 0), (1, 1, 0, 2)) == -1
    assert orient2(frame, (1, 2, 1, 2), (2, 3, 1, 4)) == -1  # (e1+e2, 2e1+e2)


def test_rank_le3_examples():
    rank, basis = rank_le3([(1, 0, 0), (2, 0, 0)])
    assert rank == 1 and basis == ((1, 0, 0),)
    rank, basis = rank_le3([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert rank == 2 and basis == ((1, 0, 0), (0, 1, 0))
    assert rank_le3([]) == (0, ())


def test_rank_le3_caps_at_four():
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1)]
    rank, basis = rank_le3(vecs)
    assert rank == 4
    assert basis == ()


def _gauss_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_le3_stops_at_ambient_dimension():
    # The trailing 2-vector would fail the elimination if it were reached.
    vecs = [(1, 0, 0), (1, 1, 0), (0, 0, 2), (1, 2)]
    assert rank_le3(vecs) == (3, ((1, 0, 0), (1, 1, 0), (0, 0, 2)))


def test_rank_le3_matches_gaussian_oracle():
    rng = random.Random(11)
    for _ in range(300):
        h = rng.randrange(1, 7)
        w = rng.randrange(1, 7)
        rows = [tuple(rng.randrange(-3, 4) for _ in range(w)) for _ in range(h)]
        expect = min(_gauss_rank(rows), 4)
        assert rank_le3(rows)[0] == expect


def test_collinearity_coefficient():
    assert collinearity_coefficient((1, 2, 0), (2, 4, 0)) == 2
    assert collinearity_coefficient((1, 2, 0), (-1, -2, 0)) == -1
    assert collinearity_coefficient((1, 2, 0), (1, 0, 0)) is None
    with pytest.raises(ZeroVector):
        collinearity_coefficient((0, 0, 0), (1, 0, 0))


def test_same_ray_matches_positive_coefficient():
    rng = random.Random(5)
    for _ in range(500):
        v = tuple(rng.randrange(-2, 3) for _ in range(3))
        if v == (0, 0, 0):
            continue
        lam = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        w = tuple(lam * c for c in v)
        if rng.random() < 0.3:
            w = tuple(rng.randrange(-2, 3) for _ in range(3))
        coeff = collinearity_coefficient(v, w)
        assert same_ray(v, w) == (coeff is not None and coeff > 0)
    with pytest.raises(ZeroVector):
        same_ray((0, 0, 0), (1, 0, 0))


def test_exact_quotient():
    assert exact_quotient(-12, 4) == -3
    assert type(exact_quotient(12, 4)) is int
    with pytest.raises(ArithmeticError):
        exact_quotient(7, 2)


def test_pivot_columns_examples():
    # A dependent vector is skipped; each kept one adds its echelon pivot.
    vecs = [(0, 2, 0, 0), (0, 4, 0, 0), (1, 1, 0, 0), (3, 0, 5, 0)]
    assert pivot_columns(vecs, 4) == (
        ((0, 2, 0, 0), (1, 1, 0, 0), (3, 0, 5, 0)), (1, 0, 2)
    )
    # The limit and the ambient dimension both end the scan.
    assert pivot_columns(vecs, 2) == (((0, 2, 0, 0), (1, 1, 0, 0)), (1, 0))
    assert pivot_columns([(1, 0), (0, 1), (1, 2)], 4)[1] == (0, 1)
    assert pivot_columns([], 0) == ((), ())


def test_pivot_axes_preserve_orientation():
    # Coordinates on the pivot columns are injective on the span, so within
    # one 3-dimensional subspace every determinant keeps its sign up to one
    # common sign: the sign the projection gives the spanning triple e.
    rng = random.Random(3)
    for _ in range(300):
        n = rng.choice((4, 5))
        e = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(3)]
        if rank_le3(e)[0] != 3:
            continue
        coeffs = [
            tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(3)
        ]
        vectors = [
            tuple(
                sum(c[k] * e[k][i] for k in range(3)) for i in range(n)
            )
            for c in coeffs
        ]
        _, axes = pivot_columns(vectors + e, 4)
        assert len(axes) == 3

        def project(v):
            return tuple(v[i] for i in axes)

        common = sign(det3(*map(project, e)))
        assert common != 0
        # Reference orientation: determinant of the coefficient matrix.
        assert sign(det3(*map(project, vectors))) == common * sign(
            det3(*coeffs)
        )


def test_rational_parsing_round_trip():
    assert parse_rational("5") == 5
    assert parse_rational("-1.25") == Fraction(-5, 4)
    assert parse_rational("2/3") == Fraction(2, 3)
    assert as_exact(Fraction(4, 2)) == 2 and isinstance(as_exact(Fraction(4, 2)), int)
    for text in ["5", "-7", "2/3", "-11/4"]:
        assert format_rational(parse_rational(text)) == text


def test_float_vertex_coordinate_is_refused():
    with pytest.raises(TypeError, match=r"^not an exact rational: 0\.5$"):
        as_exact(0.5)
    with pytest.raises(TypeError, match=r"^not an exact rational: 0\.5$"):
        TraditionalFormComplex(n=3, vertices=[(0.5, 0, 0)], corners=[],
                               ridges=[], facets=[])


def test_parse_rational_caps_decimal_exponent():
    # The cap is int()'s own digit limit; at it, the literal still parses.
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
    assert parse_rational("2.5E3") == 2500
    for text in (f"1e{limit + 1}", f"-0.5E-{limit + 1}", "1e10000000"):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_rational(text)
    # A malformed exponent keeps Fraction's own message.
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        parse_rational("1e5e5")


def _random_span_set(rng, n):
    """Integer n-vectors spanning 1 to 4 dimensions, with entries from a few
    bits up to 2^200, repeats, zero vectors, and sometimes one vector whose
    only escape from the span of the others is in the last coordinate."""
    rank = rng.randint(1, 4)
    bits = rng.choice((3, 20, 64, 200))
    base = [tuple(rng.randint(-2**bits, 2**bits) for _ in range(n))
            for _ in range(rank)]
    vectors = []
    for _ in range(rng.randint(1, 10)):
        coeffs = [rng.randint(-3, 3) for _ in base]
        vectors.append(tuple(sum(c * b[i] for c, b in zip(coeffs, base))
                             for i in range(n)))
    vectors += rng.sample(base, rank)
    for _ in range(rng.randint(0, 2)):
        vectors.insert(rng.randrange(len(vectors) + 1), rng.choice(
            (vectors[rng.randrange(len(vectors))], (0,) * n)))
    if rng.random() < 0.3:
        v = list(rng.choice(vectors))
        v[-1] += rng.choice((-1, 1)) * rng.randint(1, 2**bits)
        vectors.insert(rng.randrange(len(vectors) + 1), tuple(v))
    return vectors


def test_in_span3_matches_four_pivot_echelon():
    # in_span3 on the first three pivots agrees with "an echelon stopped at
    # four pivots keeps four vectors", the span check it replaces.
    rng = random.Random(2024)
    seen = set()
    for _ in range(4000):
        n = rng.randint(4, 8)
        vectors = _random_span_set(rng, n)
        basis, pivots = pivot_columns(vectors, 3)
        want = len(pivot_columns(vectors, 4)[0]) < 4
        got = len(pivots) < 3 or in_span3(basis, pivots, vectors)
        assert got == want, vectors
        seen.add(len(pivot_columns(vectors, 4)[0]))
        if not got and n > 4 and n - 1 not in pivots and in_span3(
                [b[:-1] for b in basis], pivots, [v[:-1] for v in vectors]):
            # Only the last of two or more other columns leaves the span.
            seen.add("last column only")
    assert seen == {1, 2, 3, 4, "last column only"}


def test_in_span3_checks_every_other_column():
    # Only the last of three non-pivot columns leaves the span.
    basis = ((1, 0, 0, 5, 7, 11), (0, 1, 0, 2, 3, 4), (0, 0, 1, 1, 1, 1))
    inside = (2, 3, 4, 20, 27, 38)
    assert pivot_columns(basis, 3) == (basis, (0, 1, 2))
    assert in_span3(basis, (0, 1, 2), [*basis, inside, (0,) * 6])
    assert not in_span3(basis, (0, 1, 2), [inside[:5] + (39,)])
    assert not in_span3(basis, (0, 1, 2), [inside, (0, 0, 0, 0, 0, 1)])


def _n4_plus_surfaces():
    from conftest import simplex_boundary
    from plconvex.oracle import dent
    from test_normals import _cross_polytope, _cyclic_polytope_4d

    yield _cyclic_polytope_4d(12)
    yield dent(_cyclic_polytope_4d(12), 5, Fraction(3, 4))
    for n in range(4, 9):
        yield _cross_polytope(n)
        yield simplex_boundary(n)


def test_corner_axes_are_the_four_pivot_echelons_first_three():
    # The span check stops its echelon at three pivots; the axes it leaves
    # are the first three pivots of an echelon allowed a fourth, over the
    # corner's normals in rim order.
    from plconvex.complexes import validate_standard
    from plconvex.normals import to_standard

    for t in _n4_plus_surfaces():
        std = to_standard(t)
        validate_standard(std)
        assert len(std.corner_axes) == std.num_corners
        for c, axes in enumerate(std.corner_axes):
            normals = [std.ridge_normals[(c, r)] for r in std.corner_ridges[c]]
            normals += [std.facet_normals[(c, f)]
                        for f in std.corner_facets[c]]
            pivots = pivot_columns(normals, 4)[1]
            assert len(pivots) == 3 and axes == pivots, (t.n, c)
