import random
import sys
from fractions import Fraction

import pytest

from helpers_oracles import det3
from plconvex.errors import ZeroVector
from plconvex.exact import (
    PlaneFrame,
    _multiple_pivot,
    as_exact,
    exact_quotient,
    format_rational,
    parse_rational,
    pivot_columns,
    same_ray,
    sign,
)


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
    assert exact_quotient(Fraction(1, 2), 3) == Fraction(1, 6)
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
