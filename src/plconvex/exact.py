"""Exact rational linear algebra for the convexity checker.

Scalars are plain Python ints or fractions.Fraction; both are exact and mix
freely, and all routines here avoid division unless the result type demands
it, so integer inputs stay integers on the hot path.  Only the handful of
operations the checker actually needs live here: orientation signs in a
plane frame, same-ray tests, fraction-free echelon forms with their pivot
columns, and quotients known to be exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroVector

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def as_exact(x) -> Scalar:
    """Coerce to an exact scalar; Fractions with denominator 1 become ints."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def parse_rational(text: str) -> Scalar:
    """Parse 'p/q', a decimal string, or an integer literal, exactly.

    Decimals convert as p/10^k; no binary floating point is involved.  A
    decimal exponent beyond sys.get_int_max_str_digits() in magnitude raises
    ValueError: its 10^k would have more digits than int() accepts, and
    computing it takes seconds for a literal of a few bytes.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return as_exact(Fraction(int(num), int(den)))
    if "." in text or "e" in text or "E" in text:
        _, e, exponent = text.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if e and limit:
            try:
                too_big = abs(int(exponent)) > limit
            except ValueError:  # malformed; Fraction says so below
                too_big = False
            if too_big:
                raise ValueError(
                    f"decimal exponent exceeds the limit ({limit}) for "
                    f"integer string conversion"
                )
        return as_exact(Fraction(text))
    return int(text)


def format_rational(x: Scalar) -> str:
    x = as_exact(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def dot(u: Vector, v: Vector) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero(u: Vector) -> bool:
    return not any(u)


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


def exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b for a b known to divide a; int operands give an int.

    Raises ArithmeticError if int division leaves a remainder, which means
    the caller's divisibility argument does not hold.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{b} does not divide {a}")
        return q
    return as_exact(Fraction(a) / b)


def _reduce(v: Vector, echelon: list[tuple[Vector, int]]) -> Vector:
    # Fraction-free elimination against rows already in echelon form.
    for row, pivot in echelon:
        if v[pivot] != 0:
            rp, vp = row[pivot], v[pivot]
            v = tuple(a * rp - b * vp for a, b in zip(v, row, strict=True))
    return v


def pivot_columns(
    vectors, limit: int
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """The first independent vectors and the pivot columns of their echelon.

    Scans in order and keeps each vector that is independent of those kept
    before it, stopping once `limit` are kept or they span the ambient
    space.  Row k of the fraction-free echelon is zero at the pivots of
    rows before it, so the minor on the pivot columns is triangular with a
    nonzero diagonal: the coordinates on those columns are injective and
    linear on the span of everything scanned.
    """
    basis: list[Vector] = []
    pivots: list[int] = []
    echelon: list[tuple[Vector, int]] = []
    for v in vectors:
        r = _reduce(v, echelon)
        pivot = next((i for i, c in enumerate(r) if c != 0), None)
        if pivot is None:
            continue
        basis.append(v)
        pivots.append(pivot)
        if len(basis) == limit or len(basis) == len(v):
            break
        echelon.append((r, pivot))
    return tuple(basis), tuple(pivots)


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
