"""Exact rational linear algebra for the convexity checker.

Scalars are plain Python ints or fractions.Fraction; both are exact and mix
freely, and all routines here avoid division unless the result type demands
it, so integer inputs stay integers on the hot path.  Only the handful of
operations the checker actually needs live here: fraction-free echelon
forms with their pivot columns, a span test against three of those
pivots, residuals of integer vectors modulo a span, and integer quotients
known to be exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

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


def dot(u: Vector, v: Vector) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def exact_quotient(a: int, b: int) -> int:
    """a / b for ints a and b where b is known to divide a.

    Both must be ints: its one caller, quotient_residuals, runs on vertex
    tables already scaled to integers.  Raises ArithmeticError if the
    division leaves a remainder, which means the caller's divisibility
    argument does not hold.
    """
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def quotient_residuals(directions, xs) -> list[Vector] | None:
    """d x minus a combination of the directions, for each integer x.

    One fraction-free elimination (Bareiss 1968) of the direction rows,
    with the xs carried along as extra rows.  Step p takes the first
    nonzero entry of row p as its pivot and clears that column from every
    later row.  After step p each later entry is the minor of rows 0..p
    and its own row on the pivot columns so far and its own column, so
    each division by the previous pivot is exact.  After the last step an
    extra row is zero on every pivot column and equals d x minus a
    combination of the directions, where d, the last pivot, is the
    directions' minor on the pivot columns; each entry is a minor of one
    row more.  The extra rows are negated when d < 0, so one positive
    factor |d| serves every x.  Returns None when some step finds no
    nonzero entry: the directions are dependent.  The first step divides
    by 1, so it does not divide.
    """
    k = len(directions)
    rows = [*directions, *xs]
    prev = 1
    for p in range(k):
        top = rows[p]
        col = next((j for j, c in enumerate(top) if c), None)
        if col is None:
            return None
        pv = top[col]
        for i in range(p + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if p:
                rows[i] = [exact_quotient(pv * a - f * b, prev)
                           for a, b in zip(row, top)]
            else:
                rows[i] = [pv * a - f * b for a, b in zip(row, top)]
        prev = pv
    if prev < 0:
        return [tuple(-c for c in row) for row in rows[k:]]
    return [tuple(row) for row in rows[k:]]


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


def in_span3(basis, pivots, vectors) -> bool:
    """True iff every vector lies in the span of the three basis vectors.

    pivots = (i, j, k) are columns on which the basis's 3x3 minor D is
    nonzero, as pivot_columns returns them: its echelon rows are the basis
    times a triangular matrix with a nonzero diagonal, so D is a nonzero
    multiple of their triangular minor.  Some combination y of the
    basis matches x on (i, j, k), and x is in the span iff x - y vanishes
    on every other column l.  Expanding the 4x4 determinant of the basis
    and x on columns (i, j, k, l) along x's row gives
    x_l D - x_i M(j,k,l) + x_j M(i,k,l) - x_k M(i,j,l), with M the basis's
    minors, and subtracting y from x's row shows it equals D (x - y)_l.
    The minors are computed once; each vector then costs four products per
    other column, in ring arithmetic only.
    """
    i, j, k = pivots
    a, b, c = basis

    def minor(p, q, r):
        return (a[p] * (b[q] * c[r] - b[r] * c[q])
                - a[q] * (b[p] * c[r] - b[r] * c[p])
                + a[r] * (b[p] * c[q] - b[q] * c[p]))

    d = minor(i, j, k)
    checks = [
        (l, -minor(j, k, l), minor(i, k, l), -minor(i, j, l))
        for l in range(len(a)) if l not in pivots
    ]
    for x in vectors:
        xi, xj, xk = x[i], x[j], x[k]
        for l, p, q, r in checks:
            if x[l] * d + xi * p + xj * q + xk * r:
                return False
    return True
