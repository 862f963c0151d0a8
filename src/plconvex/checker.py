"""Global convexity verdicts: iterate the local test over all corners.

A closed, connected, bounded cellwise-flat surface is the boundary of a
convex body exactly when every corner passes the local test, so the driver
is one loop over the corners: check_convexity stops at the first failure,
corner_report collects every result, and check_complex is the one pipeline
(precheck, conversion, check) that the library and the CLI share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Literal

from .complexes import CellId, StandardFormComplex, validate_standard, wheel_star
from .errors import InvalidInputError
from .local import FlatPass, Inconsistent, check_cone_convex, reduce_to_3d
from .normals import TraditionalFormComplex, to_standard

EDGE_COUNT_EXCEEDED = "edge_count_exceeded"


@dataclass(frozen=True)
class Convex:
    pass


@dataclass(frozen=True)
class NotConvex:
    reason: Literal["inconsistent", "non_convex_cone", "edge_count_exceeded"]
    witness: CellId | None = None


@dataclass(frozen=True)
class InvalidInput:
    reason: str


Verdict = Convex | NotConvex | InvalidInput


@dataclass(frozen=True)
class CornerResult:
    corner: CellId
    passed: bool
    kind: Literal["flat", "cone", "inconsistent", "non_convex_cone"]
    detail: str = ""


def _corner_results(complex: StandardFormComplex) -> Iterator[CornerResult]:
    """The driver loop: one local test per corner, in corner index order."""
    for corner in complex.corners():
        verdict = reduce_to_3d(wheel_star(complex, corner))
        if isinstance(verdict, Inconsistent):
            yield CornerResult(corner, False, "inconsistent", verdict.reason)
        elif isinstance(verdict, FlatPass):
            yield CornerResult(corner, True, "flat")
        elif check_cone_convex(verdict.rim):
            yield CornerResult(corner, True, "cone")
        else:
            yield CornerResult(corner, False, "non_convex_cone")


def _verdict_of(results: Iterable[CornerResult]) -> Verdict:
    """NotConvex at the first failing result, else Convex; stops there.

    A failing result's kind, "inconsistent" or "non_convex_cone", is the
    verdict's reason.
    """
    for r in results:
        if not r.passed:
            return NotConvex(reason=r.kind, witness=r.corner)
    return Convex()


def check_convexity(complex: StandardFormComplex) -> Verdict:
    """Verdict for a standard-form complex; stops at the first failing corner.

    Corners are processed in index order, so the witness is deterministic and
    independent of any parallel scheduling a caller might add on top.
    """
    try:
        validate_standard(complex)
    except InvalidInputError as exc:
        return InvalidInput(str(exc))
    return _verdict_of(_corner_results(complex))


def corner_report(complex: StandardFormComplex) -> list[CornerResult]:
    """Exhaustive per-corner diagnostics, in corner index order.

    Raises InvalidInputError on invalid input.  check_convexity returns
    Convex exactly when every entry passes.
    """
    validate_standard(complex)
    return list(_corner_results(complex))


def precheck_edge_count(t: TraditionalFormComplex) -> Verdict:
    """R^3 topology precheck: f_1 <= 3*f_0 - 6 for any 2-sphere.

    Surfaces that exceed the planar bound cannot be spheres and therefore
    cannot bound a convex body; this runs on counts alone, before any
    geometric predicate.
    """
    if t.n != 3:
        raise InvalidInputError("edge-count precheck applies to R^3 input only")
    f0 = len(t.vertices)
    if f0 < 4:
        raise InvalidInputError(f"closed surface needs >= 4 vertices, got {f0}")
    f1 = len(t.ridges)
    if f1 > 3 * f0 - 6:
        return NotConvex(reason=EDGE_COUNT_EXCEEDED, witness=None)
    return Convex()


@dataclass(frozen=True)
class CheckRun:
    """Outcome of check_complex.

    standard is the complex the local tests ran on (None when the precheck or
    the conversion decided first); results is the exhaustive report, set only
    when one was asked for and the input was valid.
    """

    verdict: Verdict
    standard: StandardFormComplex | None = None
    results: list[CornerResult] | None = None

    @property
    def corners_checked(self) -> int:
        """How many local tests the driver ran for this verdict."""
        if self.results is not None:
            return len(self.results)
        if self.standard is None or isinstance(self.verdict, InvalidInput):
            return 0
        if isinstance(self.verdict, Convex):
            return self.standard.num_corners
        # Only the precheck returns a NotConvex without a witness, and its
        # run has no standard complex.
        return self.verdict.witness.index + 1


def check_complex(
    obj: TraditionalFormComplex | StandardFormComplex,
    exhaustive: bool = False,
) -> CheckRun:
    """The pipeline for either input form: precheck, convert, check.

    This is the library's one entry, and the CLI's.  The R^3 edge-count
    precheck always runs on traditional input, before any geometry: it
    keeps the cost at n = 3 linear in the vertices, and a surface it
    rejects decides with zero corners checked.  With exhaustive, every
    corner is tested once and the verdict (witness included) is read off
    that single report.
    """
    if isinstance(obj, TraditionalFormComplex):
        try:
            if obj.n == 3:
                pre = precheck_edge_count(obj)
                if isinstance(pre, NotConvex):
                    return CheckRun(pre)
            std = to_standard(obj)
        except InvalidInputError as exc:
            return CheckRun(InvalidInput(str(exc)))
    else:
        std = obj
    if not exhaustive:
        return CheckRun(check_convexity(std), std)
    try:
        results = corner_report(std)
    except InvalidInputError as exc:
        return CheckRun(InvalidInput(str(exc)), std)
    return CheckRun(_verdict_of(results), std, results)

