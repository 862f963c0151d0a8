"""Exact convexity verification for closed piecewise-linear hypersurfaces."""

from .checker import (
    Convex,
    CornerResult,
    InvalidInput,
    NotConvex,
    Verdict,
    check_complex,
    check_convexity,
    corner_report,
    precheck_edge_count,
)
from .complexes import (
    CellId,
    FaceCounts,
    StandardFormComplex,
    WheelStar,
    face_counts,
    validate_standard,
    wheel_star,
)
from .local import (
    Cone,
    FlatPass,
    Inconsistent,
    check_cone_convex,
    reduce_to_3d,
)
from .normals import (
    TraditionalFormComplex,
    to_standard,
)
from .oracle import (
    SupportSet,
    dent,
    gen_convex_surface,
    hull_supports,
    is_hull_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "CellId",
    "Cone",
    "Convex",
    "CornerResult",
    "FaceCounts",
    "FlatPass",
    "Inconsistent",
    "InvalidInput",
    "NotConvex",
    "StandardFormComplex",
    "SupportSet",
    "TraditionalFormComplex",
    "Verdict",
    "WheelStar",
    "check_cone_convex",
    "check_complex",
    "check_convexity",
    "corner_report",
    "dent",
    "face_counts",
    "gen_convex_surface",
    "hull_supports",
    "is_hull_boundary",
    "precheck_edge_count",
    "reduce_to_3d",
    "to_standard",
    "validate_standard",
    "wheel_star",
]
