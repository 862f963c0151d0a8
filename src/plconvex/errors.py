"""Exception types shared across the library.

Every error that reflects bad *input data* derives from InvalidInputError so
that callers (checker, CLI) can map the whole family onto an invalid-input
verdict without enumerating subclasses.
"""


class PLConvexError(Exception):
    """Base class for all library errors."""


class InvalidInputError(PLConvexError):
    """The complex violates a structural or geometric input convention."""


class ParseError(PLConvexError):
    """Malformed surface file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionViolated(PLConvexError):
    """Arguments of an angle predicate violate its stated preconditions."""


class DegenerateCell(InvalidInputError):
    """A cell's vertices are affinely dependent (not cellwise-flat)."""


class DegenerateVertex(InvalidInputError):
    """A polygon vertex with positively collinear edges (zero angle spike)."""


class NotPlanar(InvalidInputError):
    """A polygonal facet whose vertices are not exactly coplanar."""


class NotSimplicial(InvalidInputError):
    """An operation restricted to simplicial complexes got non-simplex cells."""


class DegenerateCone(PLConvexError):
    """Every consecutive rim triple of a 3D cone is singular.

    Unreachable for cones produced by the dimension-reduction step; raised to
    flag internal inconsistency rather than to report bad input.
    """


class NotFullDimensional(PLConvexError):
    """Point set does not span the ambient space."""


class GenerationFailed(PLConvexError):
    """Random instance generation exhausted its retry budget."""
