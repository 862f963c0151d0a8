"""Command-line interface and report rendering.

Exit codes: 0 convex, 1 not convex, 2 invalid input or parse error,
3 internal error.  Reports go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .checker import Convex, InvalidInput, NotConvex, Verdict, check_complex
from .complexes import face_counts
from .errors import InvalidInputError, ParseError, PLConvexError
from .exact import parse_rational
from .formats import parse_path, serialize_off, serialize_plc
from .normals import TraditionalFormComplex
from .oracle import dent, gen_convex_surface, is_hull_boundary

EXIT_CONVEX = 0
EXIT_NOT_CONVEX = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


@dataclass
class Report:
    """Machine-readable outcome of a check run (schema version 1)."""

    verdict: str
    reason: str | None = None
    witness: dict | None = None
    counts: dict = field(default_factory=dict)
    corners_checked: int = 0
    elapsed_seconds: float = 0.0
    exhaustive: list | None = None

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "tool": {"name": "plconvex", "version": __version__},
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": self.witness,
            "counts": self.counts,
            "corners_checked": self.corners_checked,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.exhaustive is not None:
            payload["exhaustive"] = self.exhaustive
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        if self.witness is not None:
            lines.append(
                f"witness corner: dim {self.witness['dim']} "
                f"index {self.witness['index']}"
            )
        for dim, count in sorted(self.counts.get("f", {}).items()):
            lines.append(f"f_{dim} = {count}")
        if "corner_ridge_incidences" in self.counts:
            lines.append(
                "corner-ridge incidences = "
                f"{self.counts['corner_ridge_incidences']}"
            )
        lines.append(f"corners checked: {self.corners_checked}")
        lines.append(f"elapsed: {self.elapsed_seconds:.4f}s")
        if self.exhaustive is not None:
            lines.append("per-corner results:")
            for entry in self.exhaustive:
                line = (
                    f"  corner {entry['index']}: "
                    f"{'pass' if entry['passed'] else 'FAIL'} ({entry['kind']})"
                )
                if entry["detail"]:
                    line += f": {entry['detail']}"
                lines.append(line)
        return "\n".join(lines)


def _verdict_fields(verdict: Verdict) -> tuple[str, str | None, dict | None]:
    if isinstance(verdict, Convex):
        return "convex", None, None
    if isinstance(verdict, NotConvex):
        witness = None
        if verdict.witness is not None:
            witness = {"dim": verdict.witness.dim, "index": verdict.witness.index}
        return "not_convex", verdict.reason, witness
    assert isinstance(verdict, InvalidInput)
    return "invalid_input", verdict.reason, None


def exit_code_for(verdict: Verdict) -> int:
    if isinstance(verdict, Convex):
        return EXIT_CONVEX
    if isinstance(verdict, NotConvex):
        return EXIT_NOT_CONVEX
    return EXIT_INVALID


def run_check(obj, exhaustive: bool = False) -> tuple[Report, Verdict]:
    """Check a parsed complex (either form) and assemble the report."""
    start = time.perf_counter()
    run = check_complex(obj, exhaustive=exhaustive)
    report = Report(*_verdict_fields(run.verdict))
    if isinstance(obj, TraditionalFormComplex):
        report.counts["f"] = {
            0: len(obj.vertices),
            obj.n - 3: len(obj.corners),
            obj.n - 2: len(obj.ridges),
            obj.n - 1: len(obj.facets),
        }
    if run.standard is not None:
        counts = face_counts(run.standard)
        report.counts.setdefault("f", {}).update(counts.by_dim)
        report.counts["corner_ridge_incidences"] = counts.corner_ridge
    if run.results is not None:
        report.exhaustive = [
            {
                "dim": r.corner.dim,
                "index": r.corner.index,
                "passed": r.passed,
                "kind": r.kind,
                "detail": r.detail,
            }
            for r in run.results
        ]
    report.corners_checked = run.corners_checked
    report.elapsed_seconds = time.perf_counter() - start
    return report, run.verdict


def _cmd_check(args) -> int:
    obj = parse_path(args.file, args.format)
    report, verdict = run_check(obj, exhaustive=args.exhaustive)
    print(report.to_json() if args.report == "json" else report.to_text())
    return exit_code_for(verdict)


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"bad {flag} {value}: want an integer >= {least}")


def _cmd_gen(args) -> int:
    _require_at_least("--dim", args.dim, 3)
    _require_at_least("--bound", args.bound, 1)
    _require_at_least("--points", args.points, args.dim + 1)
    t = gen_convex_surface(
        seed=args.seed, n=args.dim, num_points=args.points,
        coord_bound=args.bound,
    )
    _write_surface(t, args.out)
    print(
        f"wrote {args.out}: n={t.n} vertices={len(t.vertices)} "
        f"facets={len(t.facets)}",
        file=sys.stderr,
    )
    return 0


def _cmd_dent(args) -> int:
    t = parse_path(args.file, None)
    if not isinstance(t, TraditionalFormComplex):
        raise InvalidInputError("dent needs traditional-form input")
    last = len(t.vertices) - 1
    if not 0 <= args.vertex <= last:
        raise ParseError(
            f"bad --vertex {args.vertex}: want a vertex id in 0..{last}"
        )
    try:
        factor = parse_rational(args.factor)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad --factor {args.factor!r}: {exc}") from None
    d = dent(t, args.vertex, factor)
    _write_surface(d, args.out)
    return 0


def _cmd_oracle(args) -> int:
    t = parse_path(args.file, None)
    if not isinstance(t, TraditionalFormComplex):
        raise InvalidInputError("the hull oracle needs traditional-form input")
    ok = is_hull_boundary(t)
    print("hull-boundary" if ok else "not-hull-boundary")
    return EXIT_CONVEX if ok else EXIT_NOT_CONVEX


def _cmd_stats(args) -> int:
    obj = parse_path(args.file, None)
    if isinstance(obj, TraditionalFormComplex):
        print(f"form: traditional ({obj.mode}), n={obj.n}")
        print(f"f_0 = {len(obj.vertices)}")
        print(f"f_{obj.n - 3} (corners) = {len(obj.corners)}")
        print(f"f_{obj.n - 2} (ridges) = {len(obj.ridges)}")
        print(f"f_{obj.n - 1} (facets) = {len(obj.facets)}")
    else:
        counts = face_counts(obj)
        print(f"form: standard, n={obj.n}")
        for dim, count in sorted(counts.by_dim.items()):
            print(f"f_{dim} = {count}")
        print(f"corner-ridge incidences = {counts.corner_ridge}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import format_bench, run_bench

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ParseError(
            f"bad --sizes {args.sizes!r}: want comma-separated integers"
        ) from None
    for size in sizes:
        _require_at_least("--sizes", size, 4)  # a hull needs 4 points
    _require_at_least("--seed", args.seed, 0)
    rows = run_bench(sizes, seed=args.seed)
    print(format_bench(rows))
    return 0


def _write_surface(t: TraditionalFormComplex, path: str) -> None:
    if path.lower().endswith(".off"):
        text = serialize_off(t)
    else:
        text = serialize_plc(t)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plconvex",
        description="Verify that a closed PL hypersurface bounds a convex body.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a surface file for convexity")
    p.add_argument("file")
    p.add_argument("--format", choices=["off", "plc"], default=None)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="report every corner instead of stopping at the first failure",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a random convex surface")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dent", help="move a vertex toward the others' centroid")
    p.add_argument("file")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--factor", required=True, help="rational in (0,1), e.g. 3/4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dent)

    p = sub.add_parser("oracle", help="brute-force hull-boundary decision")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stats", help="face counts of a surface file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="scaling benchmark on sphere hulls")
    p.add_argument("--sizes", default="1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PLConvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line and exit 3, not a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
