"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each plconvex module that another
module (or the module's own pipeline) calls, in every namespace that binds
the name, so `from .complexes import wheel_star` call sites are traced too.
Each call records a span: name, start, end, parent span and surface.  Spans
stay in memory; a layer's self time is its duration minus the time its
child spans cover.  Anything that inspects a result (bit lengths, Fraction
counts) is deferred until the traced call has returned, outside its timing.

A function that no longer exists is reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction

# module -> functions to wrap.  Layer names are the module names.
TARGETS = {
    "formats": ("parse_path",),
    "normals": ("to_standard", "validate_traditional", "derive_incidences"),
    "complexes": ("validate_standard", "wheel_star"),
    "local": ("reduce_to_3d", "check_cone_convex"),
    "checker": ("check_convexity", "corner_report"),
    "cli": ("run_check", "main"),
}

# Wheel sizes are binned so the metric set is the same on every workload.
WHEEL_BINS = (("m2", 2, 2), ("m3", 3, 3), ("m4", 4, 4), ("m5", 5, 5),
              ("m6", 6, 6), ("m7", 7, 7), ("m8_11", 8, 11), ("m12_up", 12, None))

# per-layer metric name -> (unit, functions it needs to exist).
METRICS = {
    "formats.parse_s": ("s", ["formats.parse_path"]),
    "formats.input_bytes": ("bytes", ["formats.parse_path"]),
    "formats.max_coord_bits": ("bits", ["formats.parse_path"]),
    "normals.validate_traditional_s": ("s", ["normals.validate_traditional"]),
    "normals.derive_incidences_s": ("s", ["normals.derive_incidences"]),
    "normals.build_normals_s": ("s", ["normals.to_standard"]),
    "normals.normals_emitted": ("count", ["normals.to_standard"]),
    "normals.fraction_share": ("ratio", ["normals.to_standard"]),
    "normals.max_normal_bits": ("bits", ["normals.to_standard"]),
    "complexes.validate_standard_s": ("s", ["complexes.validate_standard"]),
    "complexes.wheel_star_s": ("s", ["complexes.wheel_star"]),
    "complexes.wheel_star_calls": ("count", ["complexes.wheel_star"]),
    **{f"complexes.wheel_size_hist.{b}": ("count", ["complexes.wheel_star"])
       for b, _, _ in WHEEL_BINS},
    "local.reduce_to_3d_s": ("s", ["local.reduce_to_3d"]),
    "local.reduce_to_3d_calls": ("count", ["local.reduce_to_3d"]),
    "local.check_cone_convex_s": ("s", ["local.check_cone_convex"]),
    "local.check_cone_convex_calls": ("count", ["local.check_cone_convex"]),
    "local.corners_flat": ("count", ["local.reduce_to_3d"]),
    "local.corners_cone": ("count", ["local.reduce_to_3d", "local.check_cone_convex"]),
    "local.corners_inconsistent": ("count", ["local.reduce_to_3d"]),
    "local.corners_non_convex_cone": (
        "count", ["local.reduce_to_3d", "local.check_cone_convex"]),
    "checker.check_convexity_self_s": ("s", ["checker.check_convexity"]),
    "checker.corner_report_self_s": ("s", ["checker.corner_report"]),
    "checker.corners_checked": ("count", []),
    "checker.local_tests_per_corner": ("ratio", ["local.reduce_to_3d"]),
    "cli.run_check_self_s": ("s", ["cli.run_check"]),
    "cli.main_self_s": ("s", ["cli.main"]),
    "cli.report_bytes": ("bytes", []),
    "trace.overhead_ratio": ("ratio", []),
    "trace.surfaces": ("count", []),
}

# Metrics that must repeat exactly for the same program and seed.
EXACT_COUNTS = sorted(
    name for name, (unit, _) in METRICS.items()
    if unit in ("count", "bits") or name in (
        "formats.input_bytes", "normals.fraction_share",
        "checker.local_tests_per_corner")
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _vector_stats(vectors) -> tuple[int, int, int]:
    """(vectors, vectors holding a Fraction, max bit length) of exact vectors."""
    count = fractions = bits = 0
    for v in vectors:
        count += 1
        if any(isinstance(c, Fraction) for c in v):
            fractions += 1
        bits = max(bits, max(_bits(c) for c in v))
    return count, fractions, bits


class Tracer:
    """Wrappers plus the spans and events they record."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, child_time, surface]
        self._stack: list[int] = []
        self._pending: list[tuple[str, tuple, object]] = []
        self.surface = -1
        self.present: set[str] = set()
        self._bindings: list[tuple[object, str, object, object]] = []
        self._last_corner = None
        # Aggregates filled from hooks and deferred inspection.
        self.input_bytes = 0
        self.coord_bits = 0
        self.normals_emitted = 0
        self.normals_fraction = 0
        self.normal_bits = 0
        self.kinds: dict[tuple[int, int], str] = {}
        self.wheel_sizes: dict[tuple[int, int], int] = {}
        self._hooks = {
            "formats.parse_path": self._defer,
            "normals.to_standard": self._defer,
            "complexes.wheel_star": self._on_wheel,
            "local.reduce_to_3d": self._on_reduce,
            "local.check_cone_convex": self._on_cone,
        }
        package = importlib.import_module("plconvex")
        for mod_name, names in TARGETS.items():
            try:
                module = importlib.import_module(f"plconvex.{mod_name}")
            except ImportError:
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                qualname = f"{mod_name}.{name}"
                self.present.add(qualname)
                wrapper = self._wrap(qualname, fn)
                for mod in [package] + [
                    m for key, m in sys.modules.items()
                    if key.startswith("plconvex.")
                ]:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bindings.append((mod, attr, fn, wrapper))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for mod, attr, _fn, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _wrapper in self._bindings:
            setattr(mod, attr, fn)

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [qualname, parent, 0.0, 0.0, 0.0, self.surface]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
            if hook is not None:
                hook(qualname, args, result)
            return result

        return wrapper

    # -- hooks (cheap; heavy inspection is deferred) ---------------------

    def _defer(self, qualname, args, result) -> None:
        self._pending.append((qualname, args, result))

    def _on_wheel(self, _qualname, args, result) -> None:
        self.wheel_sizes[(self.surface, args[1].index)] = len(result.rim_ridges)

    def _on_reduce(self, _qualname, args, result) -> None:
        corner = (self.surface, args[0].corner.index)
        self._last_corner = corner
        kind = type(result).__name__
        self.kinds[corner] = {"FlatPass": "flat", "Cone": "cone"}.get(
            kind, "inconsistent")

    def _on_cone(self, _qualname, _args, result) -> None:
        if not result and self._last_corner is not None:
            self.kinds[self._last_corner] = "non_convex_cone"

    def inspect_pending(self) -> None:
        """Inspect the results the last traced call held back, then drop them."""
        for qualname, args, result in self._pending:
            if qualname == "formats.parse_path":
                self.input_bytes += os.path.getsize(args[0])
                if hasattr(result, "vertices"):
                    vectors = result.vertices
                else:
                    vectors = [*result.ridge_normals.values(),
                               *result.facet_normals.values()]
                self.coord_bits = max(self.coord_bits, _vector_stats(vectors)[2])
            else:
                count, fractions, bits = _vector_stats(
                    [*result.ridge_normals.values(), *result.facet_normals.values()])
                self.normals_emitted += count
                self.normals_fraction += fractions
                self.normal_bits = max(self.normal_bits, bits)
        self._pending.clear()

    # -- results ---------------------------------------------------------

    def self_times(self, scale: list[float]) -> Counter:
        """Self time per function, span times scaled by their surface's factor."""
        out = Counter()
        for name, _parent, start, end, child, surface in self.spans:
            out[name] += ((end - start) - child) * scale[surface]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def metrics(self, *, scale: list[float], corners: int, corners_checked: int,
                report_bytes: int, overhead_ratio: float, surfaces: int) -> dict:
        """Every per-layer metric, totals over the traced surfaces.

        `scale[k]` turns surface k's raw span times into host-normalised ones.
        """
        self_s, calls = self.self_times(scale), self.calls()
        kinds = Counter(self.kinds.values())
        hist = Counter()
        for m in self.wheel_sizes.values():
            for label, lo, hi in WHEEL_BINS:
                if m >= lo and (hi is None or m <= hi):
                    hist[label] += 1
        values = {
            "formats.parse_s": self_s["formats.parse_path"],
            "formats.input_bytes": self.input_bytes,
            "formats.max_coord_bits": self.coord_bits,
            "normals.validate_traditional_s": self_s["normals.validate_traditional"],
            "normals.derive_incidences_s": self_s["normals.derive_incidences"],
            "normals.build_normals_s": self_s["normals.to_standard"],
            "normals.normals_emitted": self.normals_emitted,
            "normals.fraction_share": (
                self.normals_fraction / self.normals_emitted
                if self.normals_emitted else 0.0),
            "normals.max_normal_bits": self.normal_bits,
            "complexes.validate_standard_s": self_s["complexes.validate_standard"],
            "complexes.wheel_star_s": self_s["complexes.wheel_star"],
            "complexes.wheel_star_calls": calls["complexes.wheel_star"],
            **{f"complexes.wheel_size_hist.{b}": hist[b] for b, _, _ in WHEEL_BINS},
            "local.reduce_to_3d_s": self_s["local.reduce_to_3d"],
            "local.reduce_to_3d_calls": calls["local.reduce_to_3d"],
            "local.check_cone_convex_s": self_s["local.check_cone_convex"],
            "local.check_cone_convex_calls": calls["local.check_cone_convex"],
            "local.corners_flat": kinds["flat"],
            "local.corners_cone": kinds["cone"],
            "local.corners_inconsistent": kinds["inconsistent"],
            "local.corners_non_convex_cone": kinds["non_convex_cone"],
            "checker.check_convexity_self_s": self_s["checker.check_convexity"],
            "checker.corner_report_self_s": self_s["checker.corner_report"],
            "checker.corners_checked": corners_checked,
            "checker.local_tests_per_corner": calls["local.reduce_to_3d"] / corners,
            "cli.run_check_self_s": self_s["cli.run_check"],
            "cli.main_self_s": self_s["cli.main"],
            "cli.report_bytes": report_bytes,
            "trace.overhead_ratio": overhead_ratio,
            "trace.surfaces": surfaces,
        }
        out = {}
        for name, (unit, needs) in METRICS.items():
            if all(fn in self.present for fn in needs):
                out[name] = {"value": values[name], "unit": unit}
            else:
                out[name] = {"value": None, "unit": unit, "absent": True}
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in start order."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            for sid, (name, parent, start, end, child, surface) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "surface": surface, "start": start, "end": end,
                    "self_s": (end - start) - child,
                }) + "\n")
        os.replace(tmp, path)
