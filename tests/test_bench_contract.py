"""What the benchmark in perfbench/ needs from the program, checked here.

perfbench/tracing.py wraps the functions named in its TARGETS from outside
the program, and a traced name that no longer exists is reported as
absent rather than failing, so deleting one would quietly blank a
per-layer metric.  perfbench/gen.py's generator self-test builds
TraditionalFormComplex objects and calls oracle.is_hull_boundary on every
benchmark run.  These tests load both files as they are, without changing
them, and fail as soon as the program stops offering what they use.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from plconvex import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).parent / "data"


def _load(name):
    """perfbench/<name>.py as a module, under a name of its own."""
    qualname = f"perfbench_{name}"
    if qualname not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualname, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # Dataclasses look their module up in sys.modules while it runs.
        sys.modules[qualname] = module
        spec.loader.exec_module(module)
    return sys.modules[qualname]


def _targets(tracing) -> set[str]:
    return {f"{module}.{name}"
            for module, names in tracing.TARGETS.items() for name in names}


def test_tracer_finds_every_target():
    tracing = _load("tracing")
    assert tracing.Tracer().present == _targets(tracing)


def test_traced_checks_record_every_target():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    runs = [[str(DATA / "cube.off")],
            [str(DATA / "cube_standard.plc"), "--exhaustive"]]
    tracer.install()
    try:
        for surface, argv in enumerate(runs):
            tracer.surface = surface
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["check", *argv, "--report", "json"]) == 0
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} == _targets(tracing)
    tracer.inspect_pending()
    # The cube's 24 corner-edge and 24 corner-facet normals, converted from
    # the OFF file; the standard file's normals give its coordinate bits.
    assert tracer.normals_emitted == 48
    assert tracer.coord_bits > 0
    assert tracer.input_bytes == sum(
        (DATA / name).stat().st_size for name in ("cube.off", "cube_standard.plc"))
    metrics = tracer.metrics(scale=[1.0, 1.0], corners=16, corners_checked=16,
                             report_bytes=0, overhead_ratio=1.0, surfaces=2)
    assert [name for name, m in metrics.items() if m.get("absent")] == []


def test_generator_self_test_passes():
    assert _load("gen").self_test(1) == []
