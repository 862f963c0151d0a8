"""`check --report json` against reports recorded under tests/data/golden.

Each golden file holds the exit code and the JSON report, without its
`elapsed_seconds`, of `check` with and without `--exhaustive`, for every
file in tests/data and for six surfaces rebuilt here: the cyclic polytope
C(12, 4), its dent at vertex 5, and an n = 5 and an n = 6 hull from a
fixed seed, each with its dent at vertex 0.  The n = 6 hull has 170
corners, each with three non-pivot columns that become its axes.  A change
that must not alter any report keeps this test green.  A change that
alters reports on purpose records them again with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/data/golden shows every report it changed.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from plconvex.cli import main
from plconvex.formats import serialize_plc
from plconvex.oracle import dent, gen_convex_surface
from test_normals import _cyclic_polytope_4d

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
DATA_FILES = sorted(p.name for p in DATA.iterdir() if p.is_file())


def _hull_n5():
    return gen_convex_surface(seed=3, n=5, num_points=12, coord_bound=20)


def _hull_n6():
    return gen_convex_surface(seed=3, n=6, num_points=10, coord_bound=20)


GENERATED = {
    "cyclic_12_4.plc": lambda: _cyclic_polytope_4d(12),
    "cyclic_12_4_dent5.plc": lambda: dent(
        _cyclic_polytope_4d(12), 5, Fraction(3, 4)),
    "hull_n5_seed3.plc": _hull_n5,
    "hull_n5_seed3_dent0.plc": lambda: dent(_hull_n5(), 0, Fraction(3, 4)),
    "hull_n6_seed3.plc": _hull_n6,
    "hull_n6_seed3_dent0.plc": lambda: dent(_hull_n6(), 0, Fraction(3, 4)),
}


def _input_path(name, tmp_dir: Path) -> Path:
    if name in GENERATED:
        path = tmp_dir / name
        path.write_text(serialize_plc(GENERATED[name]()))
        return path
    return DATA / name


def _reports(path: Path) -> dict:
    """Exit code and report of check, plain and exhaustive, as JSON data."""
    out = {}
    for extra in ([], ["--exhaustive"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["check", str(path), "--report", "json", *extra])
        payload = json.loads(buf.getvalue())
        del payload["elapsed_seconds"]
        out[" ".join(["check", *extra])] = {"exit_code": code,
                                             "report": payload}
    return out


@pytest.mark.parametrize("name", [*DATA_FILES, *GENERATED])
def test_report_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _reports(_input_path(name, tmp_path)) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in [*DATA_FILES, *GENERATED]:
            reports = _reports(_input_path(name, Path(tmp)))
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(reports, indent=2, sort_keys=True) + "\n")
            print(f"recorded {name}")
