import importlib.util
import os
import runpy
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TOY = '''"""Toy module."""
import math


def f(x):
    """Docstring."""
    if x > 0:
        return math.sqrt(x)
    if (x
            == -1):
        raise ValueError(
            "minus one")
    try:
        y = -x
    except ZeroDivisionError:
        y = 0
    return y


class C:
    def never(self):
        return 1
'''


def test_unhit_lines_on_toy_module(tmp_path):
    # Run f on both sides of its first branch: what never ran is the raise,
    # the handler body and the method body.  Docstrings, imports and
    # def/class headers are not counted; the try and the two-line if
    # condition count as run.
    tool = _load("unhit_lines")
    path = tmp_path / "pkg" / "toy.py"
    path.parent.mkdir()
    path.write_text(_TOY)
    outside = tmp_path / "outside.py"
    outside.write_text("def g():\n    return 2\n")

    def run():
        f = runpy.run_path(str(path))["f"]
        assert (f(4), f(-2)) == (2, 2)
        assert runpy.run_path(str(outside))["g"]() == 2

    executed = tool.trace_lines(path.parent, run)
    assert list(executed) == [os.path.realpath(path)]
    lines = executed[os.path.realpath(path)]
    assert tool.unhit_statements(_TOY, lines) == [11, 16, 22]
    assert tool.unhit_statements(_TOY, set()) == [7, 8, 9, 11, 13, 14, 16,
                                                  17, 22]
