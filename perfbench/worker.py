"""Benchmark worker: one fresh, single-threaded interpreter per run.

    python3 perfbench/worker.py --probe
        import plconvex.cli from the checkout's src/, print "ready", then
        print how long reference_work() takes in this process, exit.
    python3 perfbench/worker.py --plan PLAN.json
        run the plan's surfaces through plconvex.cli.main in a closed loop
        with one client, check every outcome, print one JSON line.

The worker never generates inputs; it only reads the files the plan names.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """Import plconvex.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import plconvex.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"plconvex imported from {cli.__file__}, not {src}")
    return cli


def call_main(cli, surface: dict) -> tuple[float, int | None, str, str]:
    """Time one check from file path to exit code with the report written."""
    out = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(surface["argv"])
        except (Exception, SystemExit) as exc:  # a failed surface, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), error


def outcome_problem(surface: dict, code, text: str, error: str):
    """None if the outcome matches the generator's expectation, else why not."""
    if error:
        return error
    try:
        report = json.loads(text)
    except ValueError:
        return f"report is not JSON (exit {code})"
    verdict, witness = report.get("verdict"), report.get("witness")
    if surface["expect"] == "convex":
        if code != 0 or verdict != "convex" or witness is not None:
            return f"expected convex/exit 0, got {verdict}/exit {code}"
        return None
    tail = surface["tail_start"]
    if code != 1 or verdict != "not_convex" or not witness:
        return f"expected not_convex/exit 1, got {verdict}/exit {code}"
    if witness.get("index", -1) < tail:
        return f"witness {witness} before the relabelled tail at {tail}"
    entries = report.get("exhaustive") or []
    if len(entries) != surface["corners"]:
        return f"exhaustive list has {len(entries)} of {surface['corners']} corners"
    failing = [e["index"] for e in entries if not e["passed"]]
    if not failing:
        return "exhaustive report has no failing corner"
    if min(failing) < tail:
        return f"corner {min(failing)} fails outside the relabelled tail"
    if witness["index"] != min(failing):
        return f"witness {witness['index']} is not the first failure {min(failing)}"
    return None


# Nominal duration of reference_work().  On a shared host the speed of a core
# changes by half or more over tens of seconds, so every time the benchmark
# gates on is scaled by REFERENCE_S / (reference_work() timed beside it): the
# time the host would have given had reference_work() taken exactly 4 ms.
REFERENCE_S = 0.004


def reference_work() -> float:
    """Seconds for a fixed pure-Python task that does not involve plconvex.

    Exact rationals, tuples and dicts, like the checker's own inner loops.
    """
    start = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1, 1800):
        v = (i, (i * i) % 97 - 48, (i * 7919) % 89 - 44)
        w = tuple(a * 3 - b for a, b in zip(v, v[1:] + v[:1]))
        table[v] = w
        if i % 6 == 0:
            acc += Fraction(w[0] - w[1], w[2] or 1)
    return time.perf_counter() - start


def normalise(samples: list[float], refs: list[float]) -> list[float]:
    """Scale sample i by the reference times taken just before and after it."""
    return [t * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            for i, t in enumerate(samples)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile_tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Needs at least 11 samples.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10  # 1-based nearest rank
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples cannot give a tail")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


class Run:
    """Counters shared by the timed and the traced loops."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, surface: dict) -> tuple[float, str]:
        wall, code, text, error = call_main(self.cli, surface)
        self.attempted += 1
        problem = outcome_problem(surface, code, text, error)
        if problem:
            self.problems.append(f"{surface['path']}: {problem}")
        return wall, text


def timed_loop(run: Run, plan: dict) -> dict:
    surfaces = plan["surfaces"]
    run.check(surfaces[0])  # untimed warm-up: imports, allocator pools
    run.attempted, run.problems = 0, []
    gc.collect()
    samples, corners, refs = [], 0, [reference_work()]
    start = time.perf_counter()
    while time.perf_counter() - start < plan["seconds"] or len(samples) < plan["min_samples"]:
        surface = surfaces[len(samples) % len(surfaces)]
        wall, _ = run.check(surface)
        samples.append(wall)
        corners += surface["corners"]
        gc.collect()
        refs.append(reference_work())
    scaled = normalise(samples, refs)
    tail, pct, beyond = percentile_tail(scaled)
    return {
        "metrics": {
            "corners_per_s": {"value": corners / sum(scaled), "unit": "corners/s"},
            "verdict_p50_s": {"value": median(scaled), "unit": "s"},
            "verdict_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        },
        "raw": {"corners_per_s": corners / sum(samples),
                "verdict_p50_s": median(samples),
                "verdict_tail_s": percentile_tail(samples)[0],
                "reference_p50_s": median(refs)},
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(samples),
        "samples_s": samples,
        "reference_s": refs,
    }


def traced_loop(run: Run, plan: dict) -> dict:
    """Each surface once untraced and once traced, alternating.

    Times are host-normalised like the timed loop's: reference_work() runs
    between every two checks.
    """
    from tracing import EXACT_COUNTS, Tracer

    surfaces = plan["surfaces"]
    tracer = Tracer()
    run.check(surfaces[0])  # untimed warm-up
    run.attempted, run.problems = 0, []
    walls, refs = [], [reference_work()]
    corners = checked = report_bytes = 0
    for k, surface in enumerate(surfaces):
        gc.collect()
        walls.append(run.check(surface)[0])
        gc.collect()
        refs.append(reference_work())
        tracer.surface = k
        tracer.install()
        try:
            wall, text = run.check(surface)
        finally:
            tracer.uninstall()
        walls.append(wall)
        tracer.inspect_pending()
        gc.collect()
        refs.append(reference_work())
        corners += surface["corners"]
        report_bytes += len(text.encode())
        with contextlib.suppress(ValueError):
            checked += json.loads(text).get("corners_checked", 0)
    scaled = normalise(walls, refs)
    scale = [t / w for t, w in zip(scaled[1::2], walls[1::2])]
    metrics = tracer.metrics(
        scale=scale, corners=corners, corners_checked=checked,
        report_bytes=report_bytes,
        overhead_ratio=sum(scaled[1::2]) / sum(scaled[::2]),
        surfaces=len(surfaces))
    tracer.write_spans(plan["spans_out"])
    counts = {name: metrics[name]["value"] for name in EXACT_COUNTS}
    return {"metrics": metrics, "counts": counts, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    args = parser.parse_args(argv)
    cli = import_cli()
    if args.probe:
        print("ready", flush=True)
        reference_work()  # the first call pays for cold code paths
        print(reference_work(), flush=True)
        return 0
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    run = Run(cli)
    result = traced_loop(run, plan) if plan["trace"] else timed_loop(run, plan)
    result.update(attempted=run.attempted, problems=run.problems,
                  python=sys.version.split()[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
