"""plconvex benchmark: four exact workloads through the documented CLI.

    python3 perfbench/run.py --workload sphere_n3 --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file.  Inputs
are generated from --seed into .bench_work/inputs/ (once per workload and
seed, with their sha256 recorded and re-verified on reuse).  A fresh worker
interpreter then checks them with plconvex.cli.main in a closed loop with
one client and verifies every exit code, verdict and witness.

--trace 0 prints the end-to-end metrics (corners_per_s, verdict_p50_s,
verdict_tail_s, peak_rss_mb, setup_s); --trace 1 runs each surface once
untraced and once with per-layer tracing and prints the per-layer metrics.
Times are scaled to a nominal host speed (see worker.REFERENCE_S).
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A human-readable table and a details line (seed, sha256 of every input,
environment, tail percentile, error_rate) come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import gen
from worker import REFERENCE_S, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

SURFACES_PER_SEED = 4  # distinct files per (workload, seed), checked in turn
SETUP_PROBES = 21
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
WORKER_TIMEOUT_S = 170


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(paths) -> str:
    """One sha256 over the named files' paths and contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def prepare_inputs(workload: str, seed: int) -> tuple[list[dict], list[str]]:
    """Generate (or reuse and re-verify) the seed's input files.

    Returns the surface records and a list of problems.
    """
    generator = tree_digest([HERE / "gen.py"])[:16]
    folder = WORK / "inputs" / workload / f"seed-{seed}-gen-{generator}"
    manifest_path = folder / "manifest.json"
    if manifest_path.is_file():
        surfaces = json.loads(manifest_path.read_text())
        problems = [f"{s['file']}: sha256 changed since it was written"
                    for s in surfaces if sha256(folder / s["file"]) != s["sha256"]]
        return [dict(s, path=str(folder / s["file"])) for s in surfaces], problems
    folder.mkdir(parents=True, exist_ok=True)
    surfaces = []
    for index in range(SURFACES_PER_SEED):
        surface = gen.generate(workload, seed, index)
        name = f"surface-{index}.{surface.ext}"
        tmp = folder / f"{name}.tmp"
        tmp.write_text(surface.text, encoding="ascii")
        os.replace(tmp, folder / name)
        surfaces.append({
            "file": name, "sha256": sha256(folder / name),
            "corners": surface.corners, "expect": surface.expect,
            "tail_start": surface.tail_start, "info": surface.info,
        })
    tmp = folder / "manifest.json.tmp"
    tmp.write_text(json.dumps(surfaces, indent=1))
    os.replace(tmp, manifest_path)
    return [dict(s, path=str(folder / s["file"])) for s in surfaces], []


def generator_self_test(seed: int) -> list[str]:
    """Desk-scale check of the simplicial generators against the hull oracle."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from plconvex.oracle import is_hull_boundary  # noqa: F401
    except ImportError:
        return []  # oracle gone: nothing independent to compare against
    return [f"generator self-test: {p}" for p in gen.self_test(seed)]


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time from worker spawn until `import plconvex.cli` is done.

    Returns the raw times and the times scaled to the nominal host speed by
    the reference task each probe times right after its import.
    """
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--probe"], stdout=subprocess.PIPE,
            env=worker_env(), cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            ref = proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed to import plconvex.cli")
        samples.append(wall)
        scaled.append(wall * REFERENCE_S / float(ref))
    return samples, scaled


def run_worker(plan: dict, plan_path: Path) -> dict:
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--plan", str(plan_path)],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(workload: str, seed: int, code: str, counts: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same code and seed.

    `code` digests the program and the benchmark, so any edit to either
    starts a fresh record.
    """
    folder = WORK / "counts"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-seed-{seed}-code-{code[:16]}.json"
    if not path.is_file():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    earlier = json.loads(path.read_text())
    return [f"count {name} is {counts.get(name)}, an earlier run had {value}"
            for name, value in earlier.items() if counts.get(name) != value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sources = sorted((ROOT / "src" / "plconvex").glob("*.py"))
    if not (ROOT / "src" / "plconvex" / "cli.py").is_file():
        print(f"error: no plconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(gen.WORKLOADS)}")
    src = tree_digest(sources)
    WORK.mkdir(exist_ok=True)
    surfaces, problems = prepare_inputs(args.workload, args.seed)
    problems += generator_self_test(args.seed)
    for s in surfaces:
        s["argv"] = ["check", s["path"], "--report", "json"]
        if s["expect"] == "not_convex":
            s["argv"].append("--exhaustive")

    stem = f"{args.workload}-seed-{args.seed}-trace-{args.trace}"
    plan = {"trace": bool(args.trace), "seconds": args.seconds,
            "min_samples": MIN_SAMPLES, "surfaces": surfaces,
            "spans_out": str(WORK / f"spans-{stem}.jsonl")}
    setup, setup_scaled = ([], []) if args.trace else measure_setup()
    result = run_worker(plan, WORK / f"plan-{stem}.json")
    problems += result["problems"]
    metrics = result["metrics"]
    if args.trace:
        code = tree_digest(sources + sorted(HERE.glob("*.py")))
        problems += check_counts(args.workload, args.seed, code, result["counts"])
    else:
        metrics["setup_s"] = {"value": median(setup_scaled), "unit": "s"}
        result["raw"]["setup_s"] = median(setup)
    failed = len(result["problems"])
    attempted = result["attempted"]

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": result["python"], "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "src_sha256": src,
        "inputs": {s["file"]: s["sha256"] for s in surfaces},
        "error_rate": failed / attempted, "problems": problems[:20],
        "setup_samples_s": setup,
        **{k: result[k] for k in ("raw", "samples", "tail_percentile",
                                  "tail_beyond", "spans") if k in result},
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(
        {"details": details, "metrics": metrics,
         "samples_s": result.get("samples_s", []),
         "reference_s": result.get("reference_s", [])}, indent=1))
    for name, m in metrics.items():
        value = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"{name:40s} {value:>14s} {m['unit']}")
    print(f"{'error_rate':40s} {details['error_rate']:>14.6g} ratio")
    print(json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
