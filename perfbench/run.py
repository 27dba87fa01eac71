"""Benchmark of the zclasses library, run from the root of a source checkout.

    python3 perfbench/run.py --workload {catalog,large} --seed N --seconds S --trace {0,1}

Untraced (``--trace 0``): set up three times in fresh processes, then run
whole passes of the workload for about ``--seconds`` (at least two passes),
check every output, and print one JSON line with ``setup_s``, ``pass_s`` and
``peak_rss_mb``.
Traced (``--trace 1``): one untraced pass, then a walk of the workload and of
the catalog one library call at a time; prints the per-layer metrics and
writes every span to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pool would only add scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import zclasses  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, duration, layer_totals  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

SETUP_REPEATS = 3

LAYERS = [
    "specs.build_group",
    "construct.extraspecial", "construct.dihedral", "construct.is_extraspecial",
    "core.direct_product", "core.commuting_table", "core.central_quotient",
    "core.commutator_subgroup",
    "core.read_cayley_table", "core.validate_group_table", "core.write_cayley_table",
    "zclass.z_class_partition", "zclass.condition_local_center",
    "zclass.conjugate_type_vector",
    "zclass.verify_mt", "zclass.verify_A", "zclass.verify_est", "zclass.verify_kulkarni",
    "zclass.verify_bounds",
    "isoclinism.commutator_pairing", "isoclinism.are_isoclinic",
    "isoclinism.witness_validate", "isoclinism.verify_direct_factor_invariance",
    "catalog.analyze_group", "catalog.records_to_json_lines",
    "cli.main",
]
ALLOCATIONS = ["construct.extraspecial", "core.validate_group_table", "zclass.z_class_partition"]


def workdir(workload: str, seed: int) -> Path:
    path = OUT / f"{workload}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def timed_setups(args) -> list[float]:
    """Wall time of fresh processes that import zclasses and write the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", "--workload", args.workload,
                        "--seed", str(args.seed)], check=True)
        times.append(time.perf_counter() - start)
    return times


def check(workload, passes: list[Pass]) -> bool:
    try:
        workload.check(passes)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def untraced(args, workload) -> dict:
    setups = timed_setups(args)
    passes, times = [], []
    start = time.perf_counter()
    # Whole passes, at least two so that the median is never a single pass,
    # and as many as fit best: stop once the next pass would end further past
    # --seconds than stopping now falls short of it.
    while len(times) < 2 or time.perf_counter() - start + times[-1] / 2 < args.seconds:
        t = time.perf_counter()
        passes.append(workload.run_pass(Tracer(False)))
        times.append(time.perf_counter() - t)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q = statistics.quantiles(times, n=4)
    print(f"{args.workload}: {len(times)} passes, median {statistics.median(times):.3f} s, "
          f"quartiles {q[0]:.3f}-{q[2]:.3f} s; passes {[round(t, 3) for t in times]}; "
          f"set-ups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return {
        "correct": check(workload, passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
    }


def traced(args, workload) -> dict:
    workload.setup()
    t = time.perf_counter()
    reference = workload.run_pass(Tracer(False))
    untraced_s = time.perf_counter() - t
    correct = check(workload, [reference])

    # The catalog walk calls every layer once, so walking it too gives every
    # per-layer metric a measured value on every workload.
    walks = [workload]
    if workload.name != "catalog":
        walks.append(WORKLOADS["catalog"](args.seed, workdir("catalog", args.seed)))
    tracer = Tracer(True)
    for w in walks:
        with tracer.span(f"{w.name}.walk", workload=w.name):
            walked = w.walk(tracer)
        try:
            checks.check_failures(walked.failures, w.expected_failures)
        except checks.CheckFailed as exc:
            print(f"walk of {w.name}: {exc}", file=sys.stderr)
            correct = False

    spans = tracer.spans
    own = [s for s in spans if s["workload"] == args.workload]
    repeats = sum(duration(s) for s in own
                  if s["extra"] and s["parent"] is not None and not spans[s["parent"]]["extra"])
    walk_s = duration(next(s for s in own if s["name"] == f"{args.workload}.walk")) - repeats
    header = {"workload": args.workload, "seed": args.seed, "untraced_pass_s": untraced_s,
              "traced_walk_s": walk_s, "overhead_s": walk_s - untraced_s,
              "metrics": layer_totals(spans, LAYERS, ALLOCATIONS)}
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", header)
    print(f"{args.workload}: untraced pass {untraced_s:.3f} s, traced walk {walk_s:.3f} s "
          f"(repeat measurements left out), overhead {walk_s - untraced_s:+.3f} s",
          file=sys.stderr)
    units = {k: ("MB" if k.endswith("_mb") else "s") for k in header["metrics"]}
    return {
        "correct": correct,
        "attempted": reference.attempted,
        "failed": len(reference.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in header["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the inputs and exit (one timed set-up)")
    args = parser.parse_args()
    if Path(zclasses.__file__).resolve().parent != ROOT / "src" / "zclasses":
        sys.exit(f"zclasses was imported from {zclasses.__file__}, not from {ROOT / 'src'}")

    workload = WORKLOADS[args.workload](args.seed, workdir(args.workload, args.seed))
    if args.setup_only:
        workload.setup()
        return 0
    result = traced(args, workload) if args.trace else untraced(args, workload)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
