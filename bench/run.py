"""Seeded benchmark of demazure_sl2, run from the repository root.

    python3 bench/run.py --workload chain-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload chain-deep --seed 1 --seconds 30 --trace 1
    python3 bench/compare.py base.log head.log     # captured stdout of runs

Workloads; job lists are made from --seed and the package sees only them:

  chain-deep     one chain per level 1-4 to 25k-33k support points, walked
                 with apply_demazure, with covariance_matrix and the support
                 extremes at ten snapshot lengths: the recursion dominates
  suite-sweep    each identity suite at max_N 15, 22 and 29 on a fresh
                 SuiteContext, plus conjecture_check at levels 2, 3 and 4:
                 exact moments and suite logic dominate
  export-render  the level-1 closed form at N = 10..60, exported to CSV and
                 JSON and drawn as heatmap, histogram and ellipse, plus
                 README-style CLI calls: the read paths dominate

Load model: a closed loop with one client in one single-threaded process.
Each pass of the job list runs in a fresh interpreter (worker.py), so module
caches and SuiteContext start cold as on every CLI call, and ru_maxrss
describes one pass.  Passes repeat until --seconds have passed (at least
three).  A job's time is the median over passes of its time at reference
speed (speed.py); wall_s sums them, job_s_p50 and job_s_tail are taken over
the jobs.  setup_s is the median of two fresh set-ups timed before each pass.

With --trace 1, untraced and traced passes alternate, the per-layer metrics
come from the fastest traced pass (tracing.py), and the spans are written to
.bench_trace/.  Every job's outputs are checked, failed jobs count in
"failed", and the README CLI commands must reproduce the sha256 digests in
golden.json.  The last stdout line is the result; the line before it holds
metadata: git sha, machine, seed, job counts, raw timings and units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import Calibration, at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "demazure_sl2" / "__init__.py"

HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PASSES = 3
SETUP_PER_PASS = 2
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import demazure_sl2 as d; "
    "from demazure_sl2 import cli; cli.build_parser(); "
    "d.weight_distribution(d.HighestWeight(1, 0), d.WeylWord(1, 0))"
)

# (m, n, first letter, word length): one chain per level, final supports of
# 25k-33k points, level 1 the longest.  The weights are fixed because mirror
# and mixed weights of one level differ in cost by up to 20%, which would make
# the work depend on the seed.  Short passes give each job many samples.
CHAINS = ((1, 0, 0, 54), (1, 1, 0, 34), (2, 1, 1, 27), (4, 0, 0, 23))
SUITES = ("sanderson", "palindrome", "stretch", "recurrence", "covariance", "conjecture")
SUITE_MAX_N = (15, 22, 29)
EXPORT_JOBS = 12
CLI_JOBS = (
    ("csv", ("dist", "--m", "1", "--n", "0", "--N", "{N}")),
    ("json", ("dist", "--m", "1", "--n", "0", "--N", "{N}", "--format", "json")),
    ("heatmap", ("render", "--m", "1", "--n", "0", "--N", "{N}")),
    ("histogram", ("render", "--m", "1", "--n", "0", "--N", "{N}", "--kind", "histogram")),
    ("ellipse", ("render", "--m", "1", "--n", "0", "--N", "{N}", "--kind", "ellipse")),
)
CLI_CALLS = 3  # with the EXPORT_JOBS sizes, one job in five is a CLI call


def chain_deep(rng: random.Random) -> list[dict]:
    jobs = []
    for m, n, first, N in CHAINS:
        # one snapshot in each tenth of the word, at a seeded point; the last at N
        snapshots = sorted({max(1, round(N * (k + rng.random()) / 10)) for k in range(9)} | {N})
        jobs.append({"kind": "chain", "m": m, "n": n, "first": first, "N": N, "snapshots": snapshots})
    rng.shuffle(jobs)
    return jobs


def suite_sweep(rng: random.Random) -> list[dict]:
    # max_N forms a fixed grid, so every seed does the same suite work and the
    # same job sits at each percentile; the seed sets the order and the
    # conjecture_check samples.  The conjecture suite ignores max_N, so it runs
    # once.  19 jobs keep job_s_tail at the maximum, the stretch suite at 29.
    jobs = [{"kind": "suite", "suite": suite, "max_N": max_N} for suite in SUITES[:-1] for max_N in SUITE_MAX_N]
    jobs.append({"kind": "suite", "suite": "conjecture", "max_N": SUITE_MAX_N[0]})
    for m in (2, 3, 4):
        # the longest chain, which sets the cost, is always N = 12
        N_list = sorted(rng.sample(range(2, 12, 2), rng.randint(4, 5))) + [12]
        jobs.append({"kind": "conjecture", "m": m, "N_list": N_list})
    rng.shuffle(jobs)
    return jobs


def export_render(rng: random.Random) -> list[dict]:
    # the sizes form a fixed grid swept in ascending order, the access pattern
    # the closed form's row cache is built for; a seeded order would make each
    # job's cost depend on which rows earlier jobs left cached.  The seed picks
    # the CLI calls and where they fall in the sweep.
    sizes = [10 + round(50 * i / (EXPORT_JOBS - 1)) for i in range(EXPORT_JOBS)]
    jobs: list[dict] = [{"kind": "export", "N": N} for N in sizes]
    for i in range(CLI_CALLS):
        check, argv = rng.choice(CLI_JOBS)
        N = str(rng.randint(6, 20))
        cli_job = {"kind": "cli", "check": check, "argv": [a.replace("{N}", N) for a in argv], "output": f"cli{i}.{check}"}
        jobs.insert(rng.randint(0, len(jobs) - 1), cli_job)  # the N = 60 job stays last
    return jobs


WORKLOADS = {"chain-deep": chain_deep, "suite-sweep": suite_sweep, "export-render": export_render}

END_TO_END_UNITS = {"wall_s": "s", "job_s_p50": "s", "job_s_tail": "s", "peak_mem_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "demazure.calls": "count",
    "demazure.busy_s": "s",
    "demazure.points_in": "count",
    "demazure.points_out": "count",
    "demazure.strings": "count",
    "demazure.max_mult_bits": "bit",
    "demazure.ns_per_point_out": "ns",
    "demazure.peak_bytes": "B",
    "demazure.wall_share": "ratio",
    "moments.calls": "count",
    "moments.busy_s": "s",
    "moments.points_in": "count",
    "moments.ns_per_point": "ns",
    "verify.chain_s": "s",
    "verify.suite_s": "s",
    "verify.checks": "count",
    "verify.failed": "count",
    "asymptotics.calls": "count",
    "asymptotics.busy_s": "s",
    "closedform.calls": "count",
    "closedform.busy_s": "s",
    "closedform.points_out": "count",
    "serialize.calls": "count",
    "serialize.busy_s": "s",
    "serialize.bytes_out": "B",
    "render.calls": "count",
    "render.busy_s": "s",
    "render.bytes_out": "B",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
}


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples the maximum is used and reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def spawn(args: list[str], deadline: float, stdin: str | None = None) -> str:
    """Run a child interpreter to completion, killed at ``deadline``; return its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same str hashing in every pass
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)[:60]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def setup_once(deadline: float, calibration: Calibration) -> tuple[float, float]:
    """(raw, reference-speed) seconds for a fresh interpreter to import, build the parser and compute."""
    before = calibration.run()
    start = perf_counter()
    spawn(["-c", SETUP_CODE], deadline)
    raw = perf_counter() - start
    return raw, at_reference_speed(raw, before, calibration.run())


def run_passes(
    workload: str, seed: int, jobs: list[dict], seconds: int, trace: bool, deadline: float
) -> tuple[list[tuple[bool, dict]], list[tuple[float, float]]]:
    """Closed loop of passes until ``seconds`` have passed; alternate traced passes if asked.

    Untraced runs also time SETUP_PER_PASS fresh set-ups before each pass, so
    the set-up samples are spread over the run instead of one moment of it.
    """
    trace_path = str(ROOT / ".bench_trace" / f"{workload}-seed{seed}.jsonl")
    passes: list[tuple[bool, dict]] = []
    setups: list[tuple[float, float]] = []
    calibration = Calibration()
    if not trace:
        setup_once(deadline, calibration)  # writes bytecode caches, which users do not pay per call
    start = perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        if not trace:
            setups += [setup_once(deadline, calibration) for _ in range(SETUP_PER_PASS)]
        request = json.dumps({"jobs": jobs, "trace": traced, "trace_path": trace_path if traced else None})
        began = perf_counter()
        result = json.loads(spawn([str(BENCH / "worker.py")], deadline, request).splitlines()[-1])
        longest = max(longest, perf_counter() - began)
        passes.append((traced, result))
        done = perf_counter() - start >= seconds and len(passes) >= (2 if trace else MIN_PASSES)
        if done or deadline - perf_counter() < 1.5 * longest:
            return passes, setups


def metadata(args: argparse.Namespace, jobs: list[dict]) -> dict:
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip() or None
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "jobs_per_pass": len(jobs),
        "job_kinds": dict(Counter(job["kind"] for job in jobs)),
    }


def job_times(results: list[dict]) -> list[float]:
    """Each job's time at reference speed: its median over the given passes.

    Every pass runs the same job list, so the passes are repeated samples of
    each job; the median discards samples whose calibration missed a change
    in host speed.
    """
    return [statistics.median(times) for times in zip(*(r["job_ref_s"] for r in results))]


def summarize(passes: list[tuple[bool, dict]], trace: bool) -> tuple[dict, dict]:
    """(metric values, details for the metadata line)."""
    plain = [r for traced, r in passes if not traced]
    job_s = job_times(plain)
    wall_s = sum(job_s)
    details = {"raw_pass_wall_s": [r["wall_s"] for r in plain]}
    if not trace:
        percentile, tail_s = tail(job_s)
        values = {
            "wall_s": wall_s,
            "job_s_p50": statistics.median(job_s),
            "job_s_tail": tail_s,
            "peak_mem_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
        }
        details.update({"tail_percentile": percentile, "tail_jobs": len(job_s)})
        return values, details
    traced = [r for t, r in passes if t]
    # layer metrics come from one traced pass, the least disturbed one
    values = dict(min(traced, key=lambda r: r["wall_s"])["layers"])
    values["trace.overhead_frac"] = sum(job_times(traced)) / wall_s - 1
    details["raw_traced_pass_wall_s"] = [r["wall_s"] for r in traced]
    return values, details


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="how long the passes run, at least three passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: package source not found at {PACKAGE.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + HARD_LIMIT_S
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    meta = metadata(args, jobs)
    try:
        golden = json.loads(spawn([str(BENCH / "worker.py"), "--golden"], deadline).splitlines()[-1])
        passes, setups = run_passes(args.workload, args.seed, jobs, args.seconds, bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    values, details = summarize(passes, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if setups:
        values["setup_s"] = statistics.median(s for _, s in setups)
        details["raw_setup_s"] = [raw for raw, _ in setups]
    attempted = sum(len(r["job_s"]) for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]
    meta.update(details)
    meta.update(
        {
            "passes": len(passes),
            "traced_passes": sum(1 for traced, _ in passes if traced),
            "attempted": attempted,
            "ops_failed_frac": len(failures) / attempted,
            "failures": failures[:5],
            "golden_mismatches": golden["mismatches"],
            "units": {name: units[name] for name in units},
        }
    )
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not failures and not golden["mismatches"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
