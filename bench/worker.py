"""Run one pass of a benchmark job list in a fresh interpreter.

    python3 bench/worker.py < pass.json     # one pass; prints one JSON line
    python3 bench/worker.py --golden        # README CLI commands vs golden.json

A pass reads ``{"jobs": [...], "trace": bool, "trace_path": str | null}`` on
stdin and prints ``{"wall_s", "job_s", "job_ref_s", "failures", "maxrss_kb",
"layers"}``: job times raw and at reference speed (speed.py).
Only the package calls of a job are timed: each job's clock stops while the
benchmark checks the job's outputs, and tracing records nothing then.  Every
job is checked by intrinsic properties of its outputs, since seeded inputs
have no stored answers.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from demazure_sl2 import (  # noqa: E402
    asymptotics,
    cli,
    closedform,
    demazure,
    lattice,
    moments,
    render,
    serialize,
    verify,
)

from speed import Calibration, at_reference_speed  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN_PATH = BENCH / "golden.json"
TMP_PARENT = ROOT / ".bench_tmp"

# the commands of the README's CLI section, in order
README_COMMANDS = (
    ("dist", "--m", "1", "--n", "0", "--N", "6", "--first", "0"),
    ("dist", "--m", "1", "--n", "0", "--N", "6", "--format", "json", "--out", "mu6.json"),
    ("verify", "--suite", "all", "--max-N", "20"),
    ("verify", "--suite", "sanderson", "--max-N", "40"),
    ("wlln", "--m", "1", "--n", "0", "--N-list", "10,20,30,40"),
    ("conjecture", "--m", "2", "--N-list", "2,4,6,8,10"),
    ("render", "--m", "1", "--n", "0", "--N", "6", "--out", "heatmap.svg"),
    ("render", "--m", "1", "--n", "0", "--N", "6", "--kind", "histogram", "--out", "hist.svg"),
    ("render", "--m", "1", "--n", "0", "--N", "6", "--kind", "ellipse", "--out", "ellipse.svg"),
)

# chains (fundamental weight index j, extra length) each suite reads from its
# SuiteContext; the word of L_j starts with letter j
SUITE_CHAINS = {
    "sanderson": ((0, 0),),
    "palindrome": ((0, 0),),
    "stretch": ((0, 0),),
    "recurrence": ((0, 1),),
    "covariance": ((0, 0), (1, 0)),
    "conjecture": (),
}


class Clock:
    """Times the package calls of one job, in raw seconds and at reference speed.

    The tracer records only inside timed segments.  Once 50 ms of timed work
    has gathered, the calibration loop runs (untimed) and that work is scaled
    by the calibrations on either side of it, so each piece of a long job is
    scaled by the host's speed at the time it ran.
    """

    SETTLE_S = 0.05

    def __init__(self, tracer: Tracer, calibration: Calibration) -> None:
        self.tracer = tracer
        self.calibration = calibration
        self.total = 0.0
        self.at_reference = 0.0
        self._pending = 0.0
        self._calibrated = calibration.run()

    @contextmanager
    def timed(self):
        self.tracer.recording = self.tracer.installed
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.tracer.recording = False
            self.total += elapsed
            self._pending += elapsed
            if self._pending >= self.SETTLE_S:
                self.settle()

    def call(self, fn, *args):
        """``fn(*args)`` as one timed segment."""
        with self.timed():
            return fn(*args)

    def settle(self) -> None:
        """Scale the timed work since the last calibration; call when the job ends."""
        calibrated = self.calibration.run()
        self.at_reference += at_reference_speed(self._pending, self._calibrated, calibrated)
        self._calibrated = calibrated
        self._pending = 0.0


def expected_mass(hw: lattice.HighestWeight, first: int, N: int) -> int:
    """Dimension of the Demazure module of hw for the alternating word (N, first)."""
    if N == 0:
        return 1
    top = hw.m if first == 0 else hw.n
    return (top + 1) * (hw.level + 1) ** (N - 1)


def support_extremes(mu: demazure.WeightDistribution) -> tuple[int, int]:
    """Largest degree and largest absolute finite weight: the WLLN rescaling axes."""
    n = mu.hw.n
    max_deg = max_fw = 0
    for (a, b), _ in mu.items():
        if a > max_deg:
            max_deg = a
        w = abs(n + 2 * (a - b))
        if w > max_fw:
            max_fw = w
    return max_deg, max_fw


def run_chain(job: dict, clock: Clock) -> list[str]:
    """Walk the word with apply_demazure; summarise and check at each snapshot."""
    hw = lattice.HighestWeight(job["m"], job["n"])
    first, N = job["first"], job["N"]
    snapshots = set(job["snapshots"])
    problems: list[str] = []
    with clock.timed():
        mu = demazure.WeightDistribution.delta(hw)
    for t in range(1, N + 1):
        j = first if t % 2 == 1 else 1 - first
        with clock.timed():
            mu = demazure.apply_demazure(j, mu)
            if t in snapshots:
                cov = moments.covariance_matrix(mu)
                support_extremes(mu)
        if t not in snapshots:
            continue
        if mu.total_mass() != expected_mass(hw, first, t):
            problems.append(f"N={t}: total mass {mu.total_mass()} != {expected_mass(hw, first, t)}")
        # the theorems cover hw = L_j with first letter j
        if hw == lattice.HighestWeight.fundamental(first) and cov != verify.theorem_covariance_matrix(t, first):
            problems.append(f"N={t}: covariance matrix differs from the theorem")
        # the closed form caches every row it builds, so comparing at the
        # seeded snapshot lengths would make peak memory depend on the seed
        if t == N and (hw.m, hw.n, first) == (1, 0, 0) and mu != closedform.level1_distribution(N):
            problems.append(f"N={t}: differs from the level-1 closed form")
    return problems


def run_suite(job: dict, clock: Clock) -> list[str]:
    """Fill a fresh SuiteContext with its chains, then run one suite on it."""
    name, max_N = job["suite"], job["max_N"]
    ctx = verify.SuiteContext()
    tracer = clock.tracer
    with clock.timed(), tracer.span("verify", "chain"):
        for j, extra in SUITE_CHAINS[name]:
            ctx.chain(lattice.HighestWeight.fundamental(j), j, max_N + extra)
    with clock.timed(), tracer.span("verify", "suite"):
        results = verify.run_suite(name, max_N, ctx)
    failed = [verify.format_check(r) for r in results if not r.passed]
    tracer.counts["verify.checks"] += len(results)
    tracer.counts["verify.failed"] += len(failed)
    if not results:
        return ["suite produced no checks"]
    return failed[:3]


def run_conjecture(job: dict, clock: Clock) -> list[str]:
    try:
        report = clock.call(asymptotics.conjecture_check, job["m"], job["N_list"])
    except asymptotics.FitMismatchError as err:
        return [f"fit mismatch: {err.witnesses}"]
    problems = []
    if not report.table_match:
        problems.append(f"cubic {report.fit.coefficients} is not the conjectured one")
    if not report.max_degree_match:
        problems.append("maximum degree differs from m*N^2/4")
    return problems


_RECT = re.compile(r"<rect ")
_MASS = re.compile(r'data-mass="(\d+)"')
_MULT = re.compile(r'data-a="(-?\d+)" data-b="(-?\d+)" data-mult="(\d+)"')


def check_entries(mu_items: dict, csv_text: str, json_text: str) -> list[str]:
    """CSV and JSON must parse back to exactly the given entries."""
    problems = []
    lines = csv_text.splitlines()
    parsed = {}
    for line in lines[1:]:
        a, b, c = line.split(",")
        parsed[(int(a), int(b))] = int(c)
    if lines[0] != "a,b,mult" or parsed != mu_items:
        problems.append("CSV does not parse back to the distribution")
    doc = json.loads(json_text)
    if {(e["a"], e["b"]): int(e["mult"]) for e in doc["entries"]} != mu_items:
        problems.append("JSON does not parse back to the distribution")
    return problems


def check_heatmap(svg: str, points: int, mass: int) -> list[str]:
    cells = _MULT.findall(svg)
    if len(_RECT.findall(svg)) != points or len(cells) != points:
        return [f"heatmap has {len(_RECT.findall(svg))} rects for {points} support points"]
    if sum(int(c) for _, _, c in cells) != mass:
        return ["heatmap multiplicities do not sum to the total mass"]
    return []


def check_histogram(svg: str, mass: int) -> list[str]:
    got = sum(int(m) for m in _MASS.findall(svg))
    return [] if got == mass else [f"histogram masses sum to {got}, not {mass}"]


def check_ellipse(svg: str) -> list[str]:
    ok = svg.startswith("<svg") and '<path d="M ' in svg and svg.rstrip().endswith("</svg>")
    return [] if ok else ["ellipse document is malformed"]


def run_export(job: dict, clock: Clock) -> list[str]:
    """Closed form at level 1, then every export and view of it."""
    N = job["N"]
    mu = clock.call(closedform.level1_distribution, N)
    csv_text = clock.call(serialize.distribution_csv, mu)
    json_text = clock.call(serialize.distribution_json, mu, demazure.WeylWord(N, 0))
    heat = clock.call(render.heatmap, mu)
    hist = clock.call(render.degree_histogram, mu)
    cov = clock.call(moments.covariance_matrix, mu)
    center = (
        clock.call(moments.expectation, mu, lattice.degree_functional()),
        clock.call(moments.expectation, mu, lattice.finite_weight_functional(mu.hw)),
    )
    ellipse = clock.call(render.ellipse_document, render.Ellipse(center, cov))
    mass = 2**N
    problems = []
    if mu.total_mass() != mass:
        problems.append(f"total mass {mu.total_mass()} != 2^{N}")
    if cov != verify.theorem_covariance_matrix(N, 0):
        problems.append("covariance matrix differs from the theorem")
    problems += check_entries(dict(mu.items()), csv_text, json_text)
    problems += check_heatmap(heat, len(mu), mass)
    problems += check_histogram(hist, mass)
    problems += check_ellipse(ellipse)
    return problems


def run_cli(job: dict, clock: Clock, tmpdir: str) -> list[str]:
    """A README-style CLI call writing to a file; checked from the file alone."""
    argv = list(job["argv"])
    out = Path(tmpdir) / job["output"]
    code = clock.call(cli.main, argv + ["--out", str(out)])
    if code != 0:
        return [f"exit status {code}"]
    text = out.read_text(encoding="utf-8")
    N = int(argv[argv.index("--N") + 1])
    mass = 2**N
    check = job["check"]
    if check == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        got = sum(int(c) for _, _, c in rows)
        return [] if got == mass else [f"CSV masses sum to {got}, not 2^{N}"]
    if check == "json":
        doc = json.loads(text)
        got = sum(int(e["mult"]) for e in doc["entries"])
        ok = got == mass and doc["word"] == {"length": N, "first": 0}
        return [] if ok else [f"JSON masses sum to {got}, not 2^{N}, or the word is wrong"]
    if check == "heatmap":
        return check_heatmap(text, len(set(_MULT.findall(text))), mass)
    if check == "histogram":
        return check_histogram(text, mass)
    return check_ellipse(text)


RUNNERS = {
    "chain": run_chain,
    "suite": run_suite,
    "conjecture": run_conjecture,
    "export": run_export,
}


def run_pass(jobs: list[dict], trace: bool, trace_path: str | None = None) -> dict:
    """Run every job once, in order; return timings, failures and layer metrics."""
    tracer = Tracer()
    if trace:
        tracer.install()
    calibration = Calibration()
    job_s: list[float] = []
    job_ref_s: list[float] = []
    failures: list[dict] = []
    TMP_PARENT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_PARENT)
    runners = dict(RUNNERS, cli=partial(run_cli, tmpdir=tmpdir))
    try:
        for index, job in enumerate(jobs):
            tracer.job = index
            clock = Clock(tracer, calibration)
            try:
                problems = runners[job["kind"]](job, clock)
            except Exception as err:  # a job that raises is a failed job, not a failed pass
                problems = [f"{type(err).__name__}: {err}"]
            clock.settle()
            job_s.append(clock.total)
            job_ref_s.append(clock.at_reference)
            if problems:
                failures.append({"job": index, "kind": job["kind"], "problems": problems[:3]})
            if trace:
                tracer.probe_peak()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    wall_s = sum(job_s)
    result = {
        "wall_s": wall_s,
        "job_s": job_s,
        "job_ref_s": job_ref_s,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics(wall_s) if trace else {},
    }
    if trace and trace_path:
        tracer.write(trace_path)
    return result


def golden_check() -> dict:
    """Run the README CLI commands; compare sha256 of each output to golden.json."""
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    commands = []
    TMP_PARENT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        for argv in README_COMMANDS:
            args = list(argv)
            out = None
            if "--out" in args:
                i = args.index("--out") + 1
                out = Path(tmpdir) / args[i]
                args[i] = str(out)
            captured = io.StringIO()
            with redirect_stdout(captured):
                code = cli.main(args)
            data = out.read_bytes() if out is not None else captured.getvalue().encode("utf-8")
            commands.append({"command": " ".join(argv), "exit": code, "sha256": hashlib.sha256(data).hexdigest()})
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    mismatches = [c["command"] for c in commands if recorded.get(c["command"]) != {"exit": c["exit"], "sha256": c["sha256"]}]
    return {"commands": commands, "mismatches": mismatches}


def main() -> int:
    if sys.argv[1:] == ["--golden"]:
        print(json.dumps(golden_check()))
        return 0
    request = json.load(sys.stdin)
    print(json.dumps(run_pass(request["jobs"], request["trace"], request.get("trace_path"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
