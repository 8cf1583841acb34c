"""Tests of the benchmark itself: output checks, seeding, statistics, compare.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import worker

BENCH = Path(__file__).resolve().parent

SMALL_JOBS = [
    {"kind": "chain", "m": 1, "n": 0, "first": 0, "N": 9, "snapshots": [3, 8, 9]},
    {"kind": "chain", "m": 0, "n": 1, "first": 1, "N": 8, "snapshots": [5, 8]},
    {"kind": "chain", "m": 2, "n": 1, "first": 1, "N": 6, "snapshots": [2, 6]},
    {"kind": "suite", "suite": "recurrence", "max_N": 6},
    {"kind": "suite", "suite": "covariance", "max_N": 5},
    {"kind": "conjecture", "m": 3, "N_list": [2, 4, 8, 10, 14]},
    {"kind": "export", "N": 7},
    {"kind": "export", "N": 8},
] + [
    {"kind": "cli", "check": check, "argv": [a.replace("{N}", "5") for a in argv], "output": f"out-{check}"}
    for check, argv in run.CLI_JOBS
]


def failed_kinds(jobs: list[dict]) -> list[str]:
    return [f["kind"] for f in worker.run_pass(jobs, trace=False)["failures"]]


def test_small_jobs_of_every_kind_pass():
    result = worker.run_pass(SMALL_JOBS, trace=False)
    assert result["failures"] == []
    assert len(result["job_s"]) == len(SMALL_JOBS)
    assert result["wall_s"] == sum(result["job_s"]) > 0


def _bump_first_entry(mu):
    p, c = mu.sorted_items()[0]
    return worker.demazure.WeightDistribution(mu.hw, {**dict(mu.items()), p: c + 1})


def _drop_first_rect(svg: str) -> str:
    return re.sub(r"<rect [^>]*/>\n", "", svg, count=1)


def _bump_first_mass(svg: str) -> str:
    return re.sub(r'data-mass="(\d+)"', lambda m: f'data-mass="{int(m.group(1)) + 1}"', svg, count=1)


def _fail_last_check(results):
    return results[:-1] + [dataclasses.replace(results[-1], passed=False)]


def _append_csv_row(code: int, argv: list[str]) -> int:
    with open(argv[argv.index("--out") + 1], "a", encoding="utf-8") as fh:
        fh.write("0,0,1\n")
    return code


# (module, function, how its output is corrupted, the job that must fail)
CORRUPTIONS = {
    "operator": ("demazure", "apply_demazure", lambda out, args: _bump_first_entry(out), SMALL_JOBS[0]),
    "operator-level2": ("demazure", "apply_demazure", lambda out, args: _bump_first_entry(out), SMALL_JOBS[2]),
    "closed-form": ("closedform", "level1_distribution", lambda out, args: _bump_first_entry(out), SMALL_JOBS[6]),
    "csv": ("serialize", "distribution_csv", lambda out, args: out.rsplit("\n", 2)[0] + "\n", SMALL_JOBS[6]),
    "json": ("serialize", "distribution_json", lambda out, args: out.replace('"mult": "1"', '"mult": "2"', 1), SMALL_JOBS[7]),
    "heatmap": ("render", "heatmap", lambda out, args: _drop_first_rect(out), SMALL_JOBS[7]),
    "histogram": ("render", "degree_histogram", lambda out, args: _bump_first_mass(out), SMALL_JOBS[6]),
    "ellipse": ("render", "ellipse_document", lambda out, args: out.replace("<path", "<g", 1), SMALL_JOBS[7]),
    "covariance": (
        "moments",
        "covariance_matrix",
        lambda out, args: dataclasses.replace(out, covariance=out.covariance + 1),
        SMALL_JOBS[1],
    ),
    "suite": ("verify", "run_suite", lambda out, args: _fail_last_check(out), SMALL_JOBS[3]),
    "conjecture": (
        "asymptotics",
        "conjecture_check",
        lambda out, args: dataclasses.replace(out, table_match=False),
        SMALL_JOBS[5],
    ),
    "cli": ("cli", "main", lambda out, args: _append_csv_row(out, args[0]), SMALL_JOBS[8]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(name, monkeypatch):
    module_name, function, corrupt, job = CORRUPTIONS[name]
    module = getattr(worker, module_name)
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: corrupt(original(*args), args))
    assert failed_kinds([job]) == [job["kind"]]


def test_job_that_raises_counts_as_failed(monkeypatch):
    def broken(*args):
        raise ValueError("broken")

    monkeypatch.setattr(worker.closedform, "level1_distribution", broken)
    result = worker.run_pass([SMALL_JOBS[6], SMALL_JOBS[2]], trace=False)
    assert [f["job"] for f in result["failures"]] == [0]
    assert "ValueError: broken" in result["failures"][0]["problems"][0]


@pytest.mark.parametrize("suite", sorted(worker.SUITE_CHAINS))
def test_suite_chains_are_filled_before_the_timed_suite(suite, monkeypatch):
    """verify.suite_s must hold no operator work: the prefill covers every chain."""
    ctx = worker.verify.SuiteContext()
    for j, extra in worker.SUITE_CHAINS[suite]:
        ctx.chain(worker.lattice.HighestWeight.fundamental(j), j, 7 + extra)
    calls = []
    original = worker.verify.apply_demazure
    monkeypatch.setattr(worker.verify, "apply_demazure", lambda *args: calls.append(1) or original(*args))
    assert all(r.passed for r in worker.verify.run_suite(suite, 7, ctx))
    assert calls == []


def test_traced_pass_reports_every_layer_metric(tmp_path):
    request = {"jobs": SMALL_JOBS, "trace": True, "trace_path": str(tmp_path / "spans.jsonl")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(request), capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    layers = result["layers"]
    assert set(layers) == set(run.PER_LAYER_UNITS) - {"trace.overhead_frac"}
    for layer in ("demazure", "moments", "asymptotics", "closedform", "serialize", "render", "cli"):
        assert layers[f"{layer}.calls"] > 0 and layers[f"{layer}.busy_s"] > 0, layer
    assert layers["verify.checks"] > 0 and layers["verify.failed"] == 0
    assert layers["demazure.peak_bytes"] > 0 and layers["demazure.max_mult_bits"] > 0
    assert 0 < layers["demazure.wall_share"] < 1
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["layer"] for s in spans} >= {"demazure", "verify", "cli"}
    assert all(s["end"] >= s["start"] and s["parent"] < i for i, s in enumerate(spans))


def test_golden_cli_outputs_match():
    result = worker.golden_check()
    assert len(result["commands"]) == len(worker.README_COMMANDS)
    assert result["mismatches"] == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_job_lists_are_made_from_the_seed(workload):
    make = run.WORKLOADS[workload]
    assert make(random.Random(3)) == make(random.Random(3))
    assert make(random.Random(3)) != make(random.Random(4))


def test_tail_percentile_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (90.0, 89.0)  # ten samples, 90..99, lie beyond it
    percentile, value = run.tail(times[:30])
    assert (percentile, value) == (100.0 * 20 / 30, 19.0)


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(steady, [x * 1.05 for x in steady], 0.1, "lower") == "within"
    assert compare.verdict(steady, [x * 1.3 for x in steady], 0.1, "lower") == "worse"
    assert compare.verdict(steady, [x * 0.7 for x in steady], 0.1, "higher") == "worse"
    assert compare.verdict(steady, [0.5, 1.0, 1.5, 2.0, 1.2], 0.1, "lower") == "unresolved"


def test_compare_reads_captured_runs(tmp_path, capsys):
    def log(path, values):
        lines = []
        for v in values:
            lines.append(json.dumps({"meta": {"workload": "chain-deep"}}))
            lines.append(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": v, "unit": "s"}}}))
        path.write_text("\n".join(lines) + "\n")

    log(tmp_path / "base.log", [1.0, 1.0, 1.01])
    log(tmp_path / "head.log", [2.0, 2.0, 2.02])
    assert compare.main([str(tmp_path / "base.log"), str(tmp_path / "head.log")]) == 1
    assert "worse" in capsys.readouterr().out


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
