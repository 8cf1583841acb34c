import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure_sl2 import asymptotics
from demazure_sl2.asymptotics import FitMismatchError
from demazure_sl2.cli import main
from demazure_sl2.verify import SUITE_NAMES
from frozen import README_COMMAND_SHA256


def test_dist_csv_stdout(capsys):
    assert main(["dist", "--m", "1", "--n", "0", "--N", "2", "--first", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "a,b,mult\n0,0,1\n1,0,1\n1,1,1\n1,2,1\n"


def test_dist_json_to_file(tmp_path, capsys):
    path = tmp_path / "dist.json"
    code = main(["dist", "--m", "1", "--n", "0", "--N", "6", "--format", "json", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert len(doc["entries"]) == 42
    assert sum(int(e["mult"]) for e in doc["entries"]) == 64
    assert doc["word"] == {"length": 6, "first": 0}


def test_dist_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "x.csv"
    assert main(["dist", "--m", "1", "--n", "0", "--N", "4", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_dist_rejects_bad_flags(capsys):
    assert main(["dist", "--m", "1", "--n", "0"]) == 2  # missing --N
    assert main(["dist", "--m", "1", "--n", "0", "--N", "2", "--first", "3"]) == 2
    assert main(["dist", "--m", "0", "--n", "0", "--N", "2"]) == 2  # level 0
    assert main(["dist", "--m", "1", "--n", "0", "--N", "-4"]) == 2
    assert main(["nope"]) == 2
    assert main([]) == 2


def test_verify_passes_and_prints_lines(capsys):
    assert main(["verify", "--suite", "sanderson", "--max-N", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert "N=1" in lines[0] and "lhs=" in lines[1] and "rhs=" in lines[1]
    assert lines[-1].startswith("checked ")


def test_verify_rejects_unknown_suite(capsys):
    # run_suite is the one validator of a suite name: one line naming every suite
    assert main(["verify", "--suite", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown suite 'bogus'"), captured.err
    assert all(name in lines[0] for name in ("all",) + SUITE_NAMES), captured.err
    assert main(["verify", "--max-N", "0"]) == 2
    # suites that start at N = 2 check nothing at max-N 1
    for suite in ("stretch", "recurrence"):
        capsys.readouterr()
        assert main(["verify", "--suite", suite, "--max-N", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_verify_conjecture_below_max_N_10_is_usage_error(capsys):
    # five even lengths up to max-N are needed for the fit and its held-out check
    assert main(["verify", "--suite", "conjecture", "--max-N", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_wlln_csv_stdout(capsys):
    assert main(["wlln", "--m", "1", "--n", "0", "--N-list", "2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "level,N,max_degree,mean_deg,var_deg,mean_fin,var_fin"
    assert lines[1].startswith("1,2,")
    assert len(lines) == 3


def test_wlln_rejects_bad_lists(capsys):
    assert main(["wlln", "--m", "1", "--n", "0", "--N-list", "4,2"]) == 2
    assert main(["wlln", "--m", "1", "--n", "0", "--N-list", "x,y"]) == 2
    assert main(["wlln", "--m", "1", "--n", "0", "--N-list", ""]) == 2
    capsys.readouterr()
    for text in ("1,,3", "2,4,", ",2,4"):
        assert main(["wlln", "--m", "1", "--n", "0", "--N-list", text]) == 2
        assert capsys.readouterr().err.count("error:") == 1


def test_conjecture_json_stdout(capsys):
    assert main(["conjecture", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["level"] == 2
    assert doc["table_match"] is True


def test_conjecture_fit_mismatch_reports_witnesses(monkeypatch, capsys):
    def mismatch(m, N_list):
        raise FitMismatchError("not cubic on sampled range", [(10, Fraction(1), Fraction(2))])

    monkeypatch.setattr(asymptotics, "conjecture_check", mismatch)
    assert main(["conjecture", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not cubic on sampled range\n  N=10 computed=1 cubic-predicts=2\n"


def test_conjecture_rejects_bad_level_and_short_list(capsys):
    assert main(["conjecture", "--m", "5"]) == 2
    assert main(["conjecture", "--m", "2", "--N-list", "2,4,6,8"]) == 2
    assert main(["conjecture", "--m", "2", "--N-list", "2,4,6,8,10,"]) == 2


def test_render_heatmap(tmp_path):
    path = tmp_path / "fig.svg"
    code = main(["render", "--m", "1", "--n", "0", "--N", "6", "--out", str(path)])
    assert code == 0
    svg = path.read_text()
    assert svg.count("<rect") == 42


def test_render_histogram_stdout(capsys):
    assert main(["render", "--m", "1", "--n", "0", "--N", "4", "--kind", "histogram"]) == 0
    assert "data-degree" in capsys.readouterr().out


def test_render_ellipse(capsys):
    assert main(["render", "--m", "1", "--n", "0", "--N", "6", "--kind", "ellipse"]) == 0
    out = capsys.readouterr().out
    assert "<path " in out


def test_render_degenerate_ellipse_is_usage_error(capsys):
    # length-1 word has a singular covariance matrix
    assert main(["render", "--m", "1", "--n", "0", "--N", "1", "--kind", "ellipse"]) == 2
    assert "degenerate covariance" in capsys.readouterr().err


def test_console_script_help(capsys):
    assert main(["--help"]) == 0
    assert "dist" in capsys.readouterr().out


def test_readme_commands_match_golden_digests(tmp_path, capsys):
    for command, digest in README_COMMAND_SHA256.items():
        argv, out = command.split(), None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out = tmp_path / argv[i]
            argv[i] = str(out)
        assert main(argv) == 0, command
        stdout = capsys.readouterr().out
        data = out.read_bytes() if out else stdout.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest, command


# (valid, invalid) values per flag of each subcommand: the invalid ones are
# non-int tokens, negative numbers, bad choices and malformed length lists.
# N <= 6 and --max-N <= 10, so no example computes anything large.
_BAD_INTS = ("x", "1.5", "-3", "")
_LEVEL = (("0", "1", "2"), _BAD_INTS)
_LENGTH = (("0", "1", "3", "6"), _BAD_INTS)
_FIRST = (("0", "1"), ("2", "x"))
_N_LIST = (("2,4", "1,3,6"), ("4,2", "2,2", "1,,3", "a,b", "", "-1,3"))
_ARGV_FLAGS = {
    "dist": {"--m": _LEVEL, "--n": _LEVEL, "--N": _LENGTH, "--first": _FIRST, "--format": (("csv", "json"), ("xml",))},
    "verify": {
        "--suite": (("all",) + SUITE_NAMES, ("bogus",)),
        "--max-N": (("1", "2", "5", "10"), ("0",) + _BAD_INTS),
    },
    "wlln": {"--m": _LEVEL, "--n": _LEVEL, "--N-list": _N_LIST, "--first": _FIRST},
    "conjecture": {"--m": (("2", "3", "4"), ("1", "5") + _BAD_INTS), "--N-list": (("2,4,6,8,10",), _N_LIST[1] + ("2,4",))},
    "render": {
        "--m": _LEVEL,
        "--n": _LEVEL,
        "--N": _LENGTH,
        "--first": _FIRST,
        "--kind": (("heatmap", "histogram", "ellipse"), ("pie",)),
        "--samples": (("3", "64"), ("0", "1", "2", "-1", "x")),
    },
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    argv = [command]
    for flag, (valid, invalid) in _ARGV_FLAGS[command].items():
        pick = draw(st.integers(0, 7))  # omit the flag, an invalid value, or mostly a valid one
        if pick:
            argv += [flag, draw(st.sampled_from(invalid if pick == 1 else valid))]
    return argv


@given(argv=_argvs())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines), argv
    if code == 2:
        assert sum("error:" in line for line in lines) == 1, (argv, err.getvalue())
