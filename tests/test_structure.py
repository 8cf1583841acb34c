"""Module boundaries of the package, checked on its source and in fresh interpreters."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import demazure_sl2

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "demazure_sl2"

# the package's public names, by the submodule that defines each
PUBLIC = {
    "asymptotics": """CONJECTURED_DEGREE_VARIANCE ConjectureReport FitMismatchError PolynomialFit
        RescaledSummary conjecture_check degree_mean_limit fit_polynomial rescaled_summary wlln_series""",
    "closedform": "PalindromeResult gaussian_binomial level1_distribution palindromicity_check string_symmetry_shift",
    "demazure": "WeightDistribution WeylWord apply_demazure distribution_chain marginal weight_distribution",
    "lattice": "A B Functional HighestWeight LatticePoint coroot_pairing degree_functional finite_weight_functional",
    "moments": """CoordinateMap CovarianceMatrix EmptyDistributionError covariance covariance_matrix
        expectation pushforward reference_formula variance""",
    "render": "DegenerateCovarianceError Ellipse degree_histogram ellipse_path heatmap",
    "verify": "CheckResult format_check run_suite theorem_covariance_matrix",
}


def _callers(path: Path) -> dict[str, set[str]]:
    """Called name -> names of the top-level statements calling it; attribute calls keyed ".attr"."""
    callers: dict[str, set[str]] = {}
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else "." + getattr(func, "attr", "")
                callers.setdefault(name, set()).add(getattr(top, "name", "<module>"))
    return callers


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_from_a_sibling():
    # a _-prefixed name is internal to its module; sharing one across
    # modules, by importing it or by reading it off an imported name
    # (X._name), means the shared logic belongs behind a public name
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("demazure_sl2")):
                offenders += [f"{path.name}: {a.name}" for a in node.names if _is_private(a.name)]
                imported.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _is_private(node.attr):
                if node.value.id in imported:
                    offenders.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert offenders == []


def test_no_module_keeps_global_state():
    # module-level state that functions rebind is shared by every caller in
    # the process; state belongs to objects that callers create and pass
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        globals_ = [node for node in ast.walk(tree) if isinstance(node, ast.Global)]
        offenders += [f"{path.name}:{node.lineno}: global {', '.join(node.names)}" for node in globals_]
    assert offenders == []


def test_only_run_suite_builds_check_results():
    # suites yield (name, N, lhs, rhs); run_suite alone turns them into
    # CheckResult lines, so the suite name, the printing of rationals and
    # the verdict are written once
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "verify.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "run_suite":
                    allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "CheckResult":
                    offenders.append(f"{path.name}:{node.lineno}: CheckResult(...)")
    assert offenders == []


def test_floats_only_in_render():
    # exact arithmetic everywhere but the SVG coordinates: outside render.py
    # no float literal, no float(...), no math module and no float-valued
    # function imported from it
    integer_math = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "render.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                offenders.append(f"{where}: float(...)")
            elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
                offenders.append(f"{where}: import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                offenders += [f"{where}: from math import {a.name}" for a in node.names if a.name not in integer_math]
    assert offenders == []


def test_closed_form_imports_no_operator():
    # closedform is the second, independent route to level-1 distributions:
    # from .demazure it may take the distribution type, nothing that computes
    tree = ast.parse((PACKAGE / "closedform.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("demazure_sl2").lstrip(".")
            if module == "demazure" or (module == "" and node.level == 0):
                offenders += [a.name for a in node.names if a.name != "WeightDistribution"]
            elif module == "":
                offenders += [a.name for a in node.names if a.name == "demazure"]
        elif isinstance(node, ast.Import):
            offenders += [a.name for a in node.names if a.name.startswith("demazure_sl2")]
    assert offenders == []


def test_asymptotics_walks_the_chain_and_reads_a_distribution_in_one_place_each():
    # wlln_series and conjecture_check share one chain walk (_walk) and one
    # reader of a distribution (_statistics), so a second route to the
    # snapshots replaces one function, not two loops
    callers = _callers(PACKAGE / "asymptotics.py")
    assert callers.get("distribution_chain") == {"_walk"}
    for name in ("raw_moments", ".degree_range", ".columns"):
        assert callers.get(name) == {"_statistics"}, name


def test_one_walk_along_the_alternating_word():
    # demazure.distribution_chain is the one loop of apply_demazure along a
    # word and the one statement of the alternation rule; every other chain
    # (weight_distribution, the asymptotics walk, SuiteContext.chain) reads it
    operator_callers, letters_callers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers = _callers(path)
        for name in ("apply_demazure", ".apply_demazure"):
            operator_callers |= {f"{path.name}: {top}" for top in callers.get(name, ())}
        letters_callers |= {f"{path.name}: {top}" for top in callers.get(".letters", ())}
    assert operator_callers == {"demazure.py: distribution_chain"}
    assert letters_callers == set()


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules of a fresh interpreter, started in the repo root, after running code."""
    probe = code + "\nimport sys; sys.stderr.write(' '.join(sys.modules))"
    path = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return set(proc.stderr.split())


def _bench_setup_code() -> str:
    for node in ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no SETUP_CODE")


def _cli_call(*argv: str) -> str:
    return f"from demazure_sl2 import cli; cli.main({list(argv)!r})"


def test_modules_load_on_use():
    # importing the package loads no submodule, and a CLI call loads only the
    # modules its subcommand runs, so a short call does not pay to compile the
    # rest; the value types are named tuples, so only the ellipse, whose moment
    # table returns dataclasses, loads dataclasses (and inspect, ast, dis with it)
    render = ("render", "--m", "1", "--n", "0", "--N", "2", "--kind")
    ellipse = _cli_call(*render, "ellipse")
    cases = {
        "import demazure_sl2": set(),
        _bench_setup_code(): {"cli", "demazure", "lattice"},
        _cli_call("dist", "--m", "1", "--n", "0", "--N", "2"): {"cli", "demazure", "lattice", "serialize"},
        _cli_call(*render, "heatmap"): {"cli", "demazure", "lattice", "render"},
        _cli_call(*render, "histogram"): {"cli", "demazure", "lattice", "render"},
        ellipse: {"cli", "demazure", "lattice", "moments", "render"},
    }
    bare = _modules_after("pass")  # a site .pth may preload stdlib modules; count only what the code adds
    for code, submodules in cases.items():
        added = _modules_after(code) - bare
        assert {m.removeprefix("demazure_sl2.") for m in added if m.startswith("demazure_sl2.")} == submodules, code
        if code != ellipse:
            assert "dataclasses" not in added, code


def test_public_namespace():
    # every public name resolves, on first read, to the object its submodule
    # defines; a star import binds them all, and other names do not resolve
    expected = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert demazure_sl2.__all__ == sorted(expected)
    for name, module in expected.items():
        assert getattr(demazure_sl2, name) is getattr(import_module(f"demazure_sl2.{module}"), name), name
        assert vars(demazure_sl2)[name] is getattr(demazure_sl2, name), name  # bound once read
    namespace: dict = {}
    exec("from demazure_sl2 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    with pytest.raises(AttributeError):
        demazure_sl2.nope
