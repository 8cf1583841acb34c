"""Module boundaries of the package, checked on its source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "demazure_sl2"


def test_no_module_imports_a_private_name_from_a_sibling():
    # a _-prefixed name is internal to its module; sharing one across
    # modules means the shared logic belongs behind a public name
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("demazure_sl2")):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
