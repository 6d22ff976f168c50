"""The package root exports every name the demos import from it."""

import ast
from pathlib import Path

import pytest

import fedlora

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _root_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fedlora" and node.level == 0
        for alias in node.names
    ]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_root_imports_exist(demo):
    missing = [name for name in _root_imports(demo) if not hasattr(fedlora, name)]
    assert not missing, f"{demo.name} imports {missing} from fedlora, which does not export them"
