"""The package root exports every name the demos import from it."""

import ast
import subprocess
import sys
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


def test_demo_04_stdout_pinned():
    # the federated demo prints every number of the evaluation protocol; refactors keep them
    demo = next(p for p in DEMOS if p.name == "04_federated_training.py")
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "demo_04_stdout.txt").read_text(encoding="utf-8")
