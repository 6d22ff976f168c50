"""The package root exports every name the demos import from it, and README names what exists."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fedlora
from fedlora.experiment import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def _run_demo(demo: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_demo_04_stdout_pinned():
    # the federated demo prints every number of the evaluation protocol; refactors keep them
    proc = _run_demo(next(p for p in DEMOS if p.name == "04_federated_training.py"))
    assert proc.stdout == (Path(__file__).parent / "demo_04_stdout.txt").read_text(encoding="utf-8")


UNPINNED = [p for p in DEMOS if p.name != "04_federated_training.py"]


@pytest.mark.parametrize("demo", UNPINNED, ids=[p.name for p in UNPINNED])
def test_demo_runs(demo):
    # every other demo runs to the end; demo 04 runs in the pinned test above
    _run_demo(demo)


def _library_table() -> dict[str, list[str]]:
    """README's library table: module -> the backticked names of its row, `a/b_x` as a_x and b_x."""
    table = {}
    for module, contents in re.findall(r"^\| `(\w+)` +\| (.+) \|$", README, re.MULTILINE):
        names = []
        for name in re.findall(r"`([^`]+)`", contents):
            if "/" in name:
                head, tail = name.split("/")
                names += [head + tail[tail.index("_"):], tail]
            else:
                names.append(name)
        table[module] = names
    return table


LIBRARY = _library_table()


def test_library_table_found():
    assert len(LIBRARY) >= 10 and all(LIBRARY.values())


@pytest.mark.parametrize("module", sorted(LIBRARY))
def test_library_table_names_exist(module):
    mod = importlib.import_module(f"fedlora.{module}")
    missing = [name for name in LIBRARY[module] if not hasattr(mod, name)]
    assert not missing, f"README's library table lists {missing} under `{module}`, which has no such names"


def _root_exports() -> list[str]:
    init = ast.parse((ROOT / "src" / "fedlora" / "__init__.py").read_text(encoding="utf-8"))
    return [a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]


def test_root_exports_only_what_demos_import():
    # a name no demo imports from the root any more is a stale export
    assert sorted(_root_exports()) == sorted({name for demo in DEMOS for name in _root_imports(demo)})


def test_readme_root_export_count():
    assert f"re-exports the {len(_root_exports())} names" in README


def _command_table() -> dict[str, list[str]]:
    """README's per-command flag table: subcommand -> its backticked flags, in order."""
    rows = re.findall(r"^\| `fedlora ([\w-]+)` +\| (.+) \|$", README, re.MULTILINE)
    return {command: re.findall(r"`(--[\w-]+)`", flags) for command, flags in rows}


def test_readme_command_table_matches_parser(subcommand_flags):
    assert _command_table() == subcommand_flags


def test_readme_config_defaults_match_the_config():
    block = re.search(r"Defaults\s+shown:\s+```json\n(.*?)```", README, re.DOTALL)
    assert block, "README has no 'Defaults shown' JSON block"
    assert json.loads(block.group(1)) == ExperimentConfig().to_dict()
