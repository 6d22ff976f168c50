import argparse

import numpy as np
import pytest

from fedlora.cli import build_parser


@pytest.fixture(scope="session")
def host_kernel() -> str:
    """This host's numeric kernels, for the message of a frozen-bit mismatch."""
    return host_kernel_string()


def host_kernel_string() -> str:
    """numpy's CPU dispatch, the BLAS build and the long double format of this host.

    Frozen fixtures store exact float64 bits, which depend on these as well
    as on the code; each fixture stores the string it was frozen under.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return (
        f"host kernel: numpy {np.__version__}; dispatch baseline {simd.get('baseline')}, "
        f"enabled {simd.get('found')}; BLAS {blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', '').strip()}); {np.finfo(np.longdouble)!r}"
    )


@pytest.fixture(scope="session")
def subcommand_flags() -> dict[str, list[str]]:
    """Each `fedlora` subcommand's option strings, as build_parser() defines them, -h aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [opt for action in parser._actions for opt in action.option_strings
               if opt not in ("-h", "--help")]
        for name, parser in sub.choices.items()
    }


def _leaves(value, path=""):
    """(path, value) of each leaf of nested dicts and lists; a list of numbers is one leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}" if path else str(key))
    elif isinstance(value, list) and any(isinstance(item, (dict, list, str)) for item in value):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def print_moved(old: dict, new: dict) -> None:
    """Print each leaf of a fixture about to be re-frozen that moved, with its largest relative change."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    moved = [key for key in sorted(before.keys() | after.keys())
             if key not in before or key not in after or not np.array_equal(before[key], after[key])]
    for key in moved:
        if key not in before or key not in after:
            change = "new" if key in after else "gone"
        else:
            try:
                a, b = np.asarray(before[key], dtype=float), np.asarray(after[key], dtype=float)
                change = f"largest relative change {np.max(np.abs(b - a) / np.maximum(np.abs(a), 1e-300)):.3g}"
            except (TypeError, ValueError):  # text, or a shape that changed
                change = f"{before[key]!r} -> {after[key]!r}"
        print(f"{key}: {change}")
    print(f"{len(moved)} of {len(after)} keys moved")
