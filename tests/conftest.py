import argparse

import numpy as np
import pytest

from fedlora.cli import build_parser


@pytest.fixture(scope="session")
def host_kernel() -> str:
    """This host's numeric kernels, for the message of a frozen-bit mismatch.

    Frozen fixtures store exact float64 bits, which depend on numpy's CPU
    dispatch, the BLAS build and the long double format as well as on the code.
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
