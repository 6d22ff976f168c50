import numpy as np
import pytest


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
