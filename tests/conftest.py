"""Shared cached structures and irrep families for the test suite."""

import ctypes
import glob
import os
from functools import lru_cache
from pathlib import Path

# One BLAS thread, set before numpy is first imported: the dense oracles
# multiply and eigensolve matrices of a few hundred rows, where a second
# OpenBLAS thread gains nothing and stalls the suite whenever another
# process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from semifourier.harmonic import induced_irreps  # noqa: E402
from semifourier.semigroup import from_builtin, inverse_structure  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DATA = REPO_ROOT / "sample_data"

BUILTINS = (
    "builtin:matrix_units:1",
    "builtin:matrix_units:2",
    "builtin:matrix_units:3",
    "builtin:symmetric_inverse:1",
    "builtin:symmetric_inverse:2",
    "builtin:symmetric_inverse:3",
    "builtin:cyclic_with_zero:2",
    "builtin:cyclic_with_zero:3",
    "builtin:cyclic_with_zero:4",
    "builtin:cyclic_with_zero:5",
)


@lru_cache(maxsize=None)
def get_structure(ref: str):
    return inverse_structure(from_builtin(ref))


@lru_cache(maxsize=None)
def get_irreps(ref: str, seed: int = 0):
    return induced_irreps(get_structure(ref), seed=seed)


@pytest.fixture
def mu2():
    return get_structure("builtin:matrix_units:2")


@pytest.fixture
def i2():
    return get_structure("builtin:symmetric_inverse:2")


@pytest.fixture
def i3():
    return get_structure("builtin:symmetric_inverse:3")


def openblas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS (queried, not assumed), or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None
