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

from semifourier.harmonic import NATURAL, MatrixMap, induced_irreps  # noqa: E402
from semifourier.semigroup import SemigroupTable, adjoin_zero, from_builtin, inverse_structure  # noqa: E402

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


def inverse_subsemigroup(n: int, generators) -> SemigroupTable:
    """The inverse subsemigroup of I_n generated by the given elements of I_n, plus zero.

    Closing partial bijections under product and inverse gives idempotent
    semilattices that are not Boolean and unit groups other than S_n.
    """
    rook = get_structure(f"builtin:symmetric_inverse:{n}")
    tab = rook.table.table
    members = np.unique(np.concatenate([[rook.zero], generators, rook.inv[list(generators)]]))
    while True:
        closed = np.union1d(members, tab[np.ix_(members, members)])
        if len(closed) == len(members):
            break
        members = closed
    local = np.zeros(rook.table.order, dtype=np.int32)
    local[members] = np.arange(len(members))
    names = tuple(rook.table.element_names[m] for m in members)
    return SemigroupTable(f"I{n}<{','.join(map(str, generators))}>", names,
                          int(local[rook.zero]), local[tab[np.ix_(members, members)]])


def group_with_zero(group):
    """The inverse structure of G^0, a group with a zero adjoined: C0[G^0] = C[G].

    Group element g keeps index g and the zero comes last.  The only nonzero
    idempotent is the identity, so the natural order is discrete and natural
    and groupoid values coincide; G^0 has one D-class, with r = 1.
    """
    return inverse_structure(adjoin_zero(SemigroupTable(group.name, group.element_names, None, group.table)))


def padded_map(st, values) -> MatrixMap:
    """The natural-basis map on G^0 with these group values, one per element, and 0 at the zero."""
    values = np.asarray(values, dtype=complex)
    vals = np.zeros((st.table.order,) + values.shape[1:], dtype=complex)
    vals[: len(values)] = values
    return MatrixMap(st, values.shape[1], NATURAL, vals)


def dense_pi(dil) -> np.ndarray:
    """The dense (|S|, dim, dim) pi of a dilation: each block(s) at rows of
    H_ran(s) and columns of H_dom(s), zero elsewhere and at z."""
    st, dims, off = dil.structure, dil.dims, dil.offsets
    pi = np.zeros((st.table.order, dil.dim, dil.dim), dtype=complex)
    for s in st.nonzero:
        a, b = st.ran[s], st.dom[s]
        pi[s, off[a] : off[a] + dims[a], off[b] : off[b] + dims[b]] = dil.block(s)
    return pi


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
