"""Table-gather kernels against the pair loops they replaced.

Each oracle below walks element pairs in Python, the way the library once
did.  Kernels that only gather values must match it bitwise; kernels that
sum products in another order must match it to 1e-12 relative.
"""

import numpy as np
import pytest

from semifourier.harmonic import GROUPOID, NATURAL, MatrixMap
from semifourier.maps import convolve, tensor_lift, tensor_mul
from semifourier.positivity import (
    _pd_matrix_groupoid,
    _pd_matrix_natural,
    eval_groupoid,
    eval_natural,
    gram_pd_map,
)
from semifourier.semigroup import build_matrix_units

from conftest import get_structure

REFS = (
    "builtin:symmetric_inverse:2",
    "builtin:symmetric_inverse:3",
    "builtin:matrix_units:3",
    "builtin:cyclic_with_zero:6",
)
DIMS = (1, 2, 3)
CASES = [(ref, n) for ref in REFS for n in DIMS]


def random_map(st, n, seed, basis=NATURAL):
    rng = np.random.default_rng([seed, st.table.order, n, 29])
    shape = (st.table.order, n, n)
    return MatrixMap(st, n, basis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * max(1.0, float(np.abs(want).max()))


# --- oracles ------------------------------------------------------------------

def oracle_product(st, a, b):
    """sum over nonzero i, j with i j = k of a[i] b[j], per k."""
    out = np.zeros_like(a)
    for i in st.nonzero:
        for j in st.nonzero:
            k = st.mul(i, j)
            if k != st.zero:
                out[k] += a[i] @ b[j]
    return out


def oracle_pd_natural(st, vals):
    nz, n = st.nonzero, vals.shape[-1]
    big = np.zeros((len(nz) * n, len(nz) * n), dtype=complex)
    for a, s in enumerate(nz):
        for b, t in enumerate(nz):
            u = st.mul(int(st.inv[s]), t)
            if u != st.zero:
                big[a * n : (a + 1) * n, b * n : (b + 1) * n] = vals[u]
    return big


def oracle_pd_groupoid(st, vals, elements):
    n = vals.shape[-1]
    big = np.zeros((len(elements) * n, len(elements) * n), dtype=complex)
    for a, s in enumerate(elements):
        for b, t in enumerate(elements):
            if st.ran[s] == st.ran[t]:
                big[a * n : (a + 1) * n, b * n : (b + 1) * n] = vals[st.mul(int(st.inv[s]), t)]
    return big


def oracle_gram_pd_map(st, n, seed):
    """V^dagger L_s V with L_s the dense 0/1 left multiplication on the groupoid basis."""
    rng = np.random.default_rng([seed, st.table.order, n, 13])
    nz = list(st.nonzero)
    pos = {s: i for i, s in enumerate(nz)}
    p = len(nz)
    v = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2.0)
    vals = np.zeros((st.table.order, n, n), dtype=complex)
    for s in nz:
        lmult = np.zeros((p, p))
        for t in nz:
            if st.dom[s] == st.ran[t]:
                lmult[pos[st.mul(s, t)], pos[t]] = 1.0
        vals[s] = v.conj().T @ lmult @ v
    return vals


# --- convolution and the tensor product -------------------------------------------

@pytest.mark.parametrize("ref,n", CASES)
def test_convolve_matches_pair_sum(ref, n):
    st = get_structure(ref)
    f, g = random_map(st, n, 1), random_map(st, n, 2)
    assert_close(convolve(f, g).values, oracle_product(st, f.values, g.values))


@pytest.mark.parametrize("ref,n", CASES)
def test_tensor_mul_matches_pair_sum(ref, n):
    st = get_structure(ref)
    f, g = random_map(st, n, 3), random_map(st, n, 4)
    got = tensor_mul(tensor_lift(f), tensor_lift(g)).coeffs
    assert_close(got, oracle_product(st, f.values, g.values))


# --- positive-definiteness matrices ---------------------------------------------------

@pytest.mark.parametrize("ref,n", CASES)
@pytest.mark.parametrize("basis", [NATURAL, GROUPOID])
def test_pd_matrices_equal_loop_assembly_bitwise(ref, n, basis):
    st = get_structure(ref)
    f = random_map(st, n, 5, basis)
    assert np.array_equal(_pd_matrix_natural(f), oracle_pd_natural(st, eval_natural(f)))
    assert np.array_equal(
        _pd_matrix_groupoid(f, st.nonzero), oracle_pd_groupoid(st, eval_groupoid(f), st.nonzero)
    )
    for cls in st.dclasses:
        assert np.array_equal(
            _pd_matrix_groupoid(f, cls), oracle_pd_groupoid(st, eval_groupoid(f), cls)
        )


# --- the matrix-unit table ----------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_matrix_units_table_is_the_unit_rule(m):
    t = build_matrix_units(m)

    def unit(i, j):
        return 1 + (i - 1) * m + (j - 1)

    want = np.zeros((m * m + 1, m * m + 1), dtype=np.int32)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    want[unit(i, j), unit(k, l)] = unit(i, l) if j == k else 0
    assert np.array_equal(t.table, want)
    assert t.table.dtype == np.int32


# --- Gram generator -----------------------------------------------------------------

@pytest.mark.parametrize("ref,n", CASES)
def test_gram_pd_map_matches_dense_left_multiplication(ref, n):
    st = get_structure(ref)
    assert_close(gram_pd_map(st, n, seed=7).values, oracle_gram_pd_map(st, n, 7))
