import itertools

import numpy as np
import pytest

from semifourier.cxmat import BlockTensor
from semifourier.errors import DimensionMismatch, IndexOutOfRange, WrongSemigroup
from semifourier.harmonic import GROUPOID, NATURAL, MatrixMap
from semifourier.maps import (
    Supermap,
    choi,
    choi_invert,
    convolve,
    identity_supermap,
    map_from_choi,
    matrix_units_size,
    representing_map,
    supermap_basis,
    supermap_convolve,
    unit_supermap,
)
from semifourier.semigroup import cyclic_group_table, matrix_unit_index

from conftest import get_structure


def random_map(st, n, seed, integer=False):
    rng = np.random.default_rng([seed, st.table.order, n, 23])
    if integer:
        vals = rng.integers(-3, 4, size=(st.table.order, n, n)).astype(complex)
    else:
        vals = rng.standard_normal((st.table.order, n, n)) + 1j * rng.standard_normal(
            (st.table.order, n, n)
        )
    return MatrixMap(st, n, NATURAL, vals)


def group_convolution(group, a, b):
    """(a * b)(g) = sum_h a(h) b(h^-1 g) on a group's value tables, pair by pair."""
    out = np.zeros_like(a)
    for k in range(group.order):
        for i in range(group.order):
            out[k] += a[i] @ b[group.mul(int(group.inv[i]), k)]
    return out


def random_supermap(seed, m1=2, n2=2, m3=2, n4=2):
    """A random supermap: a random map on matrix_units:(m1 n2) into M_(m3 n4)."""
    st = get_structure(f"builtin:matrix_units:{m1 * n2}")
    return Supermap(m1, n2, m3, n4, random_map(st, m3 * n4, seed))


# --- convolution -------------------------------------------------------------

def test_convolve_matrix_units_rule():
    st = get_structure("builtin:matrix_units:2")
    f = random_map(st, 2, 0)
    g = random_map(st, 2, 1)
    conv = convolve(f, g)
    for i in (1, 2):
        for j in (1, 2):
            want = sum(
                f.values[matrix_unit_index(2, i, k)]
                @ g.values[matrix_unit_index(2, k, j)]
                for k in (1, 2)
            )
            assert np.abs(conv.values[matrix_unit_index(2, i, j)] - want).max() <= 1e-12


def test_convolve_reduces_to_group_convolution():
    st = get_structure("builtin:cyclic_with_zero:3")
    group = cyclic_group_table(3)
    f = random_map(st, 2, 2)
    g = random_map(st, 2, 3)
    conv = convolve(f, g)
    # nonzero part is exactly the group convolution on Z3 (element i+1 <-> g_i)
    want = group_convolution(group, f.values[1:], g.values[1:])
    assert np.abs(conv.values[1:] - want).max() <= 1e-12


def test_convolve_with_idempotent_delta_is_identity():
    st = get_structure("builtin:cyclic_with_zero:3")
    f = random_map(st, 2, 4)
    vals = np.zeros((st.table.order, 2, 2), dtype=complex)
    for e in st.idempotents:
        vals[e] = np.eye(2)
    delta = MatrixMap(st, 2, NATURAL, vals)
    conv = convolve(f, delta)
    assert np.abs(conv.values - f.values).max() <= 1e-12


def test_convolve_associative():
    st = get_structure("builtin:symmetric_inverse:2")
    for seed in range(5):
        f1 = random_map(st, 2, 10 + seed)
        f2 = random_map(st, 2, 20 + seed)
        f3 = random_map(st, 2, 30 + seed)
        lhs = convolve(convolve(f1, f2), f3)
        rhs = convolve(f1, convolve(f2, f3))
        assert np.abs(lhs.values - rhs.values).max() <= 1e-9


# --- tensor lift --------------------------------------------------------------
# A natural-basis map's values are the coefficients of its lift sum_s s (x) Phi(s)
# in C0[S] (x) M_n, and convolution is the product of lifts.

def lift_product(st, f, g):
    """(sum_s s (x) Phi(s)) (sum_t t (x) Psi(t)) = sum_{s, t} st (x) Phi(s) Psi(t), pair by pair."""
    out = np.zeros_like(f.values)
    for s in st.nonzero:
        for t in st.nonzero:
            out[st.mul(s, t)] += f.values[s] @ g.values[t]
    out[st.zero] = 0.0
    return out


def test_tensor_lift_zero_map(i2):
    zero = MatrixMap(i2, 2, NATURAL, np.zeros((7, 2, 2), dtype=complex))
    assert np.abs(zero.values).max() == 0.0
    assert np.abs(convolve(zero, random_map(i2, 2, 7)).values).max() == 0.0


def test_tensor_lift_intertwines_convolution_exactly():
    st = get_structure("builtin:matrix_units:2")
    f = random_map(st, 2, 5, integer=True)
    g = random_map(st, 2, 6, integer=True)
    # value tables v[i, j] = F(e_ij): (F * G)(e_ij) = sum_k F(e_ik) G(e_kj)
    lifted = np.einsum("ikab,kjbc->ijac", f.values[1:].reshape(2, 2, 2, 2), g.values[1:].reshape(2, 2, 2, 2))
    conv = convolve(f, g)
    assert np.array_equal(lifted.reshape(4, 2, 2), conv.values[1:])


def test_tensor_lift_intertwines_on_i2(i2):
    f = random_map(i2, 2, 7)
    g = random_map(i2, 2, 8)
    lifted = lift_product(i2, f, g)
    conv = convolve(f, g)
    assert np.abs(lifted - conv.values).max() <= 1e-12
    assert conv.basis == NATURAL


def test_tensor_lift_flattens_to_choi():
    st = get_structure("builtin:matrix_units:2")
    f = random_map(st, 2, 9)
    c = choi(f).reshaped()
    for i in (1, 2):
        for j in (1, 2):
            assert np.array_equal(
                f.values[matrix_unit_index(2, i, j)], c[i - 1, :, j - 1, :]
            )


# --- Choi matrix ----------------------------------------------------------------

def test_choi_identity_map():
    st = get_structure("builtin:matrix_units:2")
    vals = np.zeros((5, 2, 2), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            e = np.zeros((2, 2))
            e[i - 1, j - 1] = 1.0
            vals[matrix_unit_index(2, i, j)] = e
    ident = MatrixMap(st, 2, NATURAL, vals)
    c = choi(ident)
    w = np.linalg.eigvalsh(c.matrix)
    assert np.abs(np.trace(c.matrix) - 2.0) <= 1e-12
    assert w[-1] == pytest.approx(2.0) and np.abs(w[:-1]).max() <= 1e-12  # rank 1, PSD


def test_choi_transpose_is_swap():
    from semifourier.positivity import transpose_map

    st = get_structure("builtin:matrix_units:2")
    c = choi(transpose_map(2, st))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.array_equal(c.matrix.real, swap)
    assert np.allclose(np.linalg.eigvalsh(c.matrix), [-1.0, 1.0, 1.0, 1.0])


def test_choi_requires_matrix_units(i2):
    f = random_map(i2, 2, 10)
    with pytest.raises(WrongSemigroup):
        choi(f)
    with pytest.raises(WrongSemigroup):
        matrix_units_size(i2)


def test_matrix_units_size_is_cached_on_the_structure(i2, mu2):
    assert matrix_units_size(mu2) == mu2.matrix_units_size == 2
    assert i2.matrix_units_size is None
    # I_1 = {z, 1} has the order of matrix_units:1 but not its names
    assert get_structure("builtin:symmetric_inverse:1").matrix_units_size is None
    assert get_structure("builtin:matrix_units:1").matrix_units_size == 1


def test_choi_invert_identity_roundtrip():
    st = get_structure("builtin:matrix_units:2")
    rng = np.random.default_rng(31)
    vals = np.zeros((5, 2, 2), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            e = np.zeros((2, 2))
            e[i - 1, j - 1] = 1.0
            vals[matrix_unit_index(2, i, j)] = e
    ident = MatrixMap(st, 2, NATURAL, vals)
    c = choi(ident)
    for _ in range(10):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.abs(choi_invert(c, x) - x).max() <= 1e-12


def test_choi_invert_swap_transposes():
    from semifourier.positivity import transpose_map

    st = get_structure("builtin:matrix_units:2")
    c = choi(transpose_map(2, st))
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(choi_invert(c, x) - x.T).max() <= 1e-12


def test_map_from_choi_roundtrip():
    st = get_structure("builtin:matrix_units:3")
    f = random_map(st, 2, 11)
    back = map_from_choi(choi(f), st)
    assert np.abs(back.values - f.values).max() == 0.0
    # and the other way, with target and source dimensions apart
    mu2 = get_structure("builtin:matrix_units:2")
    rng = np.random.default_rng(34)
    c = BlockTensor(2, 3, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert np.abs(choi(map_from_choi(c, mu2)).matrix - c.matrix).max() == 0.0


def test_choi_invert_dimension_guard():
    st = get_structure("builtin:matrix_units:2")
    c = choi(random_map(st, 2, 12))
    with pytest.raises(DimensionMismatch):
        choi_invert(c, np.eye(3))


# --- supermaps ---------------------------------------------------------------------

def test_supermap_basis_values(mu2):
    v = supermap_basis(1, 1, 1, 1, 2, mu2)
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert (v.structure, v.dim, v.basis) == (mu2, 2, NATURAL)
    assert np.array_equal(v.values[matrix_unit_index(2, 1, 1)], e11)
    assert np.abs(v.values[matrix_unit_index(2, 1, 2)]).max() == 0.0
    # E_1212 applied to e_11 gives 0
    v2 = supermap_basis(1, 2, 1, 2, 2, mu2)
    assert np.abs(v2.values[matrix_unit_index(2, 1, 1)]).max() == 0.0


def test_supermap_basis_index_guard(mu2):
    with pytest.raises(IndexOutOfRange):
        supermap_basis(3, 1, 1, 1, 2, mu2)
    with pytest.raises(IndexOutOfRange):
        supermap_basis(1, 1, 1, 3, 2, mu2)


def test_basis_convolution_delta_pattern(mu2):
    # E_ijkl * E_pqrs = delta_lr delta_jp E_iqks, exhaustively for dims 2
    for i, j, k, l, p, q, r, s in itertools.product((1, 2), repeat=8):
        got = convolve(supermap_basis(i, j, k, l, 2, mu2), supermap_basis(p, q, r, s, 2, mu2))
        want = (
            supermap_basis(i, q, k, s, 2, mu2).values
            if (l == r and j == p)
            else np.zeros_like(got.values)
        )
        assert np.array_equal(got.values, want)


def test_unit_supermap_is_star_unit():
    t = random_supermap(0)
    unit = unit_supermap(2, 2, 2, 2, t.map.structure)
    assert np.abs(supermap_convolve(t, unit).map.values - t.map.values).max() <= 1e-12
    assert np.abs(supermap_convolve(unit, t).map.values - t.map.values).max() <= 1e-12


def test_star_convolution_associative():
    t1, t2, t3 = (random_supermap(i) for i in (1, 2, 3))
    lhs = supermap_convolve(supermap_convolve(t1, t2), t3)
    rhs = supermap_convolve(t1, supermap_convolve(t2, t3))
    assert np.abs(lhs.map.values - rhs.map.values).max() <= 1e-9


def test_representing_map_of_identity_supermap():
    ident = identity_supermap(2, 2, get_structure("builtin:matrix_units:4"))
    rng = np.random.default_rng(33)
    x = BlockTensor(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.abs(representing_map(ident, x).matrix - x.matrix).max() == 0.0


def test_representing_map_homomorphism():
    # T_{T1 star T2} equals T1 * T2 under matrix-map convolution on M_4
    st4 = get_structure("builtin:matrix_units:4")

    def as_matrix_map(t):
        vals = np.zeros((17, 4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                e = np.zeros((4, 4), dtype=complex)
                e[a, b] = 1.0
                out = representing_map(t, BlockTensor(2, 2, e))
                vals[matrix_unit_index(4, a + 1, b + 1)] = out.matrix
        return MatrixMap(st4, 4, NATURAL, vals)

    for seed in range(5):
        t1 = random_supermap(100 + seed)
        t2 = random_supermap(200 + seed)
        lhs = as_matrix_map(supermap_convolve(t1, t2))
        rhs = convolve(as_matrix_map(t1), as_matrix_map(t2))
        assert np.abs(lhs.values - rhs.values).max() <= 1e-9


def test_supermap_dimension_guards():
    t = random_supermap(5)
    with pytest.raises(DimensionMismatch):
        representing_map(t, BlockTensor(3, 2, np.zeros((6, 6))))
    with pytest.raises(DimensionMismatch):
        supermap_convolve(t, random_supermap(5, 2, 2, 3, 2))
    # (2,3,3,2) and (3,2,2,3) share matrix_units:6 and M_6, but not the split
    with pytest.raises(DimensionMismatch):
        supermap_convolve(random_supermap(6, 2, 3, 3, 2), random_supermap(6, 3, 2, 2, 3))
    # the map must live on matrix_units:(m1 n2), in M_(m3 n4), in the natural basis
    with pytest.raises(DimensionMismatch):
        Supermap(2, 2, 2, 3, t.map)
    with pytest.raises(DimensionMismatch):
        Supermap(1, 2, 2, 2, t.map)
    with pytest.raises(DimensionMismatch):
        Supermap(2, 2, 2, 2, MatrixMap(t.map.structure, 4, GROUPOID, t.map.values))
    with pytest.raises(WrongSemigroup):
        Supermap(2, 2, 2, 2, random_map(get_structure("builtin:symmetric_inverse:2"), 4, 0))
