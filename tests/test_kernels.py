"""Table-gather, block and set-up kernels against the loops they replaced.

Each oracle below walks element pairs in Python, or works on the whole
dense matrix, the way the library once did.  Kernels that only gather values
must match it bitwise; kernels that sum products in another order, or solve
for eigenvalues block by block, must match it to 1e-12 relative.
"""

import itertools
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from semifourier.cxmat import DEFAULT_TOL, BlockTensor, block_matrix, bound, hermitized, psd_verdict
from semifourier.errors import (
    NotARepresentation,
    NotAssociative,
    NotPositiveDefinite,
    ReconstructionFailure,
    SizeLimit,
    WrongBasis,
)
from semifourier.harmonic import (
    GROUPOID,
    NATURAL,
    MatrixMap,
    as_groupoid,
    check_irreps_complete,
    combine,
    conjugated_rep,
    fourier,
    fourier_invert,
    fourier_transform_all,
    from_groupoid,
    grid_transforms,
    induced_irreps,
    invert_to_map,
    plancherel_check,
    schur_residual,
    to_groupoid,
)
from semifourier.maps import (
    Supermap,
    choi,
    convolve,
    identity_supermap,
    representing_map,
    supermap_convolve,
    unit_supermap,
)
from semifourier.grouprep import (
    MAX_GROUP_ORDER,
    _char_key,
    _SplitFailed,
    _verify_rep,
    unitary_irreps,
)
from semifourier import grouprep, positivity
from semifourier.positivity import (
    Dilation,
    MatrixAlgebraRep,
    _class_grams,
    _natural_spectra,
    bochner_check,
    conjugation_rep,
    cp_check,
    direct_sum_rep,
    eval_groupoid,
    eval_natural,
    gram_pd_map,
    identity_rep,
    pd_check,
    random_cp_map,
    random_unitary,
    rep_fourier,
    rep_residual,
    stinespring,
    transpose_map,
    verify_rep,
)
from semifourier.semigroup import (
    SemigroupTable,
    _partial_bijections,
    build_matrix_units,
    cyclic_group_table,
    from_builtin,
    inverse_structure,
    maximal_subgroup,
    steinberg_phi,
    validate_semigroup,
)

from conftest import (BUILTINS, dense_pi, get_irreps, get_structure, group_with_zero, inverse_subsemigroup,
                      padded_map)

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


def pd_matrix_natural(f):
    """The dense natural PD matrix [Lambda(s^-1 t)] over the nonzero elements, in one gather."""
    st = f.structure
    e = np.asarray(st.nonzero)
    return block_matrix(eval_natural(f), st.table.table[st.inv[e][:, None], e[None, :]])


def pd_matrix_groupoid(f, elements):
    """The dense groupoid PD matrix over these elements, in one masked gather."""
    st = f.structure
    e = np.asarray(elements)
    # floor(s^-1) floor(t) = floor(s^-1 t) iff ran(s) = ran(t); other blocks read z's zero slot
    same_ran = st.ran[e][:, None] == st.ran[e][None, :]
    idx = np.where(same_ran, st.table.table[st.inv[e][:, None], e[None, :]], st.zero)
    return block_matrix(eval_groupoid(f), idx)


def oracle_r_class_table(st):
    """The padded R-class table: row k holds the t with ran(t) = ran(k), ascending,
    padded with z to the widest R-class; the row of z is all z."""
    members = [np.flatnonzero(st.ran == e) for e in st.idempotents]
    table = np.full((st.table.order, max(map(len, members), default=0)), st.zero, dtype=np.intp)
    for e, row in zip(st.idempotents, members):
        table[st.ran == e, : len(row)] = row
    return table


def oracle_r_class_grams(f, idempotents):
    """The blocks [Lambda(floor(s^-1) floor(t))] over the R-classes {s : ran s = e} of
    these idempotents, members ascending, stacked by size: per size, the idempotents
    and the stack (len(idempotents), size * n, size * n) of their blocks."""
    st = f.structure
    idem = np.asarray(idempotents, dtype=np.intp)
    rows = oracle_r_class_table(st)[idem]
    sizes = (rows != st.zero).sum(axis=1)
    out = []
    for size in np.flatnonzero(np.bincount(sizes)):  # ascending
        m = rows[sizes == size, :size]
        out.append((idem[sizes == size],
                    block_matrix(eval_groupoid(f), st.table.table[st.inv[m][:, :, None], m[:, None, :]])))
    return out


def oracle_verdict(mat, tol=DEFAULT_TOL):
    """(verdict, min eigenvalue, hermitian defect, ||.||_2) of one dense matrix, one eigvalsh."""
    if not mat.size:
        return True, 0.0, 0.0, 0.0
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    defect = float(np.abs(mat - mat.conj().T).max())
    scale = max(1.0, float(np.abs(mat).max()))
    norm2 = float(max(abs(w[0]), abs(w[-1])))
    return defect <= tol * scale and w[0] >= -tol * max(1.0, norm2), float(w[0]), defect, norm2


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


DenseDilation = namedtuple("DenseDilation", "dim v pi reconstruction_residual identity_residual "
                                             "multiplicativity_residual star_residual")


def oracle_stinespring(f, tol=DEFAULT_TOL):
    """The dense dilation: one eigh of the whole Gram matrix, pi(s) from the
    R-class of s, and every residual walked over element pairs."""
    if f.basis != GROUPOID:
        raise WrongBasis("stinespring expects a groupoid-basis map")
    st = f.structure
    n = f.dim
    nz = list(st.nonzero)
    pos = {s: i for i, s in enumerate(nz)}
    gram = pd_matrix_groupoid(f, nz)
    ok, lo, defect, _ = oracle_verdict(gram, tol)
    if not ok:
        raise NotPositiveDefinite(
            f"map is not positive definite (min eig {lo:.3e}, hermitian defect {defect:.3e})"
        )
    gram = (gram + gram.conj().T) / 2.0
    w, u = np.linalg.eigh(gram)
    norm2 = float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0
    keep = w > tol * max(1.0, norm2)
    wk = w[keep]
    uk = u[:, keep]
    dim = int(keep.sum())
    coords = np.sqrt(wk)[:, None] * uk.conj().T
    lift = uk * (1.0 / np.sqrt(wk))[None, :]
    order = st.table.order
    coords_at = np.zeros((dim, order, n), dtype=complex)
    coords_at[:, nz] = coords.reshape(dim, len(nz), n)
    lift_at = np.zeros((order, n, dim), dtype=complex)
    lift_at[nz] = lift.reshape(len(nz), n, dim)
    pi = np.zeros((order, dim, dim), dtype=complex)
    r_classes = oracle_r_class_table(st)
    for s in nz:
        u = r_classes[s]
        t = st.table.table[st.inv[s], u]
        pi[s] = coords_at[:, u].reshape(dim, -1) @ lift_at[t].reshape(-1, dim)
    w_embed = np.zeros((len(nz) * n, n))
    for e in st.idempotents:
        w_embed[pos[e] * n : (pos[e] + 1) * n, :] = np.eye(n)
    v = coords @ w_embed
    phi_identity = f.values[list(st.idempotents)].sum(axis=0)
    recon = star = 0.0
    for s in nz:
        recon = max(recon, float(np.abs(v.conj().T @ pi[s] @ v - f.values[s]).max()))
        star = max(star, float(np.abs(pi[s].conj().T - pi[int(st.inv[s])]).max()))
    mult = oracle_multiplicativity(st, pi)
    ident = float(np.abs(v.conj().T @ v - phi_identity).max())
    if recon > 1e-6:
        raise ReconstructionFailure(f"dilation reconstruction residual {recon:.3e}")
    return DenseDilation(dim, v, pi, recon, ident, mult, star)


def oracle_multiplicativity(st, pi):
    """max |pi(s) pi(t) - pi(st)| over all nonzero pairs, with pi(st) = 0 when dom(s) != ran(t)."""
    mult = 0.0
    for s in st.nonzero:
        for t in st.nonzero:
            target = pi[st.mul(s, t)] if st.dom[s] == st.ran[t] else 0.0
            mult = max(mult, float(np.abs(pi[s] @ pi[t] - target).max(initial=0.0)))
    return mult


def oracle_rep_residual(rho):
    worst = 0.0
    for i in range(rho.m):
        for j in range(rho.m):
            for k in range(rho.m):
                for l in range(rho.m):
                    got = rho.matrices[i, j] @ rho.matrices[k, l]
                    want = rho.matrices[i, l] if j == k else 0.0
                    worst = max(worst, float(np.abs(got - want).max()))
    return worst


# --- convolution ----------------------------------------------------------------------

@pytest.mark.parametrize("ref,n", CASES)
def test_convolve_matches_pair_sum(ref, n):
    st = get_structure(ref)
    f, g = random_map(st, n, 1), random_map(st, n, 2)
    assert_close(convolve(f, g).values, oracle_product(st, f.values, g.values))


def oracle_padded_convolve(f1, f2):
    """The padded R-class kernel: floor(k) = floor(s) floor(s^-1 k) summed over the
    R-class of k, one einsum over the (left, right) factor tables of every k."""
    st = f1.structure
    left = oracle_r_class_table(st)
    right = st.table.table[st.inv[left], np.arange(st.table.order)[:, None]]
    a, b = as_groupoid(f1).values, as_groupoid(f2).values
    vals = np.einsum("kmab,kmbc->kac", a[left], b[right])
    return from_groupoid(MatrixMap(st, f1.dim, GROUPOID, vals)).values


# I_4 inverse subsemigroups with r > 1 and |G| > 1 in one class, by generators: the cycle
# (1 2 3 4) with id on {1, 2, 3} (classes with C_4 and with r = 2, |G| = 2), and
# S_3 on {1, 2, 3} with id on {2, 3, 4} (classes with S_3 and with r = 3, |G| = 2)
GRID_SUBSEMIGROUPS = ("I4<1>2,2>3,3>4,4>1;1>1,2>2,3>3>", "I4<1>2,2>3,3>1,4>4;1>2,2>1,3>3,4>4;2>2,3>3,4>4>")


def grid_structure(ref):
    if not ref.startswith("I4<"):
        return get_structure(ref)
    rook = get_structure("builtin:symmetric_inverse:4").table
    return inverse_structure(inverse_subsemigroup(4, [rook.index_of(f"[{p}]") for p in ref[3:-1].split(";")]))


@pytest.mark.parametrize("ref,n", CASES + [("builtin:matrix_units:14", 2)]
                         + [(ref, n) for ref in GRID_SUBSEMIGROUPS for n in (1, 2)])
def test_grid_convolve_matches_the_padded_table_kernel(ref, n):
    st = grid_structure(ref)
    f, g = random_map(st, n, 6), random_map(st, n, 7, GROUPOID)
    assert_close(convolve(f, g).values, oracle_padded_convolve(f, g))
    assert_close(convolve(g, f).values, oracle_padded_convolve(g, f))


def assert_class_products_are_the_r_class_quotients(st):
    tab = st.table.table
    assert len(st.class_products) == len(st.dclasses)
    for grid, prod in zip(st.class_grids, st.class_products):
        (r, _, order), size = grid.shape, grid[0].size
        assert prod.shape == (r, order, r, order)
        # s^-1 t for s = grid[a, b, h] and t = grid[a, c, g]: one table for every R-class a
        for m in grid.reshape(r, size):
            assert np.array_equal(prod.reshape(size, size), tab[st.inv[m][:, None], m[None, :]])


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14")
                         + GRID_SUBSEMIGROUPS)
def test_class_products_are_the_r_class_quotients(ref):
    assert_class_products_are_the_r_class_quotients(grid_structure(ref))


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), degree=hst.integers(1, 4))
def test_class_products_are_the_r_class_quotients_on_inverse_subsemigroups(data, degree):
    order = get_structure(f"builtin:symmetric_inverse:{degree}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    assert_class_products_are_the_r_class_quotients(inverse_structure(inverse_subsemigroup(degree, gens)))


def oracle_left_regular(st, a):
    """sum over nonzero s of lambda(s) (x) a[s], lambda(s) the left multiplication of C0[S]."""
    n = a.shape[-1]
    out = np.zeros((st.table.order * n, st.table.order * n), dtype=complex)
    for s in st.nonzero:
        for t in st.nonzero:
            k = st.mul(s, t)
            if k != st.zero:
                out[k * n : (k + 1) * n, t * n : (t + 1) * n] += a[s]
    return out


@pytest.mark.parametrize("ref,n", CASES)
def test_tensor_mul_matches_pair_sum(ref, n):
    # a natural map stores sum_s s (x) Phi(s) in C0[S] (x) M_n; its convolution
    # is that algebra's product, as the left-regular images multiply
    st = get_structure(ref)
    f, g = random_map(st, n, 3), random_map(st, n, 4)
    got = oracle_left_regular(st, convolve(f, g).values)
    assert_close(got, oracle_left_regular(st, f.values) @ oracle_left_regular(st, g.values))


# --- positive-definiteness matrices ---------------------------------------------------

@pytest.mark.parametrize("ref,n", CASES)
@pytest.mark.parametrize("basis", [NATURAL, GROUPOID])
def test_pd_matrices_equal_loop_assembly_bitwise(ref, n, basis):
    st = get_structure(ref)
    f = random_map(st, n, 5, basis)
    assert np.array_equal(pd_matrix_natural(f), oracle_pd_natural(st, eval_natural(f)))
    assert np.array_equal(
        pd_matrix_groupoid(f, st.nonzero), oracle_pd_groupoid(st, eval_groupoid(f), st.nonzero)
    )
    for cls in st.dclasses:
        assert np.array_equal(
            pd_matrix_groupoid(f, cls), oracle_pd_groupoid(st, eval_groupoid(f), cls)
        )


@pytest.mark.parametrize("ref,n", CASES)
@pytest.mark.parametrize("basis", [NATURAL, GROUPOID])
def test_r_class_grams_are_the_diagonal_blocks_bitwise(ref, n, basis):
    st = get_structure(ref)
    f = random_map(st, n, 5, basis)
    grams = _class_grams(f)
    assert len(grams) == len(st.dclasses)
    for grid, g in zip(st.class_grids, grams):
        # every R-class grid[a] of the class, in grid order, has the class's one block
        for members in grid.reshape(len(grid), -1):
            assert np.array_equal(g, oracle_pd_groupoid(st, eval_groupoid(f), members))
    seen = []
    for es, grams in oracle_r_class_grams(f, st.idempotents):
        for e, g in zip(es, grams):
            r_class = np.flatnonzero(st.ran == e)
            assert np.array_equal(g, oracle_pd_groupoid(st, eval_groupoid(f), r_class))
            seen.append(int(e))
    assert sorted(seen) == list(st.idempotents)


# --- PD verdicts, one R-class block at a time -------------------------------------------

PD_REFS = BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14")


def pd_input(ref, n, kind):
    st = get_structure(ref)
    return gram_pd_map(st, n, seed=4) if kind == "gram" else random_map(st, n, 8)


@pytest.mark.parametrize("kind", ["random", "gram"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ref", PD_REFS)
def test_pd_blocks_match_dense_oracle(ref, n, kind):
    f = pd_input(ref, n, kind)
    st = f.structure
    ok, lo, defect, norm2 = oracle_verdict(pd_matrix_groupoid(f, st.nonzero))
    got = pd_check(f, "groupoid")
    assert (got.verdict, got.hermitian_defect) == (ok, defect)
    assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)

    # one R-block per D-class stands for the whole class matrix
    want = [oracle_verdict(pd_matrix_groupoid(f, cls)) for cls in st.dclasses]
    got = pd_check(f, "blocks")
    assert [(k, ok) for k, ok, _ in got.per_class] == [(k, w[0]) for k, w in enumerate(want)]
    for (_, _, lo), (_, want_lo, _, want_norm2) in zip(got.per_class, want):
        assert abs(lo - want_lo) <= 1e-12 * max(1.0, want_norm2)
    assert got.verdict == all(w[0] for w in want)
    assert got.hermitian_defect == max(w[2] for w in want)
    assert got.witness == min(lo for _, _, lo in got.per_class)

    # Bochner judges the groupoid-side map with the block-wise groupoid mode
    tilde = f if f.basis == GROUPOID else to_groupoid(f)
    assert bochner_check(f, get_irreps(ref)).pd == pd_check(tilde, "groupoid")


@settings(max_examples=30, deadline=None)
@given(
    ref=hst.sampled_from(PD_REFS[:-1]),
    n=hst.integers(1, 2),
    seed=hst.integers(0, 2**16),
    basis=hst.sampled_from([NATURAL, GROUPOID]),
)
def test_r_blocks_of_a_dclass_share_the_base_spectrum(ref, n, seed, basis):
    st = get_structure(ref)
    f = random_map(st, n, seed, basis)
    block_at = {}
    for es, grams in oracle_r_class_grams(f, st.idempotents):
        block_at.update(zip(es.tolist(), grams))
    # the R-classes partition the nonzero elements
    assert sum(len(g) for g in block_at.values()) == len(st.nonzero) * n
    for k, (base, g) in enumerate(zip(st.base_idempotents, _class_grams(f))):
        spectrum = np.linalg.eigvalsh(hermitized(block_at[base]))
        assert np.array_equal(np.sort(g, axis=None), np.sort(block_at[base], axis=None))
        assert_close(np.linalg.eigvalsh(hermitized(g)), spectrum)
        for e in st.class_idempotents(k):
            g = block_at[e]
            # s -> p s keeps s^-1 t: the same entries, permuted
            assert np.array_equal(np.sort(g, axis=None), np.sort(block_at[base], axis=None))
            assert_close(np.linalg.eigvalsh(hermitized(g)), spectrum)


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


def oracle_padded_gram_pd_map(st, n, seed):
    """The padded R-class einsum: conj(V[u]) V[s^-1 u] summed over the row of s in the
    padded R-class table, one einsum over every s."""
    rng = np.random.default_rng([seed, st.table.order, n, 13])
    p = len(st.nonzero)
    v_at = np.zeros((st.table.order, n), dtype=complex)
    v_at[list(st.nonzero)] = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2.0)
    u = oracle_r_class_table(st)
    t = st.table.table[st.inv[:, None], u]
    return np.einsum("kma,kmb->kab", v_at[u].conj(), v_at[t])


@pytest.mark.parametrize("ref,n", CASES + [("builtin:symmetric_inverse:4", 4), ("builtin:matrix_units:14", 2)]
                         + [(ref, n) for ref in GRID_SUBSEMIGROUPS for n in (1, 2)])
def test_gram_pd_map_matches_the_padded_table_einsum(ref, n):
    st = grid_structure(ref)
    assert_close(gram_pd_map(st, n, seed=5).values, oracle_padded_gram_pd_map(st, n, 5))


# --- basis changes ------------------------------------------------------------------

@pytest.mark.parametrize("ref,n", CASES + [("builtin:symmetric_inverse:4", 2)])
def test_basis_changes_match_einsum(ref, n):
    st = get_structure(ref)
    f = random_map(st, n, 6)
    vals = f.values
    leq, mob = st.leq.astype(float), st.mobius.astype(float)
    assert_close(to_groupoid(f).values, np.einsum("st,tij->sij", leq, vals))
    g = MatrixMap(st, n, GROUPOID, vals)
    assert_close(from_groupoid(g).values, np.einsum("st,tij->sij", mob, vals))
    assert_close(eval_natural(g), np.einsum("ts,tij->sij", leq, vals))
    assert_close(eval_groupoid(f), np.einsum("ts,tij->sij", mob, vals))
    assert_close(combine(st.leq_float.T, vals), np.einsum("ts,tij->sij", leq, vals))


def oracle_discrete_order(st):
    """s <= t only for s = t: leq is the diagonal of the nonzero elements."""
    return np.array_equal(st.leq, np.diag(np.arange(st.table.order) != st.zero))


def dense_basis_changes(vals, st):
    """to_groupoid, from_groupoid, eval_natural and eval_groupoid of maps holding
    these values, as the dense zeta / Mobius products."""
    return (combine(st.leq_float, vals), combine(st.mobius_float, vals),
            combine(st.leq_float.T, vals), combine(st.mobius_float.T, vals))


def library_basis_changes(st, n, seed):
    """The natural map, the groupoid map with the same values, and the four basis changes."""
    nat = random_map(st, n, seed)
    grp = MatrixMap(st, n, GROUPOID, nat.values)
    return nat, grp, (to_groupoid(nat), from_groupoid(grp), eval_natural(grp), eval_groupoid(nat))


def assert_basis_changes_relabel(st, n, seed):
    assert st.discrete_order and oracle_discrete_order(st)
    nat, grp, changes = library_basis_changes(st, n, seed)
    for got, want in zip(changes, dense_basis_changes(nat.values, st)):
        vals = got.values if isinstance(got, MatrixMap) else got
        assert np.array_equal(vals, want)
        assert not vals.flags.writeable and not vals[st.zero].any()
    for got, source, basis in zip(changes, (nat, grp), (GROUPOID, NATURAL)):
        # the relabelled map holds its input's own validated array under the other tag
        assert (got.structure, got.dim, got.basis) == (st, n, basis)
        assert np.shares_memory(got.values, source.values)
        assert np.array_equal(MatrixMap(st, n, basis, got.values).values, got.values)
    assert changes[2] is grp.values and changes[3] is nat.values


@pytest.mark.parametrize("ref", [f"builtin:matrix_units:{m}" for m in range(1, 15)]
                         + [f"builtin:cyclic_with_zero:{k}" for k in range(1, 49)])
def test_basis_changes_relabel_on_a_discrete_order(ref):
    st = get_structure(ref)
    for n in (1, 2):
        assert_basis_changes_relabel(st, n, seed=n)


def rook_elements_of_rank(degree, ranks):
    """Nonzero elements of I_degree whose rank (count of x>y pairs in the name) is in ranks."""
    names = get_structure(f"builtin:symmetric_inverse:{degree}").table.element_names
    return [i for i, name in enumerate(names) if name.count(">") in ranks]


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), degree=hst.integers(1, 4), n=hst.integers(1, 2), seed=hst.integers(0, 2**16))
def test_basis_changes_relabel_on_drawn_discrete_orders(data, degree, n, seed):
    # units of I_n generate a group with zero; rank-1 partial bijections a Brandt
    # semigroup, whose only element below a rank-1 element is the empty map
    rank = data.draw(hst.sampled_from([degree, 1]))
    gens = data.draw(hst.lists(hst.sampled_from(rook_elements_of_rank(degree, {rank})), min_size=1, max_size=3))
    assert_basis_changes_relabel(inverse_structure(inverse_subsemigroup(degree, gens)), n, seed)


def assert_basis_changes_are_dense(st, n, seed):
    assert not st.discrete_order and not oracle_discrete_order(st)
    nat, _, changes = library_basis_changes(st, n, seed)
    for got, want in zip(changes, dense_basis_changes(nat.values, st)):
        vals = got.values if isinstance(got, MatrixMap) else got
        assert vals.tobytes() == want.tobytes()  # bitwise, signed zeros included


@pytest.mark.parametrize("ref", [f"builtin:symmetric_inverse:{k}" for k in (2, 3, 4)] + list(GRID_SUBSEMIGROUPS))
def test_basis_changes_with_comparable_pairs_stay_dense(ref):
    st = grid_structure(ref)
    for n in (1, 2):
        assert_basis_changes_are_dense(st, n, seed=n)


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), degree=hst.integers(2, 4), n=hst.integers(1, 2), seed=hst.integers(0, 2**16))
def test_basis_changes_with_comparable_pairs_stay_dense_on_drawn_structures(data, degree, n, seed):
    # an element of rank r >= 2 lies above its restriction s e to a point e of its domain
    rook = get_structure(f"builtin:symmetric_inverse:{degree}")
    tab = rook.table.table
    above = data.draw(hst.sampled_from(rook_elements_of_rank(degree, set(range(2, degree + 1)))))
    points = [e for e in rook_elements_of_rank(degree, {1}) if tab[e, e] == e and tab[above, e] != rook.zero]
    gens = [above, int(tab[above, data.draw(hst.sampled_from(points))])]
    gens += data.draw(hst.lists(hst.integers(1, rook.table.order - 1), max_size=3))
    assert_basis_changes_are_dense(inverse_structure(inverse_subsemigroup(degree, gens)), n, seed)


@pytest.mark.parametrize("m", range(1, 15))
def test_cp_check_is_the_verdict_on_the_choi_matrix(m):
    st = get_structure(f"builtin:matrix_units:{m}")
    for f in (random_cp_map(m, 2, seed=m, structure=st), transpose_map(m, st), random_map(st, 2, m),
              random_map(st, 1, m, GROUPOID)):
        ok, lo, _, _ = psd_verdict([choi(f).matrix])
        assert cp_check(f) == (ok, lo)


# --- Stinespring dilation, block by block ------------------------------------------

DILATION_REFS = ("builtin:symmetric_inverse:2", "builtin:symmetric_inverse:3") + tuple(
    f"builtin:matrix_units:{m}" for m in range(2, 9)
)


def dilation_cases():
    """Gram maps, and Kraus maps of every rank up to matrix_units:5.

    The dense oracles cost |S|^2 dim^3 (dim = m * rank), so from m = 6 on only
    the extreme ranks 1 and m run.
    """
    for ref in DILATION_REFS:
        st = get_structure(ref)
        m = round((st.table.order - 1) ** 0.5) if "matrix_units" in ref else 0
        ranks = range(1, m + 1) if m <= 5 else (1, m)
        for n in (1, 2):
            yield ref, n, "gram"
            for rank in ranks:
                yield ref, n, rank


def dilation_input(ref, n, kind):
    st = get_structure(ref)
    if kind == "gram":
        return gram_pd_map(st, n, seed=3)
    m = round((st.table.order - 1) ** 0.5)
    return to_groupoid(random_cp_map(m, n, kraus_count=kind, seed=3, structure=st))


@pytest.mark.parametrize("ref,n,kind", list(dilation_cases()))
def test_stinespring_blocks_match_dense_oracle(ref, n, kind):
    f = dilation_input(ref, n, kind)
    st = f.structure
    dil = stinespring(f)
    want = oracle_stinespring(f)
    pi = dense_pi(dil)
    assert dil.dim == want.dim
    assert dil.v.shape == (dil.dim, n) and pi.shape == (st.table.order, dil.dim, dil.dim)
    assert oracle_multiplicativity(st, pi) <= 1e-10
    assert dil.multiplicativity_residual <= 1e-10 and dil.star_residual <= 1e-10
    for s in st.nonzero:
        assert np.abs(dil.v.conj().T @ pi[s] @ dil.v - f.values[s]).max() <= 1e-8
        assert np.abs(pi[s].conj().T - pi[st.inv[s]]).max() <= 1e-10
    assert dil.reconstruction_residual <= 1e-8


@pytest.mark.parametrize("m", [2, 3])
def test_stinespring_blocks_reject_transpose(m):
    st = get_structure(f"builtin:matrix_units:{m}")
    f = MatrixMap(st, m, GROUPOID, transpose_map(m, st).values)
    with pytest.raises(NotPositiveDefinite):
        oracle_stinespring(f)
    with pytest.raises(NotPositiveDefinite):
        stinespring(f)


# --- one R-block and one eigensolve per D-class ---------------------------------------

def all_r_class_oracle(f, tol=DEFAULT_TOL):
    """Every R-class block judged and eigensolved on its own.

    Returns the groupoid-mode (verdict, witness, defect, ||.||_2), the same per
    D-class, and the dilation dimension: the eigenvalues of every block above
    tol * max(1, ||.||_2).
    """
    st = f.structure
    block_at = {}
    for es, grams in oracle_r_class_grams(f, st.idempotents):
        block_at.update(zip(es.tolist(), grams))
    spectrum = {e: np.linalg.eigvalsh(hermitized(g)) for e, g in block_at.items()}
    whole = psd_verdict(list(block_at.values()), tol, list(spectrum.values()))
    per_class = [psd_verdict([block_at[e] for e in st.class_idempotents(k)], tol,
                             [spectrum[e] for e in st.class_idempotents(k)])
                 for k in range(len(st.dclasses))]
    keep = tol * max(1.0, whole[3])
    return whole, per_class, sum(int((w > keep).sum()) for w in spectrum.values())


def per_class_structure(data):
    """I_1-I_4 inverse subsemigroups, I_4, C_5^0 and matrix_units:2-8."""
    kind = data.draw(hst.sampled_from(["sub", "rook4", "cyclic5", "units"]))
    if kind == "sub":
        degree = data.draw(hst.integers(1, 4))
        order = get_structure(f"builtin:symmetric_inverse:{degree}").table.order
        gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
        return inverse_structure(inverse_subsemigroup(degree, gens))
    ref = {"rook4": "builtin:symmetric_inverse:4", "cyclic5": "builtin:cyclic_with_zero:5",
           "units": f"builtin:matrix_units:{data.draw(hst.integers(2, 8))}"}[kind]
    return get_structure(ref)


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 2), seed=hst.integers(0, 2**16))
def test_per_dclass_path_matches_all_r_class_oracle(data, n, seed):
    st = per_class_structure(data)
    kinds = ["random", "gram"] + (["kraus"] if st.matrix_units_size else [])
    kind = data.draw(hst.sampled_from(kinds))
    if kind == "kraus":
        m = st.matrix_units_size
        f = random_cp_map(m, n, kraus_count=data.draw(hst.integers(1, m)), seed=seed, structure=st)
    else:
        f = gram_pd_map(st, n, seed=seed) if kind == "gram" else random_map(st, n, seed)
    tilde = f if f.basis == GROUPOID else to_groupoid(f)
    (ok, lo, defect, norm2), per_class, dim = all_r_class_oracle(tilde)

    got = pd_check(tilde, "groupoid")
    assert (got.verdict, got.hermitian_defect) == (ok, defect)
    assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)
    got = pd_check(tilde, "blocks")
    assert [(k, v) for k, v, _ in got.per_class] == [(k, w[0]) for k, w in enumerate(per_class)]
    assert got.hermitian_defect == max((w[2] for w in per_class), default=0.0)
    for (_, _, got_lo), (_, want_lo, _, want_norm2) in zip(got.per_class, per_class):
        assert abs(got_lo - want_lo) <= 1e-12 * max(1.0, want_norm2)

    if not ok:
        with pytest.raises(NotPositiveDefinite):
            stinespring(tilde)
        return
    dil = stinespring(tilde)
    assert dil.dim == dim
    # the dense view: V^dagger pi(s) V = Phi(s), pi(s)^dagger = pi(s^-1), pi(s) pi(t) = pi(st)
    pi, v = dense_pi(dil), dil.v
    assert pi.shape == (st.table.order, dim, dim)
    for s in st.nonzero:
        assert np.abs(v.conj().T @ pi[s] @ v - tilde.values[s]).max() <= 1e-8
        assert np.abs(pi[s].conj().T - pi[st.inv[s]]).max(initial=0.0) <= 1e-10
        a, b = st.ran[s], st.dom[s]
        rows = slice(dil.offsets[a], dil.offsets[a] + dil.dims[a])
        cols = slice(dil.offsets[b], dil.offsets[b] + dil.dims[b])
        assert np.array_equal(pi[s, rows, cols], dil.block(s))
    if st.table.order <= 70:
        assert oracle_multiplicativity(st, pi) <= 1e-10
    else:  # |S|^2 products of dim x dim matrices: a drawn sample of pairs
        pairs = data.draw(hst.lists(hst.tuples(hst.sampled_from(st.nonzero), hst.sampled_from(st.nonzero)),
                                    min_size=1, max_size=40))
        for a, b in pairs:
            target = pi[st.mul(a, b)] if st.dom[a] == st.ran[b] else 0.0
            assert np.abs(pi[a] @ pi[b] - target).max(initial=0.0) <= 1e-10
    assert dil.multiplicativity_residual <= 1e-10 and dil.star_residual <= 1e-10
    assert dil.reconstruction_residual <= 1e-8


# --- pi induced from the maximal subgroups --------------------------------------------

def oracle_block_multiplicativity(st, block):
    """max |pi(s) pi(t) - pi(st)| over every pair with dom(s) = ran(t), one middle
    idempotent e at a time, from each element's own d_ran x d_dom block ``block(s)``;
    every other product is the zero block by construction."""
    mult = 0.0
    r_classes, tab = oracle_r_class_table(st), st.table.table
    for e in st.idempotents:
        m = r_classes[e][r_classes[e] != st.zero]
        left = np.flatnonzero(st.dom == e)
        prod = np.stack([block(s) for s in left])[:, None] @ np.stack([block(t) for t in m])[None]
        target = np.stack([block(s) for s in tab[left[:, None], m[None, :]].ravel()])
        mult = max(mult, float(np.abs(prod - target.reshape(prod.shape)).max(initial=0.0)))
    return mult


def oracle_block_star(st, block):
    """max |pi(s)^dagger - pi(s^-1)| over every nonzero s."""
    return max((float(np.abs(block(s).conj().T - block(st.inv[s])).max(initial=0.0)) for s in st.nonzero),
               default=0.0)


PaddedDilation = namedtuple("PaddedDilation", "dim v blocks dims offsets reconstruction_residual "
                                              "identity_residual multiplicativity_residual star_residual")


def oracle_transport_stinespring(f, tol=DEFAULT_TOL):
    """The dilation built by moving the base R-class coordinates and lifts to
    every R-class by u -> p_e u, with pi(s) summed over the R-class of s into a
    stack zero-padded to the widest summand, and multiplicativity checked over
    every composable pair.

    Also returns, per block entry, twice the rounding bound of a complex dot
    product of length K, gamma_{K+2} sum_u |coords(u)| |lift(s^-1 u)| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 3.6): the most that
    two summation orders of the same terms can differ by.
    """
    if f.basis != GROUPOID:
        raise WrongBasis("stinespring expects a groupoid-basis map")
    st = f.structure
    n, order, tab = f.dim, st.table.order, st.table.table
    r_classes = oracle_r_class_table(st)
    grams = oracle_r_class_grams(f, st.base_idempotents)
    stacked = [np.linalg.eigh(hermitized(g)) for _, g in grams]
    # one ascending spectrum per stack of R-class blocks, its rows merged
    ok, lo, defect, norm2 = psd_verdict([g for _, g in grams], tol, [np.sort(w, axis=None) for w, _ in stacked])
    if not ok:
        raise NotPositiveDefinite(
            f"map is not positive definite (min eig {lo:.3e}, hermitian defect {defect:.3e})"
        )
    dims = np.zeros(order, dtype=int)
    kept = []
    for (es, _), (w, u) in zip(grams, stacked):
        for e, we, ue in zip(es, w, u):
            keep = we > bound(tol, norm2)
            dims[e] = int(keep.sum())
            kept.append((e, we[keep], ue[:, keep]))
    width = int(dims.max())
    coords_at = np.zeros((order, n, width), dtype=complex)
    lift_at = np.zeros((order, n, width), dtype=complex)
    for e, wk, uk in kept:
        m, d = r_classes[e][r_classes[e] != st.zero], dims[e]
        coords_at[m, :, :d] = (np.sqrt(wk)[None, :] * uk.conj()).reshape(len(m), n, d)
        lift_at[m, :, :d] = (uk / np.sqrt(wk)[None, :]).reshape(len(m), n, d)
    idem = np.array(st.idempotents, dtype=np.intp)
    base = np.array(st.base_idempotents, dtype=np.intp)[st.class_of[idem]]
    moved = tab[st.transversal_at[idem][:, None], r_classes[base]]
    coords_at[moved] = coords_at[r_classes[base]]
    lift_at[moved] = lift_at[r_classes[base]]
    dims[idem] = dims[base]
    t = tab[st.inv[:, None], r_classes]
    rows = r_classes.shape[1] * n
    gathered = coords_at[r_classes].reshape(order, rows, width).transpose(0, 2, 1)
    blocks = gathered @ lift_at[t].reshape(order, rows, width)
    gamma = (rows + 2) * np.finfo(float).eps / 2
    slack = 2 * gamma / (1 - gamma) * (np.abs(gathered) @ np.abs(lift_at[t]).reshape(order, rows, width))
    v_at = coords_at.transpose(0, 2, 1)
    got = v_at[st.ran].conj().transpose(0, 2, 1) @ blocks @ v_at[st.dom]
    recon = float(np.abs(got - f.values).max())
    star = float(np.abs(blocks.conj().transpose(0, 2, 1) - blocks[st.inv]).max(initial=0.0))
    mult = oracle_block_multiplicativity(st, lambda s: blocks[s, : dims[st.ran[s]], : dims[st.dom[s]]])
    offsets = np.cumsum(dims) - dims
    dim = int(dims.sum())
    v = np.zeros((dim, n), dtype=complex)
    for e in idem:
        v[offsets[e] : offsets[e] + dims[e]] = v_at[e, : dims[e]]
    ident = float(np.abs(v.conj().T @ v - f.values[idem].sum(axis=0)).max())
    limit = bound(1e-6, float(np.abs(f.values).max()))
    if recon > limit:
        raise ReconstructionFailure(
            f"dilation reconstruction residual {recon:.3e} exceeds {limit:.3e}"
        )
    return PaddedDilation(dim, v, blocks, dims, offsets, recon, ident, mult, star), slack


# The reconstruction residual of ``stinespring`` forms V_a^dagger pi_k(g) V_b as two
# products per D-class, and the oracle as one triple product per element on blocks
# zero-padded to the widest summand, so the two round differently.  They stay within
# RECON_ULPS units in the last place of the map's largest entry: at most 2 were seen
# over 430 cases, the transport cases and drawn subsemigroups of I_2-I_4.
RECON_ULPS = 4


def assert_matches_transport_oracle(f, exact=True):
    """The dilation against the transport oracle, or the same error with the same message.

    dims, offsets, V and the identity residual (read off V) are equal exactly,
    and the group-pair star and multiplicativity residuals equal the all-pairs
    ones on the returned blocks.  pi(p_a g p_b^-1) sums the terms of the
    oracle's pi(p_a g p_b^-1) in the order of the base R-class instead of the
    R-class of p_a, and over d_k columns instead of the padded width, so every
    block(s) agrees with the oracle's up to the rounding of that reordering.
    With exact, the blocks agree to 1e-15 relative and the star and
    multiplicativity residuals are equal; else only those of equal blocks are,
    and the residuals of reordered blocks agree to 1e-15 of the map.  The
    reconstruction residual agrees to RECON_ULPS ulp of the map's largest entry.
    """
    try:
        got = stinespring(f)
    except (NotPositiveDefinite, ReconstructionFailure) as exc:
        got = exc
    try:
        want, slack = oracle_transport_stinespring(f)
    except (NotPositiveDefinite, ReconstructionFailure) as exc:
        assert (type(got), str(got)) == (type(exc), str(exc))
        return
    st = f.structure
    assert isinstance(got, Dilation), got
    assert got.dim == want.dim
    assert np.array_equal(got.dims, want.dims) and np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.v, want.v) and got.identity_residual == want.identity_residual
    assert got.multiplicativity_residual == oracle_block_multiplicativity(st, got.block)
    assert got.star_residual == oracle_block_star(st, got.block)
    scale = max(1.0, float(np.abs(want.blocks).max(initial=0.0)))
    equal = True
    for s in st.nonzero:
        rows, cols = want.dims[st.ran[s]], want.dims[st.dom[s]]
        block, padded = got.block(s), want.blocks[s, :rows, :cols]
        assert block.shape == (rows, cols)
        assert (np.abs(block - padded) <= slack[s, :rows, :cols]).all()
        if exact:
            assert np.abs(block - padded).max(initial=0.0) <= 1e-15 * scale
        equal = equal and np.array_equal(block, padded)
    residuals = [(getattr(got, r), getattr(want, r)) for r in ("multiplicativity_residual", "star_residual")]
    if exact or equal:
        assert all(a == b for a, b in residuals)
    else:
        assert all(abs(a - b) <= 1e-15 * max(1.0, float(np.abs(f.values).max())) for a, b in residuals)
    ulp = np.spacing(float(np.abs(f.values).max()))
    assert abs(got.reconstruction_residual - want.reconstruction_residual) <= RECON_ULPS * ulp


def transport_input(st, n, kind, seed=3):
    if kind == "gram":
        return gram_pd_map(st, n, seed=seed)
    if kind == "tiny":  # every eigenvalue under the keep threshold: a 0-dimensional dilation
        g = gram_pd_map(st, n, seed=seed)
        return MatrixMap(st, n, GROUPOID, 1e-12 * g.values)
    if kind == "random":
        return to_groupoid(random_map(st, n, seed))
    m = st.matrix_units_size
    return to_groupoid(random_cp_map(m, n, kraus_count=min(2, m), seed=seed, structure=st))


def transport_cases():
    """BUILTINS, I_4 and matrix_units:2-14; Kraus maps on the matrix units only."""
    refs = dict.fromkeys(BUILTINS + ("builtin:symmetric_inverse:4",)
                         + tuple(f"builtin:matrix_units:{m}" for m in range(2, 15)))
    for ref in refs:
        for kind in ("gram", "tiny", "random") + (("kraus",) if "matrix_units" in ref else ()):
            for n in (1, 2):
                yield ref, kind, n


@pytest.mark.parametrize("ref,kind,n", list(transport_cases()))
def test_stinespring_matches_transport_oracle(ref, kind, n):
    assert_matches_transport_oracle(transport_input(get_structure(ref), n, kind))


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 2), seed=hst.integers(0, 2**16))
def test_stinespring_matches_transport_oracle_on_drawn_structures(data, n, seed):
    st = per_class_structure(data)
    kinds = ["gram", "tiny", "random"] + (["kraus"] if st.matrix_units_size else [])
    assert_matches_transport_oracle(transport_input(st, n, data.draw(hst.sampled_from(kinds)), seed),
                                    exact=False)


def test_stinespring_allocates_no_dense_pi_until_read():
    # a dense (|S|, dim, dim) pi would take 209 * 208^2 * 16 bytes = 145 MB at I_4, and
    # the stack padded to the widest summand peaked at 3.5 MB; the per-class stacks peak at 1.3 MB
    st = get_structure("builtin:symmetric_inverse:4")
    f = gram_pd_map(st, 2, seed=0)
    st.class_products  # cached set-up, not part of the dilation
    tracemalloc.start()
    try:
        dil = stinespring(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dil.dim == 208
    assert peak <= 2.5e6


def test_stinespring_stores_one_pi_k_stack_per_dclass():
    # pi_k(g) for g in G_k, d_k x d_k each: sum_k |G_k| d_k^2 = 17584 entries (0.28 MB) at
    # I_4, n = 2, against 209 * 24^2 = 120384 in a stack padded to the widest summand
    st = get_structure("builtin:symmetric_inverse:4")
    dil = stinespring(gram_pd_map(st, 2, seed=0))
    shapes = [(len(g.element_names), int(dil.dims[e]), int(dil.dims[e]))
              for g, e in zip(st.class_groups, st.base_idempotents)]
    assert [p.shape for p in dil.pi] == shapes == [(1, 4, 4), (2, 12, 12), (6, 24, 24), (24, 24, 24)]
    assert sum(p.size for p in dil.pi) == 17584 and sum(p.nbytes for p in dil.pi) <= 0.3e6
    for s in st.nonzero:  # block(s) is a view of pi_k(g(s)), not a copy
        k = st.class_of[s]
        g = st.class_groups[k].ambient.index(st.group_coordinates[s])
        assert np.shares_memory(dil.block(s), dil.pi[k])
        assert np.array_equal(dil.block(s), dil.pi[k][g])
    assert dil.block(st.zero).shape == (0, 0)


@pytest.mark.parametrize("kind", ["random", "gram", "kraus"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(2, 15))
def test_pd_natural_on_a_discrete_order_is_the_groupoid_path(m, n, kind, monkeypatch):
    # zeta = I on matrix units: N is the groupoid matrix, so no rho-block is assembled
    st = get_structure(f"builtin:matrix_units:{m}")
    if kind == "kraus":
        f = random_cp_map(m, n, kraus_count=2, seed=m, structure=st)
    else:
        f = gram_pd_map(st, n, seed=m) if kind == "gram" else random_map(st, n, m)
    ok, lo, defect, norm2 = oracle_verdict(pd_matrix_natural(f))
    monkeypatch.setattr(positivity, "_natural_spectra", None)
    got = pd_check(f, "natural")
    assert (got.verdict, got.hermitian_defect) == (ok, defect)
    assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)


# --- representations of M_m ---------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rep_residual_matches_loop(m):
    reps = [identity_rep(m), conjugation_rep(random_unitary(m, seed=m)), direct_sum_rep(m, 2, 1)]
    for rho in reps:
        got = rep_residual(rho)
        assert abs(got - oracle_rep_residual(rho)) <= 1e-12
        assert got <= 1e-12
    rng = np.random.default_rng([m, 31])
    mats = conjugation_rep(random_unitary(m, seed=m)).matrices.copy()
    mats[m - 1, 0] += 1e-3 * rng.standard_normal((m, m))
    bad = MatrixAlgebraRep(m, m, mats)
    assert rep_residual(bad) == pytest.approx(oracle_rep_residual(bad), abs=1e-12)
    with pytest.raises(NotARepresentation):
        verify_rep(bad)


# --- natural-mode PD, one block per irrep of the unit group -------------------------

NATURAL_REFS = (
    "builtin:symmetric_inverse:2",
    "builtin:symmetric_inverse:3",
    "builtin:symmetric_inverse:4",
    "builtin:cyclic_with_zero:5",
    "builtin:matrix_units:3",  # no identity: the trivial group, one block
)
NATURAL_CASES = [(ref, n) for ref in NATURAL_REFS for n in (1, 2)] + [("builtin:symmetric_inverse:4", 4)]


def units(st):
    """The ambient indices of the unit group, or () when S has no identity."""
    everything = np.arange(st.table.order)
    t = st.table.table
    for e in st.idempotents:
        if np.array_equal(t[e], everything) and np.array_equal(t[:, e], everything):
            return maximal_subgroup(st, e).ambient
    return ()


@pytest.mark.parametrize("kind", ["random", "gram"])
@pytest.mark.parametrize("ref,n", NATURAL_CASES)
def test_pd_natural_blocks_match_dense_oracle(ref, n, kind):
    f = pd_input(ref, n, kind)
    mat = pd_matrix_natural(f)
    ok, lo, defect, norm2 = oracle_verdict(mat)
    got = pd_check(f, "natural")
    assert (got.verdict, got.hermitian_defect) == (ok, defect)
    assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)

    # each block's spectrum, repeated d_rho times, is the dense spectrum
    spectra = _natural_spectra(f)
    blocks = np.sort(np.concatenate([np.repeat(w, d) for d, w in spectra]))
    dense = np.linalg.eigvalsh(hermitized(mat))
    assert np.abs(blocks - dense).max() <= 1e-10 * max(1.0, norm2)
    got_norm2 = max(max(abs(w[0]), abs(w[-1])) for _, w in spectra)
    assert abs(got_norm2 - norm2) <= 1e-12 * max(1.0, norm2)


def test_pd_natural_unit_group_above_the_cap_is_trivial():
    st = inverse_structure(from_builtin(f"builtin:cyclic_with_zero:{MAX_GROUP_ORDER + 2}"))
    assert len(units(st)) > MAX_GROUP_ORDER
    ((d, q),) = st.unit_isotypic_bases
    assert d == 1 and np.array_equal(np.abs(q), np.eye(len(st.nonzero)))
    for f in (random_map(st, 2, 3), gram_pd_map(st, 2, seed=3)):
        ok, lo, defect, norm2 = oracle_verdict(pd_matrix_natural(f))
        got = pd_check(f, "natural")
        assert (got.verdict, got.hermitian_defect) == (ok, defect)
        assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)


@settings(max_examples=40, deadline=None)
@given(
    data=hst.data(),
    degree=hst.integers(1, 4),
    n=hst.integers(1, 2),
    kind=hst.sampled_from(["natural", "groupoid", "gram"]),
    seed=hst.integers(0, 2**16),
)
def test_pd_natural_on_inverse_subsemigroups_matches_dense_oracle(data, degree, n, kind, seed):
    order = get_structure(f"builtin:symmetric_inverse:{degree}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    st = inverse_structure(inverse_subsemigroup(degree, gens))
    # random_map draws a value at z too; the map keeps that slot 0, and the dense
    # matrix reads it wherever s^-1 t = z
    f = gram_pd_map(st, n, seed=seed) if kind == "gram" else random_map(st, n, seed, kind)
    mat = pd_matrix_natural(f)
    ok, lo, defect, norm2 = oracle_verdict(mat)
    got = pd_check(f, "natural")
    assert (got.verdict, got.hermitian_defect) == (ok, defect)
    assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)
    spectra = _natural_spectra(f)
    blocks = np.sort(np.concatenate([np.repeat(w, d) for d, w in spectra]))
    assert np.abs(blocks - np.linalg.eigvalsh(hermitized(mat))).max() <= 1e-10 * max(1.0, norm2)

    vals = f.values.copy()
    vals[data.draw(hst.sampled_from(st.nonzero))] = data.draw(hst.sampled_from([np.nan, np.inf]))
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        pd_check(MatrixMap(st, n, f.basis, vals), "natural")


@settings(max_examples=30, deadline=None)
@given(
    ref=hst.sampled_from(NATURAL_REFS + ("builtin:symmetric_inverse:1", "builtin:matrix_units:1")),
    n=hst.integers(1, 2),
    seed=hst.integers(0, 2**16),
    basis=hst.sampled_from([NATURAL, GROUPOID]),
)
def test_natural_matrix_is_unit_invariant_and_the_bases_split_it(ref, n, seed, basis):
    st = get_structure(ref)
    f = random_map(st, n, seed, basis)
    p = len(st.nonzero)
    mat = pd_matrix_natural(f).reshape(p, n, p, n)
    pos = {s: i for i, s in enumerate(st.nonzero)}
    for g in units(st):
        # N[gs, gt] = N[s, t]: (gs)^-1 (gt) = s^-1 t
        perm = [pos[st.mul(g, s)] for s in st.nonzero]
        assert np.array_equal(mat[perm][:, :, perm], mat)
    bases = st.unit_isotypic_bases
    assert st.unit_isotypic_bases is bases  # cached on the structure
    for _, q in bases:
        assert_close(q.conj().T @ q, np.eye(q.shape[1]))
    assert sum(d * q.shape[1] for d, q in bases) == p
    # the irreps come from the unit group: their dimensions square-sum to |G|
    assert sum(d * d for d, _ in bases) == max(1, len(units(st)))


# --- blocks-mode PD, one Fourier block per irrep of each class group ----------------

def class_fourier_spectra(vals, grid, entries, dims):
    """Ascending Hermitized spectrum of every Fourier block of one class, each repeated d times."""
    ts = grid_transforms(entries, dims, vals[grid.transpose(2, 0, 1)])
    w = [np.repeat(np.linalg.eigvalsh(hermitized(t)), d, axis=-1).ravel()
         for d, t in zip(sorted(set(dims)), ts)]
    return np.sort(np.concatenate(w))


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 2), seed=hst.integers(0, 2**16),
       basis=hst.sampled_from([NATURAL, GROUPOID]))
def test_class_gram_spectrum_is_the_union_of_its_fourier_spectra(data, n, seed, basis):
    # Gatermann-Parrilo on G_k: the class block is unitarily equivalent to the direct
    # sum of FT(rho) (x) I_(d_rho), so their Hermitized spectra agree with multiplicity
    kind = data.draw(hst.sampled_from(["builtin", "rook4", "sub"]))
    if kind == "sub":
        degree = data.draw(hst.integers(1, 4))
        order = get_structure(f"builtin:symmetric_inverse:{degree}").table.order
        gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
        st = inverse_structure(inverse_subsemigroup(degree, gens))
    else:
        st = get_structure(data.draw(hst.sampled_from(BUILTINS)) if kind == "builtin"
                           else "builtin:symmetric_inverse:4")
    f = gram_pd_map(st, n, seed=seed) if data.draw(hst.booleans()) else random_map(st, n, seed, basis)
    vals = eval_groupoid(f)
    for k, (grid, group, gram) in enumerate(zip(st.class_grids, st.class_groups, _class_grams(f))):
        if group.order == 1:  # a trivial group: its one transform is the class block
            continue
        want = np.linalg.eigvalsh(hermitized(gram))
        irreps = st.class_irreps(k)
        entries = np.concatenate([rho.matrices.reshape(group.order, -1) for rho in irreps], axis=1).T
        got = class_fourier_spectra(vals, grid, entries, [rho.dim for rho in irreps])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("kind", ["random", "gram"])
@pytest.mark.parametrize("ref", PD_REFS)
def test_pd_blocks_verdict_does_not_depend_on_the_irrep_seed(ref, kind, monkeypatch):
    f = pd_input(ref, 2, kind)
    want = pd_check(f, "blocks")
    for seed in range(1, 4):
        st = inverse_structure(f.structure.table)
        # the seed-s irreps in place of the seed-0 ones that blocks PD asks the new structure for
        monkeypatch.setattr(grouprep, "unitary_irreps", lambda g, _, s=seed: unitary_irreps(g, s))
        got = pd_check(MatrixMap(st, f.dim, f.basis, f.values), "blocks")
        assert (got.verdict, got.hermitian_defect) == (want.verdict, want.hermitian_defect)
        assert [(k, ok) for k, ok, _ in got.per_class] == [(k, ok) for k, ok, _ in want.per_class]
        for (_, _, lo), (_, _, want_lo) in zip(got.per_class, want.per_class):
            assert abs(lo - want_lo) <= 1e-12 * max(1.0, want.norm)


def test_pd_blocks_class_group_above_the_cap_takes_the_class_block():
    st = inverse_structure(from_builtin(f"builtin:cyclic_with_zero:{MAX_GROUP_ORDER + 2}"))
    with pytest.raises(SizeLimit):  # its irreps cannot be built, and pd_check never asks for them
        st.class_irreps(0)
    for f in (random_map(st, 2, 3), gram_pd_map(st, 2, seed=3)):
        ok, lo, defect, norm2 = oracle_verdict(pd_matrix_groupoid(f, st.dclasses[0]))
        got = pd_check(f, "blocks")
        assert (got.verdict, got.hermitian_defect) == (ok, defect)
        assert abs(got.witness - lo) <= 1e-12 * max(1.0, norm2)


@pytest.mark.parametrize("kind", ["random", "gram"])
def test_pd_blocks_on_a_trivial_class_group_is_the_class_block_verdict(kind):
    f = pd_input("builtin:matrix_units:14", 2, kind)
    (gram,) = _class_grams(f)
    ok, lo, defect, norm2 = psd_verdict([gram])
    assert pd_check(f, "blocks") == positivity.PDSlice("blocks", ok, lo, defect, norm2, ((0, ok, lo),))


def test_unitary_irreps_runs_once_per_class_group(monkeypatch):
    calls = []

    def counted(group, seed=0):
        calls.append(group.ambient)
        return unitary_irreps(group, seed)

    monkeypatch.setattr(grouprep, "unitary_irreps", counted)
    st = inverse_structure(from_builtin("builtin:symmetric_inverse:4"))
    for f in (random_map(st, 2, 5), gram_pd_map(st, 1, seed=5)):
        for mode in ("natural", "blocks", "natural", "blocks"):
            pd_check(f, mode)
    # S_4, S_3 and S_2; the trivial group of the rank-1 class needs no irreps
    assert sorted(calls) == sorted(g.ambient for g in st.class_groups if g.order > 1)


def test_each_class_group_is_split_once_per_seed_across_pd_bochner_and_fourier(monkeypatch):
    calls = []

    def counted(group, seed=0):
        calls.append((group.ambient, seed))
        return unitary_irreps(group, seed)

    monkeypatch.setattr(grouprep, "unitary_irreps", counted)
    st = inverse_structure(from_builtin("builtin:symmetric_inverse:4"))
    assert calls == []  # inverse_structure builds no irreps
    f = gram_pd_map(st, 2, seed=5)
    for _ in range(2):
        pd_check(f, "natural")
        pd_check(f, "blocks")
        bochner_check(f)
        bochner_check(f, seed=7919)
        induced_irreps(st, 0)
        fourier_transform_all(f, induced_irreps(st, 7919))
    assert sorted(calls) == sorted((g.ambient, seed) for seed in (0, 7919) for g in st.class_groups)


def test_fourier_transform_all_is_the_per_irrep_product_bit_for_bit():
    # one (d^2, |G|) . (|G|, r^2 n^2) product per irrep, as before grid_transforms
    st = get_structure("builtin:symmetric_inverse:4")
    reps = get_irreps("builtin:symmetric_inverse:4")
    f = random_map(st, 2, 11)
    vals = as_groupoid(f).values
    for rep, t in zip(reps, fourier_transform_all(f, reps).transforms):
        (r, _, order), d = rep.grid.shape, rep.group_rep.dim
        want = rep.group_rep.matrices.reshape(order, d * d).T @ vals[rep.grid.transpose(2, 0, 1)].reshape(order, -1)
        want = want.reshape(d, d, r, r, 2, 2).transpose(2, 0, 4, 3, 1, 5).reshape(rep.dim * 2, rep.dim * 2)
        assert np.array_equal(t.matrix, want)


# --- group-level kernels ------------------------------------------------------------

def group_cases():
    for ref, e in (("builtin:symmetric_inverse:3", -1), ("builtin:symmetric_inverse:4", -1),
                   ("builtin:cyclic_with_zero:5", -1)):
        st = get_structure(ref)
        yield maximal_subgroup(st, st.idempotents[e])


def oracle_verify_rep(group, mats, tol):
    """The |G|^2 loop: identity, then per g unitarity and every product with g on the left."""
    eye = np.eye(mats.shape[1])
    if np.abs(mats[group.identity] - eye).max() > tol:
        return "identity matrix is off"
    for g in range(group.order):
        if np.abs(mats[g] @ mats[g].conj().T - eye).max() > tol:
            return "non-unitary representation matrix"
        for h in range(group.order):
            if np.abs(mats[g] @ mats[h] - mats[group.table[g, h]]).max() > tol:
                return "representation is not multiplicative"
    return None


@pytest.mark.parametrize("group", list(group_cases()), ids=lambda g: f"order{g.order}")
def test_verify_rep_matches_loop(group):
    def verdict(mats):
        try:
            _verify_rep(group, mats, 1e-10)
        except _SplitFailed as exc:
            return str(exc)
        return None

    for rep in unitary_irreps(group):
        mats = rep.matrices
        assert verdict(mats) is None is oracle_verify_rep(group, mats, 1e-10)
        off = mats.copy()
        off[group.identity] *= -1.0
        scaled = mats * (1.0 + 1e-6)
        flipped = mats.copy()
        flipped[(group.identity + 1) % group.order] *= -1.0  # unitary, not multiplicative
        for bad in (off, scaled, flipped):
            assert verdict(bad) == oracle_verify_rep(group, bad, 1e-10) is not None


@pytest.mark.parametrize("group", list(group_cases()), ids=lambda g: f"order{g.order}")
@pytest.mark.parametrize("n", [1, 2])
def test_group_pd_matrix_equals_loop_assembly_bitwise(group, n):
    # on G^0 the groupoid PD matrix is one R-block, [f(g^-1 h)] over g, h in G
    rng = np.random.default_rng([group.order, n, 41])
    vals = rng.standard_normal((group.order, n, n)) + 1j * rng.standard_normal((group.order, n, n))
    st = group_with_zero(group)
    (gram,) = _class_grams(padded_map(st, vals))
    members = st.class_grids[0].ravel()
    assert sorted(members.tolist()) == list(range(group.order))
    want = np.zeros((group.order * n, group.order * n), dtype=complex)
    for a, g in enumerate(members):
        for b, h in enumerate(members):
            want[a * n : (a + 1) * n, b * n : (b + 1) * n] = vals[group.mul(int(group.inv[g]), int(h))]
    assert np.array_equal(gram, want)


# --- structure setup ------------------------------------------------------------------

def oracle_symmetric_inverse_table(n):
    """I_n by composing every pair of partial bijections in Python, s after t."""
    elems = _partial_bijections(n)
    index = {e: i for i, e in enumerate(elems)}
    tab = np.zeros((len(elems), len(elems)), dtype=np.int32)
    for i, s in enumerate(elems):
        smap = dict(s)
        for j, t in enumerate(elems):
            tab[i, j] = index[tuple(sorted((x, smap[y]) for x, y in t if y in smap))]
    return tab


def oracle_mobius(leq, elements):
    """mu(x, x) = 1 and mu(x, y) = -sum_{x < z <= y} mu(z, y), by memoized recursion."""
    mob = np.zeros(leq.shape, dtype=np.int64)
    memo = {}

    def mu(x, y):
        if x == y:
            return 1
        if (x, y) not in memo:
            memo[x, y] = -sum(mu(z, y) for z in elements if z != x and leq[x, z] and leq[z, y])
        return memo[x, y]

    for x in elements:
        for y in elements:
            if leq[x, y]:
                mob[x, y] = mu(x, y)
    return mob


def oracle_irreps(group, seed=0):
    """Irrep matrices from the dense regular representation and unoptimised einsums."""
    n = group.order
    reg = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        reg[g, group.table[g, :], np.arange(n)] = 1.0

    def split(basis, rng, out):
        rep = np.einsum("pa,gpq,qb->gab", basis.conj(), reg, basis)
        if round(float(np.sum(np.abs(np.einsum("gii->g", rep)) ** 2)) / n) == 1:
            out.append(rep)
            return
        d = basis.shape[1]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (a + a.conj().T) / 2.0
        h = np.einsum("gab,bc,gdc->ad", rep, a, rep.conj()) / n
        w, u = np.linalg.eigh((h + h.conj().T) / 2.0)
        cuts = np.nonzero(np.diff(w) > 1e-6 * max(1.0, float(w[-1] - w[0])))[0]
        if len(cuts) == 0:
            raise _SplitFailed("commutant element failed to split a reducible subspace")
        bounds = [0] + [int(c) + 1 for c in cuts] + [d]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            split(basis @ u[:, lo:hi], rng, out)

    for attempt in range(8):
        out = []
        try:
            split(np.eye(n, dtype=complex), np.random.default_rng([seed, attempt, n]), out)
        except _SplitFailed:
            continue
        seen = {}
        for mats in out:
            seen.setdefault(_char_key(np.einsum("gii->g", mats)), mats)
        return [m for _, m in sorted(seen.items(), key=lambda kv: (kv[1].shape[1], kv[0]))]
    raise AssertionError("the oracle failed to split the regular representation")


def oracle_witness(tab):
    """The first non-associative triple of a full N^3 scan, or None."""
    bad = np.argwhere(tab[tab] != tab[:, tab])
    return tuple(int(v) for v in bad[0]) if len(bad) else None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_inverse_table_equals_composition_loop_bitwise(n):
    got = from_builtin(f"builtin:symmetric_inverse:{n}").table
    want = oracle_symmetric_inverse_table(n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_mobius_matches_recursion(st):
    want = oracle_mobius(st.leq, list(st.nonzero))
    assert st.mobius.dtype == want.dtype and np.array_equal(st.mobius, want)


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14"))
def test_mobius_equals_recursion(ref):
    assert_mobius_matches_recursion(get_structure(ref))


def relabelled(t, perm):
    """t with element i renamed perm[i]."""
    perm = np.asarray(perm)
    tab = np.empty_like(t.table)
    tab[np.ix_(perm, perm)] = perm[t.table]
    names = [None] * t.order
    for i, p in enumerate(perm):
        names[p] = t.element_names[i]
    return SemigroupTable(t.name, tuple(names), int(perm[t.zero]), tab)


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 4))
def test_mobius_equals_recursion_on_inverse_subsemigroups(data, n):
    order = get_structure(f"builtin:symmetric_inverse:{n}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    t = inverse_subsemigroup(n, gens)
    # I_n lists smaller idempotents first; a permutation breaks that order
    perm = data.draw(hst.permutations(range(t.order)))
    for u in (t, relabelled(t, perm)):
        assert_mobius_matches_recursion(inverse_structure(u))


def test_mobius_on_a_semilattice_that_is_not_boolean():
    # id on {1}, below id on {1,2}, {1,3} and {1,4}, below the identity: mu = 1 - 3 = -2 + 4
    rook = get_structure("builtin:symmetric_inverse:4").table
    gens = [rook.index_of(f"[{p}]") for p in ("1>1,2>2,3>3,4>4", "1>1,2>2", "1>1,3>3", "1>1,4>4")]
    st = inverse_structure(inverse_subsemigroup(4, gens))
    assert st.mobius[st.table.index_of("[1>1]"), st.table.index_of("[1>1,2>2,3>3,4>4]")] == 2
    assert_mobius_matches_recursion(st)


def corrupted(order, rows):
    """A null semigroup (every product 0) with cell (r, s) set to s for each r in rows.

    Rows below the first r send every product to 0, so the first witness lies in row r.
    """
    tab = np.zeros((order, order), dtype=np.int32)
    for r in rows:
        s = 2 if r == 1 else 1
        tab[r, s] = s
    return SemigroupTable("corrupted", tuple(map(str, range(order))), 0, tab)


@pytest.mark.parametrize("order", [40, 209])
@pytest.mark.parametrize("row", [0, 15, 16, -1])
def test_not_associative_carries_the_full_scan_witness(order, row):
    row %= order
    for rows in ([row], sorted({row, order - 1})):  # alone, and with a later witness
        t = corrupted(order, rows)
        witness = oracle_witness(t.table)
        assert witness[0] == row
        with pytest.raises(NotAssociative) as exc:
            validate_semigroup(t)
        assert exc.value.args[1] == witness


def splitting_groups():
    yield from (cyclic_group_table(n) for n in range(1, MAX_GROUP_ORDER + 1))
    for ref in ("builtin:symmetric_inverse:3", "builtin:symmetric_inverse:4"):
        st = get_structure(ref)
        yield maximal_subgroup(st, st.idempotents[-1])  # the identity: S_3, S_4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_irreps_are_complete_unitary_and_multiplicative(seed):
    for group in splitting_groups():
        reps = unitary_irreps(group, seed)
        assert sum(r.dim ** 2 for r in reps) == group.order
        for r in reps:
            eye = np.eye(r.dim)
            assert np.abs(r.matrices @ r.matrices.conj().swapaxes(1, 2) - eye).max() <= 1e-10
            assert np.abs(r.matrices[:, None] @ r.matrices[None, :] - r.matrices[group.table]).max() <= 1e-10
        if group.name.startswith("Z"):  # the characters are exactly g -> chi(1)^g
            chars = np.array([r.characters for r in reps])
            assert np.abs(chars - chars[:, 1 % group.order, None] ** np.arange(group.order)).max() <= 1e-12
            assert len({_char_key(c[1:2]) for c in chars}) == group.order


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("group", [g for g in splitting_groups() if g.order <= 16 or g.order in (24, 6)],
                         ids=lambda g: f"{g.name}-{g.order}")
def test_irrep_characters_match_einsum_oracle(group, seed):
    reps = unitary_irreps(group, seed)
    want = oracle_irreps(group, seed)
    assert [r.dim for r in reps] == [m.shape[1] for m in want]
    for r, m in zip(reps, want):
        assert np.abs(r.characters - np.einsum("gii->g", m)).max() <= 1e-12


# --- index loops of the tensor builders and the Steinberg spine ---------------------
#
# Each oracle is the loop the library once ran; the replacement must give the same bits.

def oracle_identity_rep(m):
    mats = np.zeros((m, m, m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            mats[i, j, i, j] = 1.0
    return mats


def oracle_direct_sum_rep(m, copies, pad):
    d = m * copies + pad
    mats = np.zeros((m, m, d, d), dtype=complex)
    for i in range(m):
        for j in range(m):
            for c in range(copies):
                mats[i, j, c * m + i, c * m + j] = 1.0
    return mats


def oracle_identity_supermap(m1, n2):
    action = np.zeros((m1, m1, n2, n2, m1, m1, n2, n2), dtype=complex)
    for i, j, k, l in itertools.product(range(m1), range(m1), range(n2), range(n2)):
        action[i, j, k, l, i, j, k, l] = 1.0
    return action


def oracle_unit_supermap(m1, n2, m3, n4):
    conv_unit = np.zeros((m3, m3, n4, n4), dtype=complex)
    for p in range(m3):
        conv_unit[p, p] = np.eye(n4)
    action = np.zeros((m1, m1, n2, n2, m3, m3, n4, n4), dtype=complex)
    for i in range(m1):
        for k in range(n2):
            action[i, i, k, k] = conv_unit
    return action


# A supermap was once stored as an action table: action[i, j, k, l] is the
# value table v[u, w] = Theta(E_ijkl)(e_uw) of the image of E_ijkl, shape
# (m1, m1, n2, n2, m3, m3, n4, n4).  Its map on matrix_units:(m1 n2) holds the
# same numbers at e_(i,k),(j,l), as the Choi matrix [(u, a), (w, b)].

def action_to_map(action, st):
    m1, _, n2, _, m3, _, n4, _ = action.shape
    vals = np.zeros((st.table.order, m3 * n4, m3 * n4), dtype=complex)
    vals[1:] = action.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape((m1 * n2) ** 2, m3 * n4, m3 * n4)
    return MatrixMap(st, m3 * n4, NATURAL, vals)


def map_to_action(t):
    m1, n2, m3, n4 = t.m1, t.n2, t.m3, t.n4
    return t.map.values[1:].reshape(m1, n2, m1, n2, m3, n4, m3, n4).transpose(0, 2, 1, 3, 4, 6, 5, 7)


def oracle_value_table_convolve(a, b):
    """(F * G)(e_ij) = sum_k F(e_ik) G(e_kj) on value tables v[i, j] = F(e_ij)."""
    return np.einsum("ikab,kjbc->ijac", a, b)


def oracle_star(a1, a2):
    """(T1 star T2)(E_ijkl) = sum_pq T1(E_ipkq) * T2(E_pjql), on action tables."""
    return np.einsum("ipkquwab,pjqlwvbc->ijkluvac", a1, a2)


def oracle_star_by_definition(a1, a2):
    m1, _, n2 = a1.shape[:3]
    out = np.zeros_like(a1)
    for i, j, k, l in itertools.product(range(m1), range(m1), range(n2), range(n2)):
        for p, q in itertools.product(range(m1), range(n2)):
            out[i, j, k, l] += oracle_value_table_convolve(a1[i, p, k, q], a2[p, j, q, l])
    return out


def oracle_representing_map(action, x):
    """Choi(Theta(F)) for the map F decoded from the Choi tensor x, through the action table."""
    m1, _, n2, _, m3, _, n4, _ = action.shape
    v = np.einsum("iajb->ijab", x.reshape(m1, n2, m1, n2))
    out = np.einsum("ijkl,ijklpqrs->pqrs", v, action)
    return np.einsum("ijab->iajb", out).reshape(m3 * n4, m3 * n4)


def oracle_rep_fourier(rho, f):
    m, d, n = rho.m, rho.dim, f.dim
    out = np.einsum("pqab,pqij->aibj", rho.matrices, f.values[1:].reshape(m, m, n, n))
    return out.reshape(d * n, d * n)


def oracle_steinberg_phi(s, x):
    a, b = int(s.ran[x]), int(s.dom[x])
    p = s.transversal_at
    g = s.mul(s.mul(int(s.inv[p[a]]), x), int(p[b]))
    return int(s.class_of[x]), g, a, b


def oracle_induced_matrices(s, seed):
    out = []
    for k, cls in enumerate(s.dclasses):
        subgroup = maximal_subgroup(s, s.base_idempotents[k])
        pos = {e: i for i, e in enumerate(s.class_idempotents(k))}
        r = len(pos)
        for rho in unitary_irreps(subgroup, seed=seed):
            d = rho.dim
            mats = np.zeros((s.table.order, r * d, r * d), dtype=complex)
            for x in cls:
                _, g, a, b = oracle_steinberg_phi(s, x)
                a, b = pos[a], pos[b]
                mats[x, a * d : (a + 1) * d, b * d : (b + 1) * d] = rho.matrices[subgroup.ambient.index(g)]
            out.append(mats)
    return out


def oracle_dclasses(t):
    """(dclasses, class_of, ranks, base_idempotents, transversals) by the pair loop."""
    n, z, tab = t.order, t.zero, t.table
    st = inverse_structure(t)
    dom, ran = st.dom, st.ran
    nonzero = [i for i in range(n) if i != z]
    linked = np.zeros((n, n), dtype=bool)
    for x in nonzero:
        linked[dom[x], ran[x]] = True
    class_of = np.full(n, -1, dtype=np.int32)
    classes = []
    for s in nonzero:
        if class_of[s] >= 0:
            continue
        members = [u for u in nonzero if class_of[u] < 0 and linked[ran[s], ran[u]]]
        class_of[members] = len(classes)
        classes.append(tuple(members))
    ranks, base, transversals = [], [], {}
    for cls in classes:
        idems = [e for e in cls if tab[e, e] == e]
        ranks.append(len(idems))
        ek = min(idems)
        base.append(ek)
        for e in idems:
            # e_k itself, else the lowest-index x with dom(x) = e_k and ran(x) = e
            transversals[e] = ek if e == ek else next(x for x in cls if dom[x] == ek and ran[x] == e)
    return tuple(classes), class_of, tuple(ranks), tuple(base), transversals


def assert_dclasses_match_loop(t):
    st = inverse_structure(t)
    classes, class_of, ranks, base, transversals = oracle_dclasses(t)
    assert st.dclasses == classes and st.ranks == ranks and st.base_idempotents == base
    assert all(type(u) is int for cls in st.dclasses for u in cls)
    assert st.class_of.dtype == class_of.dtype and np.array_equal(st.class_of, class_of)
    assert {e: int(st.transversal_at[e]) for e in st.idempotents} == transversals


def bitwise(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 14])
def test_matrix_algebra_reps_equal_index_loops_bitwise(m):
    assert bitwise(identity_rep(m).matrices, oracle_identity_rep(m))
    for copies, pad in ((1, 0), (2, 0), (2, 1), (3, 2)):
        assert bitwise(direct_sum_rep(m, copies, pad).matrices, oracle_direct_sum_rep(m, copies, pad))


SUPERMAP_SIGNATURES = [(1, 1, 1, 1), (2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3), (3, 1, 2, 2)]


@pytest.mark.parametrize("m1,n2,m3,n4", SUPERMAP_SIGNATURES)
def test_supermaps_equal_index_loops_bitwise(m1, n2, m3, n4):
    st = get_structure(f"builtin:matrix_units:{m1 * n2}")
    assert bitwise(map_to_action(identity_supermap(m1, n2, st)), oracle_identity_supermap(m1, n2))
    assert bitwise(map_to_action(unit_supermap(m1, n2, m3, n4, st)), oracle_unit_supermap(m1, n2, m3, n4))


@pytest.mark.parametrize("m1,n2,m3,n4", SUPERMAP_SIGNATURES)
def test_supermap_kernels_equal_the_action_table_einsums(m1, n2, m3, n4):
    st = get_structure(f"builtin:matrix_units:{m1 * n2}")
    rng = np.random.default_rng([m1, n2, m3, n4, 37])
    shape = (m1, m1, n2, n2, m3, m3, n4, n4)
    a1, a2 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    t1, t2 = (Supermap(m1, n2, m3, n4, action_to_map(a, st)) for a in (a1, a2))
    assert bitwise(map_to_action(t1), a1)
    want = oracle_star(a1, a2)
    # one BLAS product per class sums in another order than the einsum: a few ulp of max|want|
    assert np.abs(map_to_action(supermap_convolve(t1, t2)) - want).max() <= 1e-14 * np.abs(want).max()
    assert_close(oracle_star_by_definition(a1, a2), want)
    # the unit of star convolution, both ways round
    unit = unit_supermap(m1, n2, m3, n4, st)
    assert_close(map_to_action(supermap_convolve(t1, unit)), a1)
    assert_close(map_to_action(supermap_convolve(unit, t1)), a1)
    x = rng.standard_normal((m1 * n2, m1 * n2)) + 1j * rng.standard_normal((m1 * n2, m1 * n2))
    got = representing_map(t1, BlockTensor(m1, n2, x)).matrix
    want_x = oracle_representing_map(a1, x)
    assert np.abs(got - want_x).max() <= 1e-14 * np.abs(want_x).max()
    ident = identity_supermap(m1, n2, st)
    assert np.array_equal(representing_map(ident, BlockTensor(m1, n2, x)).matrix, x)
    assert np.array_equal(oracle_representing_map(map_to_action(ident), x), x)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 14])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_rep_fourier_equals_its_own_einsum_bitwise(m, n):
    st = get_structure(f"builtin:matrix_units:{m}")
    f = random_map(st, n, seed=m + n)
    for rho in (identity_rep(m), conjugation_rep(random_unitary(m, seed=m)), direct_sum_rep(m, 2, 1)):
        got = rep_fourier(rho, f)
        assert (got.dim_left, got.dim_right) == (rho.dim, n)
        assert bitwise(got.matrix, oracle_rep_fourier(rho, f))


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14"))
def test_steinberg_coordinates_equal_the_per_element_products(ref):
    st = get_structure(ref)
    for x in st.nonzero:
        assert steinberg_phi(st, x) == oracle_steinberg_phi(st, x)
    assert st.group_coordinates[st.zero] == st.zero
    assert st.transversal_at[st.zero] == st.zero


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4",))
def test_induced_irreps_equal_the_per_element_loop_bitwise(ref, seed):
    st = get_structure(ref)
    reps = induced_irreps(st, seed=seed)
    want = oracle_induced_matrices(st, seed)
    assert len(reps) == len(want)
    for rep, mats in zip(reps, want):
        assert rep.dim == mats.shape[1] and bitwise(rep.matrices, mats)


ONE_ELEMENT = SemigroupTable("z", ("z",), 0, np.zeros((1, 1), dtype=np.int32))


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14", "{z}"))
def test_dclasses_equal_the_pair_loop(ref):
    assert_dclasses_match_loop(ONE_ELEMENT if ref == "{z}" else from_builtin(ref))


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 4))
def test_dclasses_equal_the_pair_loop_on_inverse_subsemigroups(data, n):
    order = get_structure(f"builtin:symmetric_inverse:{n}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    t = inverse_subsemigroup(n, gens)
    # a permutation breaks I_n's order, in which smaller idempotents come first
    perm = data.draw(hst.permutations(range(t.order)))
    for u in (t, relabelled(t, perm)):
        assert_dclasses_match_loop(u)


# --- Plancherel, Schur and the class weight against their former loops -------

def oracle_weights(st):
    """r_k |G_k| per class k, from the rank and the maximal subgroup's order."""
    return [st.ranks[k] * maximal_subgroup(st, e).order for k, e in enumerate(st.base_idempotents)]


def oracle_plancherel(f, g, reps):
    """Plancherel's sides as a loop over the |S| - 1 elements and two fourier calls per irrep."""
    st, n = f.structure, f.dim
    weights = oracle_weights(st)
    fvals, gvals = (x.values if x.basis == GROUPOID else to_groupoid(x).values for x in (f, g))
    lhs = np.zeros((n, n), dtype=complex)
    for s in st.nonzero:
        lhs += weights[int(st.class_of[s])] * (fvals[int(st.inv[s])] @ gvals[s])
    rhs = np.zeros((n, n), dtype=complex)
    for rep in reps:
        prod = (fourier(f, rep).matrix @ fourier(g, rep).matrix).reshape(rep.dim, n, rep.dim, n)
        rhs += rep.dim * np.einsum("kikj->ij", prod)
    return lhs, rhs


def oracle_schur(st, reps):
    """The Schur residual as one einsum per pair of irreps of a class."""
    weights = oracle_weights(st)
    worst = 0.0
    for k, cls in enumerate(st.dclasses):
        here = [r for r in reps if r.class_index == k]
        for ri in here:
            for rj in here:
                got = np.einsum("spq,srt->pqrt", ri.matrices[list(cls)], rj.matrices[list(cls)].conj())
                d = ri.dim
                expect = (weights[k] / d) * np.einsum("pr,qt->pqrt", np.eye(d), np.eye(d)) if ri is rj else 0.0
                worst = max(worst, float(np.abs(got - expect).max()))
    return worst


def assert_spine_matches_loops(st, seed):
    reps = induced_irreps(st, seed=0)
    weights = oracle_weights(st)
    assert [rep.weight for rep in reps] == [weights[rep.class_index] for rep in reps]
    assert abs(schur_residual(st, reps) - oracle_schur(st, reps)) <= 1e-12
    f, g = random_map(st, 2, seed), gram_pd_map(st, 2, seed=seed)
    for x, y in ((f, g), (g, f), (f, f)):
        lhs, rhs, residual = plancherel_check(x, y, reps)
        want_lhs, want_rhs = oracle_plancherel(x, y, reps)
        assert np.array_equal(rhs, want_rhs)
        assert np.abs(lhs - want_lhs).max() <= 1e-12 * max(1.0, np.abs(want_lhs).max())
        assert residual == float(np.linalg.norm(lhs - rhs))


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14"))
def test_plancherel_schur_and_weight_equal_the_loops(ref):
    assert_spine_matches_loops(get_structure(ref), seed=5)


@settings(max_examples=30, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 4), seed=hst.integers(0, 2**16))
def test_plancherel_schur_and_weight_equal_the_loops_on_inverse_subsemigroups(data, n, seed):
    order = get_structure(f"builtin:symmetric_inverse:{n}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    assert_spine_matches_loops(inverse_structure(inverse_subsemigroup(n, gens)), seed)


# --- the Steinberg grid against the dense induced matrices it replaced --------

def oracle_class_idempotents(st, k):
    return tuple(e for e in st.dclasses[k] if st.is_idempotent(e))


def oracle_subgroup_members(st, e):
    return [x for x in st.nonzero if st.dom[x] == e and st.ran[x] == e]


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14", "{z}"))
def test_class_idempotents_and_subgroup_members_equal_the_loops(ref):
    st = inverse_structure(ONE_ELEMENT) if ref == "{z}" else get_structure(ref)
    for k in range(len(st.dclasses)):
        got = st.class_idempotents(k)
        assert got == oracle_class_idempotents(st, k) and all(type(e) is int for e in got)
    for e in st.idempotents:
        group, members = maximal_subgroup(st, e), oracle_subgroup_members(st, e)
        assert group.ambient == tuple(members) and all(type(x) is int for x in group.ambient)
        assert group.element_names == tuple(st.table.element_names[x] for x in members)
    assert len(st.class_grids) == len(st.dclasses)


def assert_grids_match_coordinates(st):
    for k, grid in enumerate(st.class_grids):
        pos = {e: i for i, e in enumerate(oracle_class_idempotents(st, k))}
        ambient = maximal_subgroup(st, st.base_idempotents[k]).ambient
        assert grid.shape == (len(pos), len(pos), len(ambient))
        assert sorted(grid.ravel().tolist()) == list(st.dclasses[k])
        for x in st.dclasses[k]:
            _, g, a, b = oracle_steinberg_phi(st, x)
            assert grid[pos[a], pos[b], ambient.index(g)] == x


def oracle_family(st, seed, conjugate):
    """The induced family and its dense matrices as once built: by the per-element
    loop, then conjugated by one einsum over all of S."""
    reps, mats = induced_irreps(st, seed=seed), oracle_induced_matrices(st, seed)
    if conjugate:
        us = [random_unitary(rep.dim, seed=90 + i) for i, rep in enumerate(reps)]
        reps = [conjugated_rep(rep, u) for rep, u in zip(reps, us)]
        mats = [np.einsum("ab,sbc,dc->sad", u, m, u.conj()) for u, m in zip(us, mats)]
    return reps, mats


def oracle_transform(mats, vals):
    d, n = mats.shape[1], vals.shape[1]
    return np.einsum("sab,sij->aibj", mats, vals).reshape(d * n, d * n)


def oracle_invert(st, mats, transforms, n):
    """PhiT(floor(s)) for every s: one einsum over all of S per irrep."""
    total = np.zeros((st.table.order, n, n), dtype=complex)
    for m, t in zip(mats, transforms):
        d = m.shape[1]
        total += d * np.einsum("skb,bikj->sij", m[st.inv], t.reshape(d, n, d, n))
    weights = np.array(oracle_weights(st) + [1])
    return total / weights[st.class_of][:, None, None]


def oracle_schur_gram(st, reps, mats):
    """The Schur residual as one Gram of the dense class rows per class."""
    worst = 0.0
    for k, cls in enumerate(st.dclasses):
        here = [i for i, rep in enumerate(reps) if rep.class_index == k]
        if here:
            m = np.hstack([mats[i][list(cls)].reshape(len(cls), -1) for i in here])
            expect = np.concatenate([np.full(reps[i].dim ** 2, reps[i].weight / reps[i].dim) for i in here])
            worst = max(worst, float(np.abs(m.T @ m.conj() - np.diag(expect)).max()))
    return worst


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def assert_grid_matches_dense(st, seed):
    assert_grids_match_coordinates(st)
    for conjugate in (False, True):
        reps, mats = oracle_family(st, seed % 3, conjugate)
        for rep, m in zip(reps, mats):
            assert bitwise(rep.matrices, m)
            assert_close(rep.characters, np.einsum("sii->s", m))
        assert abs(schur_residual(st, reps) - oracle_schur_gram(st, reps, mats)) <= 1e-12
        for n in (1, 2, 4):
            f = random_map(st, n, seed)
            data = fourier_transform_all(f, reps)
            vals = to_groupoid(f).values
            for t, m in zip(data.transforms, mats):
                assert (t.dim_left, t.dim_right) == (m.shape[1], n)
                assert_close(t.matrix, oracle_transform(m, vals))
            transforms = [t.matrix for t in data.transforms]
            full = invert_to_map(data).values
            assert_close(full, oracle_invert(st, mats, transforms, n))
            # one element's class alone gives that element the same sum, bitwise
            assert all(np.array_equal(fourier_invert(data, s), full[s]) for s in st.nonzero)


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4", "builtin:matrix_units:14"))
def test_grid_transform_inversion_and_schur_equal_the_dense_kernels(ref):
    assert_grid_matches_dense(get_structure(ref), seed=11)


@settings(max_examples=20, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 4), seed=hst.integers(0, 2**16))
def test_grid_kernels_equal_the_dense_kernels_on_inverse_subsemigroups(data, n, seed):
    order = get_structure(f"builtin:symmetric_inverse:{n}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=4))
    assert_grid_matches_dense(inverse_structure(inverse_subsemigroup(n, gens)), seed)


def test_conjugations_compose():
    for i, rep in enumerate(get_irreps("builtin:symmetric_inverse:3")):
        u, v = random_unitary(rep.dim, seed=i), random_unitary(rep.dim, seed=50 + i)
        once = conjugated_rep(rep, u)
        want = np.einsum("ab,sbc,dc->sad", v, once.matrices, v.conj())
        assert_close(conjugated_rep(once, v).matrices, want)


def test_the_spine_never_builds_the_dense_induced_matrices():
    st = inverse_structure(from_builtin("builtin:symmetric_inverse:4"))
    reps = induced_irreps(st)
    conj = [conjugated_rep(rep, random_unitary(rep.dim, seed=i)) for i, rep in enumerate(reps)]
    f, g = random_map(st, 2, seed=1), gram_pd_map(st, 2, seed=2)
    for family in (reps, conj):
        data = fourier_transform_all(f, family)
        invert_to_map(data)
        fourier_invert(data, st.nonzero[0])
        plancherel_check(f, g, family)
        check_irreps_complete(st, family)
        schur_residual(st, family)
        bochner_check(g, family)
        assert all("matrices" not in vars(rep) for rep in family)


def traced_peak(run) -> int:
    run()  # cached set-up (class products, isotypic lifts) is not part of the op
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convolve_and_natural_pd_transients_stay_bounded_at_i4():
    # at I_4, n = 4 the whole R-class gather of convolve took 2.6 MB and the
    # natural PD stacks of R-classes 3.1 MB; chunked, they took 0.51 and 1.28 MB.
    # The grid product gathers B once per class, straight into its layout: 0.33 MB.
    # The groupoid and blocks PD stacked the padded R-blocks of one size, 1.06 MB,
    # and Bochner 1.12 MB; one block per class takes 0.77 and 0.82 MB.  Blocks mode on
    # the class Fourier blocks takes 0.23 MB, bounded at 0.35 MB.  The padded
    # einsum of gram_pd_map took 0.76 MB, one einsum per class 0.18 MB
    st = get_structure("builtin:symmetric_inverse:4")
    f, g = random_map(st, 4, seed=3), gram_pd_map(st, 4, seed=1)
    reps = get_irreps("builtin:symmetric_inverse:4")
    assert traced_peak(lambda: convolve(f, g)) <= 0.35e6
    assert traced_peak(lambda: pd_check(f, "natural")) <= 1.35e6
    assert traced_peak(lambda: pd_check(f, "groupoid")) <= 0.85e6
    assert traced_peak(lambda: pd_check(f, "blocks")) <= 0.35e6
    assert traced_peak(lambda: bochner_check(f, reps)) <= 0.9e6
    assert traced_peak(lambda: gram_pd_map(st, 4, seed=1)) <= 0.25e6


def test_basis_changes_on_a_discrete_order_allocate_no_value_table():
    # at matrix_units:14, n = 2 the zeta / Mobius products allocated the (197, 2, 2)
    # result and its validated copy, 27.6 KB per basis change and 13.4 KB per eval;
    # the relabel allocates one map object.  convolve took 72.9 KB, now 58.4 KB
    st = get_structure("builtin:matrix_units:14")
    f, g = random_map(st, 2, seed=3), gram_pd_map(st, 2, seed=1)
    for run in (lambda: to_groupoid(f), lambda: from_groupoid(g), lambda: eval_groupoid(f),
                lambda: eval_natural(g)):
        assert traced_peak(run) < 1000
    assert traced_peak(lambda: convolve(f, g)) <= 0.065e6
