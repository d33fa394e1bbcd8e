import numpy as np
import pytest

from semifourier.errors import IncompleteIrrepSet, SizeLimit
from semifourier.grouprep import unitary_irreps
from semifourier.harmonic import (
    FourierData,
    fourier,
    fourier_invert,
    fourier_transform_all,
    induced_irreps,
    plancherel_check,
)
from semifourier.maps import convolve
from semifourier.positivity import bochner_check, pd_check
from semifourier.semigroup import GroupTable, cyclic_group_table, maximal_subgroup

from conftest import get_structure, group_with_zero, padded_map


def trivial_group():
    return cyclic_group_table(1)


def s3_group():
    i3 = get_structure("builtin:symmetric_inverse:3")
    return maximal_subgroup(i3, i3.table.index_of("[1>1,2>2,3>3]"))


def random_values(group, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((group.order, n, n)) + 1j * rng.standard_normal(
        (group.order, n, n)
    )


def delta_identity_values(group, n):
    vals = np.zeros((group.order, n, n), dtype=complex)
    vals[group.identity] = np.eye(n)
    return vals


def gram_values(group, n, seed):
    # Phi(g) = sum_h A(h)^dagger A(hg) is PD: the big block matrix is the Gram
    # matrix of the stacked blocks B_g = [A(hg)]_h
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((group.order, n, n)) + 1j * rng.standard_normal(
        (group.order, n, n)
    )
    vals = np.zeros((group.order, n, n), dtype=complex)
    for g in range(group.order):
        for h in range(group.order):
            vals[g] += a[h].conj().T @ a[group.mul(h, g)]
    return vals


def plancherel_on_group(f1, f2, reps, order):
    """Both sides of sum_g f1(g^-1) f2(g) = (1/|G|) sum_rho d_rho tr_rho[f1hat f2hat].

    On G^0 every term of the semigroup identity carries the weight r |G| = |G|.
    """
    lhs, rhs, residual = plancherel_check(f1, f2, reps)
    return lhs / order, rhs / order, residual / order


# --- irrep generation ---------------------------------------------------------

def test_trivial_group_irreps():
    reps = unitary_irreps(trivial_group())
    assert len(reps) == 1 and reps[0].dim == 1
    assert np.allclose(reps[0].matrices, np.ones((1, 1, 1)))


def test_trivial_irrep_is_the_splitting_result_bit_for_bit():
    # the order-1 shortcut draws nothing, yet returns what splitting the regular rep gave
    from semifourier.grouprep import _split_invariant

    group = trivial_group()
    for seed in range(4):
        split = []
        _split_invariant(group, np.eye(1, dtype=complex), np.random.default_rng([seed, 0, 1]), split)
        (rep,) = unitary_irreps(group, seed)
        assert rep.matrices.dtype == split[0].dtype and rep.matrices.shape == split[0].shape == (1, 1, 1)
        assert rep.matrices.tobytes() == split[0].tobytes()


def test_z2_characters():
    reps = unitary_irreps(cyclic_group_table(2))
    chars = sorted(tuple(np.round(r.characters.real, 8)) for r in reps)
    assert chars == [(1.0, -1.0), (1.0, 1.0)]


def test_s3_dimensions():
    reps = unitary_irreps(s3_group())
    assert sorted(r.dim for r in reps) == [1, 1, 2]
    assert sum(r.dim**2 for r in reps) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cyclic_completeness(n):
    reps = unitary_irreps(cyclic_group_table(n))
    assert sum(r.dim**2 for r in reps) == n
    assert all(r.dim == 1 for r in reps)


def test_irreps_are_homomorphic_and_unitary():
    group = s3_group()
    for rep in unitary_irreps(group):
        eye = np.eye(rep.dim)
        assert np.abs(rep.matrices[group.identity] - eye).max() <= 1e-10
        for g in range(group.order):
            assert np.abs(rep.matrices[g] @ rep.matrices[g].conj().T - eye).max() <= 1e-10
            for h in range(group.order):
                assert (
                    np.abs(
                        rep.matrices[g] @ rep.matrices[h]
                        - rep.matrices[group.mul(g, h)]
                    ).max()
                    <= 1e-10
                )


def test_irreps_deterministic():
    a = unitary_irreps(s3_group(), seed=3)
    b = unitary_irreps(s3_group(), seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.matrices, y.matrices)
        assert x.matrices is not y.matrices  # built afresh: structures keep irreps, unitary_irreps does not


def test_schur_orthogonality():
    group = s3_group()
    reps = unitary_irreps(group)
    for a in reps:
        for b in reps:
            got = np.einsum("gij,gkl->ijkl", a.matrices, b.matrices.conj())
            if a is b:
                want = (group.order / a.dim) * np.einsum(
                    "ik,jl->ijkl", np.eye(a.dim), np.eye(a.dim)
                )
            else:
                want = np.zeros_like(got)
            assert np.abs(got - want).max() <= 1e-8


def test_size_limit():
    with pytest.raises(SizeLimit):
        unitary_irreps(cyclic_group_table(49))


def test_klein_four_group():
    # abelian but not cyclic: four 1-dim irreps with distinct real characters
    tab = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    klein = GroupTable("V4", ("e", "a", "b", "c"), tab, 0, np.arange(4))
    reps = unitary_irreps(klein)
    assert [r.dim for r in reps] == [1, 1, 1, 1]
    keys = {tuple(np.round(r.characters.real, 6)) for r in reps}
    assert len(keys) == 4


def test_s4_from_symmetric_inverse_4():
    i4 = get_structure("builtin:symmetric_inverse:4")
    s4 = maximal_subgroup(i4, i4.table.index_of("[1>1,2>2,3>3,4>4]"))
    assert s4.order == 24
    reps = unitary_irreps(s4)
    assert sorted(r.dim for r in reps) == [1, 1, 2, 3, 3]


def test_irreps_pairwise_inequivalent_across_seeds():
    group = s3_group()
    for seed in range(12):
        reps = unitary_irreps(group, seed=seed)
        keys = {tuple(np.round(r.characters, 6).tolist()) for r in reps}
        assert len(keys) == len(reps)
        assert sum(r.dim**2 for r in reps) == group.order


# --- Fourier transform on G^0 -------------------------------------------------------

def test_fourier_zero_map():
    group = cyclic_group_table(2)
    st = group_with_zero(group)
    rep = induced_irreps(st)[0]
    f = padded_map(st, np.zeros((2, 2, 2), dtype=complex))
    assert np.abs(fourier(f, rep).matrix).max() == 0.0


def test_fourier_z2_sum_and_difference():
    group = cyclic_group_table(2)
    st = group_with_zero(group)
    reps = induced_irreps(st)
    by_char = {tuple(np.round(r.group_rep.characters.real, 6)): r for r in reps}
    trivial = by_char[(1.0, 1.0)]
    sign = by_char[(1.0, -1.0)]
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = padded_map(st, np.stack([x, y]))
    assert np.abs(fourier(f, trivial).matrix - (x + y)).max() <= 1e-12
    assert np.abs(fourier(f, sign).matrix - (x - y)).max() <= 1e-12


@pytest.mark.parametrize("maker", [cyclic_group_table, None], ids=["z2z3", "s3"])
def test_fourier_roundtrip(maker):
    groups = [maker(2), maker(3)] if maker else [s3_group()]
    for group in groups:
        st = group_with_zero(group)
        reps = induced_irreps(st)
        for seed in range(100):
            vals = random_values(group, 2, seed)
            data = fourier_transform_all(padded_map(st, vals), reps)
            err = max(
                np.abs(fourier_invert(data, g) - vals[g]).max()
                for g in range(group.order)
            )
            assert err <= 1e-9


def test_fourier_invert_delta_map():
    group = s3_group()
    st = group_with_zero(group)
    reps = induced_irreps(st)
    data = fourier_transform_all(padded_map(st, delta_identity_values(group, 2)), reps)
    for t, r in zip(data.transforms, reps):
        assert np.abs(t.matrix - np.eye(r.dim * 2)).max() <= 1e-10
    for g in range(group.order):
        want = np.eye(2) if g == group.identity else np.zeros((2, 2))
        assert np.abs(fourier_invert(data, g) - want).max() <= 1e-9


def test_fourier_invert_requires_complete_set():
    group = s3_group()
    st = group_with_zero(group)
    reps = induced_irreps(st)
    f = padded_map(st, random_values(group, 2, 0))
    data = FourierData(f, tuple(reps[:-1]), tuple(fourier(f, r) for r in reps[:-1]))
    with pytest.raises(IncompleteIrrepSet):
        fourier_invert(data, 0)


# --- convolution, Plancherel on G^0 ---------------------------------------------------

def test_convolve_with_delta_is_identity():
    group = s3_group()
    st = group_with_zero(group)
    f = padded_map(st, random_values(group, 2, 1))
    conv = convolve(f, padded_map(st, delta_identity_values(group, 2)))
    assert np.abs(conv.values - f.values).max() <= 1e-12


def test_convolution_theorem_s3():
    group = s3_group()
    st = group_with_zero(group)
    reps = induced_irreps(st)
    for seed in range(10):
        f1 = padded_map(st, random_values(group, 2, 2 * seed))
        f2 = padded_map(st, random_values(group, 2, 2 * seed + 1))
        conv = convolve(f1, f2)
        for rep in reps:
            lhs = fourier(conv, rep).matrix
            rhs = fourier(f1, rep).matrix @ fourier(f2, rep).matrix
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_scalar_convolution_z2():
    st = group_with_zero(cyclic_group_table(2))
    f1 = padded_map(st, np.array([[[1.0]], [[2.0]]]))
    f2 = padded_map(st, np.array([[[3.0]], [[5.0]]]))
    conv = convolve(f1, f2)
    # (f1*f2)(e) = 1*3 + 2*5, (f1*f2)(a) = 1*5 + 2*3
    assert conv.values[0, 0, 0] == pytest.approx(13.0)
    assert conv.values[1, 0, 0] == pytest.approx(11.0)


def test_plancherel_zero_map():
    group = cyclic_group_table(3)
    st = group_with_zero(group)
    reps = induced_irreps(st)
    f = padded_map(st, random_values(group, 2, 4))
    zero = padded_map(st, np.zeros((3, 2, 2), dtype=complex))
    lhs, rhs, residual = plancherel_on_group(f, zero, reps, group.order)
    assert np.abs(lhs).max() == 0.0 and np.abs(rhs).max() <= 1e-12
    assert residual <= 1e-12


def test_plancherel_random_z3():
    group = cyclic_group_table(3)
    st = group_with_zero(group)
    reps = induced_irreps(st)
    for seed in range(20):
        f1 = padded_map(st, random_values(group, 2, 100 + seed))
        f2 = padded_map(st, random_values(group, 2, 200 + seed))
        _, _, residual = plancherel_on_group(f1, f2, reps, group.order)
        assert residual <= 1e-9


def test_plancherel_delta_maps():
    group = cyclic_group_table(2)
    st = group_with_zero(group)
    reps = induced_irreps(st)
    f = padded_map(st, delta_identity_values(group, 2))
    lhs, rhs, residual = plancherel_on_group(f, f, reps, group.order)
    assert np.abs(lhs - np.eye(2)).max() <= 1e-12
    assert residual <= 1e-10


# --- positive definiteness and Bochner on G^0 ------------------------------------------

def test_pd_constant_identity():
    st = group_with_zero(cyclic_group_table(2))
    f = padded_map(st, np.stack([np.eye(2), np.eye(2)]))
    assert pd_check(f, "groupoid").verdict


def test_pd_sign_character():
    st = group_with_zero(cyclic_group_table(2))
    got = pd_check(padded_map(st, np.array([[[1.0]], [[-1.0]]])), "groupoid")
    assert got.verdict and got.witness == pytest.approx(0.0, abs=1e-12)


def test_pd_rejects_lopsided_scalar_map():
    st = group_with_zero(cyclic_group_table(2))
    got = pd_check(padded_map(st, np.array([[[1.0]], [[2.0]]])), "groupoid")
    assert not got.verdict and got.witness == pytest.approx(-1.0, abs=1e-12)


def test_bochner_gram_maps():
    for group in (cyclic_group_table(2), s3_group()):
        st = group_with_zero(group)
        reps = induced_irreps(st)
        for seed in range(100):
            report = bochner_check(padded_map(st, gram_values(group, 2, seed)), reps)
            assert report.pd.verdict and report.transforms_verdict


def test_bochner_sign_character():
    st = group_with_zero(cyclic_group_table(2))
    reps = induced_irreps(st)
    report = bochner_check(padded_map(st, np.array([[[1.0]], [[-1.0]]])), reps)
    assert report.pd.verdict and report.transforms_verdict
    witnesses = sorted(w for _, _, w in report.transform_verdicts)
    assert witnesses[0] == pytest.approx(0.0, abs=1e-12)
    assert witnesses[1] == pytest.approx(2.0, abs=1e-12)


def test_bochner_lopsided_map_disagrees_nowhere():
    st = group_with_zero(cyclic_group_table(2))
    reps = induced_irreps(st)
    report = bochner_check(padded_map(st, np.array([[[1.0]], [[2.0]]])), reps)
    assert not report.pd.verdict and not report.transforms_verdict
    # trivial-rep transform is 3 >= 0 but the sign transform is -1
    witnesses = sorted(w for _, _, w in report.transform_verdicts)
    assert witnesses[0] == pytest.approx(-1.0, abs=1e-12)
    assert witnesses[1] == pytest.approx(3.0, abs=1e-12)


def test_bochner_rejects_an_incomplete_or_repeated_family():
    # with [D0.1, D0.1] (the trivial irrep twice) the lopsided map's PD witness
    # of -1 would meet a transform witness of 3 as a decisive disagreement
    st = group_with_zero(cyclic_group_table(2))
    reps = induced_irreps(st)
    trivial = next(r for r in reps if np.allclose(r.characters[: st.table.order - 1], 1))
    f = padded_map(st, np.array([[[1.0]], [[2.0]]]))
    for family in ([trivial, trivial], reps[:1], reps[1:], []):
        with pytest.raises(IncompleteIrrepSet):
            bochner_check(f, family)
    group = s3_group()
    st3 = group_with_zero(group)
    reps3 = induced_irreps(st3)
    big = next(r for r in reps3 if r.dim == 2)
    ones = [r for r in reps3 if r.dim == 1]
    for family in ([big, big] + ones[:1], ones + ones + [big]):
        with pytest.raises(IncompleteIrrepSet):
            bochner_check(padded_map(st3, gram_values(group, 2, 0)), family)


def test_bochner_never_disagrees_on_random_maps():
    group = cyclic_group_table(3)
    st = group_with_zero(group)
    reps = induced_irreps(st)
    for seed in range(1000):
        report = bochner_check(padded_map(st, random_values(group, 1, 5000 + seed)), reps)
        assert report.pd.verdict == report.transforms_verdict
