import numpy as np
import pytest

from semifourier.cxmat import kron
from semifourier.errors import IncompleteIrrepSet, SemigroupMismatch, WrongBasis
from semifourier.harmonic import (
    GROUPOID,
    NATURAL,
    FourierData,
    MatrixMap,
    check_irreps_complete,
    combine,
    conjugated_rep,
    fourier,
    fourier_invert,
    fourier_transform_all,
    from_groupoid,
    induced_irreps,
    invert_to_map,
    plancherel_check,
    schur_residual,
    to_groupoid,
)
from semifourier.maps import choi, choi_invert, convolve
from semifourier.positivity import bochner_check, gram_pd_map, pd_check, random_map, random_unitary
from semifourier.semigroup import SemigroupTable, from_builtin, inverse_structure, matrix_unit_index

from conftest import BUILTINS, get_irreps, get_structure


def random_matrix_map(st, n, seed, basis=NATURAL):
    rng = np.random.default_rng([seed, st.table.order, n])
    vals = rng.standard_normal((st.table.order, n, n)) + 1j * rng.standard_normal(
        (st.table.order, n, n)
    )
    return MatrixMap(st, n, basis, vals)


# --- basis changes -----------------------------------------------------------

def test_to_groupoid_is_identity_on_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    f = random_matrix_map(st, 2, 0)
    assert np.abs(to_groupoid(f).values - f.values).max() == 0.0


def test_to_groupoid_upset_sum(i2):
    f = random_matrix_map(i2, 2, 1)
    tilde = to_groupoid(f)
    id1 = i2.table.index_of("[1>1]")
    id12 = i2.table.index_of("[1>1,2>2]")
    assert np.abs(tilde.values[id1] - (f.values[id1] + f.values[id12])).max() <= 1e-12
    assert np.abs(tilde.values[id12] - f.values[id12]).max() == 0.0


def test_from_groupoid_mobius(i2):
    f = random_matrix_map(i2, 2, 2)
    tilde = to_groupoid(f)
    id1 = i2.table.index_of("[1>1]")
    id12 = i2.table.index_of("[1>1,2>2]")
    back = from_groupoid(tilde)
    assert np.abs(back.values[id1] - (tilde.values[id1] - tilde.values[id12])).max() <= 1e-12


@pytest.mark.parametrize("ref", BUILTINS)
def test_groupoid_roundtrip(ref):
    st = get_structure(ref)
    f = random_matrix_map(st, 2, 3)
    back = from_groupoid(to_groupoid(f))
    assert np.abs(back.values - f.values).max() <= 1e-12


def test_basis_tags_enforced(i2):
    f = random_matrix_map(i2, 2, 4)
    with pytest.raises(WrongBasis):
        from_groupoid(f)
    with pytest.raises(WrongBasis):
        to_groupoid(to_groupoid(f))


# --- induced irreps -----------------------------------------------------------

def test_matrix_units_single_irrep():
    st = get_structure("builtin:matrix_units:3")
    reps = get_irreps("builtin:matrix_units:3")
    assert len(reps) == 1 and reps[0].dim == 3
    for i in range(1, 4):
        for j in range(1, 4):
            e = np.zeros((3, 3))
            e[i - 1, j - 1] = 1.0
            assert np.abs(reps[0].matrices[matrix_unit_index(3, i, j)] - e).max() == 0.0


def test_symmetric_inverse_2_dims():
    reps = get_irreps("builtin:symmetric_inverse:2")
    assert sorted(r.dim for r in reps) == [1, 1, 2]
    assert sum(r.dim**2 for r in reps) == 6


def test_symmetric_inverse_3_dims():
    reps = get_irreps("builtin:symmetric_inverse:3")
    assert sorted(r.dim for r in reps) == [1, 1, 2, 3, 3, 3]
    assert sum(r.dim**2 for r in reps) == 33


def test_symmetric_inverse_4_at_size_cap():
    # the largest supported builtin: 209 elements, classes of rank 1..4 with
    # maximal subgroups up to S4
    st = get_structure("builtin:symmetric_inverse:4")
    assert st.ranks == (4, 6, 4, 1)
    reps = get_irreps("builtin:symmetric_inverse:4")
    assert sorted(r.dim for r in reps) == [1, 1, 2, 3, 3, 4, 4, 4, 6, 6, 8]
    assert sum(r.dim**2 for r in reps) == 208
    f = random_matrix_map(st, 2, 77)
    back = invert_to_map(fourier_transform_all(f, reps))
    assert np.abs(back.values - to_groupoid(f).values).max() <= 1e-9


@pytest.mark.parametrize("ref", BUILTINS)
def test_completeness(ref):
    st = get_structure(ref)
    reps = get_irreps(ref)
    assert sum(r.dim**2 for r in reps) == st.table.order - 1


@pytest.mark.parametrize("ref", BUILTINS)
def test_adjoint_identity(ref):
    st = get_structure(ref)
    for rep in get_irreps(ref):
        for s in st.nonzero:
            assert (
                np.abs(rep.matrices[s].conj().T - rep.matrices[int(st.inv[s])]).max()
                <= 1e-12
            )


def test_homomorphism_exhaustive_i2(i2):
    for rep in get_irreps("builtin:symmetric_inverse:2"):
        for s in i2.nonzero:
            for t in i2.nonzero:
                prod = rep.matrices[s] @ rep.matrices[t]
                if i2.dom[s] == i2.ran[t]:
                    want = rep.matrices[i2.mul(s, t)]
                else:
                    want = np.zeros((rep.dim, rep.dim))
                assert np.abs(prod - want).max() <= 1e-10


def test_homomorphism_sampled_i3(i3):
    rng = np.random.default_rng(9)
    reps = get_irreps("builtin:symmetric_inverse:3")
    nz = list(i3.nonzero)
    for _ in range(500):
        s, t = (int(x) for x in rng.choice(nz, size=2))
        for rep in reps:
            prod = rep.matrices[s] @ rep.matrices[t]
            if i3.dom[s] == i3.ran[t]:
                want = rep.matrices[i3.mul(s, t)]
            else:
                want = np.zeros((rep.dim, rep.dim))
            assert np.abs(prod - want).max() <= 1e-10


def test_block_support(i3):
    # one nonzero d_rho block at (ran, dom) among the class idempotents
    for rep in get_irreps("builtin:symmetric_inverse:3"):
        k = rep.class_index
        idems = i3.class_idempotents(k)
        d = rep.group_rep.dim
        for s in i3.nonzero:
            mat = rep.matrices[s]
            if i3.class_of[s] != k:
                assert np.abs(mat).max() == 0.0
                continue
            a = idems.index(int(i3.ran[s]))
            b = idems.index(int(i3.dom[s]))
            mask = np.zeros_like(mat, dtype=bool)
            mask[a * d : (a + 1) * d, b * d : (b + 1) * d] = True
            off_block = mat[~mask]
            assert off_block.size == 0 or np.abs(off_block).max() == 0.0


# --- Fourier transform -----------------------------------------------------------

def test_fourier_equals_choi_on_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    f = random_matrix_map(st, 2, 5)
    assert np.abs(fourier(f, reps[0]).matrix - choi(f).matrix).max() == 0.0


def test_fourier_zero_map(i2):
    reps = get_irreps("builtin:symmetric_inverse:2")
    zero = MatrixMap(i2, 2, NATURAL, np.zeros((7, 2, 2), dtype=complex))
    for rep in reps:
        assert np.abs(fourier(zero, rep).matrix).max() == 0.0


def test_fourier_natural_and_groupoid_forms_agree(i2):
    # sum_s sigma(s) (x) Phi(s) must match sum_s sigma(floor(s)) (x) PhiT(floor(s))
    reps = get_irreps("builtin:symmetric_inverse:2")
    for seed in range(10):
        f = random_matrix_map(i2, 2, 100 + seed)
        tilde = to_groupoid(f)
        for rep in reps:
            nat_mats = combine(i2.leq_float.T, rep.matrices)  # sigma(s) = sum_{t <= s} sigma(floor(t))
            natural_side = sum(kron(nat_mats[s], f.values[s]) for s in i2.nonzero)
            assert np.abs(fourier(f, rep).matrix - natural_side).max() <= 1e-12
            assert np.abs(fourier(tilde, rep).matrix - fourier(f, rep).matrix).max() <= 1e-12


def test_fourier_semigroup_mismatch(i2):
    reps = get_irreps("builtin:symmetric_inverse:3")
    f = random_matrix_map(i2, 2, 6)
    with pytest.raises(SemigroupMismatch):
        fourier(f, reps[0])


def test_fourier_compares_each_distinct_structure_once(i3, monkeypatch):
    reps = get_irreps("builtin:symmetric_inverse:3")
    copy = inverse_structure(SemigroupTable(i3.table.name, i3.table.element_names, i3.zero, i3.table.table))
    f, calls = random_matrix_map(i3, 2, 6), []
    compare = SemigroupTable.same_semigroup
    monkeypatch.setattr(SemigroupTable, "same_semigroup", lambda a, b: calls.append(b) or compare(a, b))
    data = fourier_transform_all(f, reps)
    assert len(calls) == 1
    # a family drawn partly from an equal copy of the structure is accepted, each structure compared once
    mixed = fourier_transform_all(f, reps[:2] + induced_irreps(copy)[2:])
    assert len(calls) == 3
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(data.transforms, mixed.transforms))


# --- inversion ---------------------------------------------------------------------

def test_inversion_matches_choi_inversion():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    f = random_matrix_map(st, 2, 7)
    data = fourier_transform_all(f, reps)
    c = choi(f)
    for i in range(1, 3):
        for j in range(1, 3):
            e = np.zeros((2, 2))
            e[i - 1, j - 1] = 1.0
            got = fourier_invert(data, matrix_unit_index(2, i, j))
            want = choi_invert(c, e)
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("ref", ["builtin:symmetric_inverse:2", "builtin:symmetric_inverse:3"])
def test_inversion_roundtrip(ref):
    st = get_structure(ref)
    reps = get_irreps(ref)
    for seed in range(100):
        f = random_matrix_map(st, 2, 1000 + seed)
        data = fourier_transform_all(f, reps)
        tilde = to_groupoid(f)
        back = invert_to_map(data)
        assert np.abs(back.values - tilde.values).max() <= 1e-9


def test_inversion_delta_map(i2):
    reps = get_irreps("builtin:symmetric_inverse:2")
    ek = i2.base_idempotents[0]
    vals = np.zeros((7, 2, 2), dtype=complex)
    vals[ek] = np.eye(2)
    delta = MatrixMap(i2, 2, GROUPOID, vals)
    data = fourier_transform_all(delta, reps)
    for s in i2.nonzero:
        want = np.eye(2) if s == ek else np.zeros((2, 2))
        assert np.abs(fourier_invert(data, s) - want).max() <= 1e-10


def test_inversion_requires_complete_set(i2):
    reps = get_irreps("builtin:symmetric_inverse:2")
    f = random_matrix_map(i2, 2, 8)
    data = FourierData(f, tuple(reps[:-1]), tuple(fourier(f, r) for r in reps[:-1]))
    with pytest.raises(IncompleteIrrepSet):
        fourier_invert(data, i2.nonzero[0])


def test_inversion_checks_a_complete_family_once(i2, monkeypatch):
    import semifourier.harmonic as harmonic

    calls = []
    check = harmonic.check_irreps_complete
    monkeypatch.setattr(harmonic, "check_irreps_complete", lambda *a: calls.append(1) or check(*a))
    st = inverse_structure(i2.table)  # a structure that has built no family yet
    f = random_matrix_map(st, 2, 8)
    # the structure's own family is checked once, when induced_irreps builds it; a
    # caller-made family (here a list) once per FourierData, however often it is inverted
    for family, count in ((induced_irreps(st), 1), (list(induced_irreps(st)), 2)):
        data = fourier_transform_all(f, family)
        back = invert_to_map(data)
        for s in st.nonzero:
            assert np.abs(fourier_invert(data, s) - back.values[s]).max() <= 1e-12
        assert np.array_equal(invert_to_map(data).values, back.values)
        assert len(calls) == count


def test_family_missing_a_dclass_is_rejected(i2):
    # the two dimension-1 irreps of I_2, three times over: sum d^2 = |S| - 1,
    # but the class whose irrep has dimension 2 is never covered
    ones = [r for r in get_irreps("builtin:symmetric_inverse:2") if r.dim == 1] * 3
    assert sum(r.dim * r.dim for r in ones) == i2.table.order - 1
    f = random_matrix_map(i2, 2, 8)
    data = FourierData(f, tuple(ones), tuple(fourier(f, r) for r in ones))
    for s in i2.nonzero:
        with pytest.raises(IncompleteIrrepSet):
            fourier_invert(data, s)
    with pytest.raises(IncompleteIrrepSet):
        invert_to_map(data)
    with pytest.raises(IncompleteIrrepSet):
        plancherel_check(f, f, ones)


def test_family_repeating_an_irrep_is_rejected():
    # [D0.0, D0.0] on C_2^0 has sum d^2 = 2 = |D_0|, yet one irrep is missing
    st = get_structure("builtin:cyclic_with_zero:2")
    rep = get_irreps("builtin:cyclic_with_zero:2")[0]
    twice = [rep, rep]
    assert sum(r.dim * r.dim for r in twice) == len(st.dclasses[0])
    f = random_matrix_map(st, 2, 8)
    data = FourierData(f, tuple(twice), tuple(fourier(f, r) for r in twice))
    with pytest.raises(IncompleteIrrepSet):
        check_irreps_complete(st, twice)
    with pytest.raises(IncompleteIrrepSet):
        invert_to_map(data)
    with pytest.raises(IncompleteIrrepSet):
        fourier_invert(data, st.nonzero[0])
    with pytest.raises(IncompleteIrrepSet):
        plancherel_check(f, f, twice)


# --- one checked family per structure and seed ---------------------------------------

@pytest.mark.parametrize("seed", [0, 7919])
def test_induced_irreps_is_the_structures_own_tuple(seed):
    st = inverse_structure(from_builtin("builtin:symmetric_inverse:3"))
    family = induced_irreps(st, seed)
    assert isinstance(family, tuple) and induced_irreps(st, seed) is family
    other = induced_irreps(inverse_structure(st.table), seed)  # one family per structure object
    assert other is not family
    assert all(np.array_equal(a.group_rep.matrices, b.group_rep.matrices) for a, b in zip(family, other))


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4",))
def test_bochner_without_reps_is_bochner_on_the_structures_family(ref, seed):
    st = get_structure(ref)
    for f in (gram_pd_map(st, 2, seed=3), random_matrix_map(st, 2, 3)):
        want = bochner_check(f, induced_irreps(st, seed))
        assert (bochner_check(f) if seed == 0 else bochner_check(f, seed=seed)) == want


def test_caller_made_families_are_checked_where_they_are_used(monkeypatch):
    import semifourier.harmonic as harmonic

    st = get_structure("builtin:symmetric_inverse:3")
    own = induced_irreps(st)
    conj = tuple(conjugated_rep(rep, random_unitary(rep.dim, seed=90 + i)) for i, rep in enumerate(own))
    other = induced_irreps(inverse_structure(st.table))  # kept by another structure object
    f, g = gram_pd_map(st, 2, seed=1), random_matrix_map(st, 2, 5)
    calls = []
    check = harmonic.check_irreps_complete
    monkeypatch.setattr(harmonic, "check_irreps_complete", lambda *a: calls.append(1) or check(*a))
    bochner_check(f, own)
    plancherel_check(f, g, own)
    invert_to_map(fourier_transform_all(f, own))
    assert calls == []  # the structure's own family was checked when it was built
    for family in (conj, list(own), other):
        bochner_check(f, family)
        plancherel_check(f, g, family)
        invert_to_map(fourier_transform_all(f, family))
    assert len(calls) == 9
    mutated = list(own)
    mutated.pop()  # a list can change between calls, so it is never trusted by identity
    for use in (lambda: bochner_check(f, mutated), lambda: plancherel_check(f, g, mutated),
                lambda: invert_to_map(fourier_transform_all(f, mutated))):
        with pytest.raises(IncompleteIrrepSet):
            use()


def test_concurrent_callers_share_one_finished_family():
    # a race may build the family twice, but every caller gets the one tuple kept, complete
    import sys
    import threading

    st = inverse_structure(from_builtin("builtin:symmetric_inverse:3"))
    got, errors = [], []

    def work():
        try:
            got.append(induced_irreps(st, 5))
        except Exception as exc:  # recorded for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(got) == len(threads) and all(family is got[0] for family in got)
    check_irreps_complete(st, list(got[0]))
    kept = [rho for k in range(len(st.dclasses)) for rho in st.class_irreps(k, 5)]
    assert all(rep.group_rep is rho for rep, rho in zip(got[0], kept, strict=True))


def test_kept_irreps_and_conjugators_are_read_only():
    # a write into the structure's kept irreps would move every later PD, Bochner and Fourier
    # result on it; a fresh structure keeps a failure here from reaching other tests
    st = inverse_structure(from_builtin("builtin:symmetric_inverse:3"))
    f = random_map(st, 2, seed=0)
    before = pd_check(f, "blocks")
    for rho in (rho for k in range(len(st.dclasses)) for rho in st.class_irreps(k)):
        with pytest.raises(ValueError):
            np.multiply(rho.matrices, 10, out=rho.matrices)
    for rep in induced_irreps(st):
        with pytest.raises(ValueError):
            rep.matrices[...] = 0
    assert pd_check(f, "blocks") == before
    u = random_unitary(induced_irreps(st)[-1].dim, seed=3)
    conj = conjugated_rep(induced_irreps(st)[-1], u)
    twice = conjugated_rep(conj, u)
    for rep in (conj, twice):
        with pytest.raises(ValueError):
            rep.basis[0, 0] = 0
    want = [t.matrix for t in fourier_transform_all(f, [conj, twice]).transforms]
    u[...] = 0  # the caller's conjugator changes after the call; the reps keep their own copy
    got = [t.matrix for t in fourier_transform_all(f, [conj, twice]).transforms]
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("ref", BUILTINS + ("builtin:symmetric_inverse:4",))
def test_conjugated_family_passes_the_completeness_check(ref):
    # characters are invariant under conjugation, so an equivalent family is complete
    reps = get_irreps(ref)
    conj = [conjugated_rep(rep, random_unitary(rep.dim, seed=70 + i)) for i, rep in enumerate(reps)]
    check_irreps_complete(get_structure(ref), reps)
    check_irreps_complete(get_structure(ref), conj)


def test_inversion_invariant_under_unitary_conjugation(i2):
    reps = get_irreps("builtin:symmetric_inverse:2")
    conj = [
        conjugated_rep(rep, random_unitary(rep.dim, seed=50 + i))
        for i, rep in enumerate(reps)
    ]
    for seed in range(10):
        f = random_matrix_map(i2, 2, 300 + seed)
        base = invert_to_map(fourier_transform_all(f, reps))
        alt = invert_to_map(fourier_transform_all(f, conj))
        assert np.abs(base.values - alt.values).max() <= 1e-9


# --- Plancherel ----------------------------------------------------------------------

def test_plancherel_matrix_units_reduction():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    f = random_matrix_map(st, 2, 9)
    g = random_matrix_map(st, 2, 10)
    lhs, rhs, residual = plancherel_check(f, g, reps)
    assert residual <= 1e-9
    # special case: sum_ij Phi(e_ji) Psi(e_ij) = tr_m(C_Phi C_Psi)
    direct = sum(
        f.values[matrix_unit_index(2, j, i)] @ g.values[matrix_unit_index(2, i, j)]
        for i in (1, 2)
        for j in (1, 2)
    )
    prod = (choi(f).matrix @ choi(g).matrix).reshape(2, 2, 2, 2)
    tr_m = np.einsum("kikj->ij", prod)
    assert np.abs(direct - tr_m).max() <= 1e-12
    # both sides of the identity carry the weight r|G| = 2
    assert np.abs(lhs - 2 * direct).max() <= 1e-12


def test_plancherel_zero(i2):
    reps = get_irreps("builtin:symmetric_inverse:2")
    f = random_matrix_map(i2, 2, 11)
    zero = MatrixMap(i2, 2, NATURAL, np.zeros((7, 2, 2), dtype=complex))
    lhs, rhs, residual = plancherel_check(f, zero, reps)
    assert np.abs(lhs).max() == 0.0 and np.abs(rhs).max() <= 1e-12


@pytest.mark.parametrize("ref", ["builtin:symmetric_inverse:2", "builtin:symmetric_inverse:3"])
def test_plancherel_random(ref):
    st = get_structure(ref)
    reps = get_irreps(ref)
    for seed in range(20):
        f = random_matrix_map(st, 2, 400 + seed)
        g = random_matrix_map(st, 2, 500 + seed)
        _, _, residual = plancherel_check(f, g, reps)
        assert residual <= 1e-9


# --- Schur orthogonality ----------------------------------------------------------------

def test_schur_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    rep = reps[0]
    got = np.einsum("spq,srt->pqrt", rep.matrices[1:], rep.matrices[1:].conj())
    # constant r|G|/d = 2/2 = 1 on the delta pattern
    want = np.einsum("pr,qt->pqrt", np.eye(2), np.eye(2))
    assert np.abs(got - want).max() == 0.0
    assert schur_residual(st, reps) <= 1e-12


@pytest.mark.parametrize(
    "ref", ["builtin:symmetric_inverse:2", "builtin:symmetric_inverse:3"]
)
def test_schur_residual(ref):
    assert schur_residual(get_structure(ref), get_irreps(ref)) <= 1e-8


def test_schur_cross_irrep_vanishes(i2):
    reps = [r for r in get_irreps("builtin:symmetric_inverse:2") if r.class_index == 1]
    assert len(reps) == 2
    cls = list(i2.dclasses[1])
    cross = np.einsum(
        "spq,srt->pqrt", reps[0].matrices[cls], reps[1].matrices[cls].conj()
    )
    assert np.abs(cross).max() <= 1e-8


def test_schur_residual_flags_a_repeated_irrep(i2):
    # a family that lists one irrep twice is not orthogonal: the cross block is (r|G|/d) I
    rep = get_irreps("builtin:symmetric_inverse:2")[-1]
    assert abs(schur_residual(i2, [rep, rep]) - rep.weight / rep.dim) <= 1e-12


# --- convolution theorem ------------------------------------------------------------------

@pytest.mark.parametrize("ref", BUILTINS)
def test_convolution_theorem(ref):
    st = get_structure(ref)
    reps = get_irreps(ref)
    for seed in range(5):
        f = random_matrix_map(st, 2, 600 + seed)
        g = random_matrix_map(st, 2, 700 + seed)
        conv = convolve(f, g)
        for rep in reps:
            lhs = fourier(conv, rep).matrix
            rhs = fourier(f, rep).matrix @ fourier(g, rep).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-9
