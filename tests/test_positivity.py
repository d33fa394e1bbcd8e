import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from semifourier import positivity
from semifourier.errors import (
    Error,
    InternalInconsistency,
    NotARepresentation,
    NotFinite,
    NotPositiveDefinite,
    UnknownMode,
    WrongBasis,
    WrongSemigroup,
)
from semifourier.cxmat import psd_verdict
from semifourier.harmonic import (GROUPOID, NATURAL, MatrixMap, as_groupoid, fourier_transform_all, induced_irreps,
                                  invert_to_map, plancherel_check)
from semifourier.maps import convolve
from semifourier.positivity import (
    PD_MODES,
    bochner_check,
    conjugation_rep,
    cp_check,
    cp_correspondence_probe,
    direct_sum_rep,
    eval_groupoid,
    eval_natural,
    gram_pd_map,
    identity_rep,
    is_unitary_conjugation_rep,
    kraus_map,
    pd_check,
    random_cp_map,
    random_map,
    random_unitary,
    rep_fourier,
    stinespring,
    transpose_map,
    MatrixAlgebraRep,
)
from semifourier.semigroup import SemigroupTable, inverse_structure

from conftest import dense_pi, get_irreps, get_structure, inverse_subsemigroup


# --- evaluation helpers ---------------------------------------------------------

def test_eval_conversions_are_mutually_inverse(i2):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))
    f = MatrixMap(i2, 2, NATURAL, vals)
    gvals = eval_groupoid(f)
    g = MatrixMap(i2, 2, GROUPOID, gvals)
    assert np.abs(eval_natural(g) - f.values).max() <= 1e-12


# --- pd_check --------------------------------------------------------------------

def test_gram_map_pd_all_modes(i2):
    for seed in range(20):
        g = gram_pd_map(i2, 2, seed=seed)
        for mode in PD_MODES:
            assert pd_check(g, mode).verdict, (seed, mode)


def test_transpose_not_pd_all_modes():
    st = get_structure("builtin:matrix_units:2")
    tr = transpose_map(2, st)
    for mode in PD_MODES:
        res = pd_check(tr, mode)
        assert not res.verdict
        assert res.witness == pytest.approx(-1.0, abs=1e-9)


def test_pd_modes_agree_on_random_maps(i2):
    for seed in range(200):
        f = random_map(i2, 2, seed=seed)
        verdicts = {pd_check(f, mode).verdict for mode in PD_MODES}
        assert len(verdicts) == 1


def test_pd_modes_agree_on_structured_maps(i3):
    makers = [
        lambda s: gram_pd_map(i3, 2, seed=s),
        lambda s: random_map(i3, 2, seed=s),
    ]
    for seed in range(10):
        for make in makers:
            f = make(seed)
            verdicts = {pd_check(f, mode).verdict for mode in PD_MODES}
            assert len(verdicts) == 1


def test_pd_blocks_reports_per_class(i2):
    res = pd_check(gram_pd_map(i2, 2, seed=1), "blocks")
    assert res.per_class is not None
    assert [k for k, _, _ in res.per_class] == [0, 1]
    assert all(ok for _, ok, _ in res.per_class)


def test_pd_check_failures_are_typed(i2):
    with pytest.raises(UnknownMode):
        pd_check(gram_pd_map(i2, 1, seed=0), "dense")
    # a map refuses non-finite values when it is made, before any eigensolve sees them
    vals = gram_pd_map(i2, 1, seed=0).values.copy()
    vals[1, 0, 0] = np.nan
    with pytest.raises(NotFinite):
        MatrixMap(i2, 1, GROUPOID, vals)
    with pytest.raises(NotFinite):
        psd_verdict([np.diag([1.0, np.inf])])
    # both stay ValueErrors for callers that catch those
    assert issubclass(UnknownMode, Error) and issubclass(UnknownMode, ValueError)
    assert issubclass(NotFinite, Error) and issubclass(NotFinite, ValueError)


# --- bochner_check -----------------------------------------------------------------

def test_bochner_reduces_to_choi_on_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    for seed in range(20):
        f = random_cp_map(2, 2, kraus_count=2, seed=seed, structure=st)
        report = bochner_check(f, reps)
        cp_ok, cp_witness = cp_check(f)
        assert report.transforms_verdict == cp_ok
        assert report.transforms_witness == pytest.approx(cp_witness, abs=1e-12)
        assert report.pd.verdict and report.agrees


def test_bochner_kraus_maps_pd(i2):
    # Kraus maps only exist on matrix units; on I2 use gram maps instead
    reps = get_irreps("builtin:symmetric_inverse:2")
    for seed in range(50):
        report = bochner_check(gram_pd_map(i2, 2, seed=seed), reps)
        assert report.pd.verdict and report.transforms_verdict


def test_bochner_transpose_witness():
    st = get_structure("builtin:matrix_units:2")
    reps = get_irreps("builtin:matrix_units:2")
    report = bochner_check(transpose_map(2, st), reps)
    assert not report.pd.verdict and not report.transforms_verdict
    assert report.transforms_witness == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize(
    "ref",
    [
        "builtin:matrix_units:2",
        "builtin:symmetric_inverse:2",
        "builtin:symmetric_inverse:3",
        "builtin:cyclic_with_zero:3",
    ],
)
def test_bochner_biconditional_random_suite(ref):
    st = get_structure(ref)
    reps = get_irreps(ref)
    for seed in range(25):
        for f in (gram_pd_map(st, 2, seed=seed), random_map(st, 2, seed=seed)):
            report = bochner_check(f, reps, tol=1e-8)
            assert report.agrees


def shifted_gram_map(st, shift, scale=1.0):
    """scale * (G - shift * eps): the seed-0 Gram map less shift times I at each idempotent.

    eps's groupoid PD matrix is the identity, so the witness drops by exactly shift.
    """
    g = gram_pd_map(st, 2, seed=0)
    eps = np.zeros_like(g.values)
    eps[list(st.idempotents)] = np.eye(2)
    return MatrixMap(st, 2, GROUPOID, scale * (g.values - shift * eps))


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_bochner_at_the_psd_boundary_never_raises(i3, scale):
    # groupoid witness -delta: the PD and transform verdicts may split here, but
    # each is judged against its own ||.||_2, so the split lies within the band
    reps = get_irreps("builtin:symmetric_inverse:3")
    lam = pd_check(gram_pd_map(i3, 2, seed=0), "groupoid").witness
    for delta in np.logspace(-12, -6, 121):
        report = bochner_check(shifted_gram_map(i3, lam + delta, scale), reps)
        assert report.pd.witness == pytest.approx(-delta * scale, abs=1e-13 * scale)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_bochner_far_from_the_boundary_disagreement_raises(i3, monkeypatch, scale):
    # a transform family that returns the transforms of -f: the map is PD with
    # witness 1 but every transform is negative definite, far outside the band
    f = shifted_gram_map(i3, -1.0, scale)
    assert pd_check(f, "groupoid").witness >= 0.5 * scale
    real = positivity.fourier_transform_all

    def negated(g, reps):
        return real(MatrixMap(g.structure, g.dim, g.basis, -g.values), reps)

    monkeypatch.setattr(positivity, "fourier_transform_all", negated)
    with pytest.raises(InternalInconsistency):
        bochner_check(f, get_irreps("builtin:symmetric_inverse:3"))


def test_bochner_on_the_one_element_semigroup_reports_zero_witnesses():
    # {z} has no irrep; the empty worst transform witness is psd_verdict's 0.0, not inf
    st = inverse_structure(SemigroupTable("z", ("z",), 0, [[0]]))
    report = bochner_check(MatrixMap(st, 2, GROUPOID, np.zeros((1, 2, 2))))
    assert report.transform_verdicts == () and report.transforms_verdict and report.agrees
    assert report.transforms_witness == 0.0 and report.pd.witness == 0.0


# --- scale covariance ------------------------------------------------------------------

SCALE_REFS = (
    "builtin:symmetric_inverse:2",
    "builtin:symmetric_inverse:3",
    "builtin:matrix_units:2",
    "builtin:matrix_units:3",
    "builtin:matrix_units:4",
    "builtin:cyclic_with_zero:5",
)


def scale_structure(data):
    """A structure of SCALE_REFS or an inverse subsemigroup of I_2-I_4 on drawn generators, with its irreps."""
    ref = data.draw(hst.sampled_from(SCALE_REFS + ("sub",)))
    if ref != "sub":
        return get_structure(ref), get_irreps(ref)
    degree = data.draw(hst.integers(2, 4))
    order = get_structure(f"builtin:symmetric_inverse:{degree}").table.order
    gens = data.draw(hst.lists(hst.integers(1, order - 1), min_size=1, max_size=3))
    st = inverse_structure(inverse_subsemigroup(degree, gens))
    return st, induced_irreps(st)


def scale_input(st, kind, n, seed):
    m = st.matrix_units_size
    if kind == "gram":
        return gram_pd_map(st, n, seed=seed)
    if kind == "kraus" and m:
        return random_cp_map(m, n, kraus_count=1 + seed % 3, seed=seed, structure=st)
    if kind == "transpose" and m:
        return transpose_map(m, st)
    return random_map(st, n, seed=seed)


def scaled(f, c):
    return MatrixMap(f.structure, f.dim, f.basis, c * f.values)


def scaled_verdicts(f, reps, c):
    """Every verdict of c f: PD in each mode, Bochner, the dilation's dimension, CP."""
    f = scaled(f, c)
    report = bochner_check(f, reps)
    try:
        dim = stinespring(as_groupoid(f)).dim
    except NotPositiveDefinite:
        dim = None
    cp = cp_check(f)[0] if f.structure.matrix_units_size else None
    pd = tuple(pd_check(f, mode).verdict for mode in PD_MODES)
    return pd, report.pd.verdict, report.transforms_verdict, report.agrees, dim, cp


@settings(max_examples=60, deadline=None)
@given(
    data=hst.data(),
    kind=hst.sampled_from(["random", "gram", "kraus", "transpose"]),
    n=hst.integers(1, 2),
    seed=hst.integers(0, 99),
    exponent=hst.floats(-12.0, 12.0),
)
def test_verdicts_do_not_change_with_scale(data, kind, n, seed, exponent):
    st, reps = scale_structure(data)
    f = scale_input(st, kind, n, seed)
    assert scaled_verdicts(f, reps, 10.0**exponent) == scaled_verdicts(f, reps, 1.0)


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 2), seed=hst.integers(0, 99), exponent=hst.floats(-12.0, 12.0))
def test_residuals_over_the_map_scale_stay_within_the_acceptance_tolerances(data, n, seed, exponent):
    # the acceptance criteria pin inversion, convolution and Plancherel at 1e-9 and
    # the Stinespring reconstruction at 1e-8 on unit-scale maps; c f meets them
    # once each residual is divided by the scale of the maps it is made of
    st, reps = scale_structure(data)
    c = 10.0**exponent
    f, g = (scaled(random_map(st, n, seed=seed + i), c) for i in (0, 1))
    sf, sg = (np.abs(x.values).max() for x in (f, g))
    ft_f, ft_g = (fourier_transform_all(x, reps) for x in (f, g))
    assert np.abs(invert_to_map(ft_f).values - as_groupoid(f).values).max() <= 1e-9 * sf
    ft_conv = fourier_transform_all(convolve(f, g), reps)
    for t, a, b in zip(ft_conv.transforms, ft_f.transforms, ft_g.transforms):
        assert np.linalg.norm(t.matrix - a.matrix @ b.matrix) <= 1e-9 * sf * sg
    assert plancherel_check(f, g, reps)[2] <= 1e-9 * sf * sg
    gram = scaled(gram_pd_map(st, n, seed=seed), c)
    assert stinespring(gram).reconstruction_residual <= 1e-8 * np.abs(gram.values).max()


# --- stinespring ---------------------------------------------------------------------

def test_stinespring_identity_map():
    st = get_structure("builtin:matrix_units:2")
    ident = kraus_map([np.eye(2)], st)
    dil = stinespring(MatrixMap(st, 2, GROUPOID, ident.values))
    assert dil.reconstruction_residual <= 1e-8
    assert dil.identity_residual <= 1e-8  # V*V = Phi(I) = I
    assert dil.multiplicativity_residual <= 1e-10
    assert dil.star_residual <= 1e-10


def test_stinespring_gram_maps(i2):
    n = 2
    for seed in range(20):
        g = gram_pd_map(i2, n, seed=seed)
        dil = stinespring(g)
        assert dil.reconstruction_residual <= 1e-8
        assert dil.identity_residual <= 1e-8
        assert dil.multiplicativity_residual <= 1e-10
        assert dil.star_residual <= 1e-10
        assert dil.dim <= (i2.table.order - 1) * n


def test_stinespring_rejects_transpose():
    st = get_structure("builtin:matrix_units:2")
    tr = transpose_map(2, st)
    with pytest.raises(NotPositiveDefinite):
        stinespring(MatrixMap(st, 2, GROUPOID, tr.values))


def test_stinespring_requires_groupoid_basis(i2):
    with pytest.raises(WrongBasis):
        stinespring(random_map(i2, 2, seed=0))


def test_stinespring_empty_quotient(i2):
    # the zero map keeps no Gram eigenvalue: a 0-dimensional dilation
    zero = MatrixMap(i2, 2, GROUPOID, np.zeros((i2.table.order, 2, 2)))
    dil = stinespring(zero)
    assert dil.dim == 0
    assert dil.v.shape == (0, 2) and dense_pi(dil).shape == (i2.table.order, 0, 0)
    assert dil.reconstruction_residual == 0.0
    assert dil.multiplicativity_residual == 0.0 and dil.star_residual == 0.0


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e10, 1e12])
def test_stinespring_large_scale(i2, scale):
    # the keep rule and the reconstruction residual are judged against the
    # map's own scale, so a PD map times any c > 0 dilates to the same dimension
    g = gram_pd_map(i2, 2, seed=0)
    big = MatrixMap(i2, 2, GROUPOID, scale * g.values)
    dil = stinespring(big)
    assert dil.dim == stinespring(g).dim
    assert dil.reconstruction_residual <= 1e-8 * np.abs(big.values).max()
    assert dil.multiplicativity_residual <= 1e-10 and dil.star_residual <= 1e-10


def test_stinespring_identity_element_value(i2):
    g = gram_pd_map(i2, 2, seed=5)
    dil = stinespring(g)
    phi_one = g.values[list(i2.idempotents)].sum(axis=0)
    assert np.abs(dil.v.conj().T @ dil.v - phi_one).max() <= 1e-8


# --- cp_check ---------------------------------------------------------------------------

def test_cp_identity():
    st = get_structure("builtin:matrix_units:2")
    ok, witness = cp_check(kraus_map([np.eye(2)], st))
    assert ok and witness >= -1e-12


def test_cp_transpose():
    st = get_structure("builtin:matrix_units:2")
    ok, witness = cp_check(transpose_map(2, st))
    assert not ok and witness == pytest.approx(-1.0, abs=1e-12)


def test_cp_kraus_built_maps():
    st = get_structure("builtin:matrix_units:2")
    for seed in range(100):
        ok, _ = cp_check(random_cp_map(2, 2, kraus_count=3, seed=seed, structure=st))
        assert ok


def test_cp_requires_matrix_units(i2):
    with pytest.raises(WrongSemigroup):
        cp_check(random_map(i2, 2, seed=1))


@pytest.mark.parametrize("ref", ["builtin:cyclic_with_zero:4", "builtin:matrix_units:3"])
def test_map_generators_require_matrix_units_of_their_size(ref):
    # C_4^0 is no matrix-unit semigroup, and matrix_units:3 has the wrong size for m = 2
    st = get_structure(ref)
    with pytest.raises(WrongSemigroup):
        transpose_map(2, st)
    with pytest.raises(WrongSemigroup):
        kraus_map([np.eye(2)], st)
    assert transpose_map(2).structure.same_semigroup(get_structure("builtin:matrix_units:2"))


# --- pd vs cp on matrix units ------------------------------------------------------------

def test_pd_equals_cp_on_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    for seed in range(500):
        if seed % 2 == 0:
            f = random_cp_map(2, 2, kraus_count=2, seed=seed, structure=st)
        else:
            f = random_map(st, 2, seed=seed)
        assert pd_check(f, "natural", tol=1e-8).verdict == cp_check(f, tol=1e-8)[0]
    tr = transpose_map(2, st)
    assert pd_check(tr, "natural").verdict == cp_check(tr)[0] == False


# --- representations and the conjugation criterion ----------------------------------------

def test_identity_rep_detected():
    ok, u, residual = is_unitary_conjugation_rep(identity_rep(2))
    assert ok and residual <= 1e-9
    assert np.abs(u - np.eye(2)).max() <= 1e-9


def test_direct_sum_rejected():
    assert not is_unitary_conjugation_rep(direct_sum_rep(2, copies=2))[0]
    assert not is_unitary_conjugation_rep(direct_sum_rep(2, copies=1, pad=1))[0]


@pytest.mark.parametrize("m", [2, 3])
def test_conjugation_recovered_up_to_phase(m):
    for seed in range(25):
        w = random_unitary(m, seed=seed)
        ok, u, residual = is_unitary_conjugation_rep(conjugation_rep(w))
        assert ok and residual <= 1e-9
        # compare after aligning global phase on the largest entry
        idx = np.unravel_index(np.abs(w).argmax(), w.shape)
        phase = u[idx] / w[idx]
        assert abs(abs(phase) - 1.0) <= 1e-9
        assert np.abs(u - phase * w).max() <= 1e-9


def test_non_representation_rejected():
    mats = np.zeros((2, 2, 2, 2), dtype=complex)
    mats[0, 0] = np.eye(2)  # rho(e_11) = I breaks rho(e_11) rho(e_12) = rho(e_12)
    with pytest.raises(NotARepresentation):
        is_unitary_conjugation_rep(MatrixAlgebraRep(2, 2, mats))


def test_nonunitary_conjugation_rejected():
    t = np.array([[1.0, 1.0], [0.0, 1.0]])
    tinv = np.linalg.inv(t)
    base = identity_rep(2)
    mats = np.einsum("ab,ijbc,cd->ijad", t, base.matrices, tinv)
    rho = MatrixAlgebraRep(2, 2, mats)
    ok, _, _ = is_unitary_conjugation_rep(rho)
    assert not ok


def test_rep_fourier_matches_choi_for_identity_rep():
    from semifourier.maps import choi

    st = get_structure("builtin:matrix_units:2")
    f = random_map(st, 2, seed=3)
    t = rep_fourier(identity_rep(2), f)
    assert np.abs(t.matrix - choi(f).matrix).max() == 0.0


def test_probe_identity_rep_perfect():
    st = get_structure("builtin:matrix_units:2")
    report = cp_correspondence_probe(identity_rep(2), st, trials=100, seed=0)
    assert report.perfect


def test_probe_conjugation_rep_perfect():
    st = get_structure("builtin:matrix_units:2")
    rho = conjugation_rep(random_unitary(2, seed=7))
    report = cp_correspondence_probe(rho, st, trials=100, seed=1)
    assert report.perfect


def test_probe_direct_sum_reports_only():
    # the doubled rep yields a block-diagonal transform, so empirical agreement
    # is expected; the probe records it without asserting the criterion
    st = get_structure("builtin:matrix_units:2")
    report = cp_correspondence_probe(direct_sum_rep(2, copies=2), st, trials=60, seed=2)
    assert report.trials == 60
    assert report.agreements + len(report.disagreements) == report.trials


# --- generators -----------------------------------------------------------------------------

def test_kraus_identity_gives_identity_map():
    st = get_structure("builtin:matrix_units:2")
    f = kraus_map([np.eye(2)], st)
    from semifourier.maps import choi_invert, choi

    c = choi(f)
    rng = np.random.default_rng(35)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(choi_invert(c, x) - x).max() <= 1e-12


def test_gram_maps_pd_100_seeds(i2):
    for seed in range(100):
        assert pd_check(gram_pd_map(i2, 2, seed=seed), "groupoid").verdict


def test_random_unitary_is_unitary():
    for seed in range(5):
        u = random_unitary(3, seed=seed)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-12
