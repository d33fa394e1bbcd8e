"""Positive definiteness, Bochner verification, Stinespring dilation, CP
checks, the unitary-conjugation criterion, and seeded map generators.

A map is positive definite when the block matrix of its values on products
s^-1 s' is PSD; the groupoid and per-class characterizations assemble the
same verdict from groupoid products.  Bochner ties the verdict on the
groupoid-side map to PSD-ness of every Fourier transform over the induced
unitary family, and the Stinespring dilation realizes any such map as
V^dagger pi(.) V via a GNS quotient, with pi induced from the maximal
subgroups: one block pi_k(g) per group element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cxmat import DEFAULT_TOL, BlockTensor, block_matrix, bound, hermitized, psd_verdict
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotARepresentation,
    NotFinite,
    NotPositiveDefinite,
    ReconstructionFailure,
    UnknownMode,
    WrongBasis,
    WrongSemigroup,
)
from .grouprep import MAX_GROUP_ORDER
from .harmonic import (
    GROUPOID,
    NATURAL,
    InducedRep,
    MatrixMap,
    as_groupoid,
    combine,
    fourier_transform_all,
    grid_transforms,
    induced_irreps,
)
from .maps import choi_layout, map_from_choi, matrix_units_size
from .semigroup import InverseStructure, build_matrix_units, inverse_structure

PD_MODES = ("natural", "groupoid", "blocks")
# absolute bound on the unitary defect of the recovered U and on the residual
# of rho(e_ij) = U e_ij U^dagger in is_unitary_conjugation_rep
_CONJUGATION_TOL = 1e-6


# --- evaluation of the stored linear map on either basis --------------------

def eval_natural(f: MatrixMap) -> np.ndarray:
    """Values of the stored linear map on natural elements: Lambda(s).

    For a groupoid-tagged map this sums the stored groupoid values over the
    down-set of s (since s = sum_{t <= s} floor(t)); on a discrete order that
    down-set is {s}, so either basis's values are returned as they are.
    """
    if f.basis == NATURAL or f.structure.discrete_order:
        return f.values
    return combine(f.structure.leq_float.T, f.values)


def eval_groupoid(f: MatrixMap) -> np.ndarray:
    """Values of the stored linear map on groupoid elements: Lambda(floor(s))."""
    if f.basis == GROUPOID or f.structure.discrete_order:
        return f.values
    return combine(f.structure.mobius_float.T, f.values)


def _natural_spectra(f: MatrixMap) -> list[tuple[int, np.ndarray]]:
    """(d_rho, ascending eigenvalues of the rho-block) of the Hermitized natural matrix.

    The rho-block is (Q_rho (x) I_n)^dagger N (Q_rho (x) I_n) with Q_rho from
    ``InverseStructure.unit_isotypic_bases``; the spectrum of N's Hermitized
    form is the union of the block spectra, each repeated d_rho times.  Since
    N = zeta^T G zeta (x) I_n with G the groupoid matrix, block diagonal over
    the R-classes, the rho-block is sum_e W_rho[R_e]^dagger G_e W_rho[R_e]
    with W_rho from ``unit_isotypic_lifts``.  The R-classes of a D-class are
    the rows grid[a] of its grid and share one G_e (``_class_grams``), so G_e
    is gathered once per D-class and only the rows W_rho[grid[a]] change.
    Only the blocks are Hermitized.
    """
    st, n = f.structure, f.dim
    lifts = st.unit_isotypic_lifts
    vals, ij = eval_groupoid(f), np.arange(n)
    sums = [0.0] * len(lifts)                                   # (m_rho, n n m_rho) each
    for grid, prod in zip(st.class_grids, st.class_products):
        size = grid[0].size
        # G_e[((b, h), i), ((c, g), j)] laid out as (size * n * n, size), (c, g) last
        g = vals[prod.reshape(size, 1, 1, size), ij[:, None, None], ij[:, None]].reshape(-1, size)
        for members in grid.reshape(-1, size):
            for i, (_, w) in enumerate(lifts):
                w = w[members]                                  # W_rho[R_e]: (size, m_rho)
                right = (g @ w).reshape(size, -1)               # G_e W_rho[R_e], rows (b, h)
                sums[i] += w.conj().T @ right
    out = []
    for d, w in lifts:  # each sum is dropped once its block is formed
        m, b = w.shape[1], sums.pop(0)
        b = b.reshape(m, n, n, m).transpose(0, 1, 3, 2).reshape(m * n, m * n)
        out.append((d, np.linalg.eigvalsh(hermitized(b))))
    return out


def _class_grams(f: MatrixMap) -> list[np.ndarray]:
    """Per D-class, the block [Lambda(floor(s^-1) floor(t))] over one of its R-classes.

    floor(s^-1) floor(t) = floor(s^-1 t) if ran s = ran t and 0 otherwise, so
    the groupoid PD matrix is block diagonal over the R-classes {s : ran s = e},
    the rows grid[a] of each class's grid.  s^-1 t is ``class_products[k]``
    whatever a is, so one block, over s = grid[a, b, h] in (b, h) order, is
    that of every R-class of the class.
    """
    vals = eval_groupoid(f)
    return [_class_gram(vals, p) for p in f.structure.class_products]


def _class_gram(vals: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """The block of ``_class_grams`` of one class, from its ``class_products`` entry."""
    return block_matrix(vals, prod.reshape(prod.shape[0] * prod.shape[1], -1))


def _class_verdicts(f: MatrixMap, tol: float) -> list[tuple[bool, float, float, float]]:
    """``psd_verdict`` of each D-class's block of ``_class_grams``, in class order.

    The block of class k is [Lambda(grid[b, c, h^-1 g])] over rows (b, h) and
    columns (c, g): a group convolution on G_k, so for the unitary irreps rho
    of ``class_irreps(k)`` it is unitarily equivalent to the direct sum of the
    class Fourier blocks FT(rho) (x) I_(d_rho) (``grid_transforms``;
    Gatermann-Parrilo symmetry reduction), and its Hermitized spectrum is
    theirs, each repeated d_rho times.  It holds Lambda(x) at (s, t) and
    Lambda(x^-1) at (t, s) for x = s^-1 t, which runs over all of D_k, so its
    defect and scale are read from the class's values and their mirrors,
    exactly.  A trivial group, whose one block is the class block itself, and
    a group above ``MAX_GROUP_ORDER`` are judged on the class block.
    """
    st, vals, out = f.structure, eval_groupoid(f), []
    for k, (grid, prod, group) in enumerate(zip(st.class_grids, st.class_products, st.class_groups)):
        if not 1 < group.order <= MAX_GROUP_ORDER:
            out.append(psd_verdict([_class_gram(vals, prod)], tol))
            continue
        x = vals[grid.transpose(2, 0, 1)]          # Lambda(grid[a, b, g]) at [g, a, b]
        mirror = x[group.inv].swapaxes(1, 2)       # Lambda(grid[a, b, g]^-1) = Lambda(grid[b, a, g^-1])
        # rho is unitary, so the transforms of the Hermitized values are the Hermitized transforms
        h = (x + mirror.conj().swapaxes(-1, -2)) / 2.0
        irreps = st.class_irreps(k)
        entries = np.concatenate([rho.matrices.reshape(group.order, -1) for rho in irreps], axis=1).T
        transforms = grid_transforms(entries, [rho.dim for rho in irreps], h)
        w = np.concatenate([np.linalg.eigvalsh(t).ravel() for t in transforms])
        out.append(psd_verdict([x], tol, [np.sort(w)], mirrors=[mirror]))
    return out


@dataclass(frozen=True)
class PDSlice:
    """Verdict of one positive-definiteness characterization."""

    mode: str
    verdict: bool
    witness: float          # min eigenvalue (worst class in blocks mode)
    hermitian_defect: float
    norm: float             # ||.||_2 the witness is judged against (largest class in blocks mode)
    per_class: tuple[tuple[int, bool, float], ...] | None = None


def pd_check(f: MatrixMap, mode: str = "natural", tol: float = DEFAULT_TOL) -> PDSlice:
    """Positive-definiteness of the linear map f denotes, one mode at a time.

    natural: PSD test of N = [Lambda(s^-1 s')], the definition's own check,
    without forming N.  Left multiplication by a unit g permutes the nonzero
    elements and keeps s^-1 s', so by Schur's lemma the Hermitized N splits
    unitarily into one block per irrep rho of the unit group
    (Gatermann-Parrilo symmetry reduction), each repeated d_rho times.  Each
    block is assembled from the groupoid R-class blocks, since
    s = sum_{a <= s} floor(a) (Steinberg 2006), so the witness and ||.||_2
    are the dense ones up to rounding.  N holds Lambda(u) at (s, s') and
    Lambda(u^-1) at (s', s) for u = s^-1 s', so its hermitian defect is
    max |Lambda(u) - Lambda(u^-1)^dagger| over the |S| values; the defect
    and the scale equal the dense scans exactly.  Without an identity, or
    with a unit group above order 48, the group is trivial: one block.  When
    the natural order is discrete, floor(s) = s and N is the groupoid
    matrix, so it is judged as in groupoid mode.
    groupoid: PSD test of [Lambda(floor(s^-1) floor(s'))].  That matrix is
    block diagonal over the R-classes {s : ran s = e}, the rows grid[a] of
    each D-class's grid, and in grid order every R-block of one class is the
    same matrix, since s^-1 s' = p_b h^-1 g p_c^-1 whatever a is; so each
    class is judged by one block (``_class_grams``).  The verdict and defect
    are those of the whole matrix, and the witness is its min eigenvalue up
    to rounding.
    blocks: the groupoid matrix restricted to each D-class separately (it is
    block diagonal across classes), each class judged on its Fourier blocks
    over its maximal subgroup (``_class_verdicts``).  The defect is the dense
    one exactly, and the witness and ||.||_2 are up to rounding.
    """
    if mode not in PD_MODES:
        raise UnknownMode(f"unknown pd mode {mode!r}")
    st = f.structure
    # a natural order with comparable pairs besides s <= s (zeta != I)
    if mode == "natural" and not st.discrete_order:
        # the entries of N: Lambda(u) at each nonzero u = ran(u)^-1 u, and 0 = Lambda(z)
        vals = eval_natural(f)
        spectrum = np.sort(np.concatenate([w for _, w in _natural_spectra(f)]), kind="stable")
        return PDSlice(mode, *psd_verdict([vals], tol, [spectrum], mirrors=[vals[st.inv]]))
    if mode == "blocks":
        per = _class_verdicts(f, tol)  # one per class, in class order
        verdict = all(ok for ok, _, _, _ in per)
        worst = min((lo for _, lo, _, _ in per), default=0.0)  # psd_verdict's empty default
        worst_defect, norm = (max((p[i] for p in per), default=0.0) for i in (2, 3))
        return PDSlice(mode, verdict, float(worst), worst_defect, norm,
                       tuple((k, ok, lo) for k, (ok, lo, _, _) in enumerate(per)))
    return PDSlice(mode, *psd_verdict(_class_grams(f), tol))


# --- Bochner ----------------------------------------------------------------

@dataclass(frozen=True)
class BochnerReport:
    pd: PDSlice
    transform_verdicts: tuple[tuple[str, bool, float], ...]  # (irrep id, psd, witness)
    transforms_verdict: bool
    transforms_witness: float

    @property
    def agrees(self) -> bool:
        return self.pd.verdict == self.transforms_verdict


def bochner_check(
    f: MatrixMap,
    reps: list[InducedRep] | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> BochnerReport:
    """Verify the biconditional: groupoid-side map PD iff all transforms PSD.

    The Fourier transforms are those of f itself; the PD verdict is taken on
    the groupoid-side coefficients, exactly as the biconditional states it.
    A disagreement with both witnesses beyond 10 tol max(||G||_2, ||FT||_2),
    the norms the verdicts were judged against, raises InternalInconsistency
    (a bug signal); an incomplete family passed as reps, IncompleteIrrepSet.
    Without reps the structure's own family at seed is used (``induced_irreps``).
    """
    tilde = as_groupoid(f)
    data = fourier_transform_all(tilde, induced_irreps(f.structure, seed) if reps is None else reps)
    data.checked_complete  # raises IncompleteIrrepSet unless the family is complete
    grams = _class_grams(tilde)  # pd_check(tilde, "groupoid"), keeping its class blocks and spectra
    spectra = [np.linalg.eigvalsh(hermitized(g)) for g in grams]
    pd = PDSlice("groupoid", *psd_verdict(grams, tol, spectra))
    per, norms = [], [pd.norm]
    for rep, t in zip(data.reps, data.transforms):
        # on a class with a trivial maximal subgroup the one transform is the class block
        # itself (matrix units: the Choi matrix), whose spectrum is then not computed twice
        k = rep.class_index
        same = np.array_equal(t.matrix, grams[k])
        ok, lo, _, norm2 = psd_verdict([t.matrix], tol, [spectra[k]] if same else None)
        per.append((rep.irrep_id, ok, lo))
        norms.append(norm2)
    worst = min((lo for _, _, lo in per), default=0.0)  # psd_verdict's empty default
    report = BochnerReport(pd, tuple(per), all(ok for _, ok, _ in per), float(worst))
    if pd.verdict != report.transforms_verdict:
        band = bound(10.0 * tol, max(norms))
        if min(abs(pd.witness), abs(report.transforms_witness)) > band:
            raise InternalInconsistency(
                f"Bochner disagreement: pd witness {pd.witness:.3e}, "
                f"transform witness {report.transforms_witness:.3e}"
            )
    return report


# --- Stinespring dilation ----------------------------------------------------

@dataclass(frozen=True)
class Dilation:
    """GNS dilation data: Phi(floor(s)) = V^dagger pi(floor(s)) V.

    The dilation space is the direct sum of the summands H_e over the nonzero
    idempotents e, in ascending order of e; H_e has dimension dims[e] and
    starts at offsets[e].  pi(s) sends H_dom(s) to H_ran(s) and kills every
    other summand, so only that block is stored.  The summands of one D-class
    k are copies of one space of dimension d_k, and the element at
    grid[a, b, g] of the class's grid has pi(p_a g p_b^-1) = pi_k(g)
    (Steinberg 2006), so ``pi[k]`` holds the |G_k| blocks pi_k(g), one
    (|G_k|, d_k, d_k) stack per class, and ``block(s)`` reads pi_k(g(s)).
    """

    structure: InverseStructure = field(repr=False)
    dim: int
    v: np.ndarray                     # (dim, n)
    pi: tuple[np.ndarray, ...]        # per class k, (|G_k|, d_k, d_k): pi_k(g) in the g order of its grid
    dims: np.ndarray                  # (|S|,) d_e at each nonzero idempotent e, else 0
    offsets: np.ndarray               # (|S|,) start of H_e at each nonzero idempotent e
    reconstruction_residual: float
    identity_residual: float          # || V^dagger V - Phi(identity) ||
    multiplicativity_residual: float
    star_residual: float

    def block(self, s: int) -> np.ndarray:
        """pi(s) from H_dom(s) to H_ran(s): a d_ran(s) x d_dom(s) matrix, 0 x 0 at z."""
        st = self.structure
        if s == st.zero:
            return np.zeros((0, 0), dtype=complex)
        pi = self.pi[st.class_of[s]]
        return pi[st.grid_index[s] % len(pi)]


def stinespring(f: MatrixMap, tol: float = DEFAULT_TOL) -> Dilation:
    """Dilate a positive definite groupoid-basis map via the GNS quotient.

    The Gram matrix of the sesquilinear form is block diagonal over the
    ran-idempotents, since floor(s^-1) floor(t) = 0 unless ran(s) = ran(t).
    The block G_e is over the R-class {s : ran(s) = e}; eigenpairs above
    tol * ||G||_2 span the summand H_e of the quotient.  The R-classes of a
    D-class share one block (``_class_grams``), so one eigendecomposition per
    class spans H_{e_k} over its base R-class grid[0], and H_e is a copy of it.
    pi is induced from the maximal subgroups (Steinberg 2006):
    pi(p_a g p_b^-1) = pi_k(g) = sum over u in R_{e_k} of coords(u) (x) lift(g^-1 u),
    with g^-1 u read at ``class_products[k][0, g]``.
    V is the class of (identity (x) x); its H_e part V_e is the coordinate map
    of floor(e) = p_e floor(p_e^-1), read at p_e^-1 in grid[0].  All invariants
    are verified a posteriori, class by class, and their residuals recorded:
    star and multiplicativity on pi_k with G_k's own inverse and product
    tables, since g(s^-1) = g(s)^-1 and pi(s) pi(t) is pi_k(g(s) g(t)) when
    dom(s) = ran(t) and the zero block otherwise; the reconstruction
    V_a^dagger pi_k(g) V_b = Phi(floor(p_a g p_b^-1)) as two products per class.
    """
    if f.basis != GROUPOID:
        raise WrongBasis("stinespring expects a groupoid-basis map")
    st = f.structure
    n, at = f.dim, st.grid_index
    grams = _class_grams(f)
    stacked = [np.linalg.eigh(hermitized(g)) for g in grams]
    ok, lo, defect, norm2 = psd_verdict(grams, tol, [w for w, _ in stacked])
    if not ok:
        raise NotPositiveDefinite(
            f"map is not positive definite (min eig {lo:.3e}, hermitian defect {defect:.3e})"
        )
    dims = np.zeros(st.table.order, dtype=int)           # d_e = d_k at each idempotent e of class k
    pis, v_at = [], {}
    recon = star = mult = 0.0
    for grid, prod, group, gram, (w, u) in zip(st.class_grids, st.class_products, st.class_groups,
                                                grams, stacked):
        # eigh's eigenvalues ascend, so those kept are a suffix
        first = int(w.searchsorted(bound(tol, norm2), side="right"))
        d, (r, _, size) = len(w) - first, grid.shape
        root, u = np.sqrt(w[first:]), u[:, first:]
        # per u in grid[0] and coordinate i, the coordinates of [floor(u) (x) x_i] in H_{e_k}
        # and the representatives of the basis of H_{e_k} at u
        coords = (u.conj() * root).reshape(r * size, n, d)
        lift = (u / root).reshape(r * size, n, d)
        # left multiplication by g sends floor(t) to floor(u) for u = grid[0, c, h] and
        # t = g^-1 u = prod[0, g, c, h], the element at position at[t] of grid[0]
        pi_k = coords.reshape(r * size * n, d).T @ lift[at[prod[0]]].reshape(size, r * size * n, d)
        pis.append(pi_k)
        star = max(star, float(np.abs(pi_k.conj().transpose(0, 2, 1) - pi_k[group.inv]).max(initial=0.0)))
        for x in range(size):
            mult = max(mult, float(np.abs(pi_k[x] @ pi_k - pi_k[group.table[x]]).max(initial=0.0)))
        # V_a is read at p_a^-1 = grid[0, a, 1], since g(p_a^-1) = e_k p_a^-1 p_a = e_k, over the
        # class's idempotents e_a = ran(grid[a, 0, 0]) in grid order
        es = st.ran[grid[:, 0, 0]]
        vr = coords.reshape(r, size, n, d)[:, group.identity]               # (r, n, d): V_a^T
        v_at.update(zip(es.tolist(), vr.transpose(0, 2, 1)))
        dims[es] = d
        # [(a, i), g, (b, j)] = (V_a^dagger pi_k(g) V_b)_ij, against Phi(grid[a, b, g])_ij, which
        # the class block holds at row (a, 1, i) and column (b, g, j)
        left = vr.conj().reshape(r * n, d) @ pi_k.transpose(1, 0, 2).reshape(d, size * d)
        got = (left.reshape(r * n * size, d) @ vr.reshape(r * n, d).T).reshape(r, n, size, r, n)
        want = gram.reshape(r, size, n, r, size, n)[:, group.identity].transpose(0, 1, 3, 2, 4)
        recon = max(recon, float(np.abs(got - want).max()))

    # V on the summands at their offsets, in ascending order of e
    offsets = dims.cumsum() - dims
    v = np.concatenate([v_at[e] for e in st.idempotents] or [np.zeros((0, n), dtype=complex)])
    phi_identity = f.values[list(st.idempotents)].sum(axis=0)
    ident = float(np.abs(v.conj().T @ v - phi_identity).max())
    # judged relative to the map's largest entry, so that it does not change with scale
    limit = bound(1e-6, float(np.abs(f.values).max()))
    if recon > limit:
        raise ReconstructionFailure(
            f"dilation reconstruction residual {recon:.3e} exceeds {limit:.3e}"
        )
    return Dilation(st, len(v), v, tuple(pis), dims, offsets, recon, ident, mult, star)


# --- CP checks on matrix units ----------------------------------------------

def cp_check(f: MatrixMap, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Choi criterion: the map is CP iff its Choi matrix is PSD."""
    ok, lo, _, _ = psd_verdict([choi_layout(f)], tol)  # raises WrongSemigroup off matrix units
    return ok, lo


# --- representations of the matrix algebra and the CP/positivity criterion ---

@dataclass(frozen=True)
class MatrixAlgebraRep:
    """A representation of M_m given by its values on the matrix units."""

    m: int
    dim: int
    matrices: np.ndarray  # (m, m, dim, dim); matrices[i, j] = rho(e_{i+1, j+1})

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=complex)
        want = (self.m, self.m, self.dim, self.dim)
        if a.shape != want:
            raise DimensionMismatch(f"matrices must have shape {want}, got {a.shape}")
        if not np.isfinite(a).all():  # refused here, before a product with it prints a RuntimeWarning
            raise NotFinite("matrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrices", a)


def rep_residual(rho: MatrixAlgebraRep) -> float:
    """Max deviation from rho(e_ij) rho(e_kl) = delta_jk rho(e_il)."""
    m, d, mats = rho.m, rho.dim, rho.matrices
    # every rho(e_kl) side by side: one (d, m^2 d) product per unit e_ij
    right = mats.transpose(2, 0, 1, 3).reshape(d, m * m * d)
    worst = 0.0
    for i in range(m):
        for j in range(m):
            got = (mats[i, j] @ right).reshape(d, m, m, d)
            got[:, j] -= mats[i].transpose(1, 0, 2)    # k = j: subtract rho(e_il) over l
            worst = max(worst, float(np.abs(got).max(initial=0.0)))
    return worst


def verify_rep(rho: MatrixAlgebraRep, tol: float = DEFAULT_TOL) -> float:
    res = rep_residual(rho)
    if res > bound(tol, float(np.abs(rho.matrices).max())):
        raise NotARepresentation(f"multiplicativity residual {res:.3e}")
    return res


def rep_fourier(rho: MatrixAlgebraRep, f: MatrixMap) -> BlockTensor:
    """Fourier transform sum_ij rho(e_ij) (x) Phi(e_ij) at an arbitrary rep."""
    m = matrix_units_size(f.structure)
    if m != rho.m:
        raise DimensionMismatch("representation and map have different source sizes")
    # e_ij is element 1 + (i-1) m + (j-1), so values[1:] runs over the units in rho's order
    d, n = rho.dim, f.dim
    mat = np.einsum("pqab,pqij->aibj", rho.matrices, f.values[1:].reshape(m, m, n, n))
    return BlockTensor(d, n, mat.reshape(d * n, d * n))


def is_unitary_conjugation_rep(
    rho: MatrixAlgebraRep, tol: float = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None, float]:
    """Detect rho(X) = U X U^dagger with U unitary and d_rho = m.

    Returns (verdict, recovered U or None, residual).  U is recovered
    column-by-column from rho(e_i1) acting on a unit vector spanning the
    range of rho(e_11), with the phase fixed so the first significant entry
    of the first column is real positive.
    """
    verify_rep(rho, tol)
    m, d = rho.m, rho.dim
    if d != m:
        return False, None, float("inf")
    p11 = rho.matrices[0, 0]
    svals = np.linalg.svd(p11, compute_uv=False)
    if (svals > bound(tol, float(svals.max(initial=0.0)))).sum() != 1:
        return False, None, float("inf")
    col = int(np.argmax(np.linalg.norm(p11, axis=0)))
    v = p11[:, col]
    v = v / np.linalg.norm(v)
    u = np.stack([rho.matrices[i, 0] @ v for i in range(m)], axis=1)
    # global phase: first entry of the first column with significant modulus
    first = u[:, 0]
    idx = int(np.argmax(np.abs(first)))
    phase = first[idx] / abs(first[idx])
    u = u / phase
    unitary_defect = float(np.abs(u.conj().T @ u - np.eye(m)).max())
    if unitary_defect > _CONJUGATION_TOL:
        return False, u, float("inf")
    # U e_ij U^dagger is the outer product of columns i and j of U
    residual = float(np.abs(rho.matrices - np.einsum("ai,bj->ijab", u, u.conj())).max())
    return residual <= _CONJUGATION_TOL, u, residual


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    agreements: int
    disagreements: tuple[tuple[int, str, float, float], ...]  # (trial, kind, ft witness, cp witness)

    @property
    def perfect(self) -> bool:
        return self.agreements == self.trials


def cp_correspondence_probe(
    rho: MatrixAlgebraRep,
    structure: InverseStructure,
    trials: int = 100,
    seed: int = 0,
    n: int = 2,
    tol: float = DEFAULT_TOL,
) -> ProbeReport:
    """Empirical agreement table between is_psd(FT(rho)) and the Choi verdict.

    Trials cycle through CP maps, transposed CP maps (positive, generally
    not CP), Hermitian-preserving non-positive maps, and unstructured random
    maps.  The report never asserts the criterion; it records the data.
    """
    verify_rep(rho)
    m = matrix_units_size(structure)
    if m != rho.m:
        raise DimensionMismatch("representation does not match the semigroup")
    agreements = 0
    bad = []
    kinds = ("kraus", "transposed_kraus", "hermitian_nonpositive", "unstructured")
    for trial in range(trials):
        kind = kinds[trial % len(kinds)]
        f = _probe_map(structure, m, n, kind, seed, trial)
        ft_ok, ft_lo, _, _ = psd_verdict([rep_fourier(rho, f).matrix], tol)
        cp_ok, cp_lo = cp_check(f, tol)
        if ft_ok == cp_ok:
            agreements += 1
        else:
            bad.append((trial, kind, ft_lo, cp_lo))
    return ProbeReport(trials, agreements, tuple(bad))


def _probe_map(structure, m, n, kind, seed, trial) -> MatrixMap:
    if kind == "kraus":
        return random_cp_map(m, n, kraus_count=2, seed=seed * 100003 + trial, structure=structure)
    if kind == "transposed_kraus":
        f = random_cp_map(m, n, kraus_count=2, seed=seed * 100003 + trial, structure=structure)
        return MatrixMap(structure, n, NATURAL, f.values.swapaxes(1, 2))
    if kind == "hermitian_nonpositive":
        rng = np.random.default_rng([seed, trial, 7])
        h = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        h = (h + h.conj().T) / 2.0
        return map_from_choi(BlockTensor(m, n, h), structure)
    return random_map(structure, n, seed=seed * 100003 + trial)


# --- map generators -----------------------------------------------------------

def _matrix_units(m: int, structure: InverseStructure | None) -> InverseStructure:
    """matrix_units:m when structure is None; else structure, which must be matrix_units:m."""
    if structure is None:
        return inverse_structure(build_matrix_units(m))
    if matrix_units_size(structure) != m:
        raise WrongSemigroup(f"structure is not matrix_units:{m}")
    return structure


def kraus_map(
    kraus_ops: list[np.ndarray], structure: InverseStructure | None = None
) -> MatrixMap:
    """The CP map X -> sum_i K_i X K_i^dagger as a natural map on matrix units."""
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    n, m = ops[0].shape
    if any(k.shape != (n, m) for k in ops):
        raise DimensionMismatch("Kraus operators must share one shape")
    structure = _matrix_units(m, structure)
    vals = np.zeros((structure.table.order, n, n), dtype=complex)
    # Phi(e_ij) = sum_k K_k e_ij K_k^dagger = sum_k (column i of K_k)(column j of K_k)^dagger
    vals[1:] = np.einsum("kai,kbj->ijab", ops, np.conj(ops)).reshape(m * m, n, n)
    return MatrixMap(structure, n, NATURAL, vals)


def random_cp_map(
    m: int,
    n: int,
    kraus_count: int = 2,
    seed: int = 0,
    structure: InverseStructure | None = None,
) -> MatrixMap:
    rng = np.random.default_rng([seed, m, n, kraus_count, 11])
    ops = [
        (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
        for _ in range(kraus_count)
    ]
    return kraus_map(ops, structure)


def transpose_map(m: int, structure: InverseStructure | None = None) -> MatrixMap:
    """The transpose map on M_m: positive but famously not CP for m >= 2."""
    structure = _matrix_units(m, structure)
    vals = np.zeros((structure.table.order, m, m), dtype=complex)
    # Phi(e_ij) = e_ji: the identity map's value table with the output axes swapped
    vals[1:] = np.eye(m * m).reshape(m, m, m, m).transpose(0, 1, 3, 2).reshape(m * m, m, m)
    return MatrixMap(structure, m, NATURAL, vals)


def gram_pd_map(structure: InverseStructure, n: int, seed: int = 0) -> MatrixMap:
    """A positive definite groupoid-basis map built from random vectors.

    Compress the left regular action on the groupoid basis (a star
    representation for the standard inner product) by a random V: the block
    matrix of the result is the Gram matrix of the vectors L_s V e_i, hence
    PSD by construction, independently of any Fourier machinery.
    """
    rng = np.random.default_rng([seed, structure.table.order, n, 13])
    nz = list(structure.nonzero)
    p = len(nz)
    v = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2.0)
    v_at = np.zeros((structure.table.order, n), dtype=complex)
    v_at[nz] = v
    # V^dagger L_s V sums conj(V[u]) V[t] over u in the R-class of s, t = s^-1 u:
    # at s = grid[a, b, g], u = grid[a, c, h] and t = prod[b, g, c, h]
    vals = np.zeros((structure.table.order, n, n), dtype=complex)
    for grid, prod in zip(structure.class_grids, structure.class_products):
        u, t = v_at[grid.reshape(len(grid), -1)], v_at[prod.reshape(grid[0].size, -1)]
        vals[grid] = np.einsum("ami,pmj->apij", u.conj(), t).reshape(grid.shape + (n, n))
    return MatrixMap(structure, n, GROUPOID, vals)


def random_map(structure: InverseStructure, n: int, seed: int = 0) -> MatrixMap:
    """An unstructured random natural-basis map (generically not PD)."""
    rng = np.random.default_rng([seed, structure.table.order, n, 17])
    vals = rng.standard_normal((structure.table.order, n, n)) + 1j * rng.standard_normal(
        (structure.table.order, n, n)
    )
    return MatrixMap(structure, n, NATURAL, vals)


def identity_rep(m: int) -> MatrixAlgebraRep:
    return MatrixAlgebraRep(m, m, np.eye(m * m).reshape(m, m, m, m))


def conjugation_rep(u: np.ndarray) -> MatrixAlgebraRep:
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    base = identity_rep(m)
    mats = np.einsum("ab,ijbc,dc->ijad", u, base.matrices, u.conj())
    return MatrixAlgebraRep(m, m, mats)


def direct_sum_rep(m: int, copies: int = 2, pad: int = 0) -> MatrixAlgebraRep:
    """rho(X) = X (+) ... (+) X (+) 0_pad: multiplicative but never a unitary conjugation."""
    d = m * copies + pad
    mats = np.zeros((m, m, d, d), dtype=complex)
    i, j, c = np.indices((m, m, copies))
    mats[i, j, c * m + i, c * m + j] = 1.0
    return MatrixAlgebraRep(m, d, mats)


def random_unitary(m: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, m, 19])
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
