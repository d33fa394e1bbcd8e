"""Harmonic analysis on the contracted algebra of a finite inverse semigroup.

Maps into M_n are stored as one value per nonzero element, tagged with the
basis they describe: ``natural`` values are Phi(s); ``groupoid`` values are
the coefficients PhiT(floor(s)) of the same tensor re-expanded in the
groupoid basis, related by up-set sums / Mobius inversion.  Induced irreps
place a maximal-subgroup irrep into idempotent-indexed blocks; the Fourier
transform, its inversion, Plancherel and Schur orthogonality all operate on
that family, laid out on the Steinberg grid x = p_a g p_b^-1 of each D-class
as in the rook-monoid FFT of Malandro and Rockmore (Trans. AMS 362, 2010).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cxmat import BlockTensor
from .errors import (
    DimensionMismatch,
    IncompleteIrrepSet,
    NotFinite,
    SemigroupMismatch,
    WrongBasis,
)
from .grouprep import GroupRep
from .semigroup import InverseStructure

NATURAL = "natural"
GROUPOID = "groupoid"
# relative tolerance of the character orthogonality that check_irreps_complete
# asks of a family; the characters of inequivalent irreps are orthogonal exactly
_CHARACTER_TOL = 1e-6


@dataclass(frozen=True)
class MatrixMap:
    """A linear map C0[S] -> M_n given by one n x n value per nonzero element.

    ``values`` has shape (|S|, n, n) and is finite; the slot at the zero
    element stays 0.
    ``basis`` says whether values[s] is Phi(s) or PhiT(floor(s)).
    """

    structure: InverseStructure
    dim: int
    basis: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = self.structure.table.order
        if v.shape != (n, self.dim, self.dim):
            raise DimensionMismatch(
                f"values must have shape ({n}, {self.dim}, {self.dim}), got {v.shape}"
            )
        if self.basis not in (NATURAL, GROUPOID):
            raise WrongBasis(f"unknown basis tag {self.basis!r}")
        v = v.copy()
        v[self.structure.zero] = 0.0
        if not np.isfinite(v).all():
            raise NotFinite("map values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def check_same_semigroup(a: MatrixMap, b: MatrixMap) -> None:
    if not a.structure.same_semigroup(b.structure):
        raise SemigroupMismatch("maps live on different semigroups")
    if a.dim != b.dim:
        raise DimensionMismatch("maps have different target dimensions")


def combine(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_t table[s, t] values[t] for every s, as one real matrix product.

    ``table`` is a float (|S|, |S|) table such as ``InverseStructure.leq_float``
    (or its transpose); the complex values are viewed as pairs of floats so
    that the product runs in real BLAS.
    """
    v = np.ascontiguousarray(values, dtype=complex)
    flat = v.reshape(len(v), -1).view(float)
    return (table @ flat).view(complex).reshape(v.shape)


def _relabelled(f: MatrixMap, basis: str) -> MatrixMap:
    """f's validated, read-only values under another basis tag, neither copied nor checked again.

    Only for a ``discrete_order``, where floor(s) = s and both bases hold the same numbers.
    """
    out = object.__new__(MatrixMap)
    out.__dict__.update(structure=f.structure, dim=f.dim, basis=basis, values=f.values)
    return out


def to_groupoid(f: MatrixMap) -> MatrixMap:
    """Coefficient change natural -> groupoid: PhiT(floor(s)) = sum_{t >= s} Phi(t)."""
    if f.basis != NATURAL:
        raise WrongBasis("to_groupoid expects a natural-basis map")
    if f.structure.discrete_order:
        return _relabelled(f, GROUPOID)
    # leq[s, t] = 1 iff s <= t, so summing over the second index walks the up-set
    vals = combine(f.structure.leq_float, f.values)
    return MatrixMap(f.structure, f.dim, GROUPOID, vals)


def from_groupoid(f: MatrixMap) -> MatrixMap:
    """Coefficient change groupoid -> natural: Phi(s) = sum_{t >= s} mu(s,t) PhiT(floor(t))."""
    if f.basis != GROUPOID:
        raise WrongBasis("from_groupoid expects a groupoid-basis map")
    if f.structure.discrete_order:
        return _relabelled(f, NATURAL)
    # mobius[s, t] = mu(s, t) for s <= t
    vals = combine(f.structure.mobius_float, f.values)
    return MatrixMap(f.structure, f.dim, NATURAL, vals)


def as_groupoid(f: MatrixMap) -> MatrixMap:
    """f itself when it is a groupoid-basis map, else ``to_groupoid(f)``."""
    return f if f.basis == GROUPOID else to_groupoid(f)


@dataclass(frozen=True)
class InducedRep:
    """An irrep of C0[S] induced from a maximal-subgroup irrep rho.

    On floor(x) for x = grid[a, b, g] it is rho(g) in block (a, b) of r_k x r_k
    blocks, conjugated to U sigma U^dagger when a unitary ``basis`` U is set, and
    0 off the class.  ``matrices`` is the dense view, built on first read only.
    """

    structure: InverseStructure
    class_index: int
    group_rep: GroupRep
    dim: int
    irrep_id: str
    grid: np.ndarray  # InverseStructure.class_grids[class_index]
    basis: np.ndarray | None = None

    @property
    def weight(self) -> int:
        """r_k * |G_{e_k}| of the underlying class: ``InverseStructure.class_weights``."""
        return int(self.structure.class_weights[self.class_index])

    @property
    def characters(self) -> np.ndarray:
        """chi_sigma(floor(s)) = tr sigma(floor(s)): rho's character where a = b, else 0."""
        chars = np.zeros(self.structure.table.order, dtype=complex)
        chars[np.diagonal(self.grid)] = self.group_rep.characters[:, None]
        return chars

    def class_matrices(self) -> np.ndarray:
        """sigma(floor(x)) = E_ab (x) rho(g) for the x of the class in grid order."""
        (r, _, order), d, (a, b) = self.grid.shape, self.group_rep.dim, np.indices(self.grid.shape[:2])
        mats = np.zeros((r, r, order, r, d, r, d), dtype=complex)
        mats[a, b, :, a, :, b, :] = self.group_rep.matrices
        mats = mats.reshape(-1, self.dim, self.dim)
        return mats if self.basis is None else np.einsum("ab,sbc,dc->sad", self.basis, mats, self.basis.conj())

    @cached_property
    def matrices(self) -> np.ndarray:  # (|S|, dim, dim)
        out = np.zeros((self.structure.table.order, self.dim, self.dim), dtype=complex)
        out[self.grid.ravel()] = self.class_matrices()
        out.setflags(write=False)
        return out


def induced_irreps(s: InverseStructure, seed: int = 0) -> tuple[InducedRep, ...]:
    """The complete induced family, ordered by (class, subgroup irrep): the structure's own
    tuple for this seed, induced from ``InverseStructure.class_irreps`` and checked complete
    once, when first built.  Racing callers may both build it, but each gets the one kept."""
    if seed not in s._families:
        family = tuple(
            InducedRep(s, k, rho, s.ranks[k] * rho.dim, f"D{k}.{i}", s.class_grids[k])
            for k in range(len(s.dclasses))
            for i, rho in enumerate(s.class_irreps(k, seed))
        )
        check_irreps_complete(s, family)
        s._families.setdefault(seed, family)
    return s._families[seed]


@dataclass(frozen=True)
class FourierData:
    """A map together with its transform at every induced irrep."""

    map: MatrixMap
    reps: tuple[InducedRep, ...]
    transforms: tuple[BlockTensor, ...]

    @cached_property
    def checked_complete(self) -> bool:
        """True once reps is known complete, else IncompleteIrrepSet: a family ``induced_irreps``
        kept passes as it is, any other (a list, ``conjugated_rep`` output) is checked once here."""
        if not any(self.reps is own for own in self.map.structure._families.values()):
            check_irreps_complete(self.map.structure, self.reps)
        return True


def fourier(f: MatrixMap, rep: InducedRep) -> BlockTensor:
    """Fourier transform at one irrep: sum_s sigma(floor(s)) (x) PhiT(floor(s))."""
    return fourier_transform_all(f, [rep]).transforms[0]


def grid_transforms(entries: np.ndarray, dims, values: np.ndarray) -> list[np.ndarray]:
    """FT(rho)[(a, i, p), (b, j, q)] = sum_g rho(g)_ij values[g, a, b]_pq for irreps rho of one
    class group, with values[g, a, b] the value at grid[a, b, g] of the class's grid
    (``InverseStructure.class_grids``).

    ``entries`` holds the entries of every rho side by side, row (rho, i, j) being
    rho(g)_ij over g, and ``dims`` their dimensions, so all transforms come from one
    (sum d^2, |G|) . (|G|, r^2 n^2) product.  They are returned as one (m, r d n, r d n)
    stack per run of m consecutive irreps of one dimension d.
    """
    order, r, _, n, _ = values.shape
    t = entries @ values.reshape(order, -1)
    out, rows = [], 0
    for d, run in itertools.groupby(dims):
        m = len(list(run))
        block = t[rows : rows + m * d * d].reshape(m, d, d, r, r, n, n)
        out.append(block.transpose(0, 3, 1, 5, 4, 2, 6).reshape(m, r * d * n, r * d * n))
        rows += m * d * d
    return out


def fourier_transform_all(f: MatrixMap, reps: list[InducedRep]) -> FourierData:
    """The transform at every irrep of reps, from one change to the groupoid basis:
    FT(sigma)[(a, i, p), (b, j, q)] = sum_g rho(g)_ij PhiT(floor(p_a g p_b^-1))_pq
    (``grid_transforms``), then (U (x) I) FT (U^dagger (x) I)."""
    if not all(f.structure.same_semigroup(st) for st in {id(r.structure): r.structure for r in reps}.values()):
        raise SemigroupMismatch("map and representation live on different semigroups")
    vals, n, out = as_groupoid(f).values, f.dim, []
    for rep in reps:
        entries = rep.group_rep.matrices.reshape(len(rep.group_rep.matrices), -1).T
        t = grid_transforms(entries, [rep.group_rep.dim], vals[rep.grid.transpose(2, 0, 1)])[0][0]
        if rep.basis is not None:
            u = np.kron(rep.basis, np.eye(n))
            t = u @ t @ u.conj().T
        out.append(BlockTensor(rep.dim, n, t))
    return FourierData(f, tuple(reps), tuple(out))


def check_irreps_complete(s: InverseStructure, reps) -> None:
    """Raise IncompleteIrrepSet unless every D-class is covered exactly.

    A complete family has sum of d_sigma^2 = |D_k| over the irreps induced on
    each class k (hence |S| - 1 in total); a family that repeats the irreps of
    one class can match the total while leaving another class uncovered.  A
    family that repeats an irrep within a class can match |D_k| too, so the
    characters must also be orthogonal:
    sum_{s in D_k} chi_sigma(floor(s)) conj(chi_sigma'(floor(s)))
    = r_k |G_k| delta_{sigma sigma'}, to within _CHARACTER_TOL relative to
    r_k |G_k|.  An induced irrep vanishes off its class, so one Gram matrix
    of the characters over all of S holds every class's sums.
    """
    got: dict[int, int] = {}
    for r in reps:
        got[r.class_index] = got.get(r.class_index, 0) + r.dim * r.dim
    for k, cls in enumerate(s.dclasses):
        if got.pop(k, 0) != len(cls):
            raise IncompleteIrrepSet(
                f"sum of squared dimensions on D-class {k} differs from its size {len(cls)}"
            )
    if got:
        raise IncompleteIrrepSet(f"irreps name unknown D-classes {sorted(got)}")
    if reps:
        chars = np.stack([r.characters for r in reps])
        w = np.sqrt([float(r.weight) for r in reps])
        if np.abs((chars @ chars.conj().T) / np.outer(w, w) - np.eye(len(reps))).max() > _CHARACTER_TOL:
            raise IncompleteIrrepSet("the irreps are not pairwise inequivalent: their characters overlap")


def _invert(data: FourierData, k: int | None = None) -> np.ndarray:
    """PhiT(floor(s)) for every element s, or those of class k, one product per irrep on its grid.

    sigma(floor(x^-1)) is rho(g^-1) in block (b, a) for x = grid[a, b, g], so the
    trace against FT(sigma) is sum_ij rho(g^-1)_ij FT(sigma)[(a, j, p), (b, i, q)].
    """
    st, n = data.map.structure, data.map.dim
    data.checked_complete  # raises IncompleteIrrepSet unless the family is complete
    total = np.zeros((st.table.order, n, n), dtype=complex)
    for rep, t in ((r, t) for r, t in zip(data.reps, data.transforms) if k in (None, r.class_index)):
        (r, _, order), rho, m = rep.grid.shape, rep.group_rep, t.matrix
        if rep.basis is not None:
            u = np.kron(rep.basis, np.eye(n))
            m = u.conj().T @ m @ u
        m = m.reshape(r, rho.dim, n, r, rho.dim, n).transpose(4, 1, 0, 3, 2, 5).reshape(rho.dim ** 2, -1)
        vals = rho.matrices[rho.group.inv].reshape(order, -1) @ m
        total[rep.grid.transpose(2, 0, 1)] += (rep.dim / rep.weight) * vals.reshape(order, r, r, n, n)
    return total


def fourier_invert(data: FourierData, s_elem: int) -> np.ndarray:
    """Reconstruct PhiT(floor(s)) from the complete transform family.

    PhiT(floor(s)) = (1 / (r_k |G_k|)) sum_sigma d_sigma
                     tr_sigma[(sigma(floor(s^-1)) (x) I) FT(sigma)],
    with r_k, |G_k| taken from the class of s.
    """
    if s_elem == data.map.structure.zero:
        raise ValueError("zero has no groupoid coefficient")
    return _invert(data, int(data.map.structure.class_of[s_elem]))[s_elem]


def invert_to_map(data: FourierData) -> MatrixMap:
    """Full inverse transform, returned as a groupoid-basis map."""
    return MatrixMap(data.map.structure, data.map.dim, GROUPOID, _invert(data))


def plancherel_check(
    f: MatrixMap, g: MatrixMap, reps: list[InducedRep]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of the Plancherel identity plus their Frobenius distance.

    sum_s r_k |G_k| PhiT(floor(s^-1)) PsiT(floor(s))
        = sum_sigma d_sigma tr_sigma[FT_f(sigma) FT_g(sigma)]
    where (r_k, |G_k|) follow the class of s inside the sum.
    """
    check_same_semigroup(f, g)
    st, n = f.structure, f.dim
    f, g = as_groupoid(f), as_groupoid(g)
    tf, tg = (fourier_transform_all(x, reps) for x in (f, g))
    tf.checked_complete  # raises IncompleteIrrepSet unless the family is complete
    nz = np.asarray(st.nonzero, dtype=np.intp)
    w = st.class_weights[st.class_of[nz]]
    lhs = np.einsum("s,sij,sjk->ik", w, f.values[st.inv[nz]], g.values[nz])
    rhs = np.zeros((n, n), dtype=complex)
    for rep, t1, t2 in zip(tf.reps, tf.transforms, tg.transforms):
        prod = (t1.matrix @ t2.matrix).reshape(rep.dim, n, rep.dim, n)
        rhs += rep.dim * np.einsum("kikj->ij", prod)
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def schur_residual(s: InverseStructure, reps: list[InducedRep]) -> float:
    """Max deviation from the Schur orthogonality pattern over all classes.

    Within a class, sum_{s in D_k} sigma(floor(s))_pq conj(sigma'(floor(s))_rt)
    equals (r_k |G_k| / d_sigma) delta_pr delta_qt when sigma = sigma' and 0
    for inequivalent irreps induced on the same class.  With the entries of
    the class's irreps side by side as the columns of M, these sums are the
    one Gram matrix M^T conj(M), and the pattern is a diagonal matrix.
    """
    worst = 0.0
    for k, cls in enumerate(s.dclasses):
        here = [r for r in reps if r.class_index == k]
        if here:
            m = np.hstack([r.class_matrices().reshape(len(cls), -1) for r in here])
            expect = np.concatenate([np.full(r.dim ** 2, r.weight / r.dim) for r in here])
            worst = max(worst, float(np.abs(m.T @ m.conj() - np.diag(expect)).max()))
    return worst


def conjugated_rep(rep: InducedRep, u: np.ndarray) -> InducedRep:
    """The equivalent irrep U sigma U^dagger (U unitary keeps the family unitary)."""
    if u.shape != (rep.dim, rep.dim):
        raise DimensionMismatch("conjugator has wrong shape")
    basis = np.array(u) if rep.basis is None else u @ rep.basis  # a copy, kept read-only
    basis.setflags(write=False)
    return replace(rep, basis=basis)
