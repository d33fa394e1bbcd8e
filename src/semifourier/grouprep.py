"""Unitary irreducible representations of finite groups and group-level
Fourier analysis.

Irreps are generated by splitting the left regular representation along a
random Hermitian element of its commutant: the eigenspaces of the averaged
element are invariant subspaces, and because all basis changes are unitary
diagonalizers of Hermitian matrices, every representation produced is
explicitly unitary.  Equivalence classes are detected by character vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cxmat import DEFAULT_TOL, BlockTensor, block_matrix, psd_verdict
from .errors import (
    DimensionMismatch,
    IncompleteIrrepSet,
    InternalInconsistency,
    NonConvergent,
    SizeLimit,
)
from .semigroup import GroupTable

MAX_GROUP_ORDER = 48
_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class GroupRep:
    """A representation of a finite group, one d x d matrix per element."""

    group: GroupTable
    dim: int
    matrices: np.ndarray  # (|G|, d, d)

    @property
    def characters(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def at(self, g: int) -> np.ndarray:
        return self.matrices[g]


@dataclass(frozen=True)
class GroupMatrixMap:
    """A map from a group into M_n, one n x n value per element."""

    group: GroupTable
    dim: int
    values: np.ndarray  # (|G|, n, n)


class _SplitFailed(Exception):
    pass


def _character_norm(rep: np.ndarray) -> float:
    chars = np.einsum("gii->g", rep)
    return float(np.sum(np.abs(chars) ** 2).real)


def _split_invariant(group: GroupTable, basis: np.ndarray, rng, out: list[np.ndarray]) -> None:
    n = group.order
    # basis^dagger R(g) basis for every g: R(g) e_q = e_(gq) is a row gather
    rep = basis.conj()[group.table].swapaxes(1, 2) @ basis
    if round(_character_norm(rep) / n) == 1:
        out.append(rep)
        return
    d = basis.shape[1]
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (a + a.conj().T) / 2.0
    h = np.einsum("gab,bc,gdc->ad", rep, a, rep.conj(), optimize=True) / n
    h = (h + h.conj().T) / 2.0
    w, u = np.linalg.eigh(h)
    spread = max(1.0, float(w[-1] - w[0]))
    cuts = np.nonzero(np.diff(w) > 1e-6 * spread)[0]
    if len(cuts) == 0:
        raise _SplitFailed("commutant element failed to split a reducible subspace")
    bounds = [0] + [int(c) + 1 for c in cuts] + [d]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _split_invariant(group, basis @ u[:, lo:hi], rng, out)


def _char_key(chars: np.ndarray) -> tuple:
    return tuple((round(float(c.real), 6) + 0.0, round(float(c.imag), 6) + 0.0) for c in chars)


def _verify_rep(group: GroupTable, mats: np.ndarray, tol: float) -> None:
    eye = np.eye(mats.shape[1])
    if np.abs(mats[group.identity] - eye).max() > tol:
        raise _SplitFailed("identity matrix is off")
    if np.abs(mats @ mats.conj().swapaxes(-1, -2) - eye).max() > tol:
        raise _SplitFailed("non-unitary representation matrix")
    # every product rho(g) rho(h) against rho(gh), in one batched product
    if np.abs(mats[:, None] @ mats[None, :] - mats[group.table]).max() > tol:
        raise _SplitFailed("representation is not multiplicative")


def unitary_irreps(group: GroupTable, seed: int = 0) -> list[GroupRep]:
    """A complete set of inequivalent unitary irreps, deterministically ordered.

    Ordering is by (dimension, character vector); the same seed always
    produces the same matrices.  Raises NonConvergent if eight reseeded
    attempts fail to split the regular representation.
    """
    n = group.order
    if n > MAX_GROUP_ORDER:
        raise SizeLimit(f"group order {n} exceeds {MAX_GROUP_ORDER}")
    last = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, n])
        try:
            blocks: list[np.ndarray] = []
            _split_invariant(group, np.eye(n, dtype=complex), rng, blocks)
            seen: dict[tuple, np.ndarray] = {}
            for mats in blocks:
                key = _char_key(np.einsum("gii->g", mats))
                if key not in seen:
                    seen[key] = mats
            ordered = sorted(seen.items(), key=lambda kv: (kv[1].shape[1], kv[0]))
            dims = [m.shape[1] for _, m in ordered]
            if sum(d * d for d in dims) != n:
                raise _SplitFailed("irrep set is not complete")
            for _, mats in ordered:
                _verify_rep(group, mats, 1e-10)
            return [GroupRep(group, m.shape[1], m) for _, m in ordered]
        except _SplitFailed as exc:
            last = exc
    raise NonConvergent(f"irrep generation failed after {_MAX_ATTEMPTS} attempts: {last}")


def isotypic_bases(reps: list[GroupRep], perms: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
    """(d_rho, Q_rho) per unitary irrep rho, for a permutation action of the group.

    Row g of ``perms`` sends point i to perms[g, i], and Pi_g is the matrix
    with Pi_g e_i = e_perms[g, i].  Q_rho is an orthonormal basis of the range of the projection
    E_11 = (d_rho/|G|) sum_g conj(rho(g)_11) Pi_g, whose rank m_rho is the
    multiplicity of rho, so sum_rho d_rho m_rho is the number of points.  By
    Schur's lemma a matrix M that commutes with every Pi_g is unitarily
    equivalent to the direct sum of Q_rho^dagger M Q_rho (x) I_(d_rho).
    Each Pi_g maps every orbit onto itself, so E_11 is block diagonal over
    the orbits: its range is found one orbit at a time, the orbits of one
    size in one stacked eigh, and each column of Q_rho lives on one orbit.
    """
    order, p = perms.shape
    cols = np.broadcast_to(np.arange(p), perms.shape)
    label = perms.min(axis=0)                      # the least point of each orbit
    points = np.argsort(label, kind="stable")
    _, first, sizes = np.unique(label[points], return_index=True, return_counts=True)
    orbits = [np.stack([points[a : a + size] for a, c in zip(first, sizes) if c == size])
              for size in np.unique(sizes)]       # (orbits of this size, size) each
    out = []
    for rep in reps:
        e11 = np.zeros((p, p), dtype=complex)
        weights = np.broadcast_to(rep.matrices[:, :1, 0].conj(), perms.shape)
        np.add.at(e11, (perms, cols), weights * (rep.dim / order))
        parts = []
        for idx in orbits:
            w, u = np.linalg.eigh(e11[idx[:, :, None], idx[:, None, :]])
            orbit, col = np.nonzero(w > 0.5)
            part = np.zeros((p, len(orbit)), dtype=complex)
            part[idx[orbit].T, np.arange(len(orbit))] = u[orbit, :, col].T
            parts.append(part)
        q = np.concatenate(parts, axis=1)
        q.setflags(write=False)
        out.append((rep.dim, q))
    return tuple(out)


# --- Fourier analysis on a group -------------------------------------------

def _check_same_group(a, b) -> None:
    if a.group.order != b.group.order or not np.array_equal(a.group.table, b.group.table):
        raise DimensionMismatch("maps live on different groups")


def group_fourier(f: GroupMatrixMap, rep: GroupRep) -> BlockTensor:
    """Fourier transform at one representation: sum_g rep(g) (x) f(g)."""
    _check_same_group(f, rep)
    d, n = rep.dim, f.dim
    mat = np.einsum("gab,gij->aibj", rep.matrices, f.values).reshape(d * n, d * n)
    return BlockTensor(d, n, mat)


def group_fourier_invert(
    reps: list[GroupRep], transforms: list[BlockTensor], g: int
) -> np.ndarray:
    """Reconstruct f(g) = (1/|G|) sum_rho d_rho tr_rho[(rho(g^-1) (x) I) fhat(rho)]."""
    if not reps:
        raise IncompleteIrrepSet("no representations supplied")
    group = reps[0].group
    if sum(r.dim * r.dim for r in reps) != group.order:
        raise IncompleteIrrepSet("sum of squared dimensions differs from |G|")
    ginv = int(group.inv[g])
    n = transforms[0].dim_right
    total = np.zeros((n, n), dtype=complex)
    for rep, t in zip(reps, transforms):
        block = t.reshaped()
        total += rep.dim * np.einsum("kb,bikj->ij", rep.matrices[ginv], block)
    return total / group.order


def group_convolve(f1: GroupMatrixMap, f2: GroupMatrixMap) -> GroupMatrixMap:
    """(f1 * f2)(g) = sum_h f1(h) f2(h^-1 g)."""
    _check_same_group(f1, f2)
    if f1.dim != f2.dim:
        raise DimensionMismatch("convolution needs equal target dimensions")
    group = f1.group
    n = group.order
    out = np.zeros_like(f1.values)
    for k in range(n):
        for i in range(n):
            j = group.mul(int(group.inv[i]), k)
            out[k] += f1.values[i] @ f2.values[j]
    return GroupMatrixMap(group, f1.dim, out)


def group_plancherel_check(
    f1: GroupMatrixMap, f2: GroupMatrixMap, reps: list[GroupRep]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of sum_g f1(g^-1) f2(g) = (1/|G|) sum_rho d_rho tr_rho[f1hat f2hat]."""
    _check_same_group(f1, f2)
    group = f1.group
    lhs = np.zeros((f1.dim, f2.dim), dtype=complex)
    for g in range(group.order):
        lhs += f1.values[int(group.inv[g])] @ f2.values[g]
    rhs = np.zeros_like(lhs)
    for rep in reps:
        t1 = group_fourier(f1, rep).matrix
        t2 = group_fourier(f2, rep).matrix
        prod = (t1 @ t2).reshape(rep.dim, f1.dim, rep.dim, f2.dim)
        rhs += rep.dim * np.einsum("kikj->ij", prod)
    rhs /= group.order
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def group_pd_matrix(f: GroupMatrixMap) -> np.ndarray:
    """The |G|n x |G|n block matrix with (g, g') block f(g^-1 g')."""
    group = f.group
    return block_matrix(f.values, group.table[group.inv])


def group_pd_check(f: GroupMatrixMap, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-definiteness of the map: PSD test of the big block matrix."""
    ok, lo, _, _ = psd_verdict([group_pd_matrix(f)], tol)
    return ok, lo


@dataclass(frozen=True)
class GroupBochnerReport:
    pd_verdict: bool
    pd_witness: float
    transform_verdicts: tuple[tuple[int, bool, float], ...]  # (irrep index, psd, witness)
    transforms_verdict: bool


def group_bochner_check(
    f: GroupMatrixMap, reps: list[GroupRep], tol: float = DEFAULT_TOL
) -> GroupBochnerReport:
    """Check the positive-definite <-> transforms-PSD biconditional.

    A decisive disagreement (both witnesses outside a 10x tolerance guard
    band) raises InternalInconsistency: the theorem says it cannot happen,
    so it would indicate a bug.
    """
    if sum(r.dim * r.dim for r in reps) != f.group.order:
        raise IncompleteIrrepSet("sum of squared dimensions differs from |G|")
    big = group_pd_matrix(f)
    pd_ok, pd_lo, pd_defect, _ = psd_verdict([big], tol)
    per = []
    ft_ok = True
    ft_lo = np.inf
    for i, rep in enumerate(reps):
        t = group_fourier(f, rep).matrix
        ok, lo, _, _ = psd_verdict([t], tol)
        per.append((i, ok, lo))
        ft_ok = ft_ok and ok
        ft_lo = min(ft_lo, lo)
    if pd_ok != ft_ok:
        band = 10.0 * tol * max(1.0, float(np.abs(big).max()))
        if min(abs(pd_lo), abs(float(ft_lo))) > band and pd_defect <= band:
            raise InternalInconsistency(
                f"Bochner disagreement: pd witness {pd_lo:.3e}, transform witness {ft_lo:.3e}"
            )
    return GroupBochnerReport(pd_ok, pd_lo, tuple(per), ft_ok)
