"""Unitary irreducible representations of finite groups and their isotypic
bases.

Irreps are generated by splitting the left regular representation along a
random Hermitian element of its commutant: the eigenspaces of the averaged
element are invariant subspaces, and because all basis changes are unitary
diagonalizers of Hermitian matrices, every representation produced is
explicitly unitary.  Equivalence classes are detected by character vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, SizeLimit
from .semigroup import GroupTable

MAX_GROUP_ORDER = 48
_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class GroupRep:
    """A representation of a finite group, one d x d matrix per element."""

    group: GroupTable
    dim: int
    matrices: np.ndarray  # (|G|, d, d), read-only

    def __post_init__(self):
        self.matrices.setflags(write=False)

    @property
    def characters(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)


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
    if n == 1:  # the trivial irrep: nothing to split, so no random draw (nor numpy.random import)
        return [GroupRep(group, 1, np.ones((1, 1, 1), dtype=complex))]
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
              for size in np.flatnonzero(np.bincount(sizes))]  # (orbits of this size, size) each, ascending
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
