"""Dense complex linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects of complex dtype in row-major
order.  Everything at desk scale is dense; dimensions stay well below ~200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian

# Global default tolerance; every threshold derived from it is ``bound(tol, scale)``.
DEFAULT_TOL = 1e-9


def bound(tol: float, scale: float) -> float:
    """The library's one scale rule: tol relative to the judged object's own scale."""
    return tol * scale


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # a complex entry is finite iff both of its parts are
        raise NotFinite("matrix entries must be finite")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with row-major block layout."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


@dataclass(frozen=True)
class BlockTensor:
    """An element of M_d x M_n stored as one (d*n) x (d*n) matrix.

    The factor dimensions are kept explicit so partial traces are well
    defined.  Fourier transforms and Choi matrices live here, the values of
    a supermap among them.
    """

    dim_left: int
    dim_right: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_cmatrix(self.matrix).copy()
        dn = self.dim_left * self.dim_right
        if m.shape != (dn, dn):
            raise DimensionMismatch(
                f"BlockTensor matrix must be {dn}x{dn}, got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def reshaped(self) -> np.ndarray:
        """View as a 4-index array T[a, i, b, j] with a,b left and i,j right."""
        d, n = self.dim_left, self.dim_right
        return self.matrix.reshape(d, n, d, n)


def partial_trace_left(t: BlockTensor) -> np.ndarray:
    """Trace out the left factor: result[i, j] = sum_k T[(k,i),(k,j)]."""
    return np.einsum("kikj->ij", t.reshaped())


def block_matrix(vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The square block matrices whose (a, b) block is vals[idx[..., a, b]], in one gather."""
    p, n = idx.shape[-1], vals.shape[-1]
    return vals[idx].swapaxes(-3, -2).reshape(idx.shape[:-2] + (p * n, p * n))


def hermitized(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger) / 2 of a square matrix, or of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def psd_verdict(blocks, tol: float = DEFAULT_TOL, spectra=None, mirrors=None) -> tuple[bool, float, float, float]:
    """PSD verdict of the block-diagonal matrix with these diagonal blocks.

    Each entry of ``blocks`` is a square matrix or a stack (k, m, m) of them;
    ``spectra[i]``, computed when ``spectra`` is omitted, is one 1-d array:
    the ascending eigenvalues of the Hermitized ``blocks[i]`` (of a stack, of
    all its matrices).  Off the blocks the matrix is zero, so its min
    eigenvalue, ||.||_2, hermitian defect and scale are the block-wise min /
    max of the same quantities.  A matrix too large to form may instead be
    given by a stack of n x n blocks that holds each of its entry blocks,
    ``mirrors`` by the blocks at the transposed positions and ``spectra``
    (which ``mirrors`` require); the defect is then max |block - mirror^dagger|.
    A non-Hermitian matrix is simply not PSD: the verdict needs defect <= tol
    * max-abs entry and min eigenvalue >= -tol * ||.||_2, so scaling the
    matrix leaves it unchanged.  This is the library's one PSD verdict.
    Returns (verdict, min eigenvalue, hermitian defect, ||.||_2).

    Each block is read in one pass.  |b| is taken once: its max is the scale
    and, being finite exactly when every entry is, also the finiteness check;
    only when it overflows or is NaN are the entries themselves tested.
    b^dagger (the mirror^dagger) is formed once for both the defect and the
    Hermitized matrix.  The spectrum's ends give the min eigenvalue and
    ||.||_2, the larger of their moduli (NaN if either end is NaN).
    """
    per = []  # (defect, scale, min eigenvalue, ||.||_2) of each nonempty block
    for i, b in enumerate(blocks):
        b = np.asarray(b, dtype=complex)
        if not b.size:
            continue
        scale = float(np.abs(b).max())
        if not math.isfinite(scale) and not np.isfinite(b).all():
            raise NotFinite("matrix entries must be finite")
        bh = (b if mirrors is None else mirrors[i]).conj().swapaxes(-1, -2)
        if spectra is None:
            w = np.linalg.eigvalsh((b + bh) / 2.0).ravel()
            w.sort(kind="stable")  # merges a stack's rows; one matrix's spectrum stays as it is
        else:
            w = spectra[i]
        lo, hi = float(w[0]), float(w[-1])
        norm2 = abs(lo) if abs(lo) > abs(hi) or lo != lo else abs(hi)
        per.append((float(np.abs(b - bh).max()), scale, lo, norm2))
    defects, scales, los, norms = zip(*per) if per else [(0.0,)] * 4  # no nonempty block: the zero matrix
    defect, scale, lo, norm2 = max(defects), max(scales), min(los), max(norms)
    return defect <= bound(tol, scale) and lo >= -bound(tol, norm2), lo, defect, norm2


def is_psd(a, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test with witness.

    Returns (verdict, witness) where witness is the smallest eigenvalue of
    the Hermitized matrix and the verdict is ``witness >= -tol * ||a||_2``.
    Raises NotHermitian when the hermitian defect exceeds tol * max-abs
    entry; past that check the verdict is ``psd_verdict``'s.
    """
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"PSD test needs a square matrix, got {m.shape}")
    ok, lo, defect, _ = psd_verdict([m], tol)
    limit = bound(tol, float(np.abs(m).max(initial=0.0)))
    if defect > limit:
        raise NotHermitian(f"hermitian defect {defect:.3e} exceeds {limit:.3e}")
    return ok, lo
