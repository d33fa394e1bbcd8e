"""Algebra of maps: semigroup convolution, Choi matrix and inversion, and
supermaps, which are maps on matrix units as well.

The convolution of two maps, (Phi * Psi)(k) = sum over nonzero factorizations
s t = k of Phi(s) Psi(t), is the product of their lifts sum_s s (x) Phi(s) in
C0[S] (x) M_n: this is the paper's isomorphism between L(C0[S], M_n) and
C0[S] (x) M_n.  It is formed in the groupoid basis, where C0[S] is
(+)_k M_{r_k}(C[G_k]) on the Steinberg grid of each D-class (Steinberg 2006):
one matrix product over the group algebra C[G_k] per class, brought back to
the natural basis by Mobius inversion.  On matrix units (r = m, G trivial) the
lift is the Choi matrix and convolution is the product that the
Choi-Jamiolkowski isomorphism preserves.  A supermap is the map on
matrix_units:(m1 n2) that takes each basis map's unit to the Choi matrix of
its image: star convolution is ``convolve`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cxmat import BlockTensor
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    WrongSemigroup,
)
from .harmonic import GROUPOID, NATURAL, MatrixMap, as_groupoid, check_same_semigroup, from_groupoid
from .semigroup import InverseStructure, matrix_unit_index


def convolve(f1: MatrixMap, f2: MatrixMap) -> MatrixMap:
    """Semigroup convolution of two maps, each in either basis, as a natural-basis map.

    On the grid of each D-class the groupoid values form A in M_r(C[G]), and
    (A * B)[a, b](g) = sum_c sum_h A[a, c](h) B[c, b](h^-1 g): one
    (r n, r |G| n) . (r |G| n, r |G| n) product, with B gathered at
    grid[c, b, h^-1 g], read from ``class_products``.  Mobius inversion brings
    the product back.
    """
    check_same_semigroup(f1, f2)
    st, n = f1.structure, f1.dim
    # row x n + i of these (|S| n, n) views is row i of the value at x
    a, b = (as_groupoid(f).values.reshape(-1, n) for f in (f1, f2))
    vals, i = np.zeros_like(a), np.arange(n)[:, None, None]
    for grid, prod in zip(st.class_grids, st.class_products):
        (r, _, order), rows = grid.shape, grid[:, None] * n + i  # (a, i, c, h) of A, (a, i, b, g) of A * B
        cols = prod[:, :, None] * n + i  # grid[c, b, h^-1 g] at (c, h, j, b, g)
        vals[rows] = (a[rows].reshape(r * n, -1) @ b[cols].reshape(r * order * n, -1)).reshape(r, n, r, order, n)
    return from_groupoid(MatrixMap(st, n, GROUPOID, vals.reshape(-1, n, n)))


# --- Choi matrix on the matrix-unit semigroup ------------------------------

def matrix_units_size(structure: InverseStructure) -> int:
    """Return m when the structure is build_matrix_units(m), else raise."""
    m = structure.matrix_units_size
    if m is None:
        raise WrongSemigroup("operation requires the matrix-unit semigroup")
    return m


def choi_layout(f: MatrixMap) -> np.ndarray:
    """The (m n, m n) array [(i, a), (j, b)] = Phi(e_ij)[a, b] of a map on matrix units."""
    # this is positivity.rep_fourier at identity_rep(m), rho(e_ij) = e_ij;
    # it stays a layout: there each entry of the einsum sums m^2 terms, all but one zero
    m, n = matrix_units_size(f.structure), f.dim
    # the natural order on matrix units is discrete, so both bases store Phi(e_ij),
    # and e_ij is element 1 + (i-1) m + (j-1): values[1:] is the value table
    return f.values[1:].reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


def choi(f: MatrixMap) -> BlockTensor:
    """Choi matrix sum_ij e_ij (x) Phi(e_ij) of a map on matrix units."""
    c = choi_layout(f)
    return BlockTensor(len(c) // f.dim, f.dim, c)


def choi_invert(c: BlockTensor, x: np.ndarray) -> np.ndarray:
    """Choi inversion: Phi(X) = tr_1[(X^T (x) I) C_Phi]."""
    x = np.asarray(x, dtype=complex)
    m = c.dim_left
    if x.shape != (m, m):
        raise DimensionMismatch(f"argument must be {m}x{m}, got {x.shape}")
    # tr_1[(X^T (x) I) C][i, j] = sum_{a, b} X[a, b] C[(a, i), (b, j)]
    return np.einsum("ab,aibj->ij", x, c.reshaped())


def map_from_choi(c: BlockTensor, structure: InverseStructure) -> MatrixMap:
    """Decode a Choi tensor back to a natural-basis map on matrix units."""
    m = matrix_units_size(structure)
    if c.dim_left != m:
        raise DimensionMismatch("Choi tensor does not match the semigroup")
    n = c.dim_right
    vals = np.zeros((structure.table.order, n, n), dtype=complex)
    vals[1:] = c.reshaped().transpose(0, 2, 1, 3).reshape(m * m, n, n)
    return MatrixMap(structure, n, NATURAL, vals)


# --- supermaps --------------------------------------------------------------

def supermap_basis(i: int, j: int, k: int, l: int, n2: int, structure: InverseStructure) -> MatrixMap:
    """The basis map E_ijkl: A -> tr(e_ij^dagger A) e_kl on ``structure`` = matrix_units:m1.

    Indices are 1-based: (i, j) over the source units, (k, l) the target's."""
    m1 = matrix_units_size(structure)
    if not (1 <= i <= m1 and 1 <= j <= m1 and 1 <= k <= n2 and 1 <= l <= n2):
        raise IndexOutOfRange(f"basis indices ({i},{j},{k},{l}) out of range")
    vals = np.zeros((structure.table.order, n2, n2), dtype=complex)
    vals[matrix_unit_index(m1, i, j), k - 1, l - 1] = 1.0
    return MatrixMap(structure, n2, NATURAL, vals)


@dataclass(frozen=True)
class Supermap:
    """A linear map Theta from maps M_m1 -> M_n2 to maps M_m3 -> M_n4.

    ``map`` is the natural-basis map on matrix_units:(m1 n2) whose value at
    e_(i,k),(j,l) is the Choi matrix of Theta(E_ijkl), as [(u, a), (w, b)] in
    M_(m3 n4).  The dimensions are kept since m1 n2 alone does not fix the split.
    """

    m1: int
    n2: int
    m3: int
    n4: int
    map: MatrixMap

    def __post_init__(self):
        f, want = self.map, (self.m1 * self.n2, self.m3 * self.n4, NATURAL)
        if (matrix_units_size(f.structure), f.dim, f.basis) != want:
            raise DimensionMismatch("supermap must be a natural map on matrix_units:(m1 n2) into M_(m3 n4)")


def identity_supermap(m1: int, n2: int, structure: InverseStructure) -> Supermap:
    """The supermap Theta(F) = F: each unit e_u goes to itself, so its Choi matrix is vec(I) vec(I)^T."""
    vec = np.eye(m1 * n2).ravel()
    return Supermap(m1, n2, m1, n2, map_from_choi(BlockTensor(m1 * n2, m1 * n2, np.outer(vec, vec)), structure))


def unit_supermap(m1: int, n2: int, m3: int, n4: int, structure: InverseStructure) -> Supermap:
    """The unit of star convolution, E_ijkl -> delta_ij delta_kl (unit of *): Choi matrix I."""
    d = m1 * n2 * m3 * n4
    return Supermap(m1, n2, m3, n4, map_from_choi(BlockTensor(m1 * n2, m3 * n4, np.eye(d)), structure))


def supermap_convolve(t1: Supermap, t2: Supermap) -> Supermap:
    """(T1 star T2)(E_ijkl) = sum_pq T1(E_ipkq) * T2(E_pjql).

    Choi(F * G) = Choi(F) Choi(G) and e_(i,k),(p,q) e_(p,q),(j,l) = e_(i,k),(j,l),
    so this is ``convolve`` on matrix_units:(m1 n2).
    """
    if (t1.m1, t1.n2, t1.m3, t1.n4) != (t2.m1, t2.n2, t2.m3, t2.n4):
        raise DimensionMismatch("supermaps have different dimension signatures")
    return Supermap(t1.m1, t1.n2, t1.m3, t1.n4, convolve(t1.map, t2.map))


def representing_map(t: Supermap, x: BlockTensor) -> BlockTensor:
    """Action on Choi tensors: T(X) = Choi(Theta(map decoded from X)) = t.map evaluated at X."""
    if (x.dim_left, x.dim_right) != (t.m1, t.n2):
        raise DimensionMismatch("Choi tensor does not match supermap source dims")
    return BlockTensor(t.m3, t.n4, choi_invert(choi(t.map), x.matrix))
