"""Algebra of maps: semigroup convolution, Choi matrix and inversion, and the
supermap layer (basis supermaps, star convolution, representing map).

The convolution of two maps, (Phi * Psi)(k) = sum over nonzero factorizations
s t = k of Phi(s) Psi(t), is the product of their lifts sum_s s (x) Phi(s) in
C0[S] (x) M_n: this is the paper's isomorphism between the convolution
algebra L(C0[S], M_n) and C0[S] (x) M_n, and a natural-basis map's values
are the coefficients of its lift.  The product is formed in the
groupoid basis, in which C0[S] is the groupoid algebra
(+)_k M_{r_k}(C[G_k]) and floor(s) floor(t) = floor(st) exactly when
dom(s) = ran(t).  Each coefficient of the product is then a sum over one
R-class, gathered from index tables the structure builds once, and Mobius
inversion brings it back to the natural basis.  On the matrix-unit semigroup
the natural order is discrete, the lift is the Choi matrix, and convolution
becomes the product preserved by the Choi-Jamiolkowski isomorphism.
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
from .semigroup import InverseStructure

_CONVOLVE_ROWS = 32  # coefficients per gather in convolve: 0.4 MB of factors at I_4, n = 4


def convolve(f1: MatrixMap, f2: MatrixMap) -> MatrixMap:
    """Semigroup convolution of two maps, each in either basis.

    Both maps are read in the groupoid basis, where the product's coefficient at
    floor(k) is sum over ran(s) = ran(k) of PhiT(floor(s)) PsiT(floor(s^-1 k)):
    one batched product over the structure's padded R-class tables.
    The result comes back through Mobius inversion, as a natural-basis map.
    """
    check_same_semigroup(f1, f2)
    left, right = f1.structure.groupoid_factors
    a, b = as_groupoid(f1).values, as_groupoid(f2).values
    vals = np.empty_like(a)
    for k in range(0, len(left), _CONVOLVE_ROWS):
        rows = slice(k, k + _CONVOLVE_ROWS)
        vals[rows] = np.einsum("kmab,kmbc->kac", a[left[rows]], b[right[rows]])
    return from_groupoid(MatrixMap(f1.structure, f1.dim, GROUPOID, vals))


# --- Choi matrix on the matrix-unit semigroup ------------------------------

def matrix_units_size(structure: InverseStructure) -> int:
    """Return m when the structure is build_matrix_units(m), else raise."""
    m = structure.matrix_units_size
    if m is None:
        raise WrongSemigroup("operation requires the matrix-unit semigroup")
    return m


def choi(f: MatrixMap) -> BlockTensor:
    """Choi matrix sum_ij e_ij (x) Phi(e_ij) of a map on matrix units."""
    # this is positivity.rep_fourier at identity_rep(m), rho(e_ij) = e_ij;
    # it stays a layout: there each entry of the einsum sums m^2 terms, all but one zero
    m = matrix_units_size(f.structure)
    # the natural order on matrix units is discrete, so both bases store Phi(e_ij),
    # and e_ij is element 1 + (i-1) m + (j-1): values[1:] is the value table
    return map_values_to_choi(f.values[1:].reshape(m, m, f.dim, f.dim))


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
    vals[1:] = choi_to_map_values(c).reshape(m * m, n, n)
    return MatrixMap(structure, n, NATURAL, vals)


# --- supermaps --------------------------------------------------------------

def map_values_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of matrix-algebra maps stored as value tables.

    A value table v[i, j] = F(e_ij) in M_n has shape (m, m, n, n);
    (F * G)(e_ij) = sum_k F(e_ik) G(e_kj).
    """
    if a.shape != b.shape:
        raise DimensionMismatch("convolution needs equal shapes")
    return np.einsum("ikab,kjbc->ijac", a, b)


def map_values_to_choi(v: np.ndarray) -> BlockTensor:
    m, _, n, _ = v.shape
    return BlockTensor(m, n, np.einsum("ijab->iajb", v).reshape(m * n, m * n))


def choi_to_map_values(c: BlockTensor) -> np.ndarray:
    return np.einsum("iajb->ijab", c.reshaped())


def supermap_basis(i: int, j: int, k: int, l: int, m1: int, n2: int) -> np.ndarray:
    """The basis map A -> tr(e_ij^dagger A) e_kl, as its value table.

    Indices are 1-based; (i, j) ranges over the source units, (k, l) over
    the target units.
    """
    if not (1 <= i <= m1 and 1 <= j <= m1 and 1 <= k <= n2 and 1 <= l <= n2):
        raise IndexOutOfRange(f"basis indices ({i},{j},{k},{l}) out of range")
    v = np.zeros((m1, m1, n2, n2), dtype=complex)
    v[i - 1, j - 1, k - 1, l - 1] = 1.0
    return v


@dataclass(frozen=True)
class Supermap:
    """A linear map between spaces of matrix-algebra maps.

    ``action[i, j, k, l]`` is the value table (over M_{m3} units, values in
    M_{n4}) of the image of the source basis map with indices (i, j, k, l);
    all indices 0-based internally.
    """

    m1: int
    n2: int
    m3: int
    n4: int
    action: np.ndarray  # (m1, m1, n2, n2, m3, m3, n4, n4)

    def __post_init__(self):
        a = np.asarray(self.action, dtype=complex)
        want = (self.m1, self.m1, self.n2, self.n2, self.m3, self.m3, self.n4, self.n4)
        if a.shape != want:
            raise DimensionMismatch(f"action tensor must have shape {want}, got {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "action", a)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to a map given by its value table v[i, j] = Gamma(e_ij)."""
        if v.shape != (self.m1, self.m1, self.n2, self.n2):
            raise DimensionMismatch("value table does not match supermap source dims")
        return np.einsum("ijkl,ijklpqrs->pqrs", v, self.action)


def identity_supermap(m1: int, n2: int) -> Supermap:
    """The supermap Theta(F) = F (source and target spaces coincide)."""
    action = np.eye((m1 * n2) ** 2).reshape(m1, m1, n2, n2, m1, m1, n2, n2)
    return Supermap(m1, n2, m1, n2, action)


def unit_supermap(m1: int, n2: int, m3: int, n4: int) -> Supermap:
    """The unit of star convolution: E_ijkl -> delta_ij delta_kl (unit of *)."""
    action = np.einsum("ij,kl,pq,rs->ijklpqrs", np.eye(m1), np.eye(n2), np.eye(m3), np.eye(n4))
    return Supermap(m1, n2, m3, n4, action)


def supermap_convolve(t1: Supermap, t2: Supermap) -> Supermap:
    """(T1 star T2)(E_ijkl) = sum_pq T1(E_ipkq) * T2(E_pjql)."""
    if (t1.m1, t1.n2, t1.m3, t1.n4) != (t2.m1, t2.n2, t2.m3, t2.n4):
        raise DimensionMismatch("supermaps have different dimension signatures")
    action = np.einsum("ipkquwab,pjqlwvbc->ijkluvac", t1.action, t2.action)
    return Supermap(t1.m1, t1.n2, t1.m3, t1.n4, action)


def representing_map(t: Supermap, x: BlockTensor) -> BlockTensor:
    """Action on Choi tensors: T(X) = Choi(Theta(map decoded from X))."""
    if (x.dim_left, x.dim_right) != (t.m1, t.n2):
        raise DimensionMismatch("Choi tensor does not match supermap source dims")
    return map_values_to_choi(t.apply(choi_to_map_values(x)))


def supermap_reconstruction(t: Supermap) -> np.ndarray:
    """The tensor sum_ijkl E_ijkl (x) Theta(E_ijkl): the action table itself."""
    # basis[i, j, k, l] is the value table of E_ijkl, as supermap_basis builds it
    basis = np.eye((t.m1 * t.n2) ** 2).reshape(t.action.shape[:4] * 2)
    return np.einsum("ijklabcd,abcdpqrs->ijklpqrs", basis, t.action)
