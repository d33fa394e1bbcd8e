"""Reference data the benchmark computes without semifourier's algorithms.

Inputs and expected results are derived here from the raw multiplication
table and plain linear algebra, so that a later change to the library cannot
change both the program's answer and the answer it is checked against.
"""

from __future__ import annotations

import math

import numpy as np


class OrderData:
    """Inverses, dom/ran and the natural partial order of an inverse semigroup with zero."""

    def __init__(self, table: np.ndarray, zero: int):
        tab = np.asarray(table)
        n = tab.shape[0]
        ar = np.arange(n)
        inv = np.empty(n, dtype=np.int64)
        for s in range(n):
            # the unique t with s t s = s and t s t = t
            ok = (tab[tab[s, :], s] == s) & (tab[tab[:, s], ar] == ar)
            (cands,) = np.nonzero(ok)
            if len(cands) != 1:
                raise ValueError(f"element {s} has {len(cands)} inverses")
            inv[s] = cands[0]
        self.table = tab
        self.zero = zero
        self.order = n
        self.inv = inv
        self.dom = tab[inv, ar]
        self.ran = tab[ar, inv]
        self.nonzero = np.array([s for s in range(n) if s != zero])
        # s <= t iff s = ran(s) t, on nonzero elements only
        leq = tab[self.ran, :] == ar[:, None]
        leq[zero, :] = False
        leq[:, zero] = False
        self.leq = leq

    def subgroup_order(self, e: int) -> int:
        return int(np.count_nonzero((self.dom == e) & (self.ran == e)))

    def to_groupoid(self, natural: np.ndarray) -> np.ndarray:
        """Groupoid coefficients: PhiT(floor(s)) = sum over t >= s of Phi(t)."""
        return np.einsum("st,tij->sij", self.leq.astype(float), natural)

    def to_natural(self, groupoid: np.ndarray) -> np.ndarray:
        """Invert ``to_groupoid`` by a triangular solve on the order matrix."""
        nz = self.nonzero
        n = groupoid.shape[1]
        a = self.leq[np.ix_(nz, nz)].astype(float)
        out = np.zeros_like(groupoid)
        out[nz] = np.linalg.solve(a, groupoid[nz].reshape(len(nz), n * n)).reshape(len(nz), n, n)
        return out


def random_values(rng, order: int, n: int) -> np.ndarray:
    return rng.standard_normal((order, n, n)) + 1j * rng.standard_normal((order, n, n))


def gram_values(od: OrderData, n: int, rng) -> np.ndarray:
    """Groupoid values V^dagger L_s V of the left regular action: PD by construction."""
    v = (rng.standard_normal((od.order, n)) + 1j * rng.standard_normal((od.order, n))) / math.sqrt(2.0)
    v[od.zero] = 0.0
    vals = np.zeros((od.order, n, n), dtype=complex)
    for s in od.nonzero:
        ts = od.nonzero[od.ran[od.nonzero] == od.dom[s]]
        vals[s] = v[od.table[s, ts]].conj().T @ v[ts]
    return vals


def unit_index(names, m: int) -> np.ndarray:
    """idx[i, j] = element index of the matrix unit e_{i+1, j+1}."""
    pos = {name: k for k, name in enumerate(names)}
    return np.array([[pos[f"e_{i}_{j}"] for j in range(1, m + 1)] for i in range(1, m + 1)])


def values_from_choi(choi: np.ndarray, idx: np.ndarray, order: int, n: int) -> np.ndarray:
    m = idx.shape[0]
    blocks = choi.reshape(m, n, m, n)
    vals = np.zeros((order, n, n), dtype=complex)
    for i in range(m):
        for j in range(m):
            vals[idx[i, j]] = blocks[i, :, j, :]
    return vals


def choi_from_values(vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_ij e_ij (x) Phi(e_ij) as an (m n) x (m n) matrix."""
    m = idx.shape[0]
    n = vals.shape[1]
    return vals[idx].transpose(0, 2, 1, 3).reshape(m * n, m * n)


def kraus_choi(m: int, n: int, rank: int, rng) -> np.ndarray:
    """Choi matrix of X -> sum_k K_k X K_k^dagger: PSD of the given rank."""
    vecs = rng.standard_normal((rank, m * n)) + 1j * rng.standard_normal((rank, m * n))
    return np.einsum("ka,kb->ab", vecs, vecs.conj())


def partial_transpose(choi: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose every value Phi(e_ij): the Choi matrix of X -> Phi(X)^T."""
    return choi.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def hermitian_nonpositive_choi(dim: int, rng) -> np.ndarray:
    """A Hermitian matrix whose smallest eigenvalue is exactly -1."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    return h - (np.linalg.eigvalsh(h)[0] + 1.0) * np.eye(dim)


def psd_verdict(mat: np.ndarray, tol: float = 1e-9, margin: float = 1e-6) -> bool | None:
    """PSD test at ``tol`` with a guard band: None when the input lies within ``margin`` of the boundary."""
    scale = max(1.0, max_abs(mat))
    defect = max_abs(mat - mat.conj().T)
    lo = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    if defect <= tol * scale and lo >= -tol * scale:
        return True
    if defect > margin * scale or lo < -margin * scale:
        return False
    return None


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def conjugacy_class_count(table: np.ndarray, inv: np.ndarray) -> int:
    conj = table[table, inv[:, None]]  # conj[h, x] = h x h^-1
    return len({frozenset(conj[:, x].tolist()) for x in range(table.shape[0])})


def builtin_order(ref: str) -> int:
    """|S| of a builtin semigroup, from the textbook formula for its family."""
    _, family, size = ref.split(":")
    k = int(size)
    if family == "symmetric_inverse":
        return sum(math.comb(k, j) ** 2 * math.factorial(j) for j in range(k + 1))
    if family == "matrix_units":
        return k * k + 1
    if family == "cyclic_with_zero":
        return k + 1
    raise ValueError(f"no order formula for {ref}")
