"""Finite (inverse) semigroup structure.

Semigroups are multiplication tables over elements 0..N-1 with an optional
distinguished zero.  From a validated table with zero we derive the inverse
structure: unique generalized inverses, idempotents, the natural partial
order, the Mobius function (exact integers), D-classes with their base
idempotents and transversals, the groupoid change-of-basis matrices, and
maximal subgroups.  The Mobius function is lifted from the semilattice of
idempotents: mu(s, t) = mu_E(ran s, ran t) for s <= t (B. Steinberg,
"Mobius functions and semigroup representation theory", JCTA 113, 2006).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AlreadyHasZero,
    ClassMismatch,
    NoZeroElement,
    NotAssociative,
    NotIdempotent,
    NotInverseSemigroup,
    SizeLimit,
    ZeroNotAbsorbing,
)

if TYPE_CHECKING:
    from .grouprep import GroupRep

MAX_SYMMETRIC_DEGREE = 4  # |I_4| = 209 elements; degree 5 would be 1546
MAX_ORDER = 256  # elements in a semigroup; I_4 has 209, matrix_units:15 has 226
# target dimension of a map and dimension of a representation: a map at the order cap
# then holds 256 * 64^2 complex values (16 MB)
MAX_DIM = 64
_VALIDATE_ROWS = 16  # rows of x per associativity chunk


@dataclass(frozen=True)
class SemigroupTable:
    """A finite semigroup given by its multiplication table.

    ``table[i, j]`` is the index of element_i * element_j.  ``zero`` is the
    index of the absorbing element, or None when the semigroup has no zero.
    """

    name: str
    element_names: tuple[str, ...]
    zero: int | None
    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=np.int32)
        n = len(self.element_names)
        if t.shape != (n, n):
            raise ValueError(f"table must be {n}x{n}, got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= n):
            raise ValueError("table entries must be element indices")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "element_names", tuple(self.element_names))

    @property
    def order(self) -> int:
        return len(self.element_names)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def index_of(self, name: str) -> int:
        return self.element_names.index(name)

    def same_semigroup(self, other: "SemigroupTable") -> bool:
        return self is other or (
            self.zero == other.zero
            and self.element_names == other.element_names
            and np.array_equal(self.table, other.table)
        )


def _associativity_witness(tab: np.ndarray) -> tuple[int, int, int] | None:
    """The first (x, y, z) in row-major order with (xy)z != x(yz), or None.

    Rows of x are compared in chunks, so the temporaries stay at
    2 * _VALIDATE_ROWS * N^2 indices instead of 2 * N^3.
    """
    n = tab.shape[0]
    tab = tab.astype(np.int16 if n < 2**15 else np.int32)
    for x0 in range(0, n, _VALIDATE_ROWS):
        rows = tab[x0:x0 + _VALIDATE_ROWS]
        # [x, y, z]: table[xy, z] against table[x, yz]
        bad = np.take(tab, rows, axis=0) != np.take(rows, tab, axis=1)
        if bad.any():
            x, y, z = (int(v) for v in np.argwhere(bad)[0])
            return x0 + x, y, z
    return None


def validate_semigroup(t: SemigroupTable) -> None:
    """Check associativity over all triples and absorption of the zero.

    Raises NotAssociative with a witness triple (by name) on the first
    failure found, or ZeroNotAbsorbing.
    """
    tab = t.table
    witness = _associativity_witness(tab)
    if witness is not None:
        x, y, z = witness
        names = t.element_names
        raise NotAssociative(
            f"({names[x]}*{names[y]})*{names[z]} != {names[x]}*({names[y]}*{names[z]})",
            (x, y, z),
        )
    if t.zero is not None:
        z = t.zero
        bad = np.nonzero((tab[z, :] != z) | (tab[:, z] != z))[0]
        if bad.size:
            s = int(bad[0])
            raise ZeroNotAbsorbing(f"zero does not absorb element {t.element_names[s]}", s)


# --- builders -------------------------------------------------------------

def build_matrix_units(m: int) -> SemigroupTable:
    """Matrix-unit semigroup on m x m units plus zero: e_ij * e_kl = delta_jk e_il."""
    if m < 1:
        raise ValueError("m must be >= 1")
    names = ["z"] + [f"e_{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
    n = m * m + 1
    # units[i, j, k, l] is the index of e_ij * e_kl (0-based i, j, k, l)
    a = np.arange(m)
    units = np.where(
        (a[:, None] == a[None, :])[None, :, :, None],
        1 + m * a[:, None, None, None] + a[None, None, None, :],
        0,
    )
    tab = np.zeros((n, n), dtype=np.int32)
    tab[1:, 1:] = units.reshape(m * m, m * m)
    return SemigroupTable(f"matrix_units:{m}", tuple(names), 0, tab)


def matrix_unit_index(m: int, i: int, j: int) -> int:
    """Element index of e_ij (1-based i, j) in build_matrix_units(m)."""
    return 1 + (i - 1) * m + (j - 1)


def _partial_bijections(n: int):
    """All partial bijections of {1..n} as sorted tuples of (x, f(x)) pairs.

    Ordered by rank, then domain, then image tuple: a fixed enumeration so
    element indices are stable across runs.
    """
    points = list(range(1, n + 1))
    out = []
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for img in itertools.permutations(points, k):
                out.append(tuple(zip(dom, img)))
    return out


def build_symmetric_inverse(n: int) -> SemigroupTable:
    """Symmetric inverse semigroup I_n: partial bijections of {1..n} under composition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SYMMETRIC_DEGREE:
        raise SizeLimit(f"symmetric inverse degree capped at {MAX_SYMMETRIC_DEGREE}")
    elems = _partial_bijections(n)

    def label(e):
        if not e:
            return "z"
        return "[" + ",".join(f"{x}>{y}" for x, y in e) + "]"

    names = tuple(label(e) for e in elems)
    N = len(elems)
    # img[i, x] is the 0-based image of point x + 1 under element i, n where
    # undefined; column n keeps "undefined" undefined under composition
    img = np.full((N, n + 1), n, dtype=np.intp)
    for i, e in enumerate(elems):
        for x, y in e:
            img[i, x - 1] = y - 1
    # s after t is x -> img[s, img[t, x]]; a map is its base-(n + 1) code
    weights = (n + 1) ** np.arange(n)
    index = np.empty((n + 1) ** n, dtype=np.int32)
    index[img[:, :n] @ weights] = np.arange(N)
    tab = index[img[np.arange(N)[:, None, None], img[None, :, :n]] @ weights]
    return SemigroupTable(f"symmetric_inverse:{n}", names, 0, tab)


def build_cyclic_group(n: int) -> SemigroupTable:
    """Cyclic group Z_n as a zero-free semigroup table (elements g0..g{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = tuple(f"g{i}" for i in range(n))
    tab = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=np.int32)
    return SemigroupTable(f"cyclic:{n}", names, None, tab.astype(np.int32))


def adjoin_zero(t: SemigroupTable) -> SemigroupTable:
    """Adjoin a fresh absorbing zero (appended as the last element)."""
    if t.zero is not None:
        raise AlreadyHasZero(f"{t.name} already has a zero element")
    n = t.order
    tab = np.full((n + 1, n + 1), n, dtype=np.int32)
    tab[:n, :n] = t.table
    return SemigroupTable(f"{t.name}+0", t.element_names + ("z",), n, tab)


def build_cyclic_with_zero(n: int) -> SemigroupTable:
    """Cyclic group Z_n with a zero adjoined at index 0 (elements z, g0..g{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = ("z",) + tuple(f"g{i}" for i in range(n))
    tab = np.zeros((n + 1, n + 1), dtype=np.int32)
    tab[1:, 1:] = 1 + np.add.outer(np.arange(n), np.arange(n)) % n
    return SemigroupTable(f"cyclic_with_zero:{n}", names, 0, tab)


BUILTIN_BUILDERS = {
    "matrix_units": build_matrix_units,
    "symmetric_inverse": build_symmetric_inverse,
    "cyclic_with_zero": build_cyclic_with_zero,
}


def check_order(order: int, what: str) -> None:
    """Refuse a semigroup of more than MAX_ORDER elements, before anything of its size is built."""
    if order > MAX_ORDER:
        raise SizeLimit(f"{what} has {order} elements; the cap is {MAX_ORDER}")


def from_builtin(ref: str) -> SemigroupTable:
    """Resolve a reference like "builtin:matrix_units:2".

    The order is checked against MAX_ORDER before the table is built; I_n
    is capped by its degree in ``build_symmetric_inverse``."""
    parts = ref.split(":")
    if len(parts) != 3 or parts[0] != "builtin":
        raise ValueError(f"bad builtin reference {ref!r}")
    _, family, size = parts
    if family not in BUILTIN_BUILDERS:
        raise ValueError(f"unknown builtin family {family!r}")
    n = int(size)
    check_order({"matrix_units": n * n + 1, "cyclic_with_zero": n + 1}.get(family, 0), ref)
    return BUILTIN_BUILDERS[family](n)


# --- groups ---------------------------------------------------------------

@dataclass(frozen=True)
class GroupTable:
    """A finite group over local indices 0..|G|-1.

    When extracted from an ambient semigroup, ``ambient`` maps local indices
    to ambient element indices.
    """

    name: str
    element_names: tuple[str, ...]
    table: np.ndarray
    identity: int
    inv: np.ndarray
    ambient: tuple[int, ...] | None = None

    def __post_init__(self):
        t = np.array(self.table, dtype=np.int32)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        iv = np.array(self.inv, dtype=np.int32)
        iv.setflags(write=False)
        object.__setattr__(self, "inv", iv)

    @property
    def order(self) -> int:
        return len(self.element_names)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])


def cyclic_group_table(n: int) -> GroupTable:
    """Cyclic group Z_n directly as a GroupTable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tab = np.add.outer(np.arange(n), np.arange(n)) % n
    inv = (-np.arange(n)) % n
    return GroupTable(
        name=f"Z{n}",
        element_names=tuple(f"g{i}" for i in range(n)),
        table=tab.astype(np.int32),
        identity=0,
        inv=inv.astype(np.int32),
    )


def validate_group(g: GroupTable) -> None:
    n = g.order
    tab = g.table
    if _associativity_witness(tab) is not None:
        raise NotAssociative("group table is not associative")
    e = g.identity
    if not (np.array_equal(tab[e, :], np.arange(n)) and np.array_equal(tab[:, e], np.arange(n))):
        raise ValueError("identity element does not act as identity")
    ar = np.arange(n)
    if not (np.array_equal(tab[ar, g.inv], np.full(n, e)) and np.array_equal(tab[g.inv, ar], np.full(n, e))):
        raise ValueError("inverse table is wrong")


# --- inverse structure ----------------------------------------------------

@dataclass(frozen=True)
class InverseStructure:
    """Derived data of a finite inverse semigroup with zero.

    The natural partial order, Mobius table and groupoid data are restricted
    to nonzero elements: z maps to 0 in the contracted algebra and no
    interval between nonzero elements passes through z.
    """

    table: SemigroupTable
    inv: np.ndarray                      # per-element inverse index
    idempotents: tuple[int, ...]         # nonzero idempotents, ascending
    dom: np.ndarray                      # dom(s) = s^-1 s
    ran: np.ndarray                      # ran(s) = s s^-1
    leq: np.ndarray                      # bool NxN, nonzero elements only
    mobius: np.ndarray                   # int NxN, mu(t, s) on comparable pairs
    dclasses: tuple[tuple[int, ...], ...]  # nonzero D-classes, each ascending
    class_of: np.ndarray                 # class index per element, -1 at zero
    ranks: tuple[int, ...]               # idempotents per class
    base_idempotents: tuple[int, ...]    # chosen e_k per class
    transversal_at: np.ndarray           # p_e at each nonzero idempotent e, z elsewhere
    # kept on first use, never by inverse_structure: unitary_irreps(class_groups[k], seed) at
    # (k, seed) (``class_irreps``) and the checked induced family at seed (``induced_irreps``)
    _irreps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _families: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def zero(self) -> int:
        return self.table.zero

    @cached_property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.table.order) if i != self.zero)

    @cached_property
    def class_weights(self) -> np.ndarray:
        """r_k |G_k| = |D_k| / r_k per class k, exactly, since |D_k| = r_k^2 |G_k|.

        The weight of class k in Fourier inversion, Plancherel and Schur
        orthogonality.
        """
        w = np.array([len(c) // r for c, r in zip(self.dclasses, self.ranks)], dtype=np.int64)
        w.setflags(write=False)
        return w

    @cached_property
    def group_coordinates(self) -> np.ndarray:
        """The group coordinate g(x) = p_ran(x)^-1 x p_dom(x) of every element x, z at z."""
        tab, p = self.table.table, self.transversal_at
        left = tab[self.inv[p[self.ran]], np.arange(self.table.order)]
        g = tab[left, p[self.dom]]
        g.setflags(write=False)
        return g

    @cached_property
    def class_grids(self) -> tuple[np.ndarray, ...]:
        """Per class k, grid[a, b, g] = p_a g p_b^-1, so x sits at (ran x, dom x, g(x)): a, b
        run over ``class_idempotents(k)``, g over ``maximal_subgroup(e_k)`` (Steinberg 2006)."""
        grids = []
        for k, cls in enumerate(self.dclasses):
            x, es = np.asarray(cls), np.asarray(self.class_idempotents(k))
            group, g = np.unique(self.group_coordinates[x], return_inverse=True)  # G_k, ascending
            grids.append(np.empty((len(es), len(es), len(group)), dtype=np.intp))
            grids[-1][np.searchsorted(es, self.ran[x]), np.searchsorted(es, self.dom[x]), g] = x
            grids[-1].setflags(write=False)
        return tuple(grids)

    @cached_property
    def grid_index(self) -> np.ndarray:
        """The flat position of each nonzero x in ``class_grids[class_of[x]]``, -1 at z:
        grid[a, b, g] sits at (a r_k + b) |G_k| + g, so g is the position mod |G_k|, and
        an x of the base R-class grid[0] sits at its position in grid[0]."""
        index = np.full(self.table.order, -1, dtype=np.intp)
        for grid in self.class_grids:
            index[grid.ravel()] = np.arange(grid.size)
        index.setflags(write=False)
        return index

    @cached_property
    def class_groups(self) -> tuple[GroupTable, ...]:
        """``maximal_subgroup(e_k)`` per class k, built once: G_k in ascending order, the g
        axis of ``class_grids[k]``, with its own multiplication and inverse tables."""
        return tuple(maximal_subgroup(self, e) for e in self.base_idempotents)

    def class_irreps(self, k: int, seed: int = 0) -> tuple[GroupRep, ...]:
        """``unitary_irreps(class_groups[k], seed)``, built on first use and kept per class and
        seed: the group irreps that natural and blocks PD (at seed 0) and ``induced_irreps``
        read.  Racing callers may both build it, but each gets the one finished tuple kept."""
        if (k, seed) not in self._irreps:
            from .grouprep import unitary_irreps

            self._irreps.setdefault((k, seed), tuple(unitary_irreps(self.class_groups[k], seed)))
        return self._irreps[k, seed]

    @cached_property
    def class_products(self) -> tuple[np.ndarray, ...]:
        """Per class k, prod[b, h, c, g] = grid[b, c, h^-1 g] with grid = ``class_grids[k]``:
        s^-1 t for s = grid[a, b, h] and t = grid[a, c, g], the same for every R-class a."""
        products = []
        for grid, group in zip(self.class_grids, self.class_groups):
            products.append(np.ascontiguousarray(grid[:, :, group.table[group.inv]].transpose(0, 2, 1, 3)))
            products[-1].setflags(write=False)
        return tuple(products)

    @cached_property
    def discrete_order(self) -> bool:
        """True when s <= t only for s = t (matrix units, groups with zero): then
        floor(s) = s, zeta and Mobius are the identity and both bases hold the same values."""
        return int(np.count_nonzero(self.leq)) == len(self.nonzero)

    @cached_property
    def leq_float(self) -> np.ndarray:
        """``leq`` cast to float once, for the basis changes."""
        a = self.leq.astype(float)
        a.setflags(write=False)
        return a

    @cached_property
    def mobius_float(self) -> np.ndarray:
        """``mobius`` cast to float once, for the basis changes."""
        a = self.mobius.astype(float)
        a.setflags(write=False)
        return a

    @cached_property
    def unit_isotypic_bases(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(d_rho, Q_rho) per irrep rho of the unit group, over ``nonzero``.

        The unit group G is the maximal subgroup at the identity.  Left
        multiplication by g in G permutes the nonzero elements and keeps
        s^-1 t, since (gs)^-1 (gt) = s^-1 t, so it commutes with the natural
        PD matrix; ``grouprep.isotypic_bases`` gives the Q_rho that split it.
        G is the class group of the identity, the only idempotent of its
        D-class, and its irreps are ``class_irreps`` at seed 0 whatever seed the
        caller uses.  Without an identity, or with |G| above
        ``MAX_GROUP_ORDER``, G is taken as the trivial group, and its one Q_rho
        spans every nonzero element.
        """
        from .grouprep import MAX_GROUP_ORDER, isotypic_bases, unitary_irreps

        t, nz = self.table.table, np.asarray(self.nonzero, dtype=np.intp)
        everything = np.arange(self.table.order)
        one = next((e for e in self.idempotents
                    if np.array_equal(t[e], everything) and np.array_equal(t[:, e], everything)), None)
        k = None if one is None else int(self.class_of[one])
        if k is not None and self.class_groups[k].order <= MAX_GROUP_ORDER:
            irreps = self.class_irreps(k)
            pos = np.zeros(self.table.order, dtype=np.intp)
            pos[nz] = np.arange(len(nz))
            perms = pos[t[np.asarray(self.class_groups[k].ambient)][:, nz]]
        else:
            irreps = unitary_irreps(cyclic_group_table(1), seed=0)
            perms = np.arange(len(nz))[None, :]
        return isotypic_bases(irreps, perms)

    @cached_property
    def unit_isotypic_lifts(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(d_rho, W_rho = zeta Q_rho) per (d_rho, Q_rho) of ``unit_isotypic_bases``.

        zeta[a, s] = [a <= s] writes each natural element in the groupoid
        basis, s = sum_{a <= s} floor(a), so the natural PD matrix is
        zeta^T G zeta (x) I_n with G the groupoid PD matrix, and its rho-block
        is W_rho^dagger G W_rho (x) I_n.  Rows run over all elements, zero at z.
        """
        zeta = self.leq_float[:, list(self.nonzero)]
        out = tuple((d, zeta @ q) for d, q in self.unit_isotypic_bases)
        for _, w in out:
            w.setflags(write=False)
        return out

    @cached_property
    def matrix_units_size(self) -> int | None:
        """m when the table is that of ``build_matrix_units(m)``, else None."""
        m = round((self.table.order - 1) ** 0.5)
        if m >= 1 and m * m + 1 == self.table.order and self.table.same_semigroup(build_matrix_units(m)):
            return m
        return None

    def mul(self, a: int, b: int) -> int:
        return self.table.mul(a, b)

    def is_idempotent(self, e: int) -> bool:
        return self.table.mul(e, e) == e and e != self.zero

    def class_idempotents(self, k: int) -> tuple[int, ...]:
        cls = np.asarray(self.dclasses[k], dtype=np.intp)
        return tuple(cls[self.table.table[cls, cls] == cls].tolist())

    def same_semigroup(self, other: "InverseStructure") -> bool:
        return self.table.same_semigroup(other.table)


def _unique_inverses(t: SemigroupTable) -> np.ndarray:
    tab, ar = t.table, np.arange(t.order)
    # cands[s, u]: s u s = s and u s u = u
    cands = (tab[tab, ar[:, None]] == ar[:, None]) & (tab[tab.T, ar] == ar)
    counts = cands.sum(axis=1)
    if np.any(counts != 1):
        s = int(np.flatnonzero(counts != 1)[0])
        raise NotInverseSemigroup(
            f"element {t.element_names[s]} has {counts[s]} generalized inverses", s
        )
    return cands.argmax(axis=1).astype(np.int32)


def _semilattice_mobius(leq_e: np.ndarray) -> np.ndarray:
    """Inverse of the zeta matrix of a finite poset, as exact integers.

    Sorted by down-set size, e < f puts e before f, so the zeta matrix is
    unitriangular and back-substitution solves Z mu = I row by row.
    """
    order = np.argsort(leq_e.sum(axis=0), kind="stable")
    zeta = leq_e[np.ix_(order, order)].astype(np.int64)
    mu = np.eye(len(order), dtype=np.int64)
    for i in range(len(order) - 1, -1, -1):
        mu[i] -= zeta[i, i + 1:] @ mu[i + 1:]
    out = np.empty_like(mu)
    out[np.ix_(order, order)] = mu
    return out


def inverse_structure(t: SemigroupTable) -> InverseStructure:
    """Derive the full inverse structure of a validated semigroup with zero.

    For s <= t, e -> e t maps the idempotents below ran t onto the interval
    below t, so mu(s, t) = mu_E(ran s, ran t) (Steinberg 2006), and only the
    zeta matrix of the idempotents is inverted.
    """
    if t.zero is None:
        raise NoZeroElement(f"{t.name} has no zero; adjoin one first")
    validate_semigroup(t)
    n = t.order
    z = t.zero
    tab = t.table
    inv = _unique_inverses(t)
    ar = np.arange(n)
    dom = tab[inv, ar]
    ran = tab[ar, inv]
    idempotents = tuple(int(e) for e in np.nonzero(tab[ar, ar] == ar)[0] if e != z)

    # natural order: s <= t iff s = (s s^-1) t, restricted to nonzero elements
    leq = tab[ran, :] == ar[:, None]
    leq[z, :] = False
    leq[:, z] = False

    idems = np.asarray(idempotents, dtype=np.intp)
    pos = np.zeros(n, dtype=np.intp)
    pos[idems] = np.arange(len(idems))
    mu_e = _semilattice_mobius(leq[np.ix_(idems, idems)])
    if idems.size:
        mobius = np.where(leq, mu_e[pos[ran][:, None], pos[ran][None, :]], 0)
    else:  # {z} alone: no nonzero element, no comparable pair
        mobius = np.zeros((n, n), dtype=np.int64)

    # D-relation: s D t iff some x has dom(x) = ran(s) and ran(x) = ran(t)
    nz = np.flatnonzero(ar != z)
    linked = np.zeros((n, n), dtype=bool)
    linked[dom[nz], ran[nz]] = True
    class_of = np.full(n, -1, dtype=np.int32)
    if nz.size:  # {z} alone: no nonzero element, no class
        # each class is numbered by its least element, ascending
        least = linked[ran[nz][:, None], ran[nz]].argmax(axis=1)
        class_of[nz] = np.unique(least, return_inverse=True)[1]
    classes = [tuple(nz[class_of[nz] == k].tolist()) for k in range(class_of.max() + 1)]

    # e_k is the least idempotent of class k; p_e is e_k at e = e_k, else the
    # lowest-index x with dom(x) = e_k and ran(x) = e
    ranks = np.bincount(class_of[idems], minlength=len(classes))
    base = idems[np.unique(class_of[idems], return_index=True)[1]]
    x = nz[dom[nz] == base[class_of[nz]]]
    lowest = x[np.unique(ran[x], return_index=True)[1]]
    transversal_at = np.full(n, z, dtype=np.intp)
    transversal_at[idems] = np.where(np.isin(idems, base), idems, lowest)

    dom = dom.astype(np.int32)
    ran = ran.astype(np.int32)
    for arr in (inv, dom, ran, leq, mobius, class_of, transversal_at):
        arr.setflags(write=False)
    return InverseStructure(
        table=t,
        inv=inv,
        idempotents=idempotents,
        dom=dom,
        ran=ran,
        leq=leq,
        mobius=mobius,
        dclasses=tuple(classes),
        class_of=class_of,
        ranks=tuple(ranks.tolist()),
        base_idempotents=tuple(base.tolist()),
        transversal_at=transversal_at,
    )


def groupoid_basis_matrices(s: InverseStructure) -> tuple[np.ndarray, np.ndarray]:
    """Integer change-of-basis matrices over the nonzero-element basis.

    Column j of M holds the natural-basis coefficients of the groupoid
    element for nonzero element j (Mobius coefficients); column j of M_inv
    recovers the natural element as a sum of groupoid elements.  M @ M_inv
    is the identity exactly.
    """
    nz = list(s.nonzero)
    idx = np.ix_(nz, nz)
    m = s.mobius[idx].astype(np.int64)
    m_inv = s.leq[idx].astype(np.int64)
    return m, m_inv


def groupoid_product(s: InverseStructure, a: int, b: int) -> int | None:
    """Product in the groupoid basis: a*b when dom(a) = ran(b), else None."""
    if a == s.zero or b == s.zero:
        raise ValueError("groupoid product is defined on nonzero elements")
    if s.dom[a] != s.ran[b]:
        return None
    return s.mul(a, b)


def maximal_subgroup(s: InverseStructure, e: int) -> GroupTable:
    """The maximal subgroup at idempotent e: all x with dom(x) = ran(x) = e."""
    if not s.is_idempotent(e):
        raise NotIdempotent(f"element {s.table.element_names[e]} is not a nonzero idempotent")
    members = np.flatnonzero((s.dom == e) & (s.ran == e)).tolist()
    local = np.zeros(s.table.order, dtype=np.int32)
    local[members] = np.arange(len(members))
    tab = local[s.table.table[np.ix_(members, members)]]
    inv = local[s.inv[members]]
    g = GroupTable(
        name=f"G[{s.table.element_names[e]}]",
        element_names=tuple(s.table.element_names[x] for x in members),
        table=tab,
        identity=int(local[e]),
        inv=inv,
        ambient=tuple(members),
    )
    validate_group(g)
    return g


def steinberg_phi(s: InverseStructure, x: int) -> tuple[int, int, int, int]:
    """Map x to its Steinberg coordinates (class, group element, ran, dom).

    The group element p_ran(x)^-1 * x * p_dom(x) lies in the maximal subgroup
    at the class's base idempotent; it is returned as an ambient index.
    """
    if x == s.zero:
        raise ValueError("zero has no Steinberg coordinates")
    return int(s.class_of[x]), int(s.group_coordinates[x]), int(s.ran[x]), int(s.dom[x])


def steinberg_phi_inv(s: InverseStructure, k: int, g: int, a: int, b: int) -> int:
    """Inverse of steinberg_phi: the element p_a * g * p_b^-1."""
    ek = s.base_idempotents[k]
    if s.class_of[g] != k or s.dom[g] != ek or s.ran[g] != ek:
        raise ClassMismatch(f"element {s.table.element_names[g]} is not in the subgroup of class {k}")
    for e in (a, b):
        if not s.is_idempotent(e) or s.class_of[e] != k:
            raise ClassMismatch(f"{s.table.element_names[e]} is not an idempotent of class {k}")
    return s.mul(s.mul(s.transversal_at[a], g), s.inv[s.transversal_at[b]])
