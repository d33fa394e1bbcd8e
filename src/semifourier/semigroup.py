"""Finite (inverse) semigroup structure.

Semigroups are multiplication tables over elements 0..N-1 with an optional
distinguished zero.  From a validated table with zero we derive the inverse
structure: unique generalized inverses, idempotents, the natural partial
order, the Mobius function (exact integers), D-classes with their base
idempotents and transversals, the groupoid change-of-basis matrices, and
maximal subgroups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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

MAX_SYMMETRIC_DEGREE = 4  # |I_4| = 209 elements; degree 5 would be 1546


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
        return (
            self.zero == other.zero
            and self.element_names == other.element_names
            and np.array_equal(self.table, other.table)
        )


def validate_semigroup(t: SemigroupTable) -> None:
    """Check associativity over all triples and absorption of the zero.

    Raises NotAssociative with a witness triple (by name) on the first
    failure found, or ZeroNotAbsorbing.
    """
    tab = t.table
    # (xy)z vs x(yz), fully vectorized; N <= ~209 keeps this in memory
    left = tab[tab]          # left[x,y,z] = table[table[x,y],z]
    right = tab[:, tab]      # right[x,y,z] = table[x,table[y,z]]
    if not np.array_equal(left, right):
        x, y, z = (int(v) for v in np.argwhere(left != right)[0])
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


def _compose_pbij(s, t):
    """s after t: x -> s(t(x)) wherever defined."""
    smap = dict(s)
    return tuple(sorted((x, smap[y]) for x, y in t if y in smap))


def build_symmetric_inverse(n: int) -> SemigroupTable:
    """Symmetric inverse semigroup I_n: partial bijections of {1..n} under composition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SYMMETRIC_DEGREE:
        raise SizeLimit(f"symmetric inverse degree capped at {MAX_SYMMETRIC_DEGREE}")
    elems = _partial_bijections(n)
    index = {e: i for i, e in enumerate(elems)}

    def label(e):
        if not e:
            return "z"
        return "[" + ",".join(f"{x}>{y}" for x, y in e) + "]"

    names = tuple(label(e) for e in elems)
    N = len(elems)
    tab = np.zeros((N, N), dtype=np.int32)
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            tab[i, j] = index[_compose_pbij(s, t)]
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
    N = n + 1
    tab = np.zeros((N, N), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            tab[1 + i, 1 + j] = 1 + (i + j) % n
    return SemigroupTable(f"cyclic_with_zero:{n}", names, 0, tab)


BUILTIN_BUILDERS = {
    "matrix_units": build_matrix_units,
    "symmetric_inverse": build_symmetric_inverse,
    "cyclic_with_zero": build_cyclic_with_zero,
}


def from_builtin(ref: str) -> SemigroupTable:
    """Resolve a reference like "builtin:matrix_units:2"."""
    parts = ref.split(":")
    if len(parts) != 3 or parts[0] != "builtin":
        raise ValueError(f"bad builtin reference {ref!r}")
    _, family, size = parts
    if family not in BUILTIN_BUILDERS:
        raise ValueError(f"unknown builtin family {family!r}")
    return BUILTIN_BUILDERS[family](int(size))


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

    def local_of_ambient(self, x: int) -> int:
        if self.ambient is None:
            raise ValueError("group has no ambient embedding")
        return self.ambient.index(x)


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
    left = tab[tab][:, :, :]
    right = tab[:, tab]
    if not np.array_equal(left, right):
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
    transversals: dict[int, int] = field(repr=False)  # idempotent e -> p_e

    @property
    def zero(self) -> int:
        return self.table.zero

    @cached_property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.table.order) if i != self.zero)

    @cached_property
    def groupoid_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Index tables (left, right) of the groupoid factorizations of each k.

        In the groupoid basis floor(s) floor(t) = floor(st) when dom(s) = ran(t)
        and 0 otherwise, so floor(k) = floor(left[k, m]) floor(right[k, m]) for
        exactly the m below: left[k] is the R-class of k (the t with
        ran(t) = ran(k), ascending) and right[k, m] = left[k, m]^-1 k.  Rows
        are padded with z to the widest R-class; the row of z is all z.
        """
        n, ran = self.table.order, self.ran
        members = [np.flatnonzero(ran == e) for e in self.idempotents]
        left = np.full((n, max(map(len, members), default=0)), self.zero, dtype=np.intp)
        for e, row in zip(self.idempotents, members):
            left[ran == e, : len(row)] = row
        right = self.table.table[self.inv[left], np.arange(n)[:, None]]
        left.setflags(write=False)
        right.setflags(write=False)
        return left, right

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
        The irreps are ``unitary_irreps(G, seed=0)`` whatever seed the caller
        uses.  Without an identity, or with |G| above ``MAX_GROUP_ORDER``, G
        is the trivial group and its one Q_rho spans every nonzero element.
        """
        from .grouprep import MAX_GROUP_ORDER, isotypic_bases, unitary_irreps

        t, nz = self.table.table, np.asarray(self.nonzero, dtype=np.intp)
        everything = np.arange(self.table.order)
        one = next((e for e in self.idempotents
                    if np.array_equal(t[e], everything) and np.array_equal(t[:, e], everything)), None)
        if one is not None and np.sum((self.dom == one) & (self.ran == one)) <= MAX_GROUP_ORDER:
            group = maximal_subgroup(self, one)
            pos = np.zeros(self.table.order, dtype=np.intp)
            pos[nz] = np.arange(len(nz))
            perms = pos[t[np.asarray(group.ambient)][:, nz]]
        else:
            group = cyclic_group_table(1)
            perms = np.arange(len(nz))[None, :]
        return isotypic_bases(unitary_irreps(group, seed=0), perms)

    def mul(self, a: int, b: int) -> int:
        return self.table.mul(a, b)

    def is_idempotent(self, e: int) -> bool:
        return self.table.mul(e, e) == e and e != self.zero

    def class_idempotents(self, k: int) -> tuple[int, ...]:
        return tuple(e for e in self.dclasses[k] if self.is_idempotent(e))

    def same_semigroup(self, other: "InverseStructure") -> bool:
        return self.table.same_semigroup(other.table)


def _unique_inverses(t: SemigroupTable) -> np.ndarray:
    n = t.order
    tab = t.table
    ar = np.arange(n)
    inv = np.empty(n, dtype=np.int32)
    for s in range(n):
        sts = tab[tab[s, :], s]          # s * t * s over all t
        tst = tab[tab[:, s], ar]         # t * s * t over all t
        cands = np.nonzero((sts == s) & (tst == ar))[0]
        if len(cands) != 1:
            raise NotInverseSemigroup(
                f"element {t.element_names[s]} has {len(cands)} generalized inverses", s
            )
        inv[s] = cands[0]
    return inv


def _mobius_table(leq: np.ndarray, elements: list[int]) -> np.ndarray:
    n = leq.shape[0]
    mob = np.zeros((n, n), dtype=np.int64)
    # mu(x, x) = 1; mu(x, y) = -sum_{x < z <= y} mu(z, y), exact integers
    memo: dict[tuple[int, int], int] = {}

    def mu(x: int, y: int) -> int:
        if x == y:
            return 1
        key = (x, y)
        if key in memo:
            return memo[key]
        total = 0
        for z in elements:
            if z != x and leq[x, z] and leq[z, y]:
                total += mu(z, y)
        memo[key] = -total
        return -total

    for x in elements:
        for y in elements:
            if leq[x, y]:
                mob[x, y] = mu(x, y)
    return mob


def inverse_structure(t: SemigroupTable) -> InverseStructure:
    """Derive the full inverse structure of a validated semigroup with zero."""
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

    nonzero = [i for i in range(n) if i != z]
    mobius = _mobius_table(leq, nonzero)

    # D-relation: s D t iff some x has dom(x) = ran(s) and ran(x) = ran(t)
    linked = np.zeros((n, n), dtype=bool)
    for x in nonzero:
        linked[dom[x], ran[x]] = True
    class_of = np.full(n, -1, dtype=np.int32)
    classes: list[tuple[int, ...]] = []
    for s in nonzero:
        if class_of[s] >= 0:
            continue
        k = len(classes)
        members = [u for u in nonzero if class_of[u] < 0 and linked[ran[s], ran[u]]]
        for u in members:
            class_of[u] = k
        classes.append(tuple(members))

    ranks = []
    base = []
    transversals: dict[int, int] = {}
    for k, cls in enumerate(classes):
        idems = [e for e in cls if tab[e, e] == e]
        ranks.append(len(idems))
        ek = min(idems)
        base.append(ek)
        for e in idems:
            if e == ek:
                transversals[e] = ek
            else:
                # lowest-index x with dom(x) = e_k and ran(x) = e
                transversals[e] = next(
                    x for x in cls if dom[x] == ek and ran[x] == e
                )

    dom = dom.astype(np.int32)
    ran = ran.astype(np.int32)
    for arr in (inv, dom, ran, leq, mobius, class_of):
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
        ranks=tuple(ranks),
        base_idempotents=tuple(base),
        transversals=transversals,
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
    members = [x for x in s.nonzero if s.dom[x] == e and s.ran[x] == e]
    local = {x: i for i, x in enumerate(members)}
    m = len(members)
    tab = np.zeros((m, m), dtype=np.int32)
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            tab[i, j] = local[s.mul(x, y)]
    inv = np.array([local[int(s.inv[x])] for x in members], dtype=np.int32)
    g = GroupTable(
        name=f"G[{s.table.element_names[e]}]",
        element_names=tuple(s.table.element_names[x] for x in members),
        table=tab,
        identity=local[e],
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
    k = int(s.class_of[x])
    a = int(s.ran[x])
    b = int(s.dom[x])
    g = s.mul(s.mul(int(s.inv[s.transversals[a]]), x), s.transversals[b])
    return k, g, a, b


def steinberg_phi_inv(s: InverseStructure, k: int, g: int, a: int, b: int) -> int:
    """Inverse of steinberg_phi: the element p_a * g * p_b^-1."""
    ek = s.base_idempotents[k]
    if s.class_of[g] != k or s.dom[g] != ek or s.ran[g] != ek:
        raise ClassMismatch(f"element {s.table.element_names[g]} is not in the subgroup of class {k}")
    for e in (a, b):
        if not s.is_idempotent(e) or s.class_of[e] != k:
            raise ClassMismatch(f"{s.table.element_names[e]} is not an idempotent of class {k}")
    return s.mul(s.mul(s.transversals[a], g), int(s.inv[s.transversals[b]]))
