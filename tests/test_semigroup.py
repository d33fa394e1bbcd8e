import numpy as np
import pytest

from semifourier.errors import (
    AlreadyHasZero,
    ClassMismatch,
    NotAssociative,
    NotIdempotent,
    NotInverseSemigroup,
    SizeLimit,
)
from semifourier.semigroup import (
    SemigroupTable,
    adjoin_zero,
    build_cyclic_group,
    build_cyclic_with_zero,
    build_matrix_units,
    build_symmetric_inverse,
    from_builtin,
    groupoid_basis_matrices,
    groupoid_product,
    inverse_structure,
    matrix_unit_index,
    maximal_subgroup,
    steinberg_phi,
    steinberg_phi_inv,
    validate_semigroup,
)

from conftest import BUILTINS, get_structure


# --- builders and validation -------------------------------------------------

@pytest.mark.parametrize("m,order", [(1, 2), (2, 5), (3, 10)])
def test_matrix_units_order(m, order):
    t = build_matrix_units(m)
    validate_semigroup(t)
    assert t.order == order


def test_matrix_units_products():
    t = build_matrix_units(2)
    e12 = t.index_of("e_1_2")
    e21 = t.index_of("e_2_1")
    e11 = t.index_of("e_1_1")
    assert t.mul(e12, e21) == e11
    assert t.mul(e12, e12) == t.zero


def test_matrix_units_idempotent_count():
    t = build_matrix_units(3)
    # oracle: scan the diagonal of the table for x * x = x
    idems = [x for x in range(t.order) if t.mul(x, x) == x and x != t.zero]
    assert len(idems) == 3
    assert [t.element_names[x] for x in idems] == ["e_1_1", "e_2_2", "e_3_3"]


@pytest.mark.parametrize("n,order", [(1, 2), (2, 7), (3, 34), (4, 209)])
def test_symmetric_inverse_order(n, order):
    # counts are sum_k C(n,k)^2 k!
    t = build_symmetric_inverse(n)
    assert t.order == order


def test_symmetric_inverse_associative():
    validate_semigroup(build_symmetric_inverse(3))


def test_symmetric_inverse_size_guard():
    with pytest.raises(SizeLimit):
        build_symmetric_inverse(5)


def test_corrupted_table_rejected():
    t = build_matrix_units(2)
    tab = t.table.copy()
    tab[1, 2] = 3  # e_1_1 * e_1_2 should be e_1_2, not e_2_1
    broken = SemigroupTable(t.name, t.element_names, t.zero, tab)
    with pytest.raises(NotAssociative) as err:
        validate_semigroup(broken)
    assert len(err.value.args[1]) == 3  # witness triple


def test_zero_not_absorbing_detected():
    t = build_cyclic_with_zero(2)
    tab = t.table.copy()
    tab[0, 1] = 1
    broken = SemigroupTable(t.name, t.element_names, t.zero, tab)
    with pytest.raises(Exception):
        validate_semigroup(broken)


def test_adjoin_zero():
    z2 = build_cyclic_group(2)
    t = adjoin_zero(z2)
    assert t.order == 3 and t.zero == 2
    validate_semigroup(t)
    inverse_structure(t)  # Z2 with zero is an inverse semigroup


def test_adjoin_zero_rejects_existing_zero():
    with pytest.raises(AlreadyHasZero):
        adjoin_zero(build_matrix_units(2))


def test_non_inverse_semigroup_rejected():
    # left-zero semigroup: x * y = x; every element has many generalized inverses
    tab = np.array([[0, 0], [1, 1]], dtype=np.int32)
    t = SemigroupTable("leftzero", ("a", "b"), None, tab)
    validate_semigroup(t)
    t0 = adjoin_zero(t)
    with pytest.raises(NotInverseSemigroup):
        inverse_structure(t0)


# --- inverse structure ---------------------------------------------------------

def test_matrix_units_classes(mu2):
    assert [len(c) for c in mu2.dclasses] == [4]
    assert mu2.ranks == (2,)
    g = maximal_subgroup(mu2, mu2.table.index_of("e_1_1"))
    assert g.order == 1


def test_matrix_units_discrete_order():
    st = get_structure("builtin:matrix_units:3")
    # among nonzero elements, e_ij <= e_kl iff they are equal
    for s in st.nonzero:
        for t in st.nonzero:
            assert bool(st.leq[s, t]) == (s == t)


def test_symmetric_inverse_2_classes(i2):
    assert [len(c) for c in i2.dclasses] == [4, 2]
    assert i2.ranks == (2, 1)
    names = i2.table.element_names
    id1 = i2.table.index_of("[1>1]")
    id12 = i2.table.index_of("[1>1,2>2]")
    assert i2.mobius[id1, id12] == -1


def test_mobius_via_incidence_inversion(i2):
    # oracle: invert the zeta matrix over the nonzero elements numerically
    nz = list(i2.nonzero)
    zeta = i2.leq[np.ix_(nz, nz)].astype(float)
    mob = np.linalg.inv(zeta)
    mob_int = np.rint(mob).astype(np.int64)
    assert np.abs(mob - mob_int).max() <= 1e-9
    assert np.array_equal(mob_int, i2.mobius[np.ix_(nz, nz)])


@pytest.mark.parametrize("ref", BUILTINS)
def test_elementary_inverse_properties(ref):
    st = get_structure(ref)
    t = st.table
    for s in range(t.order):
        si = int(st.inv[s])
        assert int(st.inv[si]) == s
        ssi = t.mul(s, si)
        assert t.mul(ssi, ssi) == ssi
        sis = t.mul(si, s)
        assert t.mul(sis, sis) == sis
        for u in range(t.order):
            assert st.inv[t.mul(s, u)] == t.mul(int(st.inv[u]), si)
    for e in st.idempotents:
        for f in st.idempotents:
            assert t.mul(e, f) == t.mul(f, e)


@pytest.mark.parametrize("ref", BUILTINS)
def test_mobius_zeta_convolution_identity(ref):
    st = get_structure(ref)
    nz = list(st.nonzero)
    zeta = st.leq[np.ix_(nz, nz)].astype(np.int64)
    mob = st.mobius[np.ix_(nz, nz)]
    eye = np.eye(len(nz), dtype=np.int64)
    assert np.array_equal(zeta @ mob, eye)
    assert np.array_equal(mob @ zeta, eye)


@pytest.mark.parametrize("ref", BUILTINS)
def test_idempotent_lemma(ref):
    # for nonzero s, t with the same range, s^-1 t idempotent iff s = t
    st = get_structure(ref)
    t = st.table
    for s in st.nonzero:
        for u in st.nonzero:
            if st.ran[s] == st.ran[u]:
                prod = t.mul(int(st.inv[s]), u)
                is_idem = prod != st.zero and t.mul(prod, prod) == prod
                assert is_idem == (s == u)


@pytest.mark.parametrize("ref", BUILTINS)
def test_class_partition(ref):
    st = get_structure(ref)
    sizes = sum(len(c) for c in st.dclasses)
    assert sizes + 1 == st.table.order
    for cls in st.dclasses:
        members = set(cls)
        for s in cls:
            assert int(st.inv[s]) in members


def test_leq_is_partial_order(i3):
    leq = i3.leq
    nz = list(i3.nonzero)
    for a in nz:
        assert leq[a, a]
        for b in nz:
            if leq[a, b] and leq[b, a]:
                assert a == b
            for c in nz:
                if leq[a, b] and leq[b, c]:
                    assert leq[a, c]


# --- groupoid basis -------------------------------------------------------------

def test_groupoid_basis_matrix_units():
    st = get_structure("builtin:matrix_units:2")
    m, m_inv = groupoid_basis_matrices(st)
    assert np.array_equal(m, np.eye(4, dtype=np.int64))
    assert np.array_equal(m_inv, np.eye(4, dtype=np.int64))


def test_groupoid_basis_symmetric_inverse(i2):
    m, _ = groupoid_basis_matrices(i2)
    nz = list(i2.nonzero)
    names = i2.table.element_names

    def coeffs(target):
        col = m[:, nz.index(i2.table.index_of(target))]
        return {names[nz[i]]: int(v) for i, v in enumerate(col) if v}

    assert coeffs("[1>1,2>2]") == {"[1>1]": -1, "[2>2]": -1, "[1>1,2>2]": 1}
    assert coeffs("[1>2,2>1]") == {"[1>2]": -1, "[2>1]": -1, "[1>2,2>1]": 1}


@pytest.mark.parametrize("ref", BUILTINS)
def test_groupoid_roundtrip_exact(ref):
    st = get_structure(ref)
    m, m_inv = groupoid_basis_matrices(st)
    eye = np.eye(len(st.nonzero), dtype=np.int64)
    assert np.array_equal(m @ m_inv, eye)


def test_groupoid_product_matrix_units(mu2):
    t = mu2.table
    e12, e21 = t.index_of("e_1_2"), t.index_of("e_2_1")
    assert groupoid_product(mu2, e12, e21) == t.index_of("e_1_1")
    assert groupoid_product(mu2, e12, e12) is None
    for e in mu2.idempotents:
        assert groupoid_product(mu2, e, e) == e


@pytest.mark.parametrize("ref", BUILTINS)
def test_groupoid_product_change_of_basis(ref):
    # oracle: multiply groupoid vectors through the natural structure constants
    st = get_structure(ref)
    nz = list(st.nonzero)
    pos = {s: i for i, s in enumerate(nz)}
    m, _ = groupoid_basis_matrices(st)
    zeta = st.leq[np.ix_(nz, nz)].astype(np.int64)
    tab = st.table.table
    for a in nz:
        for b in nz:
            prod = np.zeros(len(nz), dtype=np.int64)
            for i, s in enumerate(nz):
                if m[i, pos[a]] == 0:
                    continue
                for j, t in enumerate(nz):
                    if m[j, pos[b]] == 0:
                        continue
                    u = int(tab[s, t])
                    if u != st.zero:
                        prod[pos[u]] += m[i, pos[a]] * m[j, pos[b]]
            got = zeta @ prod  # natural coefficients back to groupoid coordinates
            want = np.zeros(len(nz), dtype=np.int64)
            gp = groupoid_product(st, a, b)
            if gp is not None:
                want[pos[gp]] = 1
            assert np.array_equal(got, want), (ref, a, b)


# --- maximal subgroups and Steinberg -----------------------------------------

def test_maximal_subgroup_symmetric_inverse(i2, i3):
    g2 = maximal_subgroup(i2, i2.table.index_of("[1>1,2>2]"))
    assert g2.order == 2
    assert set(g2.element_names) == {"[1>1,2>2]", "[1>2,2>1]"}
    g6 = maximal_subgroup(i3, i3.table.index_of("[1>1,2>2,3>3]"))
    assert g6.order == 6
    # S3 is nonabelian
    assert any(
        g6.mul(a, b) != g6.mul(b, a) for a in range(6) for b in range(6)
    )


def test_maximal_subgroup_rejects_non_idempotent(i2):
    with pytest.raises(NotIdempotent):
        maximal_subgroup(i2, i2.table.index_of("[1>2]"))


def test_steinberg_idempotents_map_to_identity(i3):
    for e in i3.idempotents:
        k, g, a, b = steinberg_phi(i3, e)
        assert g == i3.base_idempotents[k]
        assert a == e and b == e


def test_steinberg_matrix_units_example(mu2):
    t = mu2.table
    k, g, a, b = steinberg_phi(mu2, t.index_of("e_1_2"))
    assert (t.element_names[g], t.element_names[a], t.element_names[b]) == (
        "e_1_1",
        "e_1_1",
        "e_2_2",
    )


@pytest.mark.parametrize("ref", BUILTINS)
def test_steinberg_roundtrip(ref):
    st = get_structure(ref)
    for x in st.nonzero:
        assert steinberg_phi_inv(st, *steinberg_phi(st, x)) == x


def test_steinberg_phi_inv_base_point(i3):
    for k, ek in enumerate(i3.base_idempotents):
        assert steinberg_phi_inv(i3, k, ek, ek, ek) == ek


def test_steinberg_phi_inv_subgroup_element(i2):
    id12 = i2.table.index_of("[1>1,2>2]")
    swap = i2.table.index_of("[1>2,2>1]")
    k = int(i2.class_of[id12])
    assert steinberg_phi_inv(i2, k, swap, id12, id12) == swap


def test_steinberg_class_mismatch(i2):
    id12 = i2.table.index_of("[1>1,2>2]")
    id1 = i2.table.index_of("[1>1]")
    with pytest.raises(ClassMismatch):
        steinberg_phi_inv(i2, 0, id12, id1, id1)


def test_steinberg_homomorphism_block_matrices(i3):
    # oracle: represent phi(x) as the block matrix E_{ran,dom} (x) P(g) with P
    # the (faithful) regular permutation representation of the subgroup
    rng = np.random.default_rng(12)
    subgroups = {}
    for k, ek in enumerate(i3.base_idempotents):
        g = maximal_subgroup(i3, ek)
        perms = np.zeros((g.order, g.order, g.order))
        for x in range(g.order):
            perms[x, g.table[x, :], np.arange(g.order)] = 1.0
        subgroups[k] = (g, perms)
    idem_pos = {
        k: {e: i for i, e in enumerate(i3.class_idempotents(k))}
        for k in range(len(i3.dclasses))
    }

    def block(x):
        k, g, a, b = steinberg_phi(i3, x)
        grp, perms = subgroups[k]
        r = i3.ranks[k]
        d = grp.order
        out = np.zeros((r * d, r * d))
        pa, pb = idem_pos[k][a], idem_pos[k][b]
        out[pa * d : (pa + 1) * d, pb * d : (pb + 1) * d] = perms[grp.ambient.index(g)]
        return k, out

    nz = list(i3.nonzero)
    for _ in range(200):
        x, y = rng.choice(nz, size=2)
        kx, bx = block(int(x))
        ky, by = block(int(y))
        gp = groupoid_product(i3, int(x), int(y))
        if kx != ky:
            assert gp is None or i3.class_of[gp] != kx or np.abs(bx @ by).max() == 0
            continue
        prod = bx @ by
        if gp is None:
            assert np.abs(prod).max() == 0
        else:
            _, expected = block(gp)
            assert np.array_equal(prod, expected)


def test_transversals_contract(i3):
    for k, ek in enumerate(i3.base_idempotents):
        assert i3.transversal_at[ek] == ek
        for e in i3.class_idempotents(k):
            p = i3.transversal_at[e]
            assert int(i3.dom[p]) == ek
            assert int(i3.ran[p]) == e


def test_from_builtin_rejects_garbage():
    with pytest.raises(ValueError):
        from_builtin("builtin:nope:3")
    with pytest.raises(ValueError):
        from_builtin("matrix_units:3")


def test_matrix_unit_index_layout():
    t = build_matrix_units(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert t.element_names[matrix_unit_index(3, i, j)] == f"e_{i}_{j}"


def test_same_semigroup_is_true_for_itself_and_an_equal_copy_only():
    t = from_builtin("builtin:symmetric_inverse:2")
    copy = SemigroupTable(t.name, t.element_names, t.zero, t.table.copy())
    assert t.same_semigroup(t) and copy is not t and t.same_semigroup(copy)
    table = t.table.copy()
    table[1, 1] = t.zero
    assert not t.same_semigroup(SemigroupTable(t.name, t.element_names, t.zero, table))
    assert not t.same_semigroup(from_builtin("builtin:cyclic_with_zero:6"))
    assert inverse_structure(t).same_semigroup(inverse_structure(copy))
