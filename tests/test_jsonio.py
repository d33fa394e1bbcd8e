import json

import numpy as np
import pytest

from semifourier.cli import main
from semifourier.errors import SizeLimit
from semifourier.harmonic import GROUPOID, NATURAL, MatrixMap, induced_irreps
from semifourier.jsonio import (
    dilation_to_json,
    map_fields,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    rep_from_json,
    rep_to_json,
    resolve_semigroup,
    semigroup_from_json,
    semigroup_to_json,
)
from semifourier.positivity import conjugation_rep, gram_pd_map, random_unitary, stinespring
from semifourier.semigroup import MAX_ORDER, build_cyclic_with_zero

from conftest import SAMPLE_DATA, get_structure


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)
    # the encoding is [re, im] pairs in row-major nested arrays
    encoded = matrix_to_json(np.array([[1 + 2j]]))
    assert encoded == [[[1.0, 2.0]]]


def per_entry_json(m) -> list:
    """Reference encoder: [float(re), float(im)] for each entry, one at a time, row by row."""
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.asarray(m, dtype=complex)]


def test_matrix_to_json_is_the_per_entry_encoding_byte_for_byte():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, np.nan, np.inf, -np.inf, 0.1])
    pairs = np.empty((len(special), len(special)), dtype=complex)
    pairs.real, pairs.imag = special[:, None], special[None, :]  # every (re, im) of two specials
    cases = [pairs, np.zeros((0, 0)), np.zeros((2, 0)), np.zeros((0, 3)), np.arange(6.0).reshape(2, 3)]
    cases += [10.0 ** e * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) for e in (-300, 0, 300)]
    for m in cases:
        assert json.dumps(matrix_to_json(m)) == json.dumps(per_entry_json(m))
    stack = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    assert json.dumps(matrix_to_json(stack)) == json.dumps([per_entry_json(m) for m in stack])


def test_whole_array_encoders_are_the_per_matrix_encoding():
    st = get_structure("builtin:symmetric_inverse:3")
    f = gram_pd_map(st, 2, seed=0)
    names = st.table.element_names
    assert map_to_json(f)["values"] == {names[s]: per_entry_json(f.values[s]) for s in st.nonzero}
    d = stinespring(f)
    assert dilation_to_json(d)["pi"] == {names[s]: per_entry_json(d.block(s)) for s in st.nonzero}
    rho = conjugation_rep(random_unitary(3, seed=4))
    mats = rep_to_json(rho)["matrices"]
    assert mats == {f"e_{i + 1}_{j + 1}": per_entry_json(rho.matrices[i, j]) for i in range(3) for j in range(3)}


def test_semigroup_roundtrip():
    t = get_structure("builtin:symmetric_inverse:2").table
    back = semigroup_from_json(semigroup_to_json(t))
    assert back.same_semigroup(t)


@pytest.mark.parametrize("ref", ["builtin:symmetric_inverse:4", "builtin:matrix_units:14"])
def test_semigroup_roundtrip_at_the_size_cap(ref):
    t = get_structure(ref).table
    assert t.order <= MAX_ORDER
    assert semigroup_from_json(semigroup_to_json(t)).same_semigroup(t)


def test_semigroup_above_the_size_cap_is_refused():
    t = build_cyclic_with_zero(MAX_ORDER)
    with pytest.raises(SizeLimit):
        semigroup_from_json(semigroup_to_json(t))


def test_resolve_builtin_and_inline():
    t = resolve_semigroup("builtin:matrix_units:2")
    assert t.order == 5
    inline = resolve_semigroup(semigroup_to_json(t))
    assert inline.same_semigroup(t)


def test_map_roundtrip_with_builtin_ref(tmp_path):
    st = get_structure("builtin:symmetric_inverse:2")
    f = gram_pd_map(st, 2, seed=4)
    obj = map_to_json(f, "builtin:symmetric_inverse:2")
    assert obj["basis"] == GROUPOID
    table, n, basis, vals = map_fields(json.loads(json.dumps(obj)))
    assert table.same_semigroup(st.table) and basis == f.basis and n == f.dim
    assert np.abs(vals - f.values).max() == 0.0


def test_map_roundtrip_inline_semigroup():
    st = get_structure("builtin:matrix_units:2")
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    f = MatrixMap(st, 2, NATURAL, vals)
    table, _, _, vals = map_fields(map_to_json(f))
    assert table.same_semigroup(st.table) and np.abs(vals - f.values).max() == 0.0


def test_rep_roundtrip():
    rho = conjugation_rep(random_unitary(2, seed=2))
    back = rep_from_json(rep_to_json(rho))
    assert back.m == rho.m and back.dim == rho.dim
    assert np.abs(back.matrices - rho.matrices).max() == 0.0


def test_irreps_export_shape(capsys):
    # the fourier report exports one (d n) x (d n) transform per induced irrep, in family order
    st = get_structure("builtin:symmetric_inverse:2")
    reps = induced_irreps(st, seed=0)
    assert main(["fourier", str(SAMPLE_DATA / "random_i2_seed0.json")]) == 0
    obj = json.loads(capsys.readouterr().out)["result"]
    n = obj["target_dim"]
    assert [t["dim"] for t in obj["transforms"].values()] == [r.dim for r in reps]
    assert set(obj["transforms"]) == {r.irrep_id for r in reps}
    for r in reps:
        assert matrix_from_json(obj["transforms"][r.irrep_id]["matrix"]).shape == (r.dim * n, r.dim * n)
