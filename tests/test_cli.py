import copy
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from semifourier import cli, errors, semigroup
from semifourier.cli import main
from semifourier.errors import InternalInconsistency, ParseError
from semifourier.harmonic import MatrixMap, from_groupoid
from semifourier.jsonio import load_map, matrix_from_json, save_map, semigroup_to_json
from semifourier.positivity import gram_pd_map
from semifourier.semigroup import MAX_DIM, MAX_ORDER, from_builtin

from conftest import REPO_ROOT, SAMPLE_DATA, get_structure


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_analyze_matrix_units(capsys):
    report = run_json(["analyze", "builtin:matrix_units:2"], capsys)
    result = report["result"]
    assert result["irrep_dims"] == [2]
    assert [c["size"] for c in result["dclasses"]] == [4]
    assert result["wedderburn"]["ok"]
    assert report["version"]
    assert report["config"]["seed"] == 0


def test_analyze_symmetric_inverse(capsys):
    result = run_json(["analyze", "builtin:symmetric_inverse:2"], capsys)["result"]
    assert sorted(result["irrep_dims"]) == [1, 1, 2]
    assert result["wedderburn"] == {"sum_d_squared": 6, "expected": 6, "ok": True}


def test_analyze_corrupted_table_exits_3(tmp_path, capsys):
    table = {
        "name": "broken",
        "elements": ["z", "a", "b"],
        "zero": "z",
        # Z2-with-zero would be [[0,0,0],[0,1,2],[0,2,1]]; the corrupted cell
        # b*a = a makes (b*a)*b = b while b*(a*b) = a
        "table": [[0, 0, 0], [0, 1, 2], [0, 1, 1]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(["analyze", path], capsys)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"]["kind"] == "NotAssociative"


def test_semigroup_file_above_the_size_cap_exits_4(tmp_path, capsys):
    # a null semigroup with one bad cell: at the cap it is validated and refused
    # as not associative; one element more and it is refused before validation
    for order, want, kind in ((MAX_ORDER, 3, "NotAssociative"), (MAX_ORDER + 1, 4, "SizeLimit")):
        table = [[0] * order for _ in range(order)]
        table[1][2] = 2
        path = tmp_path / f"null{order}.json"
        path.write_text(json.dumps({"elements": [f"x{i}" for i in range(order)], "zero": "x0", "table": table}))
        code, _, err = run_cli(["analyze", path], capsys)
        assert (code, json.loads(err)["error"]["kind"]) == (want, kind)


@pytest.mark.parametrize("ref,order", [("builtin:matrix_units:16", 257), ("builtin:matrix_units:100", 10001),
                                       ("builtin:cyclic_with_zero:256", 257),
                                       ("builtin:cyclic_with_zero:100000", 100001)])
def test_builtin_above_the_size_cap_exits_4_before_building(monkeypatch, capsys, ref, order):
    family = ref.split(":")[1]
    monkeypatch.setitem(semigroup.BUILTIN_BUILDERS, family, lambda n: pytest.fail(f"built {family}:{n}"))
    code, out, err = run_cli(["analyze", ref], capsys)
    error = json.loads(err)["error"]
    assert (code, out, error["kind"]) == (4, "", "SizeLimit")
    assert error["message"] == f"{ref} has {order} elements; the cap is {MAX_ORDER}"


def test_builtins_at_the_size_cap_are_built():
    assert from_builtin("builtin:matrix_units:15").order == 226
    assert from_builtin("builtin:cyclic_with_zero:255").order == MAX_ORDER


def write_rep(path, m, d):
    # the caps are checked before any matrix is read, so none is written
    path.write_text(json.dumps({"source_dim": m, "rep_dim": d, "matrices": {}}))
    return path


@pytest.mark.parametrize("m,d,message", [
    (16, 1, f"matrix_units:16 has 257 elements; the cap is {MAX_ORDER}"),
    (100000, 1, f"matrix_units:100000 has 10000000001 elements; the cap is {MAX_ORDER}"),
    (2, MAX_DIM + 1, f"rep_dim {MAX_DIM + 1} exceeds the cap {MAX_DIM}"),
    (2, 10**8, f"rep_dim {10**8} exceeds the cap {MAX_DIM}"),
], ids=["source-16", "source-huge", "rep-dim-65", "rep-dim-huge"])
def test_rep_file_above_the_caps_exits_4(tmp_path, capsys, m, d, message):
    code, out, err = run_cli(["cpprobe", write_rep(tmp_path / "rep.json", m, d)], capsys)
    assert (code, out, json.loads(err)["error"]) == (4, "", {"kind": "SizeLimit", "message": message})


@pytest.mark.parametrize("n", [MAX_DIM + 1, 100_000_000])
def test_map_file_target_dim_above_the_cap_exits_4(tmp_path, capsys, n):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"semigroup": "builtin:matrix_units:2", "target_dim": n, "basis": "natural",
                                "values": {}}))
    for verb in (["fourier", path], ["stinespring", path], ["check", path, "--which", "pd"]):
        code, out, err = run_cli(verb, capsys)
        assert (code, out, json.loads(err)["error"]) == (4, "", {
            "kind": "SizeLimit", "message": f"target_dim {n} exceeds the cap {MAX_DIM}"})


def test_map_file_at_the_target_dim_cap_is_read(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"semigroup": "builtin:matrix_units:1", "target_dim": MAX_DIM, "basis": "natural",
                                "values": {}}))
    assert run_json(["check", path, "--which", "cp"], capsys)["result"]["verdict"] is True


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, _, err = run_cli(["analyze", path], capsys)
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("content", [
    "[1, 2]",                                                          # not an object
    '{"elements": ["z", "a"], "zero": "z"}',                           # no table
    '{"elements": ["z", "a"], "zero": "z", "table": [[0]]}',           # table of the wrong shape
    '{"elements": ["z", "a"], "zero": "y", "table": [[0, 0], [0, 1]]}',  # unknown zero
])
def test_malformed_semigroup_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run_cli(["analyze", path], capsys)
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["check", tmp_path / "absent.json"], capsys)
    error = json.loads(err)["error"]
    assert code == 2 and error["kind"] == "FileNotFoundError" and "absent.json" in error["message"]
    code, out, err = run_cli(["--out", tmp_path / "no" / "dir.json", "analyze", "builtin:matrix_units:2"], capsys)
    assert code == 2 and out == "" and json.loads(err)["error"]["kind"] == "FileNotFoundError"


def test_one_element_semigroup_gets_a_verdict(tmp_path, capsys):
    # {z}: no nonzero element, so no idempotent, D-class or irrep, and 0 = 0 squares
    table = {"elements": ["z"], "zero": "z", "table": [[0]]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(table))
    result = run_json(["analyze", path], capsys)["result"]
    assert result["order"] == 1 and result["dclasses"] == [] and result["irrep_dims"] == []
    assert result["wedderburn"] == {"sum_d_squared": 0, "expected": 0, "ok": True}
    mpath = tmp_path / "zmap.json"
    mpath.write_text(json.dumps({"semigroup": table, "target_dim": 2, "basis": "groupoid", "values": {}}))
    assert run_json(["check", mpath, "--which", "pd"], capsys)["result"]["agree"]
    assert run_json(["stinespring", mpath], capsys)["result"]["dilation_dim"] == 0
    code, _, err = run_cli(["check", mpath, "--which", "cp"], capsys)
    assert (code, json.loads(err)["error"]["kind"]) == (4, "WrongSemigroup")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_map_verb_on_the_one_element_semigroup_writes_strict_json(tmp_path, capsys):
    # blocks-mode PD once reported an empty worst witness as Infinity
    table = {"elements": ["z"], "zero": "z", "table": [[0]]}
    path = tmp_path / "zmap.json"
    path.write_text(json.dumps({"semigroup": table, "target_dim": 2, "basis": "groupoid", "values": {}}))
    for argv in (["fourier", path], ["invert", path], ["plancherel", path, path], ["convolve", path, path],
                 ["check", path, "--which", "pd"], ["check", path, "--which", "bochner"], ["stinespring", path]):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        strict_json(out)
    modes = strict_json(run_cli(["check", path, "--which", "pd"], capsys)[1])["result"]["modes"]
    assert {m: r["witness"] for m, r in modes.items()} == {"natural": 0.0, "groupoid": 0.0, "blocks": 0.0}
    code, out, err = run_cli(["check", path, "--which", "cp"], capsys)  # not matrix units
    assert (code, out, strict_json(err)["error"]["kind"]) == (4, "", "WrongSemigroup")


def test_non_finite_map_is_a_precondition_failure(tmp_path, capsys):
    # NaN is valid JSON to Python's reader; the PSD verdict refuses it with a typed error
    obj = json.loads((SAMPLE_DATA / "gram_i2_seed0.json").read_text())
    name = next(iter(obj["values"]))
    obj["values"][name][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    for which in ("pd", "bochner"):
        code, _, err = run_cli(["check", path, "--which", which], capsys)
        assert (code, json.loads(err)["error"]["kind"]) == (4, "NotFinite")


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("late"), KeyError("k"),
                                 InternalInconsistency("disagree")])
def test_failure_after_parsing_exits_5(monkeypatch, capsys, exc):
    # an exception past the parse phase is internal: exit 5, one JSON line, no traceback
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "induced_irreps", broken)
    code, out, err = run_cli(["analyze", "builtin:matrix_units:2"], capsys)
    assert code == 5 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == type(exc).__name__
    assert error["frames"][-1].startswith("test_cli.py:") and error["frames"][-1].endswith(" broken")


EXIT_CODES = {  # each error type's exit code; 5 where the type names none (a bug signal)
    "Error": 5, "ParseError": 2, "StructureError": 3, "PreconditionError": 4,
    "NotAssociative": 3, "ZeroNotAbsorbing": 3, "NotInverseSemigroup": 3,
    "SizeLimit": 4, "AlreadyHasZero": 4, "NoZeroElement": 4, "NotIdempotent": 4, "ClassMismatch": 4,
    "NotHermitian": 4, "DimensionMismatch": 4, "SemigroupMismatch": 4, "IncompleteIrrepSet": 4,
    "WrongBasis": 4, "WrongSemigroup": 4, "IndexOutOfRange": 4, "NotPositiveDefinite": 4,
    "NotARepresentation": 4, "NotFinite": 4, "UnknownMode": 4,
    "InternalInconsistency": 5, "ReconstructionFailure": 5, "NonConvergent": 5,
}


def error_types(cls=errors.Error):
    return {cls}.union(*(error_types(sub) for sub in cls.__subclasses__()))


@pytest.mark.parametrize("cls", sorted(error_types(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_exit_code_is_the_error_type(monkeypatch, capsys, cls):
    # a new error type fails here until it is classified, instead of exiting 5 unnoticed
    assert cls.__name__ in EXIT_CODES, f"{cls.__name__} has no exit code in EXIT_CODES"

    def broken(*args, **kwargs):
        if issubclass(cls, ParseError):
            raise cls("unreadable") from KeyError("cause")
        raise cls("raised late")

    monkeypatch.setattr(cli, "induced_irreps", broken)
    code, out, err = run_cli(["analyze", "builtin:matrix_units:2"], capsys)
    error = json.loads(err)["error"]
    assert (code, out) == (EXIT_CODES[cls.__name__], "")
    assert error["kind"] == ("KeyError" if issubclass(cls, ParseError) else cls.__name__)
    assert ("frames" in error) == (code == 5)


@pytest.mark.parametrize("verb", [["fourier"], ["invert"], ["check", "--which", "pd"], ["stinespring"]])
def test_failure_while_deriving_a_map_structure_exits_5(monkeypatch, capsys, verb):
    # the map file parses; deriving its inverse structure comes after the parse phase
    def broken(*args, **kwargs):
        raise IndexError("derive")

    monkeypatch.setattr(cli, "inverse_structure", broken)
    code, out, err = run_cli([verb[0], SAMPLE_DATA / "gram_i2_seed0.json", *verb[1:]], capsys)
    assert code == 5 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "IndexError" and error["frames"][-1].endswith(" broken")


@pytest.mark.parametrize("edit", [
    lambda obj: "{ not json",                                            # not JSON
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "target_dim"}),  # no target dim
    lambda obj: json.dumps(dict(obj, values={"nowhere": [[[0, 0]]]})),   # unknown element
    lambda obj: json.dumps(dict(obj, values={k: [[[0, 0]]] * 3 for k in obj["values"]})),  # 3 x 1 values
    lambda obj: json.dumps(dict(obj, semigroup="absent.json")),          # missing semigroup file
])
def test_malformed_map_file_exits_2(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    path.write_text(edit(json.loads((SAMPLE_DATA / "gram_i2_seed0.json").read_text())))
    code, out, err = run_cli(["check", path, "--which", "pd"], capsys)
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


MAP_VERBS = [["fourier"], ["invert"], ["plancherel", "{map}"], ["convolve", "{map}"], ["check", "--which", "pd"],
             ["check", "--which", "cp"], ["check", "--which", "bochner"], ["stinespring"]]


@pytest.mark.parametrize("verb", MAP_VERBS, ids=lambda v: "-".join(v).replace("{map}", "map"))
def test_zero_target_dim_is_a_parse_error(tmp_path, capsys, verb):
    # a map into M_0 has no entries; it is refused while parsing, before any verb runs on it
    obj = dict(json.loads((SAMPLE_DATA / "gram_i2_seed0.json").read_text()), target_dim=0, values={})
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([verb[0], path, *(str(path) if a == "{map}" else a for a in verb[1:])], capsys)
    error = json.loads(err)["error"]
    assert (code, out) == (2, "") and "target_dim" in error["message"] and "frames" not in error


@pytest.mark.parametrize("dims", [{"rep_dim": 0}, {"source_dim": 0}, {"source_dim": 0, "rep_dim": 0}])
def test_zero_rep_dims_are_a_parse_error(tmp_path, capsys, dims):
    obj = dict(json.loads((SAMPLE_DATA / "identity_rep_m2.json").read_text()), **dims)
    obj["matrices"] = {name: [] for name in obj["matrices"]}
    path = tmp_path / "zero_rep.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["cpprobe", path, "--trials", "4"], capsys)
    error = json.loads(err)["error"]
    assert (code, out) == (2, "") and "dim" in error["message"] and "frames" not in error


TWO = {"elements": ["z", "a"], "zero": "z", "table": [[0, 0], [0, 1]]}  # the semilattice {z < a}
GRAM = json.loads((SAMPLE_DATA / "gram_i2_seed0.json").read_text())
IDENTITY_REP = json.loads((SAMPLE_DATA / "identity_rep_m2.json").read_text())
INF = float("inf")


@pytest.mark.parametrize("verb,obj,kind,field", [
    ("fourier", dict(GRAM, values=[1, 2]), "ValueError", "values"),                 # exited 5: AttributeError
    ("fourier", dict(GRAM, target_dim=INF), "ValueError", "target_dim"),            # exited 5: OverflowError
    ("analyze", dict(TWO, table=[[0, 0], [0, INF]]), "ValueError", "table entry"),  # exited 5: OverflowError
    ("cpprobe", dict(IDENTITY_REP, rep_dim=INF), "ValueError", "rep_dim"),          # exited 5: OverflowError
    ("analyze", dict(TWO, table=[[0, 0], [0, 1.7]]), "ValueError", "table entry"),  # exited 0: read as 1
    ("analyze", dict(TWO, table=[[0, 0], [0, True]]), "ValueError", "table entry"),  # exited 0: read as 1
    ("analyze", dict(TWO, elements="za"), "ValueError", "elements"),                # exited 0: read as ["z", "a"]
    ("fourier", dict(GRAM, target_dim=2.9), "ValueError", "target_dim"),            # exited 0: read as 2
    ("fourier", dict(GRAM, target_dim="2"), "ValueError", "target_dim"),            # exited 0: read as 2
    ("analyze", dict(TWO, table=[[0, 0], [0, "1"]]), "ValueError", "table entry"),  # exited 0: read as 1
    ("cpprobe", dict(IDENTITY_REP, source_dim=INF), "ValueError", "source_dim"),    # exited 5: OverflowError
    ("cpprobe", dict(IDENTITY_REP, matrices=[]), "ValueError", "matrices"),         # exited 2 as a TypeError
    ("analyze", dict(TWO, table=[[0, 0], [0, 2 ** 70]]), "OverflowError", "int"),   # exited 5: too large for int32
], ids=["values-array", "target-dim-inf", "table-inf", "rep-dim-inf", "table-float", "table-bool",
        "elements-string", "target-dim-float", "target-dim-string", "table-string", "source-dim-inf",
        "matrices-array", "table-huge"])
def test_malformed_json_types_are_parse_errors(tmp_path, capsys, verb, obj, kind, field):
    # table entries and dimensions are JSON integers, values and matrices objects, elements an array:
    # nothing is coerced, and no malformed field escapes the parse phase as exit 5
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([verb, path], capsys)
    error = json.loads(err)["error"]
    assert (code, out, error["kind"]) == (2, "", kind) and field in error["message"] and "frames" not in error


def mutate(doc, path, op, value):
    """Change, delete or duplicate the field of ``doc`` that ``path`` leads to.  A str step names
    a key; an int step picks a key (in sorted order) or an item by position, modulo their number.
    The walk stops at a leaf or an empty container.  A duplicate goes next to the item in a list,
    or over the next key's value in an object."""
    parent, key, node = None, None, doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        key = step if step in keys else keys[step % len(keys)]
        parent, node = node, node[key]
    if op == "change":
        parent[key] = copy.deepcopy(value)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        keys = sorted(parent)
        parent[keys[(keys.index(key) + 1) % len(keys)]] = copy.deepcopy(node)


I2_FILE = "symmetric_inverse_2.json"
SOURCES = {path.name: json.loads(path.read_text()) for path in sorted(SAMPLE_DATA.glob("*.json"))}
SOURCES[I2_FILE] = semigroup_to_json(from_builtin("builtin:symmetric_inverse:2"))
MUTATION_VALUES = [INF, -INF, float("nan"), 1.7, True, "1", [], {}, None]
MUTATION = hst.tuples(hst.lists(hst.integers(0, 15), min_size=1, max_size=6),
                      hst.sampled_from(["change", "delete", "duplicate"]), hst.sampled_from(MUTATION_VALUES))


def applicable_argvs(source, path):
    if source == I2_FILE:
        return [["analyze", path]]
    if "matrices" in SOURCES[source]:
        return [["cpprobe", path, "--trials", "2"]]
    return [[verb[0], path, *(path if a == "{map}" else a for a in verb[1:])] for verb in MAP_VERBS]


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=200, deadline=None)
@given(source=hst.sampled_from(sorted(SOURCES)), mutations=hst.lists(MUTATION, min_size=1, max_size=3))
@example(source="gram_i2_seed0.json", mutations=[(["values"], "change", [1, 2])])
@example(source="gram_i2_seed0.json", mutations=[(["target_dim"], "change", INF)])
@example(source=I2_FILE, mutations=[(["table", 1, 1], "change", INF)])
@example(source="identity_rep_m2.json", mutations=[(["rep_dim"], "change", INF)])
@example(source=I2_FILE, mutations=[(["table", 1, 1], "change", 1.7)])
@example(source=I2_FILE, mutations=[(["table", 1, 1], "change", True)])
@example(source=I2_FILE, mutations=[(["elements"], "change", "za")])
@example(source="gram_i2_seed0.json", mutations=[(["target_dim"], "change", 2.9)])
@example(source="identity_rep_m2.json", mutations=[(["matrices", "e_1_2", 0, 0, 0], "change", -INF)])
def test_malformed_inputs_end_in_a_documented_exit_code(mutation_dir, source, mutations):
    # every verb on a mutated sample file ends in a verdict or a documented failure (2, 3 or 4),
    # reported as one JSON line on stderr; exit 5, a bug signal, never comes from the input
    doc = copy.deepcopy(SOURCES[source])
    for mutation in mutations:
        mutate(doc, *mutation)
    path = mutation_dir / "mutated.json"
    path.write_text(json.dumps(doc))
    for argv in applicable_argvs(source, str(path)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv[0], err.getvalue())
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "frames" not in json.loads(lines[0])["error"], lines


def test_invert_roundtrip_residual(capsys):
    result = run_json(["invert", SAMPLE_DATA / "random_i2_seed0.json"], capsys)["result"]
    assert result["roundtrip_residual"] <= 1e-9


def test_fourier_matches_choi_on_matrix_units(capsys):
    result = run_json(["fourier", SAMPLE_DATA / "kraus_m2_seed1.json"], capsys)["result"]
    assert result["choi_consistency_residual"] <= 1e-12


def test_convolve_reports_fourier_product_residual(capsys):
    result = run_json(
        [
            "convolve",
            SAMPLE_DATA / "random_i2_seed0.json",
            SAMPLE_DATA / "random_i2_seed1.json",
        ],
        capsys,
    )["result"]
    assert result["fourier_product_residual"] <= 1e-9


def test_convolve_accepts_a_groupoid_basis_map(tmp_path, capsys):
    # the same map saved in the natural basis gives the same convolution
    gram = SAMPLE_DATA / "gram_i2_seed0.json"
    natural = tmp_path / "gram_natural.json"
    save_map(from_groupoid(load_map(gram)), natural)
    other = SAMPLE_DATA / "random_i2_seed0.json"
    got = run_json(["convolve", gram, other], capsys)["result"]["convolution"]
    want = run_json(["convolve", natural, other], capsys)["result"]["convolution"]
    assert got.keys() == want.keys()
    for name in want:
        assert np.abs(matrix_from_json(got[name]) - matrix_from_json(want[name])).max() <= 1e-12


def test_convolve_mismatched_semigroups_exits_4(capsys):
    code, _, err = run_cli(
        [
            "convolve",
            SAMPLE_DATA / "random_i2_seed0.json",
            SAMPLE_DATA / "random_i3_seed0.json",
        ],
        capsys,
    )
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "SemigroupMismatch"


def test_plancherel(capsys):
    result = run_json(
        [
            "plancherel",
            SAMPLE_DATA / "random_i2_seed0.json",
            SAMPLE_DATA / "gram_i2_seed0.json",
        ],
        capsys,
    )["result"]
    assert result["residual"] <= 1e-9


def test_check_bochner_transpose(capsys):
    result = run_json(
        ["check", SAMPLE_DATA / "transpose_m2.json", "--which", "bochner"], capsys
    )["result"]
    assert result["pd_verdict"] is False
    assert result["transforms_verdict"] is False
    assert result["transforms"][0]["witness"] == pytest.approx(-1.0, abs=1e-9)
    assert result["agree"]


def test_check_cp_kraus(capsys):
    result = run_json(
        ["check", SAMPLE_DATA / "kraus_m2_seed1.json", "--which", "cp"], capsys
    )["result"]
    assert result["verdict"] is True


def test_check_cp_on_wrong_semigroup_exits_4(capsys):
    code, _, err = run_cli(
        ["check", SAMPLE_DATA / "random_i2_seed0.json", "--which", "cp"], capsys
    )
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "WrongSemigroup"


def test_check_pd_modes_agree(capsys):
    result = run_json(
        ["check", SAMPLE_DATA / "gram_i2_seed0.json", "--which", "pd"], capsys
    )["result"]
    assert result["agree"]
    assert all(mode["verdict"] for mode in result["modes"].values())


def test_stinespring_on_gram_map(capsys):
    result = run_json(["stinespring", SAMPLE_DATA / "gram_i2_seed0.json"], capsys)["result"]
    assert result["verdict"] == "ok"
    assert result["residuals"]["reconstruction"] <= 1e-8


def test_stinespring_non_pd_reports_in_payload(capsys):
    # precondition failure is reported in the payload with exit 0
    code, out, _ = run_cli(["stinespring", SAMPLE_DATA / "transpose_m2.json"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "NotPositiveDefinite"


def test_stinespring_empty_quotient_exits_0(tmp_path, capsys):
    f = load_map(SAMPLE_DATA / "gram_i2_seed0.json")
    path = tmp_path / "zero.json"
    save_map(MatrixMap(f.structure, f.dim, f.basis, 0.0 * f.values), path)
    result = run_json(["stinespring", path], capsys)["result"]
    assert result["verdict"] == "ok"
    assert result["dilation_dim"] == 0
    assert result["v"] == [] and all(m == [] for m in result["pi"].values())


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e10, 1e12])
def test_stinespring_large_scale_exits_0(tmp_path, capsys, scale):
    f = load_map(SAMPLE_DATA / "gram_i2_seed0.json")
    path = tmp_path / "big.json"
    save_map(MatrixMap(f.structure, f.dim, f.basis, scale * f.values), path)
    result = run_json(["stinespring", path], capsys)["result"]
    unscaled = run_json(["stinespring", SAMPLE_DATA / "gram_i2_seed0.json"], capsys)["result"]
    assert result["verdict"] == "ok"
    assert result["dilation_dim"] == unscaled["dilation_dim"]
    assert result["residuals"]["reconstruction"] <= 1e-8 * scale * abs(f.values).max()


@pytest.mark.parametrize("ref,dim", [("builtin:symmetric_inverse:4", 208), ("builtin:matrix_units:14", 196)])
def test_stinespring_report_at_the_size_cap_is_bounded(tmp_path, ref, dim):
    # one block per element: a dense pi would print |S| dim^2 entries, ~0.5 GB here
    st = get_structure(ref)
    path = tmp_path / "gram.json"
    save_map(gram_pd_map(st, 2, seed=0), path)
    pythonpath = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run([sys.executable, "-m", "semifourier.cli", "stinespring", str(path)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) <= 10_000_000
    result = json.loads(proc.stdout)["result"]
    assert result["verdict"] == "ok" and result["dilation_dim"] == dim
    summands, names = result["summands"], st.table.element_names
    dims = [summands[names[e]]["dim"] for e in st.idempotents]
    assert sum(dims) == dim and len(summands) == len(dims)
    assert [summands[names[e]]["offset"] for e in st.idempotents] == (np.cumsum(dims) - dims).tolist()
    for s in st.nonzero:
        block = result["pi"][names[s]]
        rows, cols = summands[names[st.ran[s]]]["dim"], summands[names[st.dom[s]]]["dim"]
        assert len(block) == rows and all(len(row) == cols for row in block)


def test_positivity_verbs_leave_numpy_ma_unimported():
    # np.unique without a return_* flag calls np.ma.is_masked, whose lazy
    # import of numpy.ma costs 9-15 ms of a cold process
    code = ("import io, sys, contextlib\n"
            "from semifourier.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(['check', {str(SAMPLE_DATA / 'transpose_m2.json')!r}, '--which', mode])\n"
            "             for mode in ('pd', 'bochner')]\n"
            f"    codes.append(main(['stinespring', {str(SAMPLE_DATA / 'gram_i2_seed0.json')!r}]))\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    pythonpath = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] False"


def test_matrix_unit_verbs_leave_numpy_random_unimported():
    # the trivial irrep of matrix units' class groups draws nothing, so no verb imports
    # numpy.random (about 9 ms of a cold process) just to build it
    kraus, transpose = (str(SAMPLE_DATA / name) for name in ("kraus_m2_seed1.json", "transpose_m2.json"))
    code = ("import io, sys, contextlib\n"
            "from semifourier.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in (['fourier', {kraus!r}], ['invert', {kraus!r}],\n"
            f"             ['plancherel', {kraus!r}, {transpose!r}], ['convolve', {kraus!r}, {transpose!r}],\n"
            f"             ['check', {kraus!r}, '--which', 'bochner'])]\n"
            "print(codes, 'numpy.random' in sys.modules)\n")
    pythonpath = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] False"


def test_cpprobe_identity_rep(capsys):
    result = run_json(
        ["cpprobe", SAMPLE_DATA / "identity_rep_m2.json", "--trials", "40"], capsys
    )["result"]
    assert result["perfect"] is True
    assert result["agreements"] == 40


def test_bad_tolerance_exits_2(capsys):
    code, _, _ = run_cli(["--tol", "-1", "analyze", "builtin:matrix_units:2"], capsys)
    assert code == 2


REP = SAMPLE_DATA / "identity_rep_m2.json"


@pytest.mark.parametrize("option,argv", [
    ("--tol", ["--tol", "nan", "check", SAMPLE_DATA / "gram_i2_seed0.json", "--which", "pd"]),
    ("--tol", ["--tol", "inf", "check", SAMPLE_DATA / "random_i2_seed0.json", "--which", "pd"]),
    ("--seed", ["--seed", "-1", "analyze", "builtin:matrix_units:2"]),
    ("--trials", ["cpprobe", REP, "--trials", "-3"]),
    ("--trials", ["cpprobe", REP, "--trials", "0"]),
    ("--target-dim", ["cpprobe", REP, "--target-dim", "0"]),
    ("--target-dim", ["cpprobe", REP, "--target-dim", "-2"]),
    ("--target-dim", ["cpprobe", REP, "--target-dim", str(MAX_DIM + 1)]),
], ids=["tol-nan", "tol-inf", "seed-negative", "trials-negative", "trials-zero", "target-dim-zero",
        "target-dim-negative", "target-dim-above-cap"])
def test_option_out_of_range_exits_2(capsys, option, argv):
    # --tol finite and positive, --seed >= 0, --trials >= 1, --target-dim in 1..MAX_DIM
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "BadOption" and error["message"].startswith(option + " ")


def test_text_format(capsys):
    code, out, _ = run_cli(
        ["--format", "text", "analyze", "builtin:matrix_units:2"], capsys
    )
    assert code == 0
    assert "wedderburn" in out and "{" not in out.splitlines()[0]


def test_determinism_byte_identical(tmp_path):
    # identical inputs + flags produce byte-identical reports
    suites = [
        ["analyze", "builtin:symmetric_inverse:2"],
        ["invert", str(SAMPLE_DATA / "random_i2_seed0.json")],
        ["check", str(SAMPLE_DATA / "transpose_m2.json"), "--which", "bochner"],
        ["cpprobe", str(SAMPLE_DATA / "identity_rep_m2.json"), "--trials", "20"],
    ]
    for i, argv in enumerate(suites):
        out1 = tmp_path / f"a{i}.json"
        out2 = tmp_path / f"b{i}.json"
        assert main(["--out", str(out1), "--seed", "1"] + argv) == 0
        assert main(["--out", str(out2), "--seed", "1"] + argv) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["--out", out, "analyze", "builtin:matrix_units:2"], capsys
    )
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["result"]["wedderburn"]["ok"]
