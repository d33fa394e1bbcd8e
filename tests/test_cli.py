import json

import pytest

from semifourier.cli import main
from semifourier.harmonic import MatrixMap
from semifourier.jsonio import load_map, save_map
from semifourier.semigroup import MAX_ORDER

from conftest import SAMPLE_DATA


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


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, _, err = run_cli(["analyze", path], capsys)
    assert code == 2
    assert "error" in json.loads(err)


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
    path = tmp_path / "tiny.json"
    save_map(MatrixMap(f.structure, f.dim, f.basis, 1e-12 * f.values), path)
    result = run_json(["stinespring", path], capsys)["result"]
    assert result["verdict"] == "ok"
    assert result["dilation_dim"] == 0
    assert result["v"] == [] and all(m == [] for m in result["pi"].values())


@pytest.mark.parametrize("scale", [1e10, 1e12])
def test_stinespring_large_scale_exits_0(tmp_path, capsys, scale):
    f = load_map(SAMPLE_DATA / "gram_i2_seed0.json")
    path = tmp_path / "big.json"
    save_map(MatrixMap(f.structure, f.dim, f.basis, scale * f.values), path)
    result = run_json(["stinespring", path], capsys)["result"]
    unscaled = run_json(["stinespring", SAMPLE_DATA / "gram_i2_seed0.json"], capsys)["result"]
    assert result["verdict"] == "ok"
    assert result["dilation_dim"] == unscaled["dilation_dim"]
    assert result["residuals"]["reconstruction"] <= 1e-8 * scale * abs(f.values).max()


def test_cpprobe_identity_rep(capsys):
    result = run_json(
        ["cpprobe", SAMPLE_DATA / "identity_rep_m2.json", "--trials", "40"], capsys
    )["result"]
    assert result["perfect"] is True
    assert result["agreements"] == 40


def test_bad_tolerance_exits_2(capsys):
    code, _, _ = run_cli(["--tol", "-1", "analyze", "builtin:matrix_units:2"], capsys)
    assert code == 2


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
