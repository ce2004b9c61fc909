import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from toricmirror import cli
from toricmirror.errors import ParseError, UnknownFixture


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_info_fixture():
    code, out, err = run_cli(["info", "P2"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "info"
    assert report["checks"][0]["details"]["d"] == 3
    assert "input-valid: PASS" in err


def test_report_schema_is_stable():
    code, out, _ = run_cli(["vertices", "P1xP1"])
    report = json.loads(out)
    assert list(report) == ["command", "input", "parameters", "checks", "artifacts"]
    assert all(set(c) == {"name", "status", "details"} for c in report["checks"])


def test_vertices_default_and_explicit_q():
    code, out, _ = run_cli(["vertices", "P2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["count"] == 3
    code, out, _ = run_cli(["vertices", "P2", "--q", "1/2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["count"] == 3


def test_superpotential_terms():
    code, out, _ = run_cli(["superpotential", "BlP2"])
    assert code == 0
    terms = json.loads(out)["checks"][0]["details"]["terms"]
    assert {
        "z_exponents": [-1, -1],
        "q_exponents": [1, 1],
        "coefficient": "1",
    } in terms
    assert len(terms) == 4


def test_phi_series_coefficients():
    code, out, _ = run_cli(["phi", "P2", "--kmax", "3"])
    assert code == 0
    series = json.loads(out)["checks"][0]["details"]["series"]
    classes = {tuple(e["k"]): e["coefficient"] for e in series["classes"]}
    assert classes[(3, 0, 0)] == "1/6"
    assert classes[(1, 1, 1)] == "1"


# sha256 of the whole stdout of `phi <name> --kmax <k>`: the report,
# truncation_order included, stays byte-identical
PHI_DIGESTS = {
    ("P2", 0): "bf96dbbfb6e3165505bb87925061a038af96062100a96570e5e322bc1502b307",
    ("P2", 6): "99f3c2c8cefa4f2ce5568615331f057536b652c171e9ab477b138e706c6d0268",
    ("P1xP1", 0): "f6a11271f2bc9c33e72c56287725acb53c4609fa556c6adb495618b8442ec141",
    ("P1xP1", 6): "d306c3a8b867f00c614064a1bc4ed785a5688b8dcb2ef9d4d6bac5e4c1d0dd50",
    ("P1xP2", 0): "a63f560095641e3e5d085e5f68ec020916398c2b900ce378e39bc9385d9cadad",
    ("P1xP2", 6): "eeb7293c929316e8c651aa52b66bc56451deef6acf1dacfaa51e90e4a906ff77",
    ("P2xP2", 0): "672083c2e10bc243e0b4c84eaa9ea18060004394e0162723daa3c2c21062ac61",
    ("P2xP2", 6): "b3cab00bca68af4370761e549d1a344be8abb117a77ae7c8f1d46f117f49621a",
    ("BlP2", 0): "8dbf6d9b16c17f43b9bc113074a283e284328d5c69d17fe18df12182cd764926",
    ("BlP2", 6): "f8b1b97e23e91805f40d464943fb14585937b1b1b813d8e715bb99d7cb02ac15",
}


@pytest.mark.parametrize("name,kmax", sorted(PHI_DIGESTS))
def test_phi_report_is_pinned(name, kmax):
    code, out, _ = run_cli(["phi", name, "--kmax", str(kmax)])
    assert code == 0
    series = json.loads(out)["checks"][0]["details"]["series"]
    assert series["truncation_order"] == kmax
    assert hashlib.sha256(out.encode()).hexdigest() == PHI_DIGESTS[name, kmax]


# sha256 of the whole stdout of `check-prop21 <name> --kmax 6` and
# `check-thm32 <name> --kmax 8`, the reports the exact product feeds
CHECK_KMAX = {"check-prop21": 6, "check-thm32": 8}
CHECK_DIGESTS = {
    ("check-prop21", "P2"): "59e5fcb515a712001dcc347808f9b050e25cb5c0049b11e6145f2e7781cdd6b6",
    ("check-prop21", "P1xP1"): "47f007042a6c424d469897e971be5f69305f99d704fb730b77ec492326586f48",
    ("check-prop21", "P1xP2"): "139fd961d1f711d69ecfb94d62bc7c1447d17dccedb38006424bcfa945189ff4",
    ("check-prop21", "P2xP2"): "65d877602e9d3992b3829362ed231c0f334342bd240d1fafad595669fa3fde77",
    ("check-prop21", "BlP2"): "5e02a752d08db91920bdddf113dcabfa85d7dad8c04ac27cb979f8782d09b72c",
    ("check-thm32", "P2"): "44aae8b592d82aabe88255e9f9e9e60d947a1cf2158fa6a9246c04c27254b0b0",
    ("check-thm32", "P1xP1"): "a0afe74e3e226bbc0ffcaa956de86dfd3bae0c8d96f8406a7934c66a457bc2c9",
    ("check-thm32", "P1xP2"): "161160677e65531f5e130aa6a5bf5087b69d6123ef2e11da2e9fbb2ff2feff66",
    ("check-thm32", "P2xP2"): "f6f374ec207b45b655166e2c6fecc407a3116402c7487ebfcb5169fed5c8de37",
    ("check-thm32", "BlP2"): "6f79ed197fabdbaf5b32b4f9655afc846de6d61860c231ef57c57a11aa44b60e",
}


@pytest.mark.parametrize("command,name", sorted(CHECK_DIGESTS))
def test_check_reports_are_pinned(command, name):
    code, out, _ = run_cli([command, name, "--kmax", str(CHECK_KMAX[command])])
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[command, name]


@pytest.mark.parametrize("name", ("P2", "P1xP1", "BlP2"))
def test_check_commands_pass(name):
    code, _, _ = run_cli(["check-prop21", name, "--kmax", "5"])
    assert code == 0
    code, _, _ = run_cli(["check-thm32", name, "--kmax", "5"])
    assert code == 0


def test_critical_points_report():
    code, out, _ = run_cli(["critical-points", "P2", "--q", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    details = report["checks"][0]["details"]
    assert details["expected_count"] == 3
    assert len(details["points"]) == 3
    # floats travel as fixed-width strings
    assert isinstance(details["points"][0][0]["re"], str)


def test_presentation_blowup_and_product():
    code, out, _ = run_cli(["presentation", "BlP2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["provenance"] == "builtin-example"
    code, out, _ = run_cli(["presentation", "P1xP2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["provenance"] == "computed-product"


README_BLOWUP = {
    "name": "blowup",
    "n": 2,
    "rays": [[1, 0], [0, 1], [-1, -1], [0, -1]],
    "kbasis": [[1, 0, 1, -1], [0, 1, 0, 1]],
    "lambda_monomials": [[0, 0], [0, 0], [1, 1], [0, 1]],
    "lambda_numeric": [0.0, 0.0, -2.0, -1.0],
}
BLP2_RAYS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "blp2_rays.json"


def test_blowup_document_gets_the_builtin_presentation(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(README_BLOWUP))
    code, out, _ = run_cli(["presentation", str(path)])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["provenance"] == "builtin-example"
    code, _, _ = run_cli(["verify-iso", str(path), "--q", "1/2,1/3"])
    assert code == 0


@pytest.mark.parametrize("command", ["presentation", "verify-iso"])
def test_blowup_rays_with_computed_basis_are_not_a_product(command):
    # the computed kernel basis differs from the builtin example's
    code, out, _ = run_cli([command, str(BLP2_RAYS)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotAProduct"


def test_verify_iso_passes_and_is_deterministic():
    args = ["verify-iso", "P2", "--q", "1", "--seed", "0"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_tropical_product_and_svg(tmp_path):
    svg_path = tmp_path / "scene.svg"
    code, out, _ = run_cli(["tropical", "P1xP1", "--svg", str(svg_path)])
    assert code == 0
    report = json.loads(out)
    assert report["artifacts"] == [str(svg_path)]
    assert svg_path.read_text().startswith("<svg")
    assert all(c["status"] == "pass" for c in report["checks"])


def test_tropical_blowup_is_structured_error():
    code, out, err = run_cli(["tropical", "BlP2"])
    assert code != 0
    report = json.loads(out)
    assert report["error"]["type"] == "NotAProduct"
    assert "NotAProduct" in err


def test_tropical_unbalanced_curve_reaches_the_report(monkeypatch):
    from toricmirror import tropical

    def unbalanced(discs):
        raise tropical.Unbalanced("directions sum to (1, 0), not zero")

    monkeypatch.setattr(tropical, "glue_discs", unbalanced)
    code, out, err = run_cli(["tropical", "P1xP1"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "Unbalanced", "message": "directions sum to (1, 0), not zero"}
    assert "error [Unbalanced]" in err


@pytest.mark.parametrize("command", [["info"], ["check-thm32", "--kmax", "2"],
                                     ["critical-points"]])
def test_repeated_ray_is_an_input_error(tmp_path, command):
    # W keyed by ray would keep 3 of 4 terms, and Thm 3.2 would read FAIL
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"rays": [[1, 0], [1, 0], [0, 1], [-1, -1]]}))
    code, out, err = run_cli([command[0], str(path), *command[1:]])
    assert code == 1
    report = json.loads(out)
    assert "checks" not in report
    assert report["error"] == {"type": "RepeatedRay",
                               "message": "ray (1, 0) is given more than once"}
    assert "error [RepeatedRay]" in err


def test_unknown_fixture_is_error():
    code, out, _ = run_cli(["info", "P3"])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "UnknownFixture"


@pytest.mark.parametrize("command", ["phi", "check-prop21", "check-thm32"])
def test_negative_kmax_is_parse_error(command):
    code, out, err = run_cli([command, "P2", "--kmax", "-1"])
    assert code == 1
    report = json.loads(out)
    assert "checks" not in report
    assert report["error"]["type"] == "ParseError"
    assert report["parameters"]["kmax"] == -1
    assert "ParseError" in err


def test_file_input_roundtrip(tmp_path):
    doc = {
        "name": "blowup",
        "n": 2,
        "rays": [[1, 0], [0, 1], [-1, -1], [0, -1]],
        "kbasis": [[1, 0, 1, -1], [0, 1, 0, 1]],
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 0
    details = json.loads(out)["checks"][0]["details"]
    assert details["facet_q_exponents"] == [[0, 0], [0, 0], [1, 1], [0, 1]]


def test_malformed_documents_are_parse_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, out, _ = run_cli(["info", str(bad_json)])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ParseError"

    bad_rays = tmp_path / "rays.json"
    bad_rays.write_text(json.dumps({"rays": [[1, 0], ["x", 1]]}))
    code, out, _ = run_cli(["info", str(bad_rays)])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ParseError"

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2}))
    code, out, _ = run_cli(["info", str(missing)])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("field,value", [
    ("rays", [[1, 0], [0, True], [-1, -1]]),
    ("kbasis", [[1, 1, False]]),
    ("lambda_monomials", [[0], [0], [True]]),
    ("lambda_numeric", [0.0, False, -1.0]),
])
def test_json_booleans_are_not_numbers(tmp_path, field, value):
    doc = {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]], field: value}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and repr(field) in error["message"]


@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
@pytest.mark.parametrize("option,value", [
    ("--starts", "-5"), ("--starts", "0"), ("--max-iter", "0"),
    ("--tol", "0"), ("--tol", "-1e-3"), ("--tol", "nan"),
])
def test_nonpositive_solver_options_are_parse_errors(command, option, value):
    code, out, err = run_cli([command, "P2", f"{option}={value}"])
    assert code == 1
    report = json.loads(out)
    assert "checks" not in report
    assert report["error"]["type"] == "ParseError"
    assert option in report["error"]["message"]
    assert "ParseError" in err


@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
@pytest.mark.parametrize("option", ["--tol", "--dedup-tol"])
def test_infinite_tolerances_are_parse_errors(command, option):
    code, out, _ = run_cli([command, "P2", f"{option}=inf"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == f"{option} must be finite, got inf"


@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_dedup_tol_is_a_parse_error(command, value):
    # in a child process, so that a regression to the old endless dedup loop
    # fails on the timeout instead of hanging the suite
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "toricmirror", command, "P2", f"--dedup-tol={value}"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1
    error = json.loads(out.stdout)["error"]
    assert error["type"] == "ParseError" and "--dedup-tol" in error["message"]


def test_invalid_input_data_is_structured():
    code, out, _ = run_cli(["vertices", "P2", "--q", "0"])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["info", "P2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "info"


def test_verify_iso_default_q_shifts_on_degenerate_spectrum():
    # a coarse dedup tolerance makes the q = 1 run report near-coincident
    # points, so the command reruns at the generic parameter point
    code, out, _ = run_cli(["verify-iso", "P2", "--dedup-tol", "0.25"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["details"]["q"] for c in checks[:-1]] == [["7/10"]] * 4


def test_verify_iso_explicit_q_is_not_shifted():
    code, out, _ = run_cli(["verify-iso", "P2", "--q", "1", "--dedup-tol", "0.25"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["details"]["q"] for c in checks[:-1]] == [["1"]] * 4


def test_subprocess_reports_are_byte_identical():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "toricmirror", "verify-iso", "P2", "--q", "1",
           "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_cli_import_leaves_sympy_out():
    # sympy is a test oracle only; it must not ride along with the CLI import
    import subprocess
    import sys

    code = "import sys, toricmirror.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_verify_iso_largest_fixture():
    code, out, _ = run_cli(["verify-iso", "P2xP2", "--q", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    dims = next(
        c["details"] for c in report["checks"]
        if c["name"] == "dimension-equals-critical-point-count"
    )
    assert dims["dim"] == dims["points"] == 9


def test_file_input_with_all_optional_fields(tmp_path):
    doc = {
        "name": "plane",
        "n": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "lambda_monomials": [[0], [0], [1]],
        "lambda_numeric": [0.0, 0.0, -1.0],
    }
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["facet_q_exponents"] == [
        [0], [0], [1]
    ]

    doc["lambda_monomials"] = [[0], [0], [2]]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["info", str(path)])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "InconsistentLambda"
