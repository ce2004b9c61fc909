import contextlib
import io
import json

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
    report = json.loads(out)
    assert report["checks"][0]["details"]["q"] == ["7/10"]


def test_verify_iso_explicit_q_is_not_shifted():
    code, out, _ = run_cli(["verify-iso", "P2", "--q", "1", "--dedup-tol", "0.25"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["q"] == ["1"]


def test_subprocess_reports_are_byte_identical():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "toricmirror", "verify-iso", "P2", "--q", "1",
           "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


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
