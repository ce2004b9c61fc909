import contextlib
import hashlib
import io
import json
import numbers
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toricmirror import cli
from toricmirror.disc_algebra import QLaurent
from toricmirror.errors import ParseError, ToricMirrorError, UnknownFixture
from toricmirror.fixtures import fixture
from toricmirror.syz_transform import exp_superpotential

from helpers import FIXTURE_NAMES, PRODUCT_NAMES

ROOT = Path(__file__).resolve().parents[1]
# a fresh interpreter finds the package in src without an install
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


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


@pytest.mark.parametrize("name,q,reason", [
    ("P2", "1", "polytope has empty interior at q = 1"),
    ("P2", "2", "facet inequalities have no solution at q = 2"),
    ("BlP2", "1", "polytope has empty interior at q = 1,1"),
    ("P1xP2", "3/2,1/2", "facet inequalities have no solution at q = 3/2,1/2"),
])
def test_degenerate_polytope_names_q_and_the_kahler_cone(name, q, reason):
    code, out, err = run_cli(["vertices", name, "--q", q])
    assert code == 1
    message = (f"{reason}: the polytope has an interior only for q in the Kahler cone "
               "(every q_a < 1 lies in it on the registered fixtures)")
    assert json.loads(out)["error"] == {"type": "DegeneratePolytope", "message": message}
    assert err == f"error [DegeneratePolytope]: {message}\n"


def test_vertices_q_help_names_the_kahler_cone():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit, match="0"):
        cli.main(["vertices", "--help"])
    out = out.getvalue()
    assert "q in the Kahler cone (every q_a < 1 lies in it on the registered" in " ".join(out.split())


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


def test_qlaurent_json_is_sorted():
    p = QLaurent({(2,): Fraction(1, 8), (0,): 1, (1,): 1})
    rows = json.loads(cli._dumps(cli._q_rows(p)))
    assert [e["q_exponents"] for e in rows] == [[0], [1], [2]]


def test_zlaurent_json_shape():
    data = fixture("P2")
    entries = json.loads(cli._dumps(cli._flat_rows(exp_superpotential(data, 1), "z_exponents")))
    assert all(
        set(e) == {"z_exponents", "q_exponents", "coefficient"} for e in entries
    )
    assert {"z_exponents": [-1, -1], "q_exponents": [1], "coefficient": "1"} in entries


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


# sha256 of the whole stdout of `vertices <input>` without --q: the exact
# reference polytope (integer facet constants) that the expected
# critical-point count comes from
VERTICES_DIGESTS = {
    "P2": "025bff4556c7d9e6cc75d01dc138d1fe8df1968e43929cbba7dbdec4d02cd83a",
    "P1xP1": "23571650199d191b0187fa0cc0e8a1e13a3dc342d92383155a66ce36ae2ffbe0",
    "P1xP2": "9d3a42f17653cdab6c6f7d7c649bd9dd931fea345479927efb44b3da861cdb4b",
    "P2xP2": "cc61748fe6a293c288971e8c7e697df8420dba23968ce5f08138b5f13d234a0d",
    "BlP2": "b41c75efce815c5a368ce89bbb1bd159bfb1e0f0ea9b4f315f94eff9781128fa",
    "perfbench/inputs/blp2_rays.json":
        "dd400676023f70218c9157133de66dbf296c9e8b966ad674015fbeb94fe5a16f",
}


@pytest.mark.parametrize("name", sorted(VERTICES_DIGESTS))
def test_vertices_report_is_pinned(name, monkeypatch):
    # the report echoes the input as given, so run from the repository root
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(["vertices", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERTICES_DIGESTS[name]


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


# sha256 of the whole stdout of `<command> <input>` with no options: the
# exact reports of the lattice, W, presentation and tropical layers
REPORT_DIGESTS = {
    ("info", "P2"): "c8d9aed0e7e59d21d0810e5a9cd0b01e562b94aa930c1fb6687312fc74347703",
    ("info", "P1xP1"): "f1c2d9d680ec549b94e8b6def27cb9dfd46d6df850c0fbac60e1565ffd9db047",
    ("info", "P1xP2"): "47cb846dd6c811f39033c1878d80bd337013afd118e264425cdea4603b03bab5",
    ("info", "P2xP2"): "5ba883aa44f76333bb2207be55f4305c24b88cf12bef6da4bddb002719971f99",
    ("info", "BlP2"): "4bd17ab60618f529c55ef8e8092b1f4f77411f49e054608e69b36ded8252d809",
    ("info", "perfbench/inputs/blp2_rays.json"):
        "fe5b8e57303ff33d179a5a954298c9460b629b3069028c6cc823843c4d4cfbf7",
    ("superpotential", "P2"): "a83efbe7c99bb44627933aa858119c6a4c08da9239b5dbbafb2eb012dad1d56a",
    ("superpotential", "P1xP1"): "e3e4d9054d47c242e5bbcaf5019eb986508cac9dece06e1773aac534b19643b1",
    ("superpotential", "P1xP2"): "7fb9b1a46e6c3ceb56b32f6dbd75c70ce2376f79ea654dfa7f5a542a436fd3b2",
    ("superpotential", "P2xP2"): "68543488304cea1bb1eaa2aa6ef1e42d16d6772baf0da5028fdd5a2d1e65c18c",
    ("superpotential", "BlP2"): "abbab924230f3294f15c6449a28e50b8a645be5a065d05921add1b521e88f6c7",
    ("presentation", "P2"): "80c05cb82978da60e09de4180eca246d8168d64384c0da89ef560883189e1449",
    ("presentation", "P1xP1"): "38a1431ee3fca954c5e14b378956b3e0143bd0ade17584b7fb97f48524c99d61",
    ("presentation", "P1xP2"): "f1500bf04ecb5f5dce68cb706eccd2135b8d718355444f1f74184d9bea7290b0",
    ("presentation", "P2xP2"): "be8ad8fee5911d0a27f6980143ccd929509b15790323677bbe8ff6c30434af78",
    ("presentation", "BlP2"): "0ac0a5eecd7d7c6f5b6c39417df12aa0d6c651b38f6f438d0da2991e7c9a782f",
    ("tropical", "P2"): "afbd0440b6eac66688eaaea9782ba057314c08f87361a5202a1acb4e1119374f",
    ("tropical", "P1xP1"): "7683ddbe605c448e5793591e444f126504318ec23fe51b2c10437514173c8b1c",
    ("tropical", "P1xP2"): "f5c4331ad25381e04fa89d98a8bcb315d116232f71d87c1a2ab2f3d822513c06",
    ("tropical", "P2xP2"): "77d3f9ca146e1b10adcb330615e346ed927dabae5d90019000b841009bec7cb4",
    # BlP2 is not a product: the pinned report is the NotAProduct error document
    ("tropical", "BlP2"): "004aa62655bbf802ce6730c648ec6ef554b4be6ef104aaf394bdefd668f3be1c",
}


@pytest.mark.parametrize("command,name", sorted(REPORT_DIGESTS))
def test_report_is_pinned(command, name, monkeypatch):
    # the report echoes the input as given, so run from the repository root
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli([command, name])
    assert code == (1 if (command, name) == ("tropical", "BlP2") else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[command, name]


def report_document(argv):
    """The document ``main`` writes for argv, the error document included."""
    args = cli.build_parser().parse_args(argv)
    try:
        return cli.run(args)
    except ToricMirrorError as exc:
        return cli._error_document(args, exc)


def jsonified(value):
    """A report value as plain JSON data: the writer's conversions, spelled out as an oracle."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonified(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonified(v) for v in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    if isinstance(value, numbers.Complex):
        return {"re": format(float(value.real), ".17g"),
                "im": format(float(value.imag), ".17g")}
    raise TypeError(f"cannot serialize {type(value).__name__}")


@pytest.mark.parametrize("name", sorted(VERTICES_DIGESTS))
def test_json_writer_matches_json_dumps(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    argvs = [[command, name] for command in cli.COMMANDS] + [
        ["verify-iso", name, "--q", "1/2", "--seed", "3"],
        ["phi", name, "--kmax", "-1"],
        ["vertices", name, "--q", "2"],
        ["tropical", name, "--xi", "1/2,x"],
        ["info", name + "-caf\u00e9\U0001d54f.json"],
    ]
    docs = [report_document(argv) for argv in argvs]
    for doc in docs:
        assert cli._dumps(doc) == json.dumps(jsonified(doc), indent=2)
    # the last four argvs are always errors, the non-ASCII message included
    assert all("error" in doc for doc in docs[-4:])


@pytest.mark.parametrize("doc", [{"a": {"b"}}, {"a": object()}, {"a": [np.bool_(True)]},
                                 {"a": b"b"}, {"a": np.array([1.5])}, {"a": [frozenset()]}])
def test_json_writer_rejects_what_reports_never_hold(doc):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._dumps(doc)


def test_json_writer_forms():
    doc = {"s": "\"q\"\n\u00e9", "t": True, "f": False, "n": None, "i": -12, "e": [], "d": {},
           "l": [[], {}, [1, [2]], {"k": ()}], "x": (1, "2")}
    assert cli._dumps(doc) == json.dumps(doc, indent=2)
    assert cli._dumps([]) == "[]" and cli._dumps({}) == "{}" and cli._dumps(7) == "7"


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
    # every one of the 50 starts per expected point ran, as one batch
    assert details["starts"] == 50 * details["expected_count"]
    # floats travel as fixed-width strings
    assert isinstance(details["points"][0][0]["re"], str)


def test_presentation_blowup_and_product():
    code, out, _ = run_cli(["presentation", "BlP2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["provenance"] == "builtin-example"
    code, out, _ = run_cli(["presentation", "P1xP2"])
    assert code == 0
    assert json.loads(out)["checks"][0]["details"]["provenance"] == "computed-product"


def test_presentation_and_verify_iso_agree_on_the_exact_checks(monkeypatch):
    # a log derivative among the quantum generators fails the exact check of
    # both commands, though it vanishes at every critical point
    from toricmirror import quantum_ring

    build = quantum_ring.presentation_for

    def presentation_for(data):
        pres = build(data)
        return quantum_ring.RingPresentation(
            pres.d, pres.linear_gens, pres.quantum_gens + (pres.linear_gens[0],),
            pres.provenance)

    monkeypatch.setattr(quantum_ring, "presentation_for", presentation_for)
    _, out, _ = run_cli(["presentation", "P2"])
    exact = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    _, out, _ = run_cli(["verify-iso", "P2", "--q", "7/10"])
    full = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert exact["linear-generators-match-log-derivatives"] == "pass"
    assert full["linear-generators-map-to-log-derivatives"] == "pass"
    assert exact["quantum-generators-vanish-under-substitution"] == "fail"
    assert full["quantum-generators-vanish-at-critical-points"] == "fail"


# the README's example input document, its one json block
README_BLOWUP = (
    (ROOT / "README.md").read_text(encoding="utf-8").split("```json\n")[1].split("```")[0]
)
BLP2_RAYS = ROOT / "perfbench" / "inputs" / "blp2_rays.json"


def test_blowup_document_gets_the_builtin_presentation(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(README_BLOWUP)
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


def test_critical_points_never_stops_early():
    # only verify-iso has a bound on the number of roots; this command keeps
    # running all 150 starts and reports the extra root
    code, out, _ = run_cli(["critical-points", str(BLP2_RAYS), "--q", "1/2,1/3"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "IncompleteRootSet"
    assert error["message"].startswith("found 4 distinct critical points, expected 3 (")
    assert error["message"].endswith(" of 150 starts failed to converge)")


def test_verify_iso_finds_the_far_blowup_root_only_from_the_model():
    # the fourth root sits at log|z_2| ~ -9.2, beyond the random starts'
    # Re u in [-3, 3]; verify-iso starts Newton at the model's eigenvectors,
    # critical-points has no model and still misses it
    code, out, _ = run_cli(["verify-iso", "BlP2", "--q", "1,1e-4"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    count = checks["dimension-equals-critical-point-count"]["details"]
    assert (count["points"], count["starts"], count["failed_starts"]) == (4, 4, 0)
    code, out, _ = run_cli(["critical-points", "BlP2", "--q", "1,1e-4"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "IncompleteRootSet",
        "message": "found 3 distinct critical points, expected 4 "
                   "(0 of 200 starts failed to converge)",
    }


@pytest.mark.parametrize("q", ["1e-20", "1e-30"])
@pytest.mark.parametrize("name", PRODUCT_NAMES)
@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
def test_tiny_q_finds_exactly_the_expected_roots(command, name, q):
    # an absolute residual test counted 16 to 425 near-roots here
    code, out, _ = run_cli([command, name, "--q", ",".join([q] * fixture(name).l)])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    if command == "critical-points":
        count = checks["critical-point-count"]["details"]
        assert len(count["points"]) == count["expected_count"]
    else:
        count = checks["dimension-equals-critical-point-count"]["details"]
        assert count["points"] == count["dim"] == count["vertices"]


def test_verify_iso_at_large_q_passes():
    code, _, _ = run_cli(["verify-iso", "P2", "--q", "1e6"])
    assert code == 0


def test_verify_iso_passes_and_is_deterministic():
    args = ["verify-iso", "P2", "--q", "1", "--seed", "0"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_iso_explicit_q_is_not_shifted():
    # every check but the spectra echoes the q it ran at
    code, out, _ = run_cli(["verify-iso", "P2", "--q", "1"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["details"]["q"] for c in checks[:-1]] == [["1"]] * 4


@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
def test_solver_reports_take_q_and_seed_only(command):
    code, out, _ = run_cli([command, "P2", "--q", "1/2", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["parameters"] == {"q": "1/2", "seed": 3}


@pytest.mark.parametrize("option", ["--starts=40", "--max-iter=5", "--tol=1e-9",
                                    "--dedup-tol=1e-3"])
def test_fixed_newton_settings_are_not_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-iso", "P2", option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tropical_product_and_svg(tmp_path):
    svg_path = tmp_path / "scene.svg"
    code, out, _ = run_cli(["tropical", "P1xP1", "--svg", str(svg_path)])
    assert code == 0
    report = json.loads(out)
    assert report["artifacts"] == [str(svg_path)]
    assert svg_path.read_text().startswith("<svg")
    assert all(c["status"] == "pass" for c in report["checks"])


def test_tropical_svg_of_a_non_planar_fan_is_parse_error(tmp_path):
    svg_path = tmp_path / "scene.svg"
    code, out, _ = run_cli(["tropical", "P1xP2", "--svg", str(svg_path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "type": "ParseError",
        "message": "--svg draws planar fans only; this input has rank 3",
    }
    assert not svg_path.exists()


def test_tropical_blowup_is_structured_error():
    code, out, err = run_cli(["tropical", "BlP2"])
    assert code != 0
    report = json.loads(out)
    assert report["error"]["type"] == "NotAProduct"
    assert "NotAProduct" in err


def test_tropical_unbalanced_curve_reaches_the_report(monkeypatch):
    from toricmirror import tropical

    def unbalanced(vertex, directions):
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


def test_path_below_a_file_is_unknown_fixture(tmp_path):
    below = tmp_path / "plane.json"
    below.write_text("{}")
    code, out, _ = run_cli(["info", str(below / "x.json")])
    assert code == 1
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


@pytest.mark.parametrize("command", ["critical-points", "verify-iso"])
def test_negative_seed_is_parse_error(command):
    code, out, err = run_cli([command, "P2", "--seed", "-3"])
    assert code == 1
    report = json.loads(out)
    assert "checks" not in report
    assert report["error"] == {"type": "ParseError",
                               "message": "--seed must be nonnegative, got -3"}
    assert report["parameters"] == {"seed": -3}
    assert "ParseError" in err
    # --q is checked first
    code, out, _ = run_cli([command, "P2", "--q", "0", "--seed", "-3"])
    assert json.loads(out)["error"]["message"] == "parameters must be positive"


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


def assert_unreadable_input(path, reason):
    code, out, err = run_cli(["info", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{path}: ") and reason in error["message"]
    assert err == f"error [ParseError]: {error['message']}\n"


def test_directory_input_is_parse_error(tmp_path):
    assert_unreadable_input(tmp_path, "Is a directory")


def test_overlong_file_name_is_parse_error(tmp_path):
    assert_unreadable_input(tmp_path / ("x" * 300 + ".json"), "File name too long")


def test_non_utf8_input_is_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9", "rays": [[1]]}'.encode("latin-1"))
    assert_unreadable_input(path, "not UTF-8 text")


def test_unreadable_input_is_parse_error(tmp_path, monkeypatch):
    # a mode-000 file is still readable by root, so the refusal is simulated
    import errno

    path = tmp_path / "locked.json"
    path.write_text("{}")

    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    assert_unreadable_input(path, "Permission denied")


@pytest.mark.parametrize("field,value", [
    ("rays", [[1, 0], [0, True], [-1, -1]]),
    ("kbasis", [[1, 1, False]]),
    ("lambda_monomials", [[0], [0], [True]]),
    # a declared rank that is not a JSON integer used to pass (2.0) or be
    # reported as a mismatch with the rays ("2", true)
    ("n", True),
    ("n", 2.0),
    ("n", "2"),
])
def test_json_booleans_are_not_numbers(tmp_path, field, value):
    doc = {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]], field: value}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and repr(field) in error["message"]


def test_rays_of_mixed_dimensions_are_parse_error(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0], [-1, -1]]}))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and "'rays'" in error["message"]


def test_invalid_input_data_is_structured():
    code, out, _ = run_cli(["vertices", "P2", "--q", "0"])
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("command", ["critical-points", "verify-iso", "vertices"])
@pytest.mark.parametrize("value", ["1e400", "1e-400"])
def test_q_outside_the_float_range_is_parse_error(command, value):
    code, out, _ = run_cli([command, "P2", "--q", value])
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "type": "ParseError",
        "message": f"parameter {value} is outside the float range",
    }


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["info", "P2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "info"


@pytest.mark.parametrize("target,reason", [
    ("missing/report.json", "No such file or directory"),
    (".", "Is a directory"),
])
@pytest.mark.parametrize("option", ["--out", "--svg"])
def test_unwritable_output_path_is_parse_error(tmp_path, target, reason, option):
    path = tmp_path / target
    code, out, err = run_cli(["tropical", "P1xP1", option, str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ParseError", "message": f"{path}: cannot write: {reason}"}
    assert "ParseError" in err


def test_subprocess_reports_are_byte_identical():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "toricmirror", "verify-iso", "P2", "--q", "1",
           "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=SUBPROCESS_ENV)
    second = subprocess.run(cmd, capture_output=True, check=True, env=SUBPROCESS_ENV)
    assert first.stdout == second.stdout


EXACT_COMMANDS = ("info", "vertices", "superpotential", "phi", "check-prop21",
                  "check-thm32", "presentation", "tropical")


@pytest.mark.parametrize("module", ["sympy", "numpy"])
def test_exact_commands_leave_module_out(module):
    # sympy is a test oracle only and numpy is loaded only where a float is
    # computed; neither may ride along with the CLI or an exact command
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from toricmirror import cli
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in {EXACT_COMMANDS!r}:
                for name in ("P2", "BlP2"):
                    cli.main([command, name])
        print({module!r} in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=SUBPROCESS_ENV)
    assert out.stdout.strip() == "False"


def test_float_commands_leave_numpy_random_out():
    # Newton's random starts come from a stdlib stream: no float command, and
    # not verify-iso's fallback draw when the eigenvector seeds miss, loads it
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        from fractions import Fraction
        from toricmirror import cli, quantum_ring as qr
        from toricmirror.fixtures import fixture
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in ("critical-points", "verify-iso"):
                for name in {FIXTURE_NAMES + (str(BLP2_RAYS),)!r}:
                    cli.main([command, name])
            cli.main(["critical-points", "BlP2", "--q", "1,1e-4"])
        loaded = "numpy" in sys.modules
        import numpy as np
        qr._eigenvector_starts = lambda data, chart, mats, q: np.full((3, 2), np.nan + 0j)
        data = fixture("P2")
        report = qr.verify_isomorphism(data, qr.presentation_for(data), [Fraction(7, 10)])
        counts = {{c.name: c.details for c in report.checks}}
        print(json.dumps([report.ok, counts["dimension-equals-critical-point-count"]["starts"],
                          "numpy.random" in sys.modules, loaded]))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=SUBPROCESS_ENV)
    # the three nan seeds ran and missed, then the 150 random starts
    assert json.loads(out.stdout) == [True, 3 + 150, False, True]


BASE_LAYERS = {"toricmirror", "toricmirror.cli", "toricmirror.toric_core",
               "toricmirror._intlinalg", "toricmirror.errors", "toricmirror.fixtures"}
SERIES_LAYERS = {"toricmirror.disc_algebra"}
MIRROR_LAYERS = SERIES_LAYERS | {"toricmirror.syz_transform", "toricmirror.lg_model"}
RING_LAYERS = MIRROR_LAYERS | {"toricmirror.quantum_ring"}
COMMAND_LAYERS = {
    "info": set(),
    "vertices": set(),
    "phi": SERIES_LAYERS,
    "check-prop21": SERIES_LAYERS,
    "superpotential": MIRROR_LAYERS,
    "check-thm32": MIRROR_LAYERS,
    "critical-points": MIRROR_LAYERS,
    "presentation": RING_LAYERS,
    "verify-iso": RING_LAYERS,
    "tropical": {"toricmirror.tropical"},
}


def _loaded_package_modules(code):
    import subprocess
    import sys

    code += ("\nimport json\nprint(json.dumps("
             "[m for m in sys.modules if m.split('.')[0] == 'toricmirror']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=SUBPROCESS_ENV)
    return set(json.loads(out.stdout))


def test_bare_import_loads_no_submodule():
    assert _loaded_package_modules("import sys, toricmirror") == {"toricmirror"}


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_command_loads_only_its_layers(command):
    # each command, in a fresh interpreter, imports exactly the layers it runs
    code = (
        "import contextlib, io, sys\n"
        "from toricmirror import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main([{command!r}, 'P2']) == 0"
    )
    assert _loaded_package_modules(code) == BASE_LAYERS | COMMAND_LAYERS[command]


NUMPY_SCALARS = [
    (np.int64(-7), "-7"),
    (np.uint64(2**64 - 1), "18446744073709551615"),
    (np.float32(0.1), '"0.10000000149011612"'),
    (np.float64(0.1), '"0.10000000000000001"'),
    (np.complex64(1.5 - 0.25j), '{"re": "1.5", "im": "-0.25"}'),
    (np.complex128(0.1 + 0.2j),
     '{"re": "0.10000000000000001", "im": "0.20000000000000001"}'),
]


@pytest.mark.parametrize("value,expected", NUMPY_SCALARS,
                         ids=[type(v).__name__ for v, _ in NUMPY_SCALARS])
def test_jsonify_numpy_scalars(value, expected):
    # the writer converts numpy's scalars as their built-in counterparts
    assert cli._dumps(value) == json.dumps(json.loads(expected), indent=2)


def test_jsonify_rejects_numpy_bool():
    with pytest.raises(TypeError, match="cannot serialize bool"):
        cli._dumps(np.bool_(True))


def test_cli_verify_iso_largest_fixture():
    code, out, _ = run_cli(["verify-iso", "P2xP2", "--q", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    dims = next(
        c["details"] for c in report["checks"]
        if c["name"] == "dimension-equals-critical-point-count"
    )
    assert dims["dim"] == dims["points"] == 9


@pytest.mark.parametrize("lambda_numeric", [
    [0.0, 0.0, -1.0], [0.5, 0.0, -1.5], [0.0, False, -1.0], "not a list",
], ids=["gauge-aligned", "translated", "boolean", "not-a-list"])
def test_lambda_numeric_key_is_ignored(tmp_path, lambda_numeric):
    # numeric facet constants are derived from the monomials, never read
    doc = {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]]}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, plain, _ = run_cli(["info", str(path)])
    assert code == 0
    path.write_text(json.dumps({**doc, "lambda_numeric": lambda_numeric}))
    code, out, _ = run_cli(["info", str(path)])
    assert code == 0
    assert json.loads(out)["checks"] == json.loads(plain)["checks"]


def test_file_input_with_all_optional_fields(tmp_path):
    doc = {
        "name": "plane",
        "n": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "lambda_monomials": [[0], [0], [1]],
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
