"""Command-line front end: input loading, command dispatch, JSON reports.

Reports are machine-first JSON with the fixed top-level schema
``{command, input, parameters, checks: [{name, status, details}], artifacts}``
written to stdout (or ``--out``); a human-readable summary goes to stderr.
The exit status is 0 exactly when every executed check passes.  Operational
errors produce ``{command, input, parameters, error: {type, message}}`` and a
nonzero exit.  Floating values are serialized with 17 significant digits so
reports are byte-identical for identical requests and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import disc_algebra, fixtures, lg_model, quantum_ring, syz_transform, tropical
from .errors import (
    DegenerateSpectrum,
    NotAProduct,
    ParseError,
    ToricMirrorError,
    UnknownFixture,
)
from .toric_core import (
    build_toric_data,
    lambda_from_q,
    polytope_vertices,
    reference_lambda,
    vertex_count_reference,
)

GENERIC_Q = ("0.7", "0.2", "0.65", "0.25", "0.6", "0.3")


def _fmt_float(x):
    return format(float(x), ".17g")


def jsonify(value):
    """Deterministic JSON form: exact strings for rationals and floats."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": _fmt_float(value.real), "im": _fmt_float(value.imag)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def load_input(source):
    """Named fixture or JSON document path -> validated toric data."""
    if source in fixtures.REGISTRY:
        return fixtures.fixture(source)
    path = Path(source)
    if not path.exists():
        raise UnknownFixture(
            f"{source!r} is neither a registered fixture "
            f"({', '.join(fixtures.REGISTRY)}) nor a readable file"
        )
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    if "rays" not in doc:
        raise ParseError(f"{source}: missing required field 'rays'")
    rays = doc["rays"]
    if (
        not isinstance(rays, list)
        or not rays
        or any(
            not isinstance(v, list) or any(not isinstance(c, int) for c in v)
            for v in rays
        )
    ):
        raise ParseError(f"{source}: field 'rays' must be a list of integer lists")
    if "n" in doc and any(len(v) != doc["n"] for v in rays):
        raise ParseError(f"{source}: rays do not match the declared rank n={doc['n']}")
    for field in ("lambda_monomials", "kbasis"):
        if field in doc:
            block = doc[field]
            if not isinstance(block, list) or any(
                not isinstance(row, list) or any(not isinstance(c, int) for c in row)
                for row in block
            ):
                raise ParseError(f"{source}: field {field!r} must be a list of integer lists")
    if "lambda_numeric" in doc and (
        not isinstance(doc["lambda_numeric"], list)
        or any(not isinstance(x, (int, float)) for x in doc["lambda_numeric"])
    ):
        raise ParseError(f"{source}: field 'lambda_numeric' must be a list of numbers")
    return build_toric_data(
        rays,
        lambda_exponents=doc.get("lambda_monomials"),
        kbasis=doc.get("kbasis"),
        lambda_numeric=doc.get("lambda_numeric"),
    )


def _parse_q(text, l):
    if text is None:
        return None
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse parameter list {text!r}") from None
    if any(v <= 0 for v in vals):
        raise ParseError("parameters must be positive")
    if len(vals) == 1 and l > 1:
        vals = vals * l
    if len(vals) != l:
        raise ParseError(f"expected {l} parameter value(s), got {len(vals)}")
    return vals


def _parse_point(text, n):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse point {text!r}") from None
    if len(vals) != n:
        raise ParseError(f"expected {n} coordinates, got {len(vals)}")
    return vals


def _parse_kmax(kmax):
    if kmax < 0:
        raise ParseError(f"--kmax must be nonnegative, got {kmax}")
    return kmax


def _check(name, passed, details):
    return {"name": name, "status": "pass" if passed else "fail", "details": details}


def _presentation_for_input(data, source):
    factorization = quantum_ring.product_structure(data)
    if factorization is not None:
        return quantum_ring.presentation_for(data, factorization)
    if source in ("BlP2",):
        return quantum_ring.builtin_presentation(source)
    raise NotAProduct(
        "no ring presentation available: the fan is not a product of "
        "projective-space fans and no builtin presentation is registered "
        f"for {source!r}"
    )


# --- command handlers -------------------------------------------------------

def _cmd_info(data, args):
    factorization = quantum_ring.product_structure(data)
    details = {
        "n": data.n,
        "d": data.d,
        "l": data.l,
        "rays": [list(v) for v in data.rays],
        "kbasis_columns": [list(c) for c in data.kbasis],
        "facet_q_exponents": [list(e) for e in data.lambda_exponents],
        "product_factors": (
            None
            if factorization is None
            else [
                {"coords": list(b.coords), "ray_indices": list(b.ray_indices)}
                for b in factorization.factors
            ]
        ),
    }
    return [_check("input-valid", True, details)], []


def _cmd_vertices(data, args):
    q = _parse_q(args.q, data.l)
    lam = reference_lambda(data) if q is None else lambda_from_q(data, q)
    verts = polytope_vertices(data, lam)
    details = {
        "count": len(verts),
        "vertices": [[str(c) for c in v] for v in verts],
        "lambda": list(lam),
    }
    return [_check("polytope-vertices", True, details)], []


def _cmd_superpotential(data, args):
    w = lg_model.superpotential(data)
    return [
        _check("superpotential-terms", True, {"terms": w.terms.to_json()})
    ], []


def _cmd_phi(data, args):
    series = disc_algebra.disc_series(data, _parse_kmax(args.kmax))
    adm = disc_algebra.to_admissible(series, data)
    details = {"series": series.to_json(), "admissible": adm.to_json()}
    return [_check("disc-series", True, details)], []


def _cmd_check_prop21(data, args):
    series = disc_algebra.disc_series(data, _parse_kmax(args.kmax))
    checks = []
    for a in range(data.l):
        lhs = disc_algebra.q_log_derivative(series, a, data)
        rhs = disc_algebra.log_derivative_convolution(series, a, data)
        ok = lhs == rhs.restrict(args.kmax)
        checks.append(
            _check(
                f"log-derivative-identity-q{a + 1}",
                ok,
                {"kmax": args.kmax, "classes": len(series.terms)},
            )
        )
    return checks, []


def _cmd_check_thm32(data, args):
    checks = []
    for order in range(_parse_kmax(args.kmax) + 1):
        series = disc_algebra.disc_series(data, order)
        lhs = syz_transform.transform(disc_algebra.to_admissible(series, data))
        rhs = syz_transform.exp_superpotential(data, order)
        checks.append(
            _check(
                f"transform-equals-exp-superpotential-k{order}",
                lhs == rhs,
                {"terms": len(rhs.terms)},
            )
        )
    return checks, []


def _solver_config(args, expected):
    return lg_model.SolverConfig(
        expected_count=expected,
        starts=args.starts,
        max_iter=args.max_iter,
        tol=args.tol,
        dedup_tol=args.dedup_tol,
        seed=args.seed,
    )


def _cmd_critical_points(data, args):
    q = _parse_q(args.q, data.l) or [Fraction(1)] * data.l
    qfl = [float(x) for x in q]
    expected = vertex_count_reference(data)
    w = lg_model.superpotential(data)
    cps = lg_model.critical_points(w, qfl, _solver_config(args, expected))
    worst = max(cps.residuals)
    details = {
        "q": q,
        "expected_count": expected,
        "points": [list(z) for z in cps.points],
        "values": list(cps.values),
        "residuals": list(cps.residuals),
        "monomial_values": [list(mv) for mv in cps.monomial_values],
        "failed_starts": cps.failed_starts,
    }
    return [
        _check("critical-point-count", len(cps) == expected, details),
        _check(
            "jacobian-residuals",
            worst <= 1e-9,
            {"max_residual": worst, "tolerance": 1e-9},
        ),
    ], []


def _cmd_presentation(data, args):
    pres = _presentation_for_input(data, args.input)
    jac = lg_model.jacobian_generators(lg_model.superpotential(data))
    syntactic = all(
        quantum_ring.substitute_divisors(g, data) == jac[j]
        for j, g in enumerate(pres.linear_gens)
    )
    vanish = all(
        not quantum_ring.substitute_divisors(g, data) for g in pres.quantum_gens
    )
    details = {
        "provenance": pres.provenance,
        "linear_generators": [g.to_json() for g in pres.linear_gens],
        "quantum_generators": [g.to_json() for g in pres.quantum_gens],
    }
    return [
        _check("presentation", True, details),
        _check("linear-generators-match-log-derivatives", syntactic, {}),
        _check("quantum-generators-vanish-under-substitution", vanish, {}),
    ], []


def _cmd_verify_iso(data, args):
    pres = _presentation_for_input(data, args.input)
    q = _parse_q(args.q, data.l)
    defaulted = q is None
    if defaulted:
        q = [Fraction(1)] * data.l
    solver = _solver_config(args, vertex_count_reference(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = quantum_ring.verify_isomorphism(
            data, pres, q, degree_cap=args.degree_cap, solver=solver
        )
        degenerate = any(isinstance(w.message, DegenerateSpectrum) for w in caught)
    if defaulted and degenerate:
        q = [Fraction(GENERIC_Q[a % len(GENERIC_Q)]) for a in range(data.l)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSpectrum)
            report = quantum_ring.verify_isomorphism(
                data, pres, q, degree_cap=args.degree_cap, solver=solver
            )
    checks = []
    for c in report.checks:
        details = dict(c.details)
        details["q"] = q
        checks.append(_check(c.name, c.passed, details))
    spectra_details = {
        str(i): {
            "eigenvalues": report.spectra[i]["eigenvalues"],
            "point_values": report.spectra[i]["point_values"],
        }
        for i in sorted(report.spectra)
    }
    checks.append(
        _check(
            "spectra",
            True,
            {
                "provenance": report.provenance,
                "dim": report.dim,
                "point_count": report.point_count,
                "per_divisor": spectra_details,
            },
        )
    )
    return checks, []


def _cmd_tropical(data, args):
    factorization = quantum_ring.product_structure(data)
    if factorization is None:
        raise NotAProduct(
            "tropical counting is implemented for products of projective "
            "spaces only; this fan is not a product"
        )
    if args.xi is not None:
        xi = _parse_point(args.xi, data.n)
    else:
        xi = [Fraction(0)] * data.n
    indices = (
        range(len(factorization.factors))
        if args.factor is None
        else [args.factor - 1]
    )
    checks = []
    curves = []
    for a in indices:
        if not 0 <= a < len(factorization.factors):
            raise ParseError(f"no factor with index {a + 1}")
        count = tropical.count_tgw(data, factorization, a, xi)
        curve = tropical.factor_curve(data, factorization, a, xi)
        curves.append(curve)
        checks.append(
            _check(
                f"tgw-count-unique-factor-{a + 1}",
                count == 1,
                {
                    "count": count,
                    "xi": [str(c) for c in xi],
                    "edges": [list(e) for e in curve.edges],
                    "degree": list(tropical.curve_degree(curve, data)),
                },
            )
        )
    artifacts = []
    if args.svg:
        Path(args.svg).write_text(tropical.scene_svg(curves))
        artifacts.append(args.svg)
    return checks, artifacts


_HANDLERS = {
    "info": _cmd_info,
    "vertices": _cmd_vertices,
    "superpotential": _cmd_superpotential,
    "phi": _cmd_phi,
    "check-prop21": _cmd_check_prop21,
    "check-thm32": _cmd_check_thm32,
    "critical-points": _cmd_critical_points,
    "presentation": _cmd_presentation,
    "verify-iso": _cmd_verify_iso,
    "tropical": _cmd_tropical,
}


def _parameters(args):
    out = {}
    for key in ("kmax", "q", "seed", "starts", "max_iter", "tol", "dedup_tol",
                "degree_cap", "factor", "xi", "svg"):
        if hasattr(args, key) and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


def run(args):
    """Execute one request and return the report document."""
    data = load_input(args.input)
    checks, artifacts = _HANDLERS[args.command](data, args)
    return {
        "command": args.command,
        "input": args.input,
        "parameters": jsonify(_parameters(args)),
        "checks": jsonify(checks),
        "artifacts": artifacts,
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricmirror",
        description=(
            "Compute and cross-verify both sides of a toric Fano mirror pair: "
            "disc-counting algebra, superpotential, ring presentations and "
            "their spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="fixture name or input JSON path")
        p.add_argument("--out", help="write the JSON report to this path")
        return p

    add("info", "validate the input and summarize its lattice data")
    p = add("vertices", "enumerate polytope vertices at numeric parameters")
    p.add_argument("--q", help="comma-separated positive parameters (default: e^-1 each)")
    add("superpotential", "emit the mirror Laurent function")
    p = add("phi", "emit the disc-count generating series")
    p.add_argument("--kmax", type=int, default=6)
    p = add("check-prop21", "verify the log-derivative identity classwise")
    p.add_argument("--kmax", type=int, default=6)
    p = add("check-thm32", "verify transform vs exponential, exactly, per order")
    p.add_argument("--kmax", type=int, default=6)
    p = add("critical-points", "solve for all critical points of the mirror function")
    p.add_argument("--q", help="comma-separated positive parameters (default: 1 each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int)
    p.add_argument("--max-iter", type=int, default=80, dest="max_iter")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--dedup-tol", type=float, default=1e-6, dest="dedup_tol")
    add("presentation", "emit the ring presentation on divisor generators")
    p = add("verify-iso", "run the full ring-vs-mirror verification")
    p.add_argument("--q", help="comma-separated positive parameters (default: 1 each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int)
    p.add_argument("--max-iter", type=int, default=80, dest="max_iter")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--dedup-tol", type=float, default=1e-6, dest="dedup_tol")
    p.add_argument("--degree-cap", type=int, dest="degree_cap")
    p = add("tropical", "count marked single-vertex curves per product factor")
    p.add_argument("--factor", type=int, help="1-based factor index (default: all)")
    p.add_argument("--xi", help="comma-separated rational vertex coordinates")
    p.add_argument("--svg", help="write an SVG scene to this path")
    return parser


def _emit(document, args):
    text = json.dumps(document, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    if "error" in document:
        print(
            f"error [{document['error']['type']}]: {document['error']['message']}",
            file=sys.stderr,
        )
    else:
        for check in document["checks"]:
            print(f"{check['name']}: {check['status'].upper()}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
    except ToricMirrorError as exc:
        error = {
            "command": args.command,
            "input": getattr(args, "input", None),
            "parameters": jsonify(_parameters(args)),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(error, args)
        return 1
    _emit(report, args)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
