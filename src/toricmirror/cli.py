"""Command-line front end: input loading, command dispatch, JSON reports.

Reports are machine-first JSON with the fixed top-level schema
``{command, input, parameters, checks: [{name, status, details}], artifacts}``
written to stdout (or ``--out``); a human-readable summary goes to stderr.
The exit status is 0 exactly when every executed check passes.  Operational
errors produce ``{command, input, parameters, error: {type, message}}`` and a
nonzero exit.  Every JSON shape of a report is written here (``_q_rows``,
``_flat_rows`` and inline), from the handlers' raw values: Fractions, floats,
complex numbers and tuples go as they are to one writer, ``_dumps``, which
converts each value once as it writes the report's bytes.  Rationals become
exact strings and floats strings of 17 significant digits, so reports are
byte-identical for identical requests and seeds.

The command set is one table, ``COMMANDS``, read by ``build_parser`` and
``run``; a report's ``parameters`` are whichever of a row's options are set.

Each handler imports the layers it runs, and ``import toricmirror`` itself
loads none, so a command loads only those: ``info`` and ``vertices`` need
``toric_core`` alone, only ``presentation`` and ``verify-iso`` load
``quantum_ring``, and only ``tropical`` loads ``tropical``.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import fixtures
from .errors import (
    DegeneratePolytope,
    NotAProduct,
    ParseError,
    ToricMirrorError,
    UnknownFixture,
)
from .toric_core import (
    build_toric_data,
    lambda_from_q,
    polytope_vertices,
    product_structure,
    reference_lambda,
    vertex_count_reference,
)


def _q_rows(c):
    """JSON rows of a QLaurent, sorted by q-exponents."""
    return [{"q_exponents": e, "coefficient": x} for e, x in sorted(c.terms.items())]


def _flat_rows(f, key_name):
    """One JSON row per (key, q-exponents) pair of a QLaurent-valued map."""
    return [{key_name: k, **row}
            for k, c in sorted(f.terms.items()) for row in _q_rows(c)]


def _is_int(x):
    # bool subclasses int, but JSON true and false are not integers
    return isinstance(x, int) and not isinstance(x, bool)


def load_input(source):
    """Named fixture or JSON document path -> validated toric data."""
    if source in fixtures.REGISTRY:
        return fixtures.fixture(source)
    try:
        text = Path(source).read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise UnknownFixture(
            f"{source!r} is neither a registered fixture "
            f"({', '.join(fixtures.REGISTRY)}) nor a readable file"
        ) from None
    except OSError as exc:
        raise ParseError(f"{source}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None
    try:
        doc = json.loads(text)
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
            not isinstance(v, list) or any(not _is_int(c) for c in v)
            for v in rays
        )
    ):
        raise ParseError(f"{source}: field 'rays' must be a list of integer lists")
    if "n" in doc and not _is_int(doc["n"]):
        raise ParseError(f"{source}: field 'n' must be an integer")
    if "n" in doc and any(len(v) != doc["n"] for v in rays):
        raise ParseError(f"{source}: rays do not match the declared rank n={doc['n']}")
    if any(len(v) != len(rays[0]) for v in rays):
        raise ParseError(f"{source}: field 'rays' must hold vectors of one length")
    for field in ("lambda_monomials", "kbasis"):
        if field in doc:
            block = doc[field]
            if not isinstance(block, list) or any(
                not isinstance(row, list) or any(not _is_int(c) for c in row)
                for row in block
            ):
                raise ParseError(f"{source}: field {field!r} must be a list of integer lists")
    return build_toric_data(
        rays,
        lambda_exponents=doc.get("lambda_monomials"),
        kbasis=doc.get("kbasis"),
    )


def _split_list(text):
    return [p.strip() for p in str(text).split(",") if p.strip()]


def _parse_fractions(text, what):
    try:
        return [Fraction(p) for p in _split_list(text)]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse {what} {text!r}") from None


def _parse_q(text, l):
    if text is None:
        return None
    vals = _parse_fractions(text, "parameter list")
    if any(v <= 0 for v in vals):
        raise ParseError("parameters must be positive")
    for part, v in zip(_split_list(text), vals):
        try:
            in_range = float(v) > 0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ParseError(f"parameter {part} is outside the float range")
    if len(vals) == 1 and l > 1:
        vals = vals * l
    if len(vals) != l:
        raise ParseError(f"expected {l} parameter value(s), got {len(vals)}")
    return vals


def _parse_point(text, n):
    vals = _parse_fractions(text, "point")
    if len(vals) != n:
        raise ParseError(f"expected {n} coordinates, got {len(vals)}")
    return vals


def _nonnegative(option, value):
    if value < 0:
        raise ParseError(f"--{option} must be nonnegative, got {value}")
    return value


def _check(name, passed, details):
    return {"name": name, "status": "pass" if passed else "fail", "details": details}


# --- command handlers -------------------------------------------------------

def _cmd_info(data, args):
    factorization = product_structure(data)
    details = {
        "n": data.n,
        "d": data.d,
        "l": data.l,
        "rays": data.rays,
        "kbasis_columns": data.kbasis,
        "facet_q_exponents": data.lambda_exponents,
        "product_factors": (
            None
            if factorization is None
            else [{"coords": b.coords, "ray_indices": b.ray_indices}
                  for b in factorization.factors]
        ),
    }
    return [_check("input-valid", True, details)], []


KAHLER_CONE_HINT = ("the polytope has an interior only for q in the Kahler cone "
                    "(every q_a < 1 lies in it on the registered fixtures)")


def _cmd_vertices(data, args):
    q = _parse_q(args.q, data.l)
    lam = reference_lambda(data) if q is None else lambda_from_q(data, q)
    try:
        verts = polytope_vertices(data, lam)
    except DegeneratePolytope as exc:
        if q is None:
            raise
        raise DegeneratePolytope(
            f"{exc} at q = {','.join(map(str, q))}: {KAHLER_CONE_HINT}"
        ) from None
    details = {
        "count": len(verts),
        "vertices": verts,
        "lambda": lam,
    }
    return [_check("polytope-vertices", True, details)], []


def _cmd_superpotential(data, args):
    from . import lg_model

    w = lg_model.superpotential(data)
    return [_check("superpotential-terms", True, {"terms": _flat_rows(w, "z_exponents")})], []


def _cmd_phi(data, args):
    from . import disc_algebra

    series = disc_algebra.disc_series(data, _nonnegative("kmax", args.kmax))
    adm = disc_algebra.to_admissible(series, data)
    details = {
        "series": {
            "truncation_order": series.truncation_order,
            "classes": [{"k": k, "coefficient": c} for k, c in sorted(series.terms.items())],
        },
        "admissible": [{"boundary_class": v, "coefficient": _q_rows(c)}
                       for v, c in sorted(adm.terms.items())],
    }
    return [_check("disc-series", True, details)], []


def _cmd_check_prop21(data, args):
    from . import disc_algebra

    series = disc_algebra.disc_series(data, _nonnegative("kmax", args.kmax))
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
    from . import disc_algebra, lg_model, syz_transform

    kmax = _nonnegative("kmax", args.kmax)
    layers = [{} for _ in range(kmax + 1)]
    for k, c in disc_algebra.disc_series(data, kmax).terms.items():
        layers[sum(k)][k] = c
    w = lg_model.superpotential(data)
    one = disc_algebra.QLaurent.constant(1, data.l)
    # per order, add that degree's disc classes on the left, W^order/order! on the right
    lhs = syz_transform.ZLaurent()
    power = rhs = syz_transform.ZLaurent({(0,) * data.n: one})
    checks = []
    for order in range(kmax + 1):
        if order:
            power = (power * w).scale(Fraction(1, order))
            rhs = rhs + power
        lhs = lhs + syz_transform.transform(disc_algebra.to_admissible(
            disc_algebra.DiscSeries._wrap(layers[order]), data
        ))
        checks.append(
            _check(
                f"transform-equals-exp-superpotential-k{order}",
                lhs == rhs,
                {"terms": len(rhs.terms)},
            )
        )
    return checks, []


def _cmd_critical_points(data, args):
    from . import lg_model

    q = _parse_q(args.q, data.l) or [Fraction(1)] * data.l
    seed = _nonnegative("seed", args.seed)
    qfl = [float(x) for x in q]
    expected = vertex_count_reference(data)
    w = lg_model.superpotential(data)
    config = lg_model.SolverConfig(expected_count=expected, seed=seed)
    cps = lg_model.critical_points(w, qfl, config)
    worst = max(cps.residuals)
    details = {
        "q": q,
        "expected_count": expected,
        "points": cps.points,
        "values": cps.values,
        "residuals": cps.residuals,
        "monomial_values": cps.monomial_values,
        "starts": cps.starts,
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
    from . import lg_model, quantum_ring

    pres = quantum_ring.presentation_for(data)
    w = lg_model.superpotential(data)
    linear_ok, quantum_ok = quantum_ring.relations_match(data, pres, w)
    details = {
        "provenance": pres.provenance,
        "linear_generators": [_flat_rows(g, "divisor_exponents") for g in pres.linear_gens],
        "quantum_generators": [_flat_rows(g, "divisor_exponents") for g in pres.quantum_gens],
    }
    return [
        _check("presentation", True, details),
        _check("linear-generators-match-log-derivatives", linear_ok, {}),
        _check("quantum-generators-vanish-under-substitution", quantum_ok, {}),
    ], []


def _cmd_verify_iso(data, args):
    from . import quantum_ring

    pres = quantum_ring.presentation_for(data)
    q = _parse_q(args.q, data.l) or [Fraction(1)] * data.l
    seed = _nonnegative("seed", args.seed)
    report = quantum_ring.verify_isomorphism(data, pres, q, seed=seed)
    checks = [_check(c.name, c.passed, {**c.details, "q": q}) for c in report.checks]
    spectra = {"provenance": pres.provenance, "dim": report.dim,
               "point_count": report.point_count, "per_divisor": report.spectra}
    return checks + [_check("spectra", True, spectra)], []


def _cmd_tropical(data, args):
    from . import tropical

    if args.svg and data.n != 2:
        raise ParseError(
            f"--svg draws planar fans only; this input has rank {data.n}"
        )
    factorization = product_structure(data)
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
        # the marked curve is unique when it exists (an Unbalanced reaches
        # the report as an error), so its count is 1
        curve = tropical.factor_curve(data, factorization, a, xi)
        curves.append(curve)
        checks.append(
            _check(
                f"tgw-count-unique-factor-{a + 1}",
                True,
                {
                    "count": 1,
                    "xi": xi,
                    "edges": curve.edges,
                    "degree": tropical.curve_degree(curve, data),
                },
            )
        )
    artifacts = []
    if args.svg:
        _write_text(args.svg, tropical.scene_svg(curves))
        artifacts.append(args.svg)
    return checks, artifacts


_KMAX = ("--kmax", {"type": int, "default": 6})
_SOLVER = (
    ("--q", {"help": "comma-separated positive parameters (default: 1 each)"}),
    ("--seed", {"type": int, "default": 0}),
)

# command name -> (handler, help text, options as (flag, add_argument keywords))
COMMANDS = {
    "info": (_cmd_info, "validate the input and summarize its lattice data", ()),
    "vertices": (_cmd_vertices, "enumerate polytope vertices at numeric parameters", (
        ("--q", {"help": "comma-separated positive parameters (default: e^-1 each); "
                         + KAHLER_CONE_HINT}),
    )),
    "superpotential": (_cmd_superpotential, "emit the mirror Laurent function", ()),
    "phi": (_cmd_phi, "emit the disc-count generating series", (_KMAX,)),
    "check-prop21": (_cmd_check_prop21,
                     "verify the log-derivative identity classwise", (_KMAX,)),
    "check-thm32": (_cmd_check_thm32,
                    "verify transform vs exponential, exactly, per order", (_KMAX,)),
    "critical-points": (_cmd_critical_points,
                        "solve for all critical points of the mirror function", _SOLVER),
    "presentation": (_cmd_presentation,
                     "emit the ring presentation on divisor generators", ()),
    "verify-iso": (_cmd_verify_iso, "run the full ring-vs-mirror verification", _SOLVER),
    "tropical": (_cmd_tropical, "count marked single-vertex curves per product factor", (
        ("--factor", {"type": int, "help": "1-based factor index (default: all)"}),
        ("--xi", {"help": "comma-separated rational vertex coordinates"}),
        ("--svg", {"help": "write an SVG scene to this path"}),
    )),
}


def _parameters(args):
    """The parsed options that are set, apart from the input and --out."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "input", "out") and v is not None}


def run(args):
    """Execute one request and return the report document of raw values."""
    data = load_input(args.input)
    checks, artifacts = COMMANDS[args.command][0](data, args)
    return {
        "command": args.command,
        "input": args.input,
        "parameters": _parameters(args),
        "checks": checks,
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
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="fixture name or input JSON path")
        p.add_argument("--out", help="write the JSON report to this path")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _write_text(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"{path}: cannot write: {exc.strerror}") from None


def _real(x):
    return f'"{float(x):.17g}"'


def _dumps(value, indent="\n"):
    """``json.dumps(value, indent=2)`` of a report's raw values, in one recursion.

    Values are converted as they are written: a Fraction becomes its str, a
    float its 17-significant-digit string, a complex number {"re", "im"} of
    those, and every dict key its str.  Numbers are told apart by the
    ``numbers`` ABCs, which numpy's scalar types register with, so this module
    does not import numpy; the built-in types are tested first because an ABC
    check costs several plain ones.  Anything else (a set, numpy's bool)
    raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(str(k))}: {_dumps(v, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        parts, brackets = [_dumps(v, inner) for v in value], "[]"
    elif isinstance(value, Fraction):
        return f'"{value}"'
    elif isinstance(value, numbers.Integral):
        return int.__repr__(int(value))
    elif isinstance(value, (float, numbers.Real)):
        return _real(value)
    elif isinstance(value, (complex, numbers.Complex)):
        return f'{{{inner}"re": {_real(value.real)},{inner}"im": {_real(value.imag)}{indent}}}'
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + indent + brackets[1]


def _emit(document, out):
    text = _dumps(document) + "\n"
    if out:
        _write_text(out, text)
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


def _error_document(args, exc):
    return {
        "command": args.command,
        "input": getattr(args, "input", None),
        "parameters": _parameters(args),
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        document = run(args)
    except ToricMirrorError as exc:
        document = _error_document(args, exc)
    try:
        _emit(document, args.out)
    except ParseError as exc:
        # an unwritable --out: the error document goes to stdout instead
        document = _error_document(args, exc)
        _emit(document, None)
    if "error" in document:
        return 1
    return 0 if all(c["status"] == "pass" for c in document["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
