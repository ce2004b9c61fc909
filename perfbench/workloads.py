"""The four benchmark workloads: request generation, set-up, execution, oracles.

A workload turns its seed into an endless sequence of cycles, each a fixed
list of requests whose generated parameters (q values, Newton seeds, random
rationals) change from cycle to cycle.  A request is one user-level check
whose verdict is known in advance; every request is also checked against an
oracle that does not use the function being timed.

Nothing here imports ``toricmirror`` at module level: importing the package
is part of each workload's measured set-up.
"""

from __future__ import annotations

import cmath
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

PASS, KNOWN_DEFECT, FAILED = "pass", "known-defect", "failed"


@dataclass(frozen=True)
class Request:
    kind: str            # what the request checks
    input: str           # rung or fixture name (or input path for the CLI)
    q: tuple             # generated Kahler parameters; exact-series: oracle point
    seed: int = 0        # Newton seed
    params: tuple = ()   # kind-specific, documented where the kind is built


@dataclass
class Outcome:
    seconds: float       # wall time of the program calls alone
    status: str          # PASS, KNOWN_DEFECT or FAILED
    note: str = ""       # why the request did not pass


def cycles(workload, seed):
    """The workload's request cycles for this seed, one after another."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.cycle(rng)


def small_rational(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _unit_q(rng, l):
    """q_a = a/b with 1 <= a < b <= 9: the moment polytope needs every q_a < 1."""
    return tuple(Fraction(*sorted(rng.sample(range(1, 10), 2))) for _ in range(l))


def _import(module):
    return importlib.import_module(f"toricmirror.{module}")


# --- oracles -----------------------------------------------------------------

def multiset_distance(left, right):
    """Largest relative gap of a greedy pairing of two multisets of tuples."""
    if len(left) != len(right):
        return math.inf
    remaining = list(right)
    worst = 0.0
    for a in left:
        gaps = [
            max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(a, b))
            for b in remaining
        ]
        best = min(range(len(gaps)), key=gaps.__getitem__)
        worst = max(worst, gaps[best])
        remaining.pop(best)
    return worst


def closed_form_monomials(data, blocks, q):
    """Term values e^{lambda_i} z^{v_i} at every critical point, in closed form.

    On a factor P^m the m + 1 term values agree at a critical point and
    their common value T runs over the roots of T^(m+1) = Q, where Q is the
    product of the factor's facet coefficients at q.
    """
    qf = [float(x) for x in q]
    coeff = [
        math.prod(x ** e for x, e in zip(qf, data.lambda_exponents[i]))
        for i in range(data.d)
    ]
    roots = []
    for block in blocks:
        m = len(block)
        modulus = math.prod(coeff[i] for i in block) ** (1.0 / m)
        roots.append([modulus * cmath.exp(2j * math.pi * k / m) for k in range(m)])
    points = []
    for combo in itertools.product(*roots):
        values = [0j] * data.d
        for value, block in zip(combo, blocks):
            for i in block:
                values[i] = value
        points.append(tuple(values))
    return points


def truncated_exp(x, order):
    """sum_{m <= order} x^m / m!, exactly."""
    term, total = Fraction(1), Fraction(1)
    for m in range(1, order + 1):
        term = term * x / m
        total += term
    return total


def value_at(terms, q):
    """Exact value at z = 1 and rational q of {z-exponent: QLaurent}."""
    cache = {}
    total = Fraction(0)
    for coeff in terms.values():
        for e, c in coeff.terms.items():
            mono = cache.get(e)
            if mono is None:
                mono = cache[e] = math.prod(
                    (x ** p for x, p in zip(q, e)), start=Fraction(1)
                )
            total += c * mono
    return total


def facet_sum(data, q):
    """W(1) = sum_i prod_a q_a^{E_ia} at rational q."""
    return sum(
        (
            math.prod((x ** e for x, e in zip(q, data.lambda_exponents[i])), start=Fraction(1))
            for i in range(data.d)
        ),
        Fraction(0),
    )


# --- ladders: verify_isomorphism on products of projective spaces ------------

def product_rays(dims):
    """Rays of P^{n_1} x ... x P^{n_k} and the ray indices of each factor."""
    total = sum(dims)
    rays, blocks, offset = [], [], 0
    for n in dims:
        block = []
        for j in range(n + 1):
            v = [0] * total
            if j < n:
                v[offset + j] = 1
            else:
                v[offset:offset + n] = [-1] * n
            block.append(len(rays))
            rays.append(tuple(v))
        blocks.append(tuple(block))
        offset += n
    return rays, tuple(blocks)


@dataclass
class LadderResult:
    ok: bool
    dim: int
    points: int
    vertices: int
    monomial_values: tuple
    eigenvalues: dict


class Ladder:
    """verify_isomorphism on a ladder of projective-space products."""

    def __init__(self, name, rungs, order, draw_q):
        self.name = name
        self.rungs = rungs        # rung name -> factor dimensions
        self.order = order        # rung names of one cycle
        self.draw_q = draw_q      # (rng, l) -> tuple of q values

    def cycle(self, rng):
        return [
            Request(
                "verify-iso",
                rung,
                self.draw_q(rng, len(self.rungs[rung])),
                rng.randrange(2 ** 31),
            )
            for rung in self.order
        ]

    def setup(self, tracer):
        toric_core = _import("toric_core")
        quantum_ring = _import("quantum_ring")
        ctx = SimpleNamespace(
            toric_core=toric_core,
            quantum_ring=quantum_ring,
            lg_model=_import("lg_model"),
            rungs={},
            sizes={},
        )
        for rung, dims in self.rungs.items():
            rays, blocks = product_rays(dims)
            with tracer.span("toric_core.build"):
                data = toric_core.build_toric_data(rays)
            with tracer.span("quantum_ring.presentation"):
                factorization = quantum_ring.product_structure(data)
                if factorization is None:
                    raise RuntimeError(f"{rung}: product structure not detected")
                pres = quantum_ring.presentation_for(data, factorization)
            ctx.rungs[rung] = SimpleNamespace(data=data, pres=pres, blocks=blocks)
            ctx.sizes[rung] = {"n": data.n, "d": data.d, "l": data.l,
                               "points": math.prod(len(b) for b in blocks)}
        return ctx

    def execute(self, req, ctx, tracer):
        rung = ctx.rungs[req.input]
        start = time.perf_counter()
        try:
            if tracer.enabled:
                result = self._redrive(ctx, rung, req, tracer)
            else:
                result = self._verify(ctx, rung, req)
        except Exception as exc:  # a request that raises is a failed request
            return Outcome(time.perf_counter() - start, FAILED,
                           f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        note = self._oracle(result, rung, req)
        return Outcome(seconds, FAILED if note else PASS, note)

    def finish(self, ctx, done, tracer):
        pass

    @staticmethod
    def _verify(ctx, rung, req):
        report = ctx.quantum_ring.verify_isomorphism(
            rung.data, rung.pres, list(req.q), seed=req.seed
        )
        dims = next(c for c in report.checks
                    if c.name == "dimension-equals-critical-point-count")
        return LadderResult(
            ok=report.ok,
            dim=report.dim,
            points=report.point_count,
            vertices=dims.details["vertices"],
            monomial_values=report.critical_points.monomial_values,
            eigenvalues={i: s["eigenvalues"] for i, s in report.spectra.items()},
        )

    @staticmethod
    def _redrive(ctx, rung, req, tracer):
        """verify_isomorphism's public calls, in its order, one span each."""
        tc, lg, qr = ctx.toric_core, ctx.lg_model, ctx.quantum_ring
        data, pres = rung.data, rung.pres
        qfr = [x if isinstance(x, Fraction) else Fraction(str(x)) for x in req.q]
        qfl = [float(x) for x in qfr]
        with tracer.span("lg_model.superpotential"):
            w = lg.superpotential(data)
            jac = lg.jacobian_generators(w)
        with tracer.span("quantum_ring.substitute"):
            syntactic = all(
                qr.substitute_divisors(g, data) == jac[j]
                for j, g in enumerate(pres.linear_gens)
            )
        with tracer.span("quantum_ring.quotient") as counts:
            model = qr.quotient_model(pres, qfr)
            counts.update(
                dim=model.dim,
                degree_cap=model.degree_cap,
                macaulay_monomials=math.comb(model.l + model.degree_cap, model.l),
            )
        with tracer.span("toric_core.vertices", vertex_subsets=math.comb(data.d, data.n)):
            expected = tc.vertex_count_reference(data)
        config = lg.SolverConfig(expected_count=expected, seed=req.seed)
        with tracer.span("lg_model.newton") as counts:
            cps = lg.critical_points(w, qfl, config)
            counts.update(starts=config.start_count(),
                          failed_starts=cps.failed_starts, roots=len(cps))
        residuals = []
        for g in pres.quantum_gens:
            with tracer.span("quantum_ring.substitute"):
                image = qr.substitute_divisors(g, data)
            with tracer.span("lg_model.evaluate"):
                residuals.extend(abs(v) for v in lg.evaluate_at_critical(image, cps, qfl))
            with tracer.span("quantum_ring.reduce"):
                reduced = model.reduce_divisor_poly(g)
                for point_values in cps.monomial_values:
                    val = 0j
                    for m, c in reduced.items():
                        mono = complex(c)
                        for s, e in enumerate(m):
                            mono *= point_values[model.free_indices[s]] ** e
                        val += mono
                    residuals.append(abs(val))
        eigenvalues = {}
        worst_spectral = 0.0
        for i in range(data.d):
            with tracer.span("quantum_ring.spectrum"):
                eig = qr.multiplication_spectrum(
                    model, qr.DivisorPolynomial.variable(data.d, i, data.l)
                )
            eigenvalues[i] = eig
            worst_spectral = max(
                worst_spectral,
                qr.match_multisets(eig, [mv[i] for mv in cps.monomial_values]),
            )
        ok = (
            syntactic
            and max(residuals, default=0.0) <= 1e-8
            and model.dim == len(cps) == expected
            and worst_spectral <= 1e-6
        )
        return LadderResult(ok, model.dim, len(cps), expected,
                            cps.monomial_values, eigenvalues)

    @staticmethod
    def _oracle(result, rung, req):
        if not result.ok:
            return "verdict FAIL"
        count = math.prod(len(b) for b in rung.blocks)
        if (result.dim, result.points, result.vertices) != (count,) * 3:
            return (f"dim/points/vertices {result.dim}/{result.points}/"
                    f"{result.vertices}, closed form {count}")
        closed = closed_form_monomials(rung.data, rung.blocks, req.q)
        gap = multiset_distance(closed, result.monomial_values)
        if gap > 1e-8:
            return f"critical points off the closed form by {gap:.3g}"
        for i, eig in result.eigenvalues.items():
            gap = multiset_distance([(p[i],) for p in closed], [(e,) for e in eig])
            if gap > 1e-6:
                return f"spectrum of D_{i + 1} off the closed form by {gap:.3g}"
        return ""


def _log_uniform_q(rng, l):
    return tuple(10 ** rng.uniform(-2.0, 2.0) for _ in range(l))


def _rational_q(rng, l):
    return tuple(small_rational(rng) for _ in range(l))


# Newton is 85-95% of each request; with l <= 2 the quotient stays trivial.
NEWTON_LADDER = Ladder(
    "newton-ladder",
    {"P2": (2,), "P3": (3,), "P4": (4,), "P5": (5,), "P6": (6,),
     "P1xP2": (1, 2), "P1xP3": (1, 3), "P2xP2": (2, 2)},
    ("P2", "P3", "P4", "P5", "P6", "P1xP2", "P1xP3", "P2xP2"),
    _log_uniform_q,
)

# Exact Macaulay elimination dominates.  (P1)^3 is repeated so that a run of
# a few cycles holds enough samples for the tail percentile to sit above the
# median; (P1)^5 is left out because one request takes about 60 s.
QUOTIENT_LADDER = Ladder(
    "quotient-ladder",
    {"(P1)^3": (1, 1, 1), "(P2)^3": (2, 2, 2), "(P1)^4": (1, 1, 1, 1)},
    ("(P1)^3",) * 3 + ("(P2)^3",) + ("(P1)^3",) * 3 + ("(P1)^4",),
    _rational_q,
)


# --- exact-series: Theorem 3.2, Proposition 2.1, the convolution law ------------

# fixture, l, n, series order, order of the convolution factors
EXACT_INPUTS = (
    ("P2", 1, 2, 12, 5),
    ("BlP2", 2, 2, 12, 5),
    ("P1xP2", 2, 3, 10, 4),
    ("P2xP2", 2, 4, 10, 4),
)


class ExactSeries:
    """Exact Fraction arithmetic in disc_algebra and syz_transform only."""

    name = "exact-series"

    def cycle(self, rng):
        # params -- thm32: (order,); prop21: (order, parameter index a);
        # convolution: (factor order, scale f, shift f, scale g, shift g)
        out = []
        for fixture, l, n, order, conv_order in EXACT_INPUTS:
            out.append(Request("thm32", fixture, _rational_q(rng, l), params=(order,)))
            out.append(Request("prop21", fixture, _rational_q(rng, l),
                               params=(order, rng.randrange(l))))
            moves = [
                (small_rational(rng) * rng.choice((1, -1)),
                 tuple(rng.randint(-3, 3) for _ in range(n)))
                for _ in range(2)
            ]
            out.append(Request("convolution", fixture, _rational_q(rng, l),
                               params=(conv_order, *moves[0], *moves[1])))
        return out

    def setup(self, tracer):
        fixtures = _import("fixtures")
        disc_algebra = _import("disc_algebra")
        ctx = SimpleNamespace(disc_algebra=disc_algebra,
                              syz_transform=_import("syz_transform"),
                              data={}, bases={}, sizes={})
        for fixture, _, _, order, conv_order in EXACT_INPUTS:
            with tracer.span("toric_core.build"):
                data = fixtures.fixture(fixture)
            ctx.data[fixture] = data
            ctx.bases[fixture] = disc_algebra.to_admissible(
                disc_algebra.disc_series(data, conv_order), data
            )
            ctx.sizes[fixture] = {"n": data.n, "d": data.d, "l": data.l,
                                  "order": order, "convolution_order": conv_order,
                                  "convolution_terms": len(ctx.bases[fixture].terms)}
        return ctx

    def execute(self, req, ctx, tracer):
        da, st = ctx.disc_algebra, ctx.syz_transform
        data = ctx.data[req.input]
        f = g = None
        if req.kind == "convolution":
            _, rf, sf, rg, sg = req.params
            f = self._moved(da, ctx.bases[req.input], rf, sf)
            g = self._moved(da, ctx.bases[req.input], rg, sg)
        start = time.perf_counter()
        if req.kind == "thm32":
            (order,) = req.params
            with tracer.span("disc_algebra.series") as counts:
                series = da.disc_series(data, order)
                counts["classes"] = len(series.terms)
            with tracer.span("disc_algebra.to_admissible"):
                adm = da.to_admissible(series, data)
            with tracer.span("syz_transform.transform"):
                lhs = st.transform(adm)
            with tracer.span("syz_transform.exp_w") as counts:
                rhs = st.exp_superpotential(data, order)
                counts["terms"] = len(rhs.terms)
            with tracer.span("syz_transform.compare"):
                same = lhs == rhs
        elif req.kind == "prop21":
            order, a = req.params
            with tracer.span("disc_algebra.series") as counts:
                series = da.disc_series(data, order)
                counts["classes"] = len(series.terms)
            with tracer.span("disc_algebra.prop21"):
                lhs = da.q_log_derivative(series, a, data)
                same = lhs == da.log_derivative_convolution(series, a, data).restrict(order)
        else:
            with tracer.span("disc_algebra.convolve",
                             convolve_pairs=len(f.terms) * len(g.terms)):
                fg = da.convolve(f, g)
            with tracer.span("syz_transform.transform"):
                lhs, tf, tg = st.transform(fg), st.transform(f), st.transform(g)
            with tracer.span("syz_transform.product"):
                rhs = tf * tg
            with tracer.span("syz_transform.compare"):
                same = lhs == rhs
        seconds = time.perf_counter() - start
        if not same:
            return Outcome(seconds, FAILED, "verdict FAIL")
        note = self._oracle(req, data, lhs, f, g)
        return Outcome(seconds, FAILED if note else PASS, note)

    def finish(self, ctx, done, tracer):
        pass

    @staticmethod
    def _moved(da, base, scale, shift):
        """base scaled by a rational and translated by a lattice vector."""
        return da.AdmissibleFunction({
            tuple(a + b for a, b in zip(v, shift)): c.scale(scale)
            for v, c in base.terms.items()
        })

    @staticmethod
    def _oracle(req, data, lhs, f, g):
        """Closed-form sums of the coefficients, independent of the code timed."""
        if req.kind == "thm32":
            # exp(W) at z = 1: the multinomial theorem sums each order to W(1)^m/m!
            want = truncated_exp(facet_sum(data, req.q), req.params[0])
            got = value_at(lhs.terms, req.q)
        elif req.kind == "prop21":
            # sum_k (sum_i k_i E_ia)/k! over |k| <= K is (sum_i E_ia) * S_{K-1}
            # with S_j = sum_{m <= j} d^m/m!
            order, a = req.params
            weight = sum(data.lambda_exponents[i][a] for i in range(data.d))
            want = weight * truncated_exp(Fraction(data.d), order - 1)
            got = sum(lhs.terms.values(), Fraction(0))
        else:
            # evaluation at z = 1 and rational q is a ring homomorphism
            want = value_at(f.terms, req.q) * value_at(g.terms, req.q)
            got = value_at(lhs.terms, req.q)
        return "" if got == want else f"coefficient sum {got} != closed form {want}"


EXACT_SERIES = ExactSeries()


# --- cli-desk: one toricmirror process per request -----------------------------

# fixture, l, n
CLI_FIXTURES = (("P2", 1, 2), ("P1xP1", 2, 2), ("P1xP2", 2, 3), ("P2xP2", 2, 4), ("BlP2", 2, 2))
# BlP2's rays without the hand-picked kernel basis.  The right verdict of
# critical-points and verify-iso on it is PASS; today they stop with
# IncompleteRootSet and NotAProduct (ROADMAP items 2-3).
DEFECT_INPUT = "perfbench/inputs/blp2_rays.json"


def _ratlist(values):
    return ",".join(str(x) for x in values)


class CliDesk:
    """One toricmirror process per request, as at a user's desk."""

    name = "cli-desk"

    def cycle(self, rng):
        # params: (argv, expected exit code, expected error type, error type
        # of a known defect whose correct verdict is PASS)
        out = []
        q, seed = _unit_q(rng, 2), rng.randrange(1000)
        for command, defect in (("critical-points", "IncompleteRootSet"),
                                ("verify-iso", "NotAProduct")):
            argv = (command, DEFECT_INPUT, "--q", _ratlist(q), "--seed", str(seed))
            out.append(Request("cli", DEFECT_INPUT, q, seed, (argv, 0, None, defect)))
        for fixture, l, n in CLI_FIXTURES:
            q, seed = _unit_q(rng, l), rng.randrange(1000)
            xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
            product = fixture != "BlP2"
            for argv, expect in (
                (("info", fixture), (0, None)),
                (("vertices", fixture, "--q", _ratlist(q)), (0, None)),
                (("superpotential", fixture), (0, None)),
                (("phi", fixture, "--kmax", "6"), (0, None)),
                (("check-prop21", fixture, "--kmax", "6"), (0, None)),
                (("check-thm32", fixture, "--kmax", "8"), (0, None)),
                (("critical-points", fixture, "--q", _ratlist(q), "--seed", str(seed)), (0, None)),
                (("presentation", fixture), (0, None)),
                (("verify-iso", fixture, "--q", _ratlist(q), "--seed", str(seed)), (0, None)),
                (("tropical", fixture, "--xi=" + _ratlist(xi)),
                 (0, None) if product else (1, "NotAProduct")),
            ):
                out.append(Request("cli", fixture, q, seed, (argv, *expect, None)))
        return out

    def setup(self, tracer):
        cli = _import("cli")
        ctx = SimpleNamespace(cli=cli, quantum_ring=_import("quantum_ring"),
                              tropical=_import("tropical"), data={}, sizes={},
                              seen={}, max_child_rss_kb=0)
        for fixture, _, _ in CLI_FIXTURES:
            with tracer.span("toric_core.build"):
                data = cli.load_input(fixture)
            ctx.data[fixture] = data
            ctx.sizes[fixture] = {"n": data.n, "d": data.d, "l": data.l}
        with tracer.span("toric_core.build"):
            data = cli.load_input(DEFECT_INPUT)
        ctx.sizes[DEFECT_INPUT] = {"n": data.n, "d": data.d, "l": data.l}
        return ctx

    def execute(self, req, ctx, tracer):
        argv, expected_exit, expected_error, defect = req.params
        with tracer.span("cli.process") as counts:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "toricmirror", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            counts["report_bytes"] = len(out)
        ctx.max_child_rss_kb = max(ctx.max_child_rss_kb, usage.ru_maxrss)
        error = _error_type(out) if code else None
        digest = (hashlib.sha256(out).hexdigest(), code)
        if ctx.seen.setdefault(argv, digest) != digest:
            return Outcome(seconds, FAILED, "report differs from an earlier repeat")
        if defect and code == 0:
            return Outcome(seconds, PASS)
        if defect and error == defect:
            return Outcome(seconds, KNOWN_DEFECT, f"{error} (known defect)")
        if (code, error) != (expected_exit, expected_error):
            return Outcome(seconds, FAILED, f"exit {code} {error}, expected "
                                            f"{expected_exit} {expected_error}")
        return Outcome(seconds, PASS)

    def finish(self, ctx, done, tracer):
        """Repeat every request in-process; the report must be byte-identical."""
        replayed = {}
        for index, (req, outcome) in enumerate(done):
            argv = req.params[0]
            if argv not in replayed:
                tracer.request = index
                buf = io.StringIO()
                with tracer.span("cli.run"), redirect_stdout(buf), \
                        redirect_stderr(io.StringIO()):
                    try:
                        code = ctx.cli.main(list(argv))
                    except SystemExit as exc:  # argparse rejects the argv
                        code = exc.code
                replayed[argv] = (hashlib.sha256(buf.getvalue().encode()).hexdigest(), code)
                if argv[0] == "tropical" and not self._counts_unique(ctx, req, tracer):
                    outcome.status, outcome.note = FAILED, "tropical count is not 1"
            if replayed[argv] != ctx.seen[argv] and outcome.status != FAILED:
                outcome.status, outcome.note = FAILED, "in-process report differs"

    @staticmethod
    def _counts_unique(ctx, req, tracer):
        """Re-drive the tropical count on each factor of a product fixture."""
        factorization = ctx.quantum_ring.product_structure(ctx.data[req.input])
        if factorization is None:
            return True
        xi = [Fraction(x) for x in req.params[0][2].split("=", 1)[1].split(",")]
        counts = []
        for a in range(len(factorization.factors)):
            with tracer.span("tropical.count"):
                counts.append(ctx.tropical.count_tgw(ctx.data[req.input], factorization, a, xi))
        return all(c == 1 for c in counts)


def _error_type(report):
    try:
        return json.loads(report).get("error", {}).get("type")
    except ValueError:
        return None


CLI_DESK = CliDesk()

WORKLOADS = {w.name: w for w in (CLI_DESK, EXACT_SERIES, NEWTON_LADDER, QUOTIENT_LADDER)}

# The cheapest requests of each workload that still cross all of its layer
# boundaries.  A traced run times a boundary its own workload does not cross
# on these, so that every per-layer metric is measured on every workload.
PROBES = {
    "cli-desk": lambda r: r.input == "P2" and r.params[0][0] in ("info", "tropical"),
    "exact-series": lambda r: r.input == "P2",
    "newton-ladder": lambda r: r.input == "P2",
}
