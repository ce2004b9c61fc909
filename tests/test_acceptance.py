"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted as stated.
"""

import contextlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import toricmirror as tm
from toricmirror import cli, disc_algebra as da, quantum_ring as qr, tropical as trop
from toricmirror.errors import NotAProduct
from toricmirror.syz_transform import exp_superpotential, inverse_transform, transform

from helpers import (
    FIXTURE_NAMES,
    PRODUCT_NAMES,
    closed_form_critical_points,
    data_for,
    exp_w_partial_sums,
    multiset_distance,
    random_admissible,
    solve,
)


def _report(num, label, elapsed, failures, budget=None):
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:02d}] {label}: {status} ({elapsed:.2f} s)"
    print(line)
    assert not failures, f"{line}: {failures}"
    if budget is not None:
        assert elapsed < budget, f"{line}: exceeded {budget} s budget"


def _generic_q(l):
    return tuple(Fraction(s) for s in ("0.7", "0.2", "0.65", "0.25"))[:l]


def test_criterion_01_transform_equals_exp_superpotential():
    failures = []
    total = 0.0
    for name in ("P2", "P1xP1", "P1xP2", "BlP2"):
        data = data_for(name)
        start = time.perf_counter()
        powers = exp_w_partial_sums(data, 8)
        for order in range(9):
            lhs = transform(tm.to_admissible(tm.disc_series(data, order), data))
            if lhs != exp_superpotential(data, order):
                failures.append((name, order))
            if lhs != powers[order]:
                failures.append((name, order, "sum of W^k/k!"))
        elapsed = time.perf_counter() - start
        total += elapsed
        if elapsed >= 2.0:
            failures.append((name, "runtime", elapsed))
    _report(1, "transform of disc series equals exp(W), orders 0..8", total, failures)


def test_criterion_02_log_derivative_identity():
    failures = []
    start = time.perf_counter()
    for name in FIXTURE_NAMES:
        data = data_for(name)
        series = tm.disc_series(data, 8)
        for a in range(data.l):
            lhs = tm.q_log_derivative(series, a, data)
            rhs = da.log_derivative_convolution(series, a, data).restrict(8)
            if lhs != rhs:
                failures.append((name, a))
        if name in PRODUCT_NAMES:
            # each parameter is carried by a single facet, so the right side
            # is convolution with exactly one facet function
            for a in range(data.l):
                weights = [data.lambda_exponents[i][a] for i in range(data.d)]
                if sorted(weights) != [0] * (data.d - 1) + [1]:
                    failures.append((name, a, "carrier"))
    elapsed = time.perf_counter() - start
    _report(2, "log-derivative identity at every class, degree <= 8", elapsed,
            failures, budget=2.0)


def test_criterion_03_facet_relations():
    failures = []
    start = time.perf_counter()
    for name in PRODUCT_NAMES:
        data = data_for(name)
        for a in range(data.l):
            acc = tm.unit(data)
            for i in range(data.d):
                k = data.kbasis[a][i]
                if k:
                    acc = tm.convolve(acc, tm.divisor_power(data, i, k))
            expected = tm.unit(data).scale(
                da.QLaurent.monomial(tuple(1 if b == a else 0 for b in range(data.l)))
            )
            if acc != expected:
                failures.append((name, a))
    elapsed = time.perf_counter() - start
    _report(3, "facet products over kernel columns equal q_a", elapsed,
            failures, budget=1.0)


def test_criterion_04_fourier_homomorphism_and_inversion():
    failures = []
    rng = random.Random(100)
    start = time.perf_counter()
    for trial in range(200):
        n, l = rng.randint(1, 3), rng.randint(1, 2)
        f = random_admissible(rng, n, l)
        g = random_admissible(rng, n, l)
        if transform(tm.convolve(f, g)) != transform(f) * transform(g):
            failures.append(("homomorphism", trial))
        if inverse_transform(transform(f)) != f:
            failures.append(("left-inverse", trial))
        phi = transform(g)
        if transform(inverse_transform(phi)) != phi:
            failures.append(("right-inverse", trial))
    elapsed = time.perf_counter() - start
    _report(4, "transform is an algebra isomorphism on 200 random pairs",
            elapsed, failures, budget=5.0)


def test_criterion_05_critical_points_closed_forms():
    failures = []
    total = 0.0

    start = time.perf_counter()
    cps = solve("P2", (1.0,))
    oracle = closed_form_critical_points("P2", (1.0,))
    if len(cps) != 3:
        failures.append("P2 count")
    if multiset_distance(list(cps.values),
                         [3 * p[0] for p in oracle]) > 1e-9:
        failures.append("P2 values")
    elapsed = time.perf_counter() - start
    total += elapsed
    if elapsed >= 5.0:
        failures.append(("P2 runtime", elapsed))

    start = time.perf_counter()
    cps = solve("P1xP1", (1.0, 1.0))
    expected_points = [(a, b) for a in (1, -1) for b in (1, -1)]
    for z in cps.points:
        if min(max(abs(z[0] - p[0]), abs(z[1] - p[1])) for p in expected_points) > 1e-9:
            failures.append(("P1xP1 point", z))
    if multiset_distance(list(cps.values), [4, 0, 0, -4]) > 1e-9:
        failures.append("P1xP1 values")
    elapsed = time.perf_counter() - start
    total += elapsed
    if elapsed >= 5.0:
        failures.append(("P1xP1 runtime", elapsed))

    start = time.perf_counter()
    cps = solve("BlP2", (1.0, 1.0))
    if len(cps) != 4:
        failures.append("BlP2 count")
    if max(cps.residuals) > 1e-9:
        failures.append(("BlP2 residual", max(cps.residuals)))
    elapsed = time.perf_counter() - start
    total += elapsed
    if elapsed >= 5.0:
        failures.append(("BlP2 runtime", elapsed))

    _report(5, "critical points match closed forms at q = 1", total, failures)


def test_criterion_06_dimension_agreement():
    expected = {"P2": 3, "P1xP1": 4, "P1xP2": 6, "P2xP2": 9, "BlP2": 4}
    failures = []
    start = time.perf_counter()
    for name in FIXTURE_NAMES:
        data = data_for(name)
        vertices = tm.vertex_count_reference(data)
        points = len(solve(name, (1.0,) * data.l))
        pres = qr.presentation_for(data)
        dim = qr.quotient_model(pres, [Fraction(1)] * data.l).dim
        if not (dim == points == vertices == expected[name]):
            failures.append((name, dim, points, vertices))
        if name in PRODUCT_NAMES:
            fac = qr.product_structure(data)
            prod_dim = 1
            for block in fac.factors:
                prod_dim *= block.dimension + 1
            if dim != prod_dim:
                failures.append((name, "product dim", dim, prod_dim))
    elapsed = time.perf_counter() - start
    _report(6, "quotient dim = critical count = vertex count (3,4,6,9,4)",
            elapsed, failures, budget=10.0)


def test_criterion_07_spectral_verification():
    failures = []
    start = time.perf_counter()
    for name in FIXTURE_NAMES:
        data = data_for(name)
        pres = qr.presentation_for(data)
        for q in ((Fraction(1),) * data.l, _generic_q(data.l)):
            report = qr.verify_isomorphism(data, pres, q)
            for check in report.checks:
                if not check.passed:
                    failures.append((name, tuple(map(str, q)), check.name,
                                     check.details))
    elapsed = time.perf_counter() - start
    _report(7, "ring model vs mirror: syntactic, ideal and spectral checks",
            elapsed, failures, budget=30.0)


def test_criterion_08_tropical_counts():
    failures = []
    rng = random.Random(200)
    start = time.perf_counter()
    for name in PRODUCT_NAMES:
        data = data_for(name)
        fac = qr.product_structure(data)
        for _ in range(20):
            xi = tuple(
                Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                for _ in range(data.n)
            )
            for a in range(len(fac)):
                if trop.count_tgw(data, fac, a, xi) != 1:
                    failures.append((name, a, xi))
    # gluing succeeds exactly when the direction multiset cancels
    for name in FIXTURE_NAMES:
        data = data_for(name)
        xi = tuple(Fraction(1, 3) for _ in range(data.n))
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(
                range(data.d), size
            ):
                total = tuple(
                    sum(data.rays[i][j] for i in combo) for j in range(data.n)
                )
                balanced = not any(total)
                try:
                    trop.glue_discs(xi, [data.rays[i] for i in combo])
                    glued = True
                except trop.Unbalanced:
                    glued = False
                if glued != balanced:
                    failures.append((name, combo))
    try:
        trop.count_tgw(data_for("BlP2"), qr.product_structure(data_for("BlP2")),
                       0, (0, 0))
        failures.append("BlP2 accepted")
    except NotAProduct:
        pass
    elapsed = time.perf_counter() - start
    _report(8, "marked tropical counts are 1 per factor; balancing exhaustive",
            elapsed, failures, budget=2.0)


def test_criterion_09_domain_membership():
    failures = []
    rng = random.Random(300)
    data = data_for("P2")
    q = [math.exp(-1.0)]
    start = time.perf_counter()
    if tm.domain_membership(data, (0.5, 0.5), q):
        failures.append("rejection")
    r = math.exp(-1.0 / 3.0)
    if not tm.domain_membership(data, (r, r), q):
        failures.append("acceptance")
    for point in ((0.5, 0.5), (r, r)):
        base = tm.domain_membership(data, point, q)
        for _ in range(50):
            phases = [
                complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(0, 2 * math.pi) for _ in point)
            ]
            rotated = tuple(p * ph for p, ph in zip(point, phases))
            if tm.domain_membership(data, rotated, q) != base:
                failures.append(("phase", point))
    elapsed = time.perf_counter() - start
    _report(9, "bounded-domain membership and torus invariance", elapsed,
            failures, budget=1.0)


def test_criterion_10_cli_determinism():
    failures = []
    start = time.perf_counter()

    def run_once():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify-iso", "P2", "--q", "1", "--seed", "0"])
        return code, out.getvalue()

    code1, text1 = run_once()
    code2, text2 = run_once()
    if code1 != 0 or code2 != 0:
        failures.append(("exit", code1, code2))
    if text1 != text2:
        failures.append("reports differ")
    if text1.encode() != text2.encode():
        failures.append("bytes differ")
    json.loads(text1)  # well-formed
    elapsed = time.perf_counter() - start
    _report(10, "repeated verify-iso reports are byte-identical", elapsed, failures)
