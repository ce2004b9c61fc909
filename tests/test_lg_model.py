import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import toricmirror as tm
from toricmirror import disc_algebra as da
from toricmirror.errors import (
    DegenerateSpectrum,
    IncompleteRootSet,
    WrongParameterCount,
    ZeroCoordinate,
)
from toricmirror import lg_model
from toricmirror import quantum_ring as qr
from toricmirror.lg_model import SolverConfig, _newton, critical_points
from toricmirror.syz_transform import ZLaurent, inverse_transform

from helpers import (
    FIXTURE_NAMES,
    PRODUCT_NAMES,
    closed_form_critical_points,
    data_for,
    multiset_distance,
    product_data,
    solve,
)


def qmono(*exps):
    return da.QLaurent.monomial(tuple(exps))


# --- superpotential ----------------------------------------------------------

def test_superpotential_plane():
    w = tm.superpotential(data_for("P2"))
    assert w == ZLaurent(
        {(1, 0): qmono(0), (0, 1): qmono(0), (-1, -1): qmono(1)}
    )


def test_superpotential_quad():
    w = tm.superpotential(data_for("P1xP1"))
    assert w == ZLaurent(
        {
            (1, 0): qmono(0, 0),
            (-1, 0): qmono(1, 0),
            (0, 1): qmono(0, 0),
            (0, -1): qmono(0, 1),
        }
    )


def test_superpotential_blowup():
    w = tm.superpotential(data_for("BlP2"))
    assert w == ZLaurent(
        {
            (1, 0): qmono(0, 0),
            (0, 1): qmono(0, 0),
            (-1, -1): qmono(1, 1),
            (0, -1): qmono(0, 1),
        }
    )


def test_superpotential_numeric_view():
    w = tm.superpotential(data_for("P2"))
    z = (0.3 + 0.1j, 0.2 - 0.4j)
    expected = z[0] + z[1] + math.exp(-1.0) / (z[0] * z[1])
    assert w.evaluate(z, [math.exp(-1.0)]) == pytest.approx(expected)


# --- jacobian generators -----------------------------------------------------

def test_jacobian_generators_plane():
    gens = tm.jacobian_generators(tm.superpotential(data_for("P2")))
    assert gens[0] == ZLaurent({(1, 0): qmono(0), (-1, -1): qmono(1).scale(-1)})
    assert gens[1] == ZLaurent({(0, 1): qmono(0), (-1, -1): qmono(1).scale(-1)})


def test_jacobian_generators_blowup_second_coordinate():
    gens = tm.jacobian_generators(tm.superpotential(data_for("BlP2")))
    assert gens[1] == ZLaurent(
        {
            (0, 1): qmono(0, 0),
            (-1, -1): qmono(1, 1).scale(-1),
            (0, -1): qmono(0, 1).scale(-1),
        }
    )


def test_jacobian_generators_invert_to_weighted_facet_sum():
    for name in ("P2", "P1xP1", "BlP2"):
        data = data_for(name)
        gens = tm.jacobian_generators(tm.superpotential(data))
        for j in range(data.n):
            expected = tm.AdmissibleFunction()
            for i in range(data.d):
                expected = expected + tm.divisor_function(data, i).scale(
                    data.rays[i][j]
                )
            assert inverse_transform(gens[j]) == expected


# --- bounded domain ----------------------------------------------------------

def test_domain_membership_plane_examples():
    data = data_for("P2")
    q = [math.exp(-1.0)]
    assert not tm.domain_membership(data, (0.5, 0.5), q)
    r = math.exp(-1.0 / 3.0)
    assert tm.domain_membership(data, (r, r), q)


def test_domain_membership_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        tm.domain_membership(data_for("P2"), (0.0, 0.5), [0.5])


def test_domain_membership_small_coordinate_escapes():
    # a facet with a negative exponent blows up as |z_1| -> 0
    data = data_for("P2")
    assert not tm.domain_membership(data, (1e-9, 0.5), [math.exp(-1.0)])


def test_domain_membership_torus_invariant():
    rng = random.Random(8)
    data = data_for("P2")
    q = [math.exp(-1.0)]
    r = math.exp(-1.0 / 3.0)
    for point in ((r, r), (0.5, 0.5), (0.9, 0.05)):
        base = tm.domain_membership(data, point, q)
        for _ in range(50):
            phases = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in point]
            rotated = tuple(p * ph for p, ph in zip(point, phases))
            assert tm.domain_membership(data, rotated, q) == base


# --- critical points ---------------------------------------------------------

def test_plane_critical_points_match_closed_form():
    cps = solve("P2", (1.0,))
    assert len(cps) == 3
    oracle = closed_form_critical_points("P2", (1.0,))
    got_z = [z[0] for z in cps.points]
    assert multiset_distance(got_z, [p[0] for p in oracle]) < 1e-9
    # all-coordinates-equal structure and values 3 * Z
    for z, value in zip(cps.points, cps.values):
        assert abs(z[0] - z[1]) < 1e-9
        assert abs(value - 3 * z[0]) < 1e-9


def test_quad_critical_points_and_values():
    cps = solve("P1xP1", (1.0, 1.0))
    assert len(cps) == 4
    expected_points = [(a, b) for a in (1, -1) for b in (1, -1)]
    for z in cps.points:
        assert min(
            max(abs(z[0] - p[0]), abs(z[1] - p[1])) for p in expected_points
        ) < 1e-9
    assert multiset_distance(list(cps.values), [4, 0, 0, -4]) < 1e-9


def test_blowup_critical_points_count_and_residuals():
    cps = solve("BlP2", (1.0, 1.0))
    assert len(cps) == 4
    assert max(cps.residuals) <= 1e-9
    # pairwise distinct
    for a in range(4):
        for b in range(a + 1, 4):
            diff = max(
                abs(x - y) for x, y in zip(cps.points[a], cps.points[b])
            )
            assert diff > 1e-4


@pytest.mark.parametrize("name", PRODUCT_NAMES)
def test_product_points_match_closed_form(name):
    data = data_for(name)
    q = (0.7, 0.2)[: data.l]
    cps = solve(name, q)
    oracle = closed_form_critical_points(name, q)
    for j in range(data.n):
        got = [z[j] for z in cps.points]
        want = [p[j] for p in oracle]
        assert multiset_distance(got, want) < 1e-9


@pytest.mark.parametrize("name", ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2"))
@pytest.mark.parametrize("qval", ((1.0,), (0.3,), (0.7, 0.2)))
def test_residuals_small_at_sampled_parameters(name, qval):
    data = data_for(name)
    q = tuple(qval[a % len(qval)] for a in range(data.l))
    cps = solve(name, q)
    assert max(cps.residuals) <= 1e-9


def test_missing_root_error_is_loud():
    data = data_for("P2")
    w = tm.superpotential(data)
    with pytest.raises(IncompleteRootSet):
        critical_points(w, [1.0], SolverConfig(expected_count=5, seed=0))


@pytest.mark.parametrize("q", [[0.5], [0.5, 0.5, 0.5]])
def test_wrong_number_of_parameters_is_rejected(q):
    w = tm.superpotential(data_for("P1xP1"))
    with pytest.raises(WrongParameterCount, match=f"got {len(q)}"):
        critical_points(w, q, SolverConfig(expected_count=4, seed=0))


def test_solver_deterministic_for_fixed_seed():
    data = data_for("P2")
    w = tm.superpotential(data)
    cfg = SolverConfig(expected_count=3, seed=12)
    a = critical_points(w, [0.4], cfg)
    b = critical_points(w, [0.4], cfg)
    assert a.points == b.points and a.values == b.values
    c = critical_points(w, [0.4], SolverConfig(expected_count=3, seed=99))
    assert multiset_distance(list(a.values), list(c.values)) < 1e-9


def test_random_starts_fill_the_box_from_the_seed():
    starts = lg_model._random_starts(5, 300, 4)
    assert starts.shape == (300, 4) and starts.dtype == complex
    assert np.all((-3 <= starts.real) & (starts.real < 3))
    assert np.all((0 <= starts.imag) & (starts.imag < 2 * np.pi))
    # both halves of the box are reached in every coordinate
    assert np.all(np.ptp(starts.real, axis=0) > 5) and np.all(np.ptp(starts.imag, axis=0) > 5)
    assert np.array_equal(starts, lg_model._random_starts(5, 300, 4))
    assert not np.array_equal(starts, lg_model._random_starts(6, 300, 4))


def test_near_collision_warns_degenerate_spectrum(monkeypatch):
    data = data_for("P2")
    w = tm.superpotential(data)
    # points sit 2*pi/3 apart in log coordinates; a coarse dedup tolerance
    # puts them inside the 10x warning radius without merging them
    monkeypatch.setattr(lg_model, "DEDUP_TOL", 0.25)
    with pytest.warns(DegenerateSpectrum):
        critical_points(w, [1.0], SolverConfig(expected_count=3, seed=0))


def test_blowup_and_singular_starts_fail_without_stopping_the_batch():
    # W = z - 1/z: at u = 0 the Jacobian 1 - 1 vanishes exactly, at u = 60
    # the exponent test fires, and the start at u = 0.3 keeps iterating
    rays = np.array([[1.0], [-1.0]])
    u = np.array([[0j], [60 + 0j], [0.3 + 0j]])
    done = _newton(rays, np.array([1.0, -1.0]), u)
    assert not done.any()
    assert u[2, 0] != 0.3
    # W = z + 1/z has the root u = 0, reached by the third start
    u = np.array([[0.3 + 0.1j], [60 + 0j], [0.3 + 0j]])
    done = _newton(rays, np.array([1.0, 1.0]), u)
    assert done.tolist() == [True, False, True]
    assert abs(u[0, 0]) < 1e-12 and abs(u[2, 0]) < 1e-12


def _newton_one_start(rays, coeffs, u):
    """Reference: Newton on one start, as a plain loop; (converged, iterate)."""
    for _ in range(lg_model.MAX_ITER):
        expo = rays @ u
        if np.max(expo.real) > 50.0:
            return False, u
        t = coeffs * np.exp(expo)
        f = rays.T @ t
        if not np.all(np.isfinite(f)):
            return False, u
        scale = np.minimum(1.0, np.abs(rays.T) @ np.abs(t))
        if np.all(np.abs(f) < lg_model.TOL * scale):
            return True, u
        try:
            u = u + np.linalg.solve(rays.T @ (t[:, None] * rays), -f)
        except np.linalg.LinAlgError:
            return False, u
    return False, u


@pytest.mark.parametrize("name", ("P2", "P1xP2", "P2xP2", "BlP2"))
def test_batched_newton_matches_one_start_at_a_time(name):
    data = data_for(name)
    rays = np.array(data.rays, dtype=float)
    # e^{lambda_i} = prod_a q_a^{E_ia} at q_a = 0.6, from the input's exponents
    coeffs = np.array([math.prod(0.6 ** e for e in row) for row in data.lambda_exponents])
    rng = np.random.default_rng(7)
    starts = rng.uniform(-3, 3, (200, data.n)) + 1j * rng.uniform(0, 6.3, (200, data.n))
    batch = starts.copy()
    done = _newton(rays, coeffs, batch)
    for k in range(len(starts)):
        ok, u = _newton_one_start(rays, coeffs, starts[k])
        assert ok == done[k]
        if ok:
            assert np.max(np.abs(u - batch[k])) < 1e-9


@pytest.mark.parametrize("name", ("P2", "P2xP2", "BlP2"))
def test_failed_starts_are_counted_out_of_the_draws(name):
    data = data_for(name)
    cfg = SolverConfig(expected_count=tm.vertex_count_reference(data), seed=5)
    cps = critical_points(tm.superpotential(data), [0.6] * data.l, cfg)
    assert 0 <= cps.failed_starts <= cfg.start_count()


def test_every_start_failing_is_reported(monkeypatch):
    data = data_for("P2")
    monkeypatch.setattr(lg_model, "MAX_ITER", 1)
    cfg = SolverConfig(expected_count=3, seed=0)
    with pytest.raises(IncompleteRootSet, match="150 of 150 starts failed"):
        critical_points(tm.superpotential(data), [1.0], cfg)


# the five fixtures, then P3, P6, (P1)^3, (P2)^3 and (P1)^4 built from rays
BOUNDED_INPUTS = FIXTURE_NAMES + ((3,), (6,), (1, 1, 1), (2, 2, 2), (1, 1, 1, 1))
# every rung of perfbench's newton-ladder and quotient-ladder
LADDER_RUNGS = ((2,), (3,), (4,), (5,), (6,), (1, 2), (1, 3), (2, 2),
                (1, 1, 1), (2, 2, 2), (1, 1, 1, 1))


def _input(name):
    data = data_for(name) if name in FIXTURE_NAMES else product_data(name)
    return data, qr.presentation_for(data)


def _same_roots(a, b, tol):
    """Whether two lists of term-value rows agree as multisets, relatively."""
    a, b = np.array(a), np.array(b)
    if a.shape != b.shape:
        return False
    gaps = np.max(np.abs(a[:, None] - b[None]), axis=-1) / np.max(np.abs(a), axis=-1)[:, None]
    return bool(np.all(gaps.min(axis=0) <= tol) and np.all(gaps.min(axis=1) <= tol))


@pytest.mark.parametrize(
    "name", BOUNDED_INPUTS,
    ids=lambda x: x if isinstance(x, str) else "x".join(f"P{m}" for m in x),
)
def test_bounded_search_returns_the_unbounded_roots(name):
    # verify-iso's eigenvector starts find the roots the random search finds
    data, pres = _input(name)
    w = tm.superpotential(data)
    expected = tm.vertex_count_reference(data)
    for q0 in (Fraction(1, 30), Fraction(7, 10), Fraction(1), Fraction(20)):
        for seed in (0, 11):
            cfg = SolverConfig(expected_count=expected, seed=seed)
            full = critical_points(w, [float(q0)] * data.l, cfg).monomial_values
            report = qr.verify_isomorphism(data, pres, [q0] * data.l, seed=seed)
            assert report.ok
            assert _same_roots(full, report.critical_points.monomial_values, 1e-9)


def test_bounded_search_stops_after_the_round_that_holds_the_bound(monkeypatch):
    # on every ladder rung the eigenvector starts hold every root: one Newton
    # batch of dim starts, and no draw runs
    ran = []

    def counting_newton(rays, coeffs, u):
        ran.append(len(u))
        return _newton(rays, coeffs, u)

    monkeypatch.setattr(lg_model, "_newton", counting_newton)
    for dims in LADDER_RUNGS:
        data, pres = _input(dims)
        for q0 in (Fraction(1, 100), Fraction(2, 5), Fraction(100)):
            ran.clear()
            report = qr.verify_isomorphism(data, pres, [q0] * data.l, seed=1)
            assert report.ok
            assert ran == [report.dim]
            counts = {c.name: c for c in report.checks}["dimension-equals-critical-point-count"]
            assert counts.details["starts"] == report.dim
            assert counts.details["failed_starts"] == 0


@pytest.mark.parametrize("far", [False, True], ids=["nan-seeds", "far-seeds"])
@pytest.mark.parametrize("name", ("P2", "P1xP2", "BlP2", (1, 1, 1)),
                         ids=lambda x: x if isinstance(x, str) else "x".join(f"P{m}" for m in x))
def test_seeds_that_miss_fall_back_to_the_draws(monkeypatch, name, far):
    data, pres = _input(name)
    q = [Fraction(7, 10)] * data.l
    seeded = qr.verify_isomorphism(data, pres, q, seed=2)
    fill = 40.0 if far else np.nan
    monkeypatch.setattr(qr, "_eigenvector_starts",
                        lambda data, chart, mats, q: np.full((seeded.dim, data.n), fill + 0j))
    report = qr.verify_isomorphism(data, pres, q, seed=2)
    assert report.ok
    assert _same_roots(seeded.critical_points.monomial_values,
                       report.critical_points.monomial_values, 1e-9)
    counts = {c.name: c for c in report.checks}["dimension-equals-critical-point-count"]
    draws = SolverConfig(expected_count=report.dim).start_count()
    assert counts.details["starts"] == report.dim + draws
    if not far:
        assert counts.details["failed_starts"] >= report.dim


def test_draws_are_made_only_when_the_seeds_miss_a_root(monkeypatch):
    def no_draws(seed, count, n):
        raise AssertionError("random starts drawn although the seeds hold every root")

    monkeypatch.setattr(lg_model, "_random_starts", no_draws)
    for name in ("P2", "P2xP2", (1, 1, 1)):
        data, pres = _input(name)
        assert qr.verify_isomorphism(data, pres, [Fraction(3, 7)] * data.l, seed=4).ok


# --- the mirror layer on a hand-built W ---------------------------------------

def test_p1_critical_points_from_a_hand_built_w():
    # W = z + q/z on P1, with no toric data behind it: z dW/dz = z - q/z
    w = ZLaurent({(1,): qmono(0), (-1,): qmono(1)})
    assert tm.jacobian_generators(w) == [
        ZLaurent({(1,): qmono(0), (-1,): qmono(1).scale(-1)})
    ]
    cps = critical_points(w, [0.49], SolverConfig(expected_count=2, seed=0))
    assert multiset_distance([z[0] for z in cps.points], [0.7, -0.7]) < 1e-9
    assert multiset_distance(list(cps.values), [1.4, -1.4]) < 1e-9
    with pytest.raises(WrongParameterCount, match="expected 1 parameter value"):
        critical_points(w, [0.5, 0.5], SolverConfig(expected_count=2, seed=0))


# each fixture's W written out: ray -> q-exponent of its coefficient
W_LITERALS = {
    "P2": {(1, 0): (0,), (0, 1): (0,), (-1, -1): (1,)},
    "P1xP1": {(1, 0): (0, 0), (-1, 0): (1, 0), (0, 1): (0, 0), (0, -1): (0, 1)},
    "P1xP2": {(1, 0, 0): (0, 0), (-1, 0, 0): (1, 0), (0, 1, 0): (0, 0),
              (0, 0, 1): (0, 0), (0, -1, -1): (0, 1)},
    "P2xP2": {(1, 0, 0, 0): (0, 0), (0, 1, 0, 0): (0, 0), (-1, -1, 0, 0): (1, 0),
              (0, 0, 1, 0): (0, 0), (0, 0, 0, 1): (0, 0), (0, 0, -1, -1): (0, 1)},
    "BlP2": {(1, 0): (0, 0), (0, 1): (0, 0), (-1, -1): (1, 1), (0, -1): (0, 1)},
}


@pytest.mark.parametrize("name", sorted(W_LITERALS))
def test_critical_points_read_nothing_but_w(name):
    data = data_for(name)
    literal = ZLaurent({v: qmono(*e) for v, e in W_LITERALS[name].items()})
    assert tm.superpotential(data) == literal
    q = [0.6] * data.l
    cfg = SolverConfig(expected_count=tm.vertex_count_reference(data), seed=4)
    assert critical_points(tm.superpotential(data), q, cfg) == critical_points(
        literal, q, cfg
    )


# --- evaluation at critical points -------------------------------------------

def test_evaluate_constant_is_all_ones():
    cps = solve("P2", (1.0,))
    one = ZLaurent({(0, 0): da.QLaurent.constant(1, 1)})
    assert tm.evaluate_at_critical(one, cps, [1.0]) == [1, 1, 1]


def test_evaluate_first_coordinate_gives_cube_roots():
    cps = solve("P2", (1.0,))
    z1 = ZLaurent({(1, 0): da.QLaurent.constant(1, 1)})
    vals = tm.evaluate_at_critical(z1, cps, [1.0])
    roots = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert multiset_distance(vals, roots) < 1e-9


def test_evaluate_jacobian_generators_vanish():
    for name in ("P2", "P1xP1", "BlP2"):
        data = data_for(name)
        q = (1.0,) * data.l
        cps = solve(name, q)
        for gen in tm.jacobian_generators(tm.superpotential(data)):
            vals = tm.evaluate_at_critical(gen, cps, q)
            assert max(abs(v) for v in vals) <= 1e-9
