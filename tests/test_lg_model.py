import cmath
import math
import random

import numpy as np
import pytest

import toricmirror as tm
from toricmirror import disc_algebra as da
from toricmirror.errors import (
    DegenerateSpectrum,
    IncompleteRootSet,
    ZeroCoordinate,
)
from toricmirror.lg_model import SolverConfig, _newton, critical_points
from toricmirror.syz_transform import ZLaurent, inverse_transform

from helpers import (
    PRODUCT_NAMES,
    closed_form_critical_points,
    data_for,
    multiset_distance,
    solve,
)


def qmono(*exps):
    return da.QLaurent.monomial(tuple(exps))


# --- superpotential ----------------------------------------------------------

def test_superpotential_plane():
    w = tm.superpotential(data_for("P2"))
    assert w.terms == ZLaurent(
        {(1, 0): qmono(0), (0, 1): qmono(0), (-1, -1): qmono(1)}
    )


def test_superpotential_quad():
    w = tm.superpotential(data_for("P1xP1"))
    assert w.terms == ZLaurent(
        {
            (1, 0): qmono(0, 0),
            (-1, 0): qmono(1, 0),
            (0, 1): qmono(0, 0),
            (0, -1): qmono(0, 1),
        }
    )


def test_superpotential_blowup():
    w = tm.superpotential(data_for("BlP2"))
    assert w.terms == ZLaurent(
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
    assert w.terms.evaluate(z, [math.exp(-1.0)]) == pytest.approx(expected)


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
        critical_points(
            w, [1.0], SolverConfig(expected_count=5, starts=40, seed=0)
        )


def test_solver_deterministic_for_fixed_seed():
    data = data_for("P2")
    w = tm.superpotential(data)
    cfg = SolverConfig(expected_count=3, seed=12)
    a = critical_points(w, [0.4], cfg)
    b = critical_points(w, [0.4], cfg)
    assert a.points == b.points and a.values == b.values
    c = critical_points(w, [0.4], SolverConfig(expected_count=3, seed=99))
    assert multiset_distance(list(a.values), list(c.values)) < 1e-9


def test_near_collision_warns_degenerate_spectrum():
    data = data_for("P2")
    w = tm.superpotential(data)
    # points sit 2*pi/3 apart in log coordinates; a coarse dedup tolerance
    # puts them inside the 10x warning radius without merging them
    with pytest.warns(DegenerateSpectrum):
        critical_points(
            w, [1.0], SolverConfig(expected_count=3, seed=0, dedup_tol=0.25)
        )


def test_blowup_and_singular_starts_fail_without_stopping_the_batch():
    # W = z - 1/z: at u = 0 the Jacobian 1 - 1 vanishes exactly, at u = 60
    # the exponent test fires, and the start at u = 0.3 keeps iterating
    rays = np.array([[1.0], [-1.0]])
    u = np.array([[0j], [60 + 0j], [0.3 + 0j]])
    done = _newton(rays, np.array([1.0, -1.0]), u, SolverConfig(expected_count=2))
    assert not done.any()
    assert u[2, 0] != 0.3
    # W = z + 1/z has the root u = 0, reached by the third start
    u = np.array([[0.3 + 0.1j], [60 + 0j], [0.3 + 0j]])
    done = _newton(rays, np.array([1.0, 1.0]), u, SolverConfig(expected_count=2))
    assert done.tolist() == [True, False, True]
    assert abs(u[0, 0]) < 1e-12 and abs(u[2, 0]) < 1e-12


def _newton_one_start(rays, coeffs, u, config):
    """Reference: Newton on one start, as a plain loop; (converged, iterate)."""
    for _ in range(config.max_iter):
        expo = rays @ u
        if np.max(expo.real) > 50.0:
            return False, u
        t = coeffs * np.exp(expo)
        f = rays.T @ t
        if not np.all(np.isfinite(f)):
            return False, u
        if np.max(np.abs(f)) < config.tol:
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
    coeffs = np.array(tm.superpotential(data).coefficients([0.6] * data.l))
    rng = np.random.default_rng(7)
    starts = rng.uniform(-3, 3, (200, data.n)) + 1j * rng.uniform(0, 6.3, (200, data.n))
    cfg = SolverConfig(expected_count=1)
    batch = starts.copy()
    done = _newton(rays, coeffs, batch, cfg)
    for k in range(len(starts)):
        ok, u = _newton_one_start(rays, coeffs, starts[k], cfg)
        assert ok == done[k]
        if ok:
            assert np.max(np.abs(u - batch[k])) < 1e-9


@pytest.mark.parametrize("name", ("P2", "P2xP2", "BlP2"))
def test_failed_starts_are_counted_out_of_the_draws(name):
    data = data_for(name)
    cfg = SolverConfig(expected_count=tm.vertex_count_reference(data), seed=5)
    cps = critical_points(tm.superpotential(data), [0.6] * data.l, cfg)
    assert 0 <= cps.failed_starts <= cfg.start_count()


def test_every_start_failing_is_reported():
    data = data_for("P2")
    cfg = SolverConfig(expected_count=3, max_iter=1, seed=0)
    with pytest.raises(IncompleteRootSet, match="150 of 150 starts failed"):
        critical_points(tm.superpotential(data), [1.0], cfg)


def test_nonpositive_dedup_tol_keeps_every_converged_start():
    # each root taken leaves the pool even when no distance is below the
    # tolerance; run in a child so that a regression fails instead of hanging
    import subprocess
    import sys

    code = (
        "import toricmirror as tm\n"
        "from toricmirror.errors import IncompleteRootSet\n"
        "w = tm.superpotential(tm.fixture('P2'))\n"
        "for tol in (0.0, -1.0):\n"
        "    cfg = tm.SolverConfig(expected_count=3, starts=20, seed=0, dedup_tol=tol)\n"
        "    try:\n"
        "        tm.critical_points(w, [1.0], cfg)\n"
        "    except IncompleteRootSet as exc:\n"
        "        print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        found = int(line.split()[1])
        failed = int(line.split("(")[1].split()[0])
        assert found + failed == 20 and found > 3


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
