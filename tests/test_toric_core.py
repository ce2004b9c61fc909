import math
import random
from fractions import Fraction

import pytest

from toricmirror import _intlinalg as ila
from toricmirror.errors import (
    BasisNotKernel,
    DegeneratePolytope,
    InconsistentLambda,
    NonPrimitiveRay,
    NonSpanningRays,
    PointOutsidePolytope,
    RepeatedRay,
    UnboundedPolytope,
)
from toricmirror.toric_core import (
    build_toric_data,
    disc_area,
    kahler_params,
    kernel_basis,
    lambda_from_q,
    polytope_vertices,
    reference_lambda,
)

from helpers import FIXTURE_NAMES, data_for

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
QUAD_RAYS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
BLOWUP_RAYS = [(1, 0), (0, 1), (-1, -1), (0, -1)]


# --- kernel bases ------------------------------------------------------------

def test_kernel_basis_plane():
    assert kernel_basis(P2_RAYS) == [(1, 1, 1)]


def test_kernel_basis_quad_matches_bruteforce():
    basis = kernel_basis(QUAD_RAYS)
    assert basis == [(1, 1, 0, 0), (0, 0, 1, 1)]
    # oracle: brute-force kernel vectors over a small box are spanned
    stacked = [[col[i] for col in basis] for i in range(4)]
    import itertools

    for k in itertools.product(range(-2, 3), repeat=4):
        if (k[0] - k[1], k[2] - k[3]) != (0, 0):
            continue
        assert ila.solve_integer(stacked, list(k)) is not None


def test_kernel_basis_blowup_default():
    basis = kernel_basis(BLOWUP_RAYS)
    assert basis == [(1, 1, 1, 0), (0, 1, 0, 1)]


def test_build_accepts_override_basis():
    data = build_toric_data(BLOWUP_RAYS, kbasis=[(1, 0, 1, -1), (0, 1, 0, 1)])
    assert data.kbasis == ((1, 0, 1, -1), (0, 1, 0, 1))
    # facet monomials forced to (1, 1, q1 q2, q2)
    assert data.lambda_exponents == ((0, 0), (0, 0), (1, 1), (0, 1))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("P2", ((0,), (0,), (1,))),
        ("P1xP1", ((0, 0), (1, 0), (0, 0), (0, 1))),
        ("P1xP2", ((0, 0), (1, 0), (0, 0), (0, 0), (0, 1))),
    ],
)
def test_default_facet_monomials(name, expected):
    assert data_for(name).lambda_exponents == expected


def test_kernel_property_random_spanning_sets():
    # 200 random primitive spanning ray sets with n <= 3, d <= 6
    rng = random.Random(0)
    produced = 0
    while produced < 200:
        n = rng.randint(1, 3)
        d = rng.randint(n + 1, 6)
        rays = []
        while len(rays) < d:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(v):
                continue
            g = math.gcd(*(abs(c) for c in v))
            rays.append(tuple(c // g for c in v))
        mat = [[rays[i][j] for i in range(d)] for j in range(n)]
        if not ila.is_surjective(mat):
            continue
        basis = kernel_basis(rays)
        assert len(basis) == d - n
        for col in basis:
            assert all(
                sum(col[i] * rays[i][j] for i in range(d)) == 0 for j in range(n)
            )
        # genuine Z-basis: completing with preimages of the unit vectors is unimodular
        preimages = [
            ila.solve_integer(mat, [1 if r == j else 0 for r in range(n)])
            for j in range(n)
        ]
        square = [list(col) for col in basis] + preimages
        assert abs(ila.det(square)) == 1
        produced += 1


# --- validation errors -------------------------------------------------------

def test_build_rejects_nonprimitive_and_zero_rays():
    with pytest.raises(NonPrimitiveRay):
        build_toric_data([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(NonPrimitiveRay):
        build_toric_data([(0, 0), (0, 1), (-1, -1)])


def test_build_rejects_repeated_rays():
    with pytest.raises(RepeatedRay, match=r"ray \(1, 0\)"):
        build_toric_data([(1, 0), (1, 0), (0, 1), (-1, -1)])
    with pytest.raises(RepeatedRay, match=r"ray \(-1, -1\)"):
        build_toric_data(P2_RAYS + [(-1, -1)])


def test_build_rejects_nonspanning_rays():
    with pytest.raises(NonSpanningRays):
        build_toric_data([(1, 0), (-1, 0), (1, 0)])  # spans only a line
    with pytest.raises(NonSpanningRays):
        kernel_basis([(2, 1), (0, 1), (2, 3)])  # index-2 sublattice


def test_build_rejects_bad_kernel_basis():
    with pytest.raises(BasisNotKernel):
        build_toric_data(P2_RAYS, kbasis=[(1, 0, 1)])  # not in the kernel
    with pytest.raises(BasisNotKernel):
        build_toric_data(P2_RAYS, kbasis=[(2, 2, 2)])  # not saturated
    with pytest.raises(BasisNotKernel):
        # primitive kernel columns spanning an index-2 sublattice
        build_toric_data(data_for("BlP2").rays, kbasis=[(1, 0, 1, -1), (1, 2, 1, 1)])


def test_build_rejects_inconsistent_monomials():
    with pytest.raises(InconsistentLambda):
        build_toric_data(P2_RAYS, lambda_exponents=[(0,), (0,), (2,)])
    with pytest.raises(InconsistentLambda):
        build_toric_data(P2_RAYS, lambda_exponents=[(0,), (0,)])


def test_build_rejects_translated_numeric_lambda():
    # q-compatible but not the gauge representative the monomials describe
    with pytest.raises(InconsistentLambda):
        build_toric_data(P2_RAYS, lambda_numeric=[0.5, 0.0, -1.5])
    data = build_toric_data(P2_RAYS, lambda_numeric=[0.0, 0.0, -1.0])
    assert data.lambda_numeric == (0.0, 0.0, -1.0)


# --- Kahler parameters -------------------------------------------------------

def test_kahler_params_plane():
    data = data_for("P2")
    (q,) = kahler_params(data, [0.0, 0.0, -1.0])
    assert q == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_kahler_params_blowup():
    data = data_for("BlP2")
    t1, t2 = 1.0, 2.0
    q = kahler_params(data, [0.0, 0.0, -(t1 + t2), -t2])
    assert q[0] == pytest.approx(math.exp(-t1), rel=1e-12)
    assert q[1] == pytest.approx(math.exp(-t2), rel=1e-12)


def test_kahler_params_zero_lambda_is_all_ones():
    for name in FIXTURE_NAMES:
        data = data_for(name)
        assert kahler_params(data, [0.0] * data.d) == (1.0,) * data.l


def test_lambda_from_q_roundtrip():
    data = data_for("BlP2")
    lam = lambda_from_q(data, (0.25, 0.5))
    assert kahler_params(data, lam) == pytest.approx((0.25, 0.5), rel=1e-12)


# --- polytope vertices -------------------------------------------------------

def test_vertices_plane_triangle():
    data = data_for("P2")
    verts = polytope_vertices(data, [0, 0, -1])
    assert verts == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
                     (Fraction(1), Fraction(0)))


def test_vertices_quad_unit_square():
    data = data_for("P1xP1")
    verts = polytope_vertices(data, [0, -1, 0, -1])
    assert len(verts) == 4
    assert all(c in (Fraction(0), Fraction(1)) for v in verts for c in v)


def test_vertices_blowup_trapezoid():
    data = data_for("BlP2")
    verts = polytope_vertices(data, [0, 0, -2, -1])
    assert len(verts) == 4


@pytest.mark.parametrize(
    "name,count", [("P2", 3), ("P1xP1", 4), ("P1xP2", 6), ("P2xP2", 9), ("BlP2", 4)]
)
def test_reference_vertex_counts(name, count):
    data = data_for(name)
    assert len(polytope_vertices(data, reference_lambda(data))) == count


def test_vertices_translation_invariance():
    rng = random.Random(3)
    data = data_for("BlP2")
    lam = [Fraction(0), Fraction(0), Fraction(-2), Fraction(-1)]
    base = polytope_vertices(data, lam)
    for _ in range(5):
        m = tuple(rng.randint(-3, 3) for _ in range(data.n))
        shifted_lam = [
            lam[i] + sum(m[j] * data.rays[i][j] for j in range(data.n))
            for i in range(data.d)
        ]
        shifted = polytope_vertices(data, shifted_lam)
        assert len(shifted) == len(base)
        expected = sorted(tuple(c + mc for c, mc in zip(v, m)) for v in base)
        assert list(shifted) == expected


def test_vertices_unbounded_and_degenerate():
    half = build_toric_data([(1, 0), (0, 1), (-1, 0)])  # misses -e2 direction
    with pytest.raises(UnboundedPolytope):
        polytope_vertices(half, [0, 0, -1])
    data = data_for("P2")
    with pytest.raises(DegeneratePolytope):
        polytope_vertices(data, [0, 0, 0])  # single point
    with pytest.raises(DegeneratePolytope):
        polytope_vertices(data, [0, 0, 1])  # empty


# --- disc areas --------------------------------------------------------------

def test_disc_area_plane_values():
    data = data_for("P2")
    lam = [0.0, 0.0, -1.0]
    assert disc_area(data, (0.25, 0.25), 0, lam) == pytest.approx(math.pi / 2)
    assert disc_area(data, (0.25, 0.25), 2, lam) == pytest.approx(math.pi)


def test_disc_area_rejects_boundary_and_exterior():
    data = data_for("P2")
    lam = [0.0, 0.0, -1.0]
    with pytest.raises(PointOutsidePolytope):
        disc_area(data, (0.0, 0.25), 0, lam)  # on facet 0
    with pytest.raises(PointOutsidePolytope):
        disc_area(data, (2.0, 2.0), 0, lam)


def test_disc_area_positive_and_linear():
    rng = random.Random(5)
    data = data_for("P1xP1")
    lam = [0.0, -1.0, 0.0, -1.0]
    for _ in range(20):
        x = (rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        y = (rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        mid = tuple((a + b) / 2 for a, b in zip(x, y))
        for i in range(data.d):
            ax, ay = disc_area(data, x, i, lam), disc_area(data, y, i, lam)
            assert ax > 0 and ay > 0
            assert disc_area(data, mid, i, lam) == pytest.approx((ax + ay) / 2)


def test_no_unit_block_demands_explicit_monomials():
    # kernel (2,5,3) has no unit entry, so no row block of the basis is
    # unimodular and the default facet-monomial choice must fail loudly
    rays = [(1, 0), (2, 3), (-4, -5)]
    assert kernel_basis(rays) == [(2, 5, 3)]
    with pytest.raises(InconsistentLambda):
        build_toric_data(rays)
    # an explicit solution of 2*E1 + 5*E2 + 3*E3 = 1 is accepted
    data = build_toric_data(rays, lambda_exponents=[(-2,), (1,), (0,)])
    assert data.lambda_exponents == ((-2,), (1,), (0,))


def test_unbounded_detection_in_three_dimensions():
    data = build_toric_data([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(UnboundedPolytope):
        polytope_vertices(data, [0.0, -1.0, 0.0, 0.0])
