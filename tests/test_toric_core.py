import itertools
import math
import random
from fractions import Fraction

import pytest

from toricmirror import _intlinalg as ila
from toricmirror.errors import (
    BasisNotKernel,
    DegeneratePolytope,
    InconsistentLambda,
    MixedRayDimensions,
    NonPrimitiveRay,
    NonSpanningRays,
    RepeatedRay,
    ToricMirrorError,
    UnboundedPolytope,
    WrongParameterCount,
)
from toricmirror.toric_core import (
    build_toric_data,
    kernel_basis,
    lambda_from_q,
    polytope_vertices,
    reference_lambda,
    vertex_count_reference,
)

from helpers import FIXTURE_NAMES, data_for, product_data, solve_integer

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
    for k in itertools.product(range(-2, 3), repeat=4):
        if (k[0] - k[1], k[2] - k[3]) != (0, 0):
            continue
        assert solve_integer(stacked, list(k)) is not None


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
            solve_integer(mat, [1 if r == j else 0 for r in range(n)])
            for j in range(n)
        ]
        square = [list(col) for col in basis] + preimages
        assert abs(ila.cramer(square, d)[0]) == 1
        produced += 1


# --- validation errors -------------------------------------------------------

def test_build_rejects_nonprimitive_and_zero_rays():
    with pytest.raises(NonPrimitiveRay):
        build_toric_data([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(NonPrimitiveRay):
        build_toric_data([(0, 0), (0, 1), (-1, -1)])


def test_build_rejects_rays_of_mixed_dimensions():
    with pytest.raises(MixedRayDimensions, match="mixed dimensions"):
        build_toric_data([(1, 0), (0,), (-1, -1)])


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


# --- Kahler parameters -------------------------------------------------------

def test_lambda_from_q_plane():
    data = data_for("P2")
    lam = lambda_from_q(data, [math.exp(-1.0)])
    assert lam == pytest.approx((0.0, 0.0, -1.0), abs=1e-15)


def test_lambda_from_q_blowup():
    data = data_for("BlP2")
    t1, t2 = 1.0, 2.0
    lam = lambda_from_q(data, [math.exp(-t1), math.exp(-t2)])
    assert lam == pytest.approx((0.0, 0.0, -(t1 + t2), -t2), rel=1e-12)


def test_lambda_from_q_unit_q_is_zero_lambda():
    for name in FIXTURE_NAMES:
        data = data_for(name)
        assert lambda_from_q(data, [1.0] * data.l) == (0.0,) * data.d


def test_lambda_from_q_roundtrip():
    data = data_for("BlP2")
    lam = lambda_from_q(data, (0.25, 0.5))
    # q_a = exp(sum_i Q_ia lambda_i), Q the kernel basis
    q = [math.exp(sum(Q_i * lam_i for Q_i, lam_i in zip(col, lam))) for col in data.kbasis]
    assert q == pytest.approx((0.25, 0.5), rel=1e-12)


@pytest.mark.parametrize("q", [[0.5], [0.5, 0.5, 7.0]])
def test_lambda_from_q_rejects_wrong_parameter_count(q):
    with pytest.raises(WrongParameterCount,
                       match=f"^expected 2 parameter value\\(s\\), got {len(q)}$"):
        lambda_from_q(data_for("P1xP1"), q)


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
    # an unbounded fan is named before the constants are even read
    with pytest.raises(UnboundedPolytope):
        polytope_vertices(half, [0, float("nan"), -1])
    data = data_for("P2")
    with pytest.raises(DegeneratePolytope):
        polytope_vertices(data, [0, 0, 0])  # single point
    with pytest.raises(DegeneratePolytope):
        polytope_vertices(data, [0, 0, 1])  # empty


def _reference_unbounded_direction(rays, n):
    # extreme candidates of {u : <u, v_i> >= 0}: kernels of (n-1)-subsets
    if n == 1:
        for u in ((1,), (-1,)):
            if all(u[0] * v[0] >= 0 for v in rays):
                return u
        return None
    for subset in itertools.combinations(range(len(rays)), n - 1):
        for g in ila.integer_kernel([list(rays[i]) for i in subset]):
            if not any(g):
                continue
            for u in (g, tuple(-c for c in g)):
                if all(sum(u[j] * v[j] for j in range(n)) >= 0 for v in rays):
                    return u
    return None


def _reference_vertices(data, lambda_numeric):
    """Oracle: a Fraction rref solve of every n-subset of facets, after a scan
    of every (n-1)-subset's integer kernel for an unbounded direction."""
    n, d = data.n, data.d
    u = _reference_unbounded_direction(data.rays, n)
    if u is not None:
        raise UnboundedPolytope(f"direction {u} satisfies every facet inequality")
    lam = [x if isinstance(x, Fraction) else Fraction(x) for x in lambda_numeric]
    if len(lam) != d:
        raise DegeneratePolytope(f"need {d} facet constants")
    vertices = set()
    for subset in itertools.combinations(range(d), n):
        rows = [[Fraction(c) for c in data.rays[i]] + [lam[i]] for i in subset]
        if len(ila.rref(rows, n)) < n:
            continue
        sol = [row[n] for row in rows]
        if all(
            sum(sol[j] * data.rays[i][j] for j in range(n)) >= lam[i]
            for i in range(d)
        ):
            vertices.add(tuple(sol))
    if not vertices:
        raise DegeneratePolytope("facet inequalities have no solution")
    centroid = [sum(v[j] for v in vertices) / len(vertices) for j in range(n)]
    if not all(
        sum(centroid[j] * data.rays[i][j] for j in range(n)) > lam[i]
        for i in range(d)
    ):
        raise DegeneratePolytope("polytope has empty interior")
    return tuple(sorted(vertices))


def _outcome(fn, data, lam):
    try:
        return fn(data, lam)
    except ToricMirrorError as exc:
        return type(exc).__name__, str(exc)


def _random_fan(rng, complete):
    # a complete fan starts from P^n's rays, whose positive hull is all of R^n
    while True:
        n = rng.randint(2, 4)
        rays = set()
        if complete:
            rays.update(tuple(int(c == j) for c in range(n)) for j in range(n))
            rays.add((-1,) * n)
        while len(rays) < rng.randint(n + 1, n + 3):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v) and math.gcd(*v) == 1:
                rays.add(v)
        try:
            return build_toric_data(sorted(rays))
        except ToricMirrorError:  # not spanning, or no default facet monomials
            continue


def test_vertices_match_fraction_reference_on_random_inputs():
    rng = random.Random(2024)
    kinds = {"vertices": 0, "UnboundedPolytope": 0, "no solution": 0,
             "empty interior": 0, "need": 0}
    for case in range(360):
        data = _random_fan(rng, complete=case % 12 < 8)
        style = case % 6
        if style == 0:
            lam = [rng.randint(-3, 1) for _ in range(data.d)]
        elif style == 1:
            lam = [Fraction(rng.randint(-6, 2), rng.randint(1, 4)) for _ in range(data.d)]
        elif style == 2:
            lam = [rng.uniform(-3.0, 0.5) for _ in range(data.d)]
        elif style == 3:
            lam = [0] * data.d  # a single point when the fan is complete
        elif style == 4:
            lam = [rng.randint(0, 3) for _ in range(data.d)]  # mostly empty
        else:
            lam = [Fraction(-1)] * (data.d + rng.choice((-1, 1)))
        got = _outcome(polytope_vertices, data, lam)
        assert got == _outcome(_reference_vertices, data, lam), (data.rays, lam)
        if isinstance(got[0], tuple):
            kinds["vertices"] += 1
        else:
            kind = next(k for k in kinds if k in got[0] or k in got[1])
            kinds[kind] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


@pytest.mark.parametrize("dims,count", [((1,) * 5, 32), ((2,) * 4, 81)])
def test_reference_vertex_counts_at_scale(dims, count):
    data = product_data(dims)
    assert len(_reference_vertices(data, reference_lambda(data))) == count
    assert vertex_count_reference(data) == count


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
