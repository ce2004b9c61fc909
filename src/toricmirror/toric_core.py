"""Lattice and polytope layer shared by the rest of the package.

A toric Fano input is a list of primitive integer rays spanning Z^n together
with facet constants lambda_1..lambda_d.  The facet constants are carried in
one exact form, as monomials in the Kahler parameters q_1..q_l:
``lambda_exponents`` holds the exponent vector E_i of
e^{lambda_i} = prod_a q_a^{E_ia}.  Numeric constants are derived from it on
demand, by ``reference_lambda`` (q_a = e^{-1}) or ``lambda_from_q``.

Writing Q for the d x l kernel basis of the ray map, the monomials are
consistent when Q^T E = Id, i.e. prod_i (e^{lambda_i})^{Q_ia} = q_a.
Polytope vertices are enumerated in integer arithmetic, one fraction-free
elimination per n-subset of facets; only the vertices become Fractions.
``product_structure`` reads a product of projective spaces off the rays and
facet monomials alone, so ``info`` and ``tropical`` need no other layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _intlinalg as ila
from .errors import (
    BasisNotKernel,
    DegeneratePolytope,
    InconsistentLambda,
    MixedRayDimensions,
    NonPrimitiveRay,
    NonSpanningRays,
    RepeatedRay,
    UnboundedPolytope,
    WrongParameterCount,
)


@dataclass(frozen=True)
class ToricFanoData:
    """Validated ray, kernel and facet-constant data.

    Immutable; all operations in the package are pure functions of it.
    """

    n: int
    rays: tuple[tuple[int, ...], ...]
    kbasis: tuple[tuple[int, ...], ...]            # l columns, each of length d
    lambda_exponents: tuple[tuple[int, ...], ...]  # d rows, each of length l

    @property
    def d(self) -> int:
        return len(self.rays)

    @property
    def l(self) -> int:
        return len(self.kbasis)


def kernel_basis(rays):
    """Z-basis of the kernel of (k_1..k_d) -> sum_i k_i v_i, as columns.

    Computed by integer column reduction of the ray matrix.  When the
    trailing l x l block of the resulting basis is unimodular, the basis is
    post-multiplied so that block becomes the identity; otherwise it is
    returned as-is (callers may supply their own basis instead).
    """
    rays = [tuple(v) for v in rays]
    d = len(rays)
    n = len(rays[0])
    mat = [[rays[i][j] for i in range(d)] for j in range(n)]
    if not ila.is_surjective(mat):
        raise NonSpanningRays("rays do not span the lattice over the integers")
    cols = ila.integer_kernel(mat)
    l = len(cols)
    if l:
        block = [[cols[a][n + b] for a in range(l)] for b in range(l)]
        inv = ila.unimodular_inverse(block)
        if inv is not None:
            cols = [
                tuple(sum(cols[b][i] * inv[b][a] for b in range(l)) for i in range(d))
                for a in range(l)
            ]
    return [tuple(c) for c in cols]


def _default_lambda_exponents(kbasis, d, l):
    # Prefer lambda_i = 0 on as many rays as possible: scan index sets of
    # size l in colexicographic-descending order (so the trailing block is
    # tried first) and use the first whose kbasis row block is unimodular.
    # Combinations of the descending indices come in exactly that order.
    for rows in itertools.combinations(range(d - 1, -1, -1), l):
        block_t = [[kbasis[a][i] for i in rows] for a in range(l)]  # B^T
        inv = ila.unimodular_inverse(block_t)
        if inv is None:
            continue
        exps = [(0,) * l] * d
        for b, i in enumerate(rows):
            exps[i] = tuple(inv[b])
        return tuple(exps)
    raise InconsistentLambda(
        "no unimodular row block in the kernel basis; supply lambda data explicitly"
    )


def _check_lambda_consistency(kbasis, exps, d, l):
    for a in range(l):
        for c in range(l):
            total = sum(kbasis[a][i] * exps[i][c] for i in range(d))
            if total != (1 if a == c else 0):
                raise InconsistentLambda(
                    f"facet monomials do not reproduce q_{a + 1} under the kernel basis"
                )


def build_toric_data(rays, lambda_exponents=None, kbasis=None):
    """Validate the input data and assemble a ToricFanoData.

    Rays must be nonzero, primitive, pairwise distinct and span Z^n.  The
    kernel basis is computed when omitted; supplied bases are checked to be
    genuine Z-bases of the kernel.  Facet monomials default to the normalized
    choice derived from the kernel basis and are checked for consistency when
    supplied.
    """
    rays = tuple(tuple(int(c) for c in v) for v in rays)
    if not rays:
        raise NonSpanningRays("no rays given")
    n = len(rays[0])
    if any(len(v) != n for v in rays):
        raise MixedRayDimensions("rays have mixed dimensions")
    for v in rays:
        if not any(v):
            raise NonPrimitiveRay(f"zero ray {v}")
        if gcd(*(abs(c) for c in v)) != 1:
            raise NonPrimitiveRay(f"ray {v} is not primitive")
    d = len(rays)
    l = d - n
    if l < 1:
        raise NonSpanningRays("a complete fan needs at least n + 1 rays")

    computed = kernel_basis(rays)
    # W and every map keyed by ray would silently drop a repeated ray's term
    for i, v in enumerate(rays):
        if v in rays[:i]:
            raise RepeatedRay(f"ray {v} is given more than once")
    if kbasis is None:
        kcols = computed
    else:
        kcols = [tuple(int(c) for c in col) for col in kbasis]
        if len(kcols) != l or any(len(col) != d for col in kcols):
            raise BasisNotKernel(f"kernel basis must be {d}x{l}, column-major")
        for col in kcols:
            if any(sum(col[i] * rays[i][j] for i in range(d)) for j in range(n)):
                raise BasisNotKernel(f"column {col} is not in the ray kernel")
        # l kernel columns are a Z-basis of the saturated kernel exactly when
        # they span a saturated rank-l lattice, i.e. their transpose is onto Z^l
        if not ila.is_surjective([list(col) for col in kcols]):
            raise BasisNotKernel("columns do not form a Z-basis of the kernel")

    if lambda_exponents is None:
        exps = _default_lambda_exponents(kcols, d, l)
    else:
        exps = tuple(tuple(int(e) for e in row) for row in lambda_exponents)
        if len(exps) != d or any(len(row) != l for row in exps):
            raise InconsistentLambda(f"need {d} exponent vectors of length {l}")
        _check_lambda_consistency(kcols, exps, d, l)

    return ToricFanoData(
        n=n,
        rays=rays,
        kbasis=tuple(kcols),
        lambda_exponents=exps,
    )


def q_vector(q_values, l):
    """The q-values as a tuple, checked to hold one value per Kahler parameter."""
    q = tuple(q_values)
    if len(q) != l:
        raise WrongParameterCount(f"expected {l} parameter value(s), got {len(q)}")
    return q


def lambda_from_q(data, q_numeric):
    """Numeric facet constants matching the facet monomials at the given q."""
    logs = [math.log(float(x)) for x in q_vector(q_numeric, data.l)]
    return tuple(
        sum(data.lambda_exponents[i][a] * logs[a] for a in range(data.l))
        for i in range(data.d)
    )


def reference_lambda(data):
    """Facet constants at the reference point q_a = e^{-1} for every a."""
    return tuple(
        -sum(data.lambda_exponents[i][a] for a in range(data.l))
        for i in range(data.d)
    )


def _unbounded_direction(rays, n):
    # The region is unbounded for every lambda iff some nonzero u pairs
    # nonnegatively with all rays.  The cone of such u is pointed (the rays
    # span), so it is nontrivial iff an extreme candidate from some
    # (n-1)-subset's kernel survives the sign checks.
    if n == 1:
        for u in ((1,), (-1,)):
            if all(u[0] * v[0] >= 0 for v in rays):
                return u
        return None
    for subset in itertools.combinations(range(len(rays)), n - 1):
        mat = [list(rays[i]) for i in subset]
        for g in ila.integer_kernel(mat):
            if not any(g):
                continue
            for u in (g, tuple(-c for c in g)):
                if all(sum(u[j] * v[j] for j in range(n)) >= 0 for v in rays):
                    return u
    return None


def _raise_if_unbounded(rays, n):
    u = _unbounded_direction(rays, n)
    if u is not None:
        raise UnboundedPolytope(f"direction {u} satisfies every facet inequality")


def _has_unbounded_edge(rays, subset):
    # The edge directions at the basis ``subset`` are the columns of the
    # inverse of its normal matrix, i.e. of the adjugate times sign(det).
    n = len(subset)
    rows = [rays[i] + tuple(int(c == k) for c in range(n)) for k, i in enumerate(subset)]
    det, adj = ila.cramer(rows, n)
    sign = 1 if det > 0 else -1
    return any(
        all(sign * sum(adj[j][k] * v[j] for j in range(n)) >= 0 for v in rays)
        for k in range(n)
    )


def polytope_vertices(data, lam):
    """All vertices of {x : <x, v_i> >= lambda_i}, in exact arithmetic.

    The facet constants are scaled to integers by the lcm of their
    denominators.  Each n-subset of facets is solved by fraction-free
    elimination (determinant D > 0 after a sign flip, integer numerators N)
    and kept when sum_j N_j v_ij >= lambda_i D on every facet, in plain
    ints; only the vertices become Fractions.

    The rays span, so the region is pointed: it is unbounded exactly when
    some feasible basis has an edge direction that pairs nonnegatively with
    every ray.  Only then, or when no vertex exists or the number of
    constants is wrong, does the direction scan run, so UnboundedPolytope
    keeps its precedence and its message.  Returns a sorted tuple of
    Fraction n-tuples.
    """
    n, d, rays = data.n, data.d, data.rays
    try:
        lam = [x if isinstance(x, Fraction) else Fraction(x) for x in lam]
    except (TypeError, ValueError, OverflowError):
        _raise_if_unbounded(rays, n)
        raise
    if len(lam) != d:
        _raise_if_unbounded(rays, n)
        raise DegeneratePolytope(f"need {d} facet constants")
    scale = math.lcm(*(x.denominator for x in lam))
    scaled = [x.numerator * (scale // x.denominator) for x in lam]
    vertices = set()
    for subset in itertools.combinations(range(d), n):
        det, nums = ila.cramer([rays[i] + (scaled[i],) for i in subset], n)
        if not det:
            continue
        sign = 1 if det > 0 else -1
        det, nums = sign * det, [sign * row[0] for row in nums]
        if all(
            sum(nj * vj for nj, vj in zip(nums, v)) >= b * det
            for v, b in zip(rays, scaled)
        ):
            vertices.add(tuple(Fraction(nj, det * scale) for nj in nums))
            if _has_unbounded_edge(rays, subset):
                _raise_if_unbounded(rays, n)
    if not vertices:
        _raise_if_unbounded(rays, n)
        raise DegeneratePolytope("facet inequalities have no solution")
    centroid = [
        sum(v[j] for v in vertices) / Fraction(len(vertices)) for j in range(n)
    ]
    strict = all(
        sum(centroid[j] * data.rays[i][j] for j in range(n)) > lam[i]
        for i in range(d)
    )
    if not strict:
        raise DegeneratePolytope("polytope has empty interior")
    return tuple(sorted(vertices))


def vertex_count_reference(data):
    """Vertex count of the reference polytope (invariant choice of lambda)."""
    return len(polytope_vertices(data, reference_lambda(data)))


@dataclass(frozen=True)
class FactorBlock:
    coords: tuple[int, ...]        # lattice coordinates of the factor
    ray_indices: tuple[int, ...]   # the n_a unit rays then the negative-sum ray
    q_exponents: tuple[int, ...]   # kernel coordinates of the factor class

    @property
    def dimension(self):
        return len(self.coords)


@dataclass(frozen=True)
class Factorization:
    factors: tuple[FactorBlock, ...]

    def __len__(self):
        return len(self.factors)


def product_structure(data):
    """Detect a product-of-projective-spaces fan; None when there is none.

    Rays must partition into groups, one per coordinate block, each
    consisting of the block's standard basis vectors plus their negative sum.
    """
    n, d = data.n, data.d
    unit_of = {}
    negatives = []
    for idx, v in enumerate(data.rays):
        nz = [(j, c) for j, c in enumerate(v) if c]
        if len(nz) == 1 and nz[0][1] == 1:
            j = nz[0][0]
            if j in unit_of:
                return None
            unit_of[j] = idx
        elif all(c in (0, -1) for c in v):
            negatives.append(idx)
        else:
            return None
    if len(unit_of) != n or len(unit_of) + len(negatives) != d:
        return None
    covered = set()
    blocks = []
    for idx in negatives:
        support = tuple(j for j, c in enumerate(data.rays[idx]) if c == -1)
        if covered.intersection(support):
            return None
        covered.update(support)
        blocks.append((support, idx))
    if covered != set(range(n)):
        return None
    blocks.sort()
    factors = []
    for coords, neg_idx in blocks:
        ray_indices = tuple(unit_of[j] for j in coords) + (neg_idx,)
        qexp = tuple(
            sum(data.lambda_exponents[i][a] for i in ray_indices)
            for a in range(data.l)
        )
        factors.append(
            FactorBlock(coords=coords, ray_indices=ray_indices, q_exponents=qexp)
        )
    return Factorization(tuple(factors))
