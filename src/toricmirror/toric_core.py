"""Lattice, polytope and disc-area layer shared by the rest of the package.

A toric Fano input is a list of primitive integer rays spanning Z^n together
with facet constants lambda_1..lambda_d.  The facet constants are carried in
two parallel forms:

* exact, as monomials in the Kahler parameters q_1..q_l (``lambda_exponents``
  holds the exponent vector E_i of e^{lambda_i} = prod_a q_a^{E_ia}), used by
  the exact convolution algebra; and
* numeric, as optional real values, used by the polytope and critical-point
  code.

Writing Q for the d x l kernel basis of the ray map, consistency between the
two forms means Q^T E = Id, i.e. prod_i (e^{lambda_i})^{Q_ia} = q_a.
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
    IndexOutOfRange,
    NonPrimitiveRay,
    NonSpanningRays,
    PointOutsidePolytope,
    RepeatedRay,
    UnboundedPolytope,
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
    lambda_numeric: tuple[float, ...] | None = None

    @property
    def d(self) -> int:
        return len(self.rays)

    @property
    def l(self) -> int:
        return len(self.kbasis)


def _colex_desc_subsets(d, size):
    subsets = itertools.combinations(range(d), size)
    return sorted(subsets, key=lambda t: tuple(reversed(t)), reverse=True)


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
    for rows in _colex_desc_subsets(d, l):
        block_t = [[kbasis[a][i] for i in rows] for a in range(l)]  # B^T
        inv = ila.unimodular_inverse(block_t)
        if inv is None:
            continue
        exps = [(0,) * l] * d
        for b, i in enumerate(rows):
            exps = list(exps)
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


def build_toric_data(rays, lambda_exponents=None, kbasis=None, lambda_numeric=None):
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
        raise NonPrimitiveRay("rays have mixed dimensions")
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

    if lambda_numeric is not None:
        lam = tuple(float(x) for x in lambda_numeric)
        if len(lam) != d:
            raise InconsistentLambda(f"need {d} numeric facet constants")
        # the numeric vector must be the representative the monomials describe
        q = [math.exp(sum(kcols[a][i] * lam[i] for i in range(d))) for a in range(l)]
        for i in range(d):
            expected = sum(exps[i][a] * math.log(q[a]) for a in range(l))
            if abs(lam[i] - expected) > 1e-9:
                raise InconsistentLambda(
                    "numeric facet constants disagree with the facet monomials; "
                    "pass the gauge-aligned representative or omit them"
                )
    else:
        lam = None

    return ToricFanoData(
        n=n,
        rays=rays,
        kbasis=tuple(kcols),
        lambda_exponents=exps,
        lambda_numeric=lam,
    )


def kahler_params(data, lambda_numeric):
    """Positive parameters q_a = exp(sum_i Q_ia lambda_i)."""
    lam = [float(x) for x in lambda_numeric]
    return tuple(
        math.exp(sum(data.kbasis[a][i] * lam[i] for i in range(data.d)))
        for a in range(data.l)
    )


def lambda_from_q(data, q_numeric):
    """Numeric facet constants matching the facet monomials at the given q."""
    logs = [math.log(float(x)) for x in q_numeric]
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


def polytope_vertices(data, lambda_numeric):
    """All vertices of {x : <x, v_i> >= lambda_i}, in exact arithmetic.

    Every n-subset of facets with invertible normal matrix is solved over
    the rationals and kept when it satisfies the remaining inequalities.
    Returns a sorted tuple of Fraction n-tuples.
    """
    n, d = data.n, data.d
    u = _unbounded_direction(data.rays, n)
    if u is not None:
        raise UnboundedPolytope(f"direction {u} satisfies every facet inequality")
    lam = [x if isinstance(x, Fraction) else Fraction(x) for x in lambda_numeric]
    if len(lam) != d:
        raise DegeneratePolytope(f"need {d} facet constants")
    vertices = set()
    for subset in itertools.combinations(range(d), n):
        sol = ila.solve(
            [data.rays[i] for i in subset], [lam[i] for i in subset]
        )
        if sol is None:
            continue
        if all(
            sum(sol[j] * data.rays[i][j] for j in range(n)) >= lam[i]
            for i in range(d)
        ):
            vertices.add(tuple(sol))
    if not vertices:
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


def disc_area(data, x, i, lambda_numeric):
    """Area 2*pi*(<x, v_i> - lambda_i) of the basic disc meeting facet i.

    The base point x must lie strictly inside the polytope.
    """
    if not 0 <= i < data.d:
        raise IndexOutOfRange(f"no facet with index {i}")
    lam = [float(v) for v in lambda_numeric]
    pairings = [
        sum(float(x[j]) * data.rays[k][j] for j in range(data.n))
        for k in range(data.d)
    ]
    for k in range(data.d):
        if pairings[k] <= lam[k]:
            raise PointOutsidePolytope(
                f"point lies on or beyond facet {k}: <x,v> = {pairings[k]}, "
                f"lambda = {lam[k]}"
            )
    return 2.0 * math.pi * (pairings[i] - lam[i])
