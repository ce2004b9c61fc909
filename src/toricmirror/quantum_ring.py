"""Divisor-generated ring presentations and the mirror isomorphism checks.

The ring is presented on divisor generators D_1..D_d by the n linear
relations sum_i v_i^j D_i and by quantum deformations of the monomial
relations.  ``DivisorPolynomial`` is the shared sparse container keyed by
divisor exponents; ``substitute_divisors`` maps it to the mirror by the
disc-class relabeling D^m -> e^{lambda.m} z^{v.m}.  For products of
projective spaces the quantum relations are computed (one per factor); the
blowup example ships as a built-in presentation.  A finite-dimensional
quotient model is built at rational q by eliminating the linear relations
and row-reducing the Macaulay matrix of the quantum ones, both with
``_intlinalg.rref``, and multiplication spectra on that model are compared
with point evaluations at the critical points of the superpotential.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _intlinalg as ila
from .disc_algebra import (
    QLaurent,
    SparseTerms,
    add_into,
    boundary_class,
    flat_json,
    iter_disc_classes,
    product,
    q_monomial_exponents,
)
from .errors import (
    ClassNotReducible,
    DimensionUnstable,
    EmptyQuotient,
    NotAProduct,
    UnknownExample,
)
from .lg_model import (
    SolverConfig,
    critical_points,
    evaluate_at_critical,
    jacobian_generators,
    superpotential,
)
from .syz_transform import ZLaurent
from .toric_core import vertex_count_reference


class DivisorPolynomial(SparseTerms):
    """Sparse polynomial in the divisor generators with QLaurent coefficients."""

    __slots__ = ()

    @staticmethod
    def _key(exps):
        key = tuple(int(e) for e in exps)
        if any(e < 0 for e in key):
            raise ValueError("divisor exponents must be nonnegative")
        return key

    @classmethod
    def variable(cls, d, i, l):
        m = tuple(1 if j == i else 0 for j in range(d))
        return cls({m: QLaurent.constant(1, l)})

    def to_json(self):
        return flat_json(self.terms, "divisor_exponents")


def linear_ideal(data):
    """Generators sum_i v_i^j D_i of the linear-equivalence ideal, j = 1..n."""
    gens = []
    for j in range(data.n):
        gens.append(
            DivisorPolynomial(
                [
                    (
                        tuple(1 if t == i else 0 for t in range(data.d)),
                        QLaurent.constant(data.rays[i][j], data.l),
                    )
                    for i in range(data.d)
                    if data.rays[i][j]
                ]
            )
        )
    return gens


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


def quantum_sr_ideal(data, factorization):
    """One quantum monomial relation per factor: prod_j D_{j,a} - q^{delta_a}."""
    if factorization is None:
        raise NotAProduct("fan is not a product of projective-space fans")
    gens = []
    for block in factorization.factors:
        mono = [0] * data.d
        for i in block.ray_indices:
            mono[i] = 1
        gens.append(
            DivisorPolynomial(
                [
                    (tuple(mono), QLaurent.constant(1, data.l)),
                    ((0,) * data.d, QLaurent.monomial(block.q_exponents, -1)),
                ]
            )
        )
    return gens


@dataclass(frozen=True)
class RingPresentation:
    d: int
    linear_gens: tuple
    quantum_gens: tuple
    provenance: str  # "computed-product" | "builtin-example"


def presentation_for(data, factorization=None):
    """Computed presentation for a product fan."""
    if factorization is None:
        factorization = product_structure(data)
    gens = quantum_sr_ideal(data, factorization)
    return RingPresentation(
        d=data.d,
        linear_gens=tuple(linear_ideal(data)),
        quantum_gens=tuple(gens),
        provenance="computed-product",
    )


def builtin_presentation(name):
    """Registered presentation for a non-product example."""
    if name != "BlP2":
        raise UnknownExample(f"no builtin presentation named {name!r}")
    from .fixtures import blowup_p2

    data = blowup_p2()
    one = QLaurent.constant(1, data.l)
    q1 = QLaurent.monomial((1, 0))
    q2 = QLaurent.monomial((0, 1))
    quantum = (
        # D1*D3 - q1*D4
        DivisorPolynomial([((1, 0, 1, 0), one), ((0, 0, 0, 1), q1.scale(-1))]),
        # D2*D4 - q2
        DivisorPolynomial([((0, 1, 0, 1), one), ((0, 0, 0, 0), q2.scale(-1))]),
    )
    return RingPresentation(
        d=data.d,
        linear_gens=tuple(linear_ideal(data)),
        quantum_gens=quantum,
        provenance="builtin-example",
    )


def substitute_divisors(p, data):
    """Image of a divisor polynomial under D_i -> e^{lambda_i} z^{v_i}."""
    return ZLaurent._wrap(add_into({}, (
        (boundary_class(data, m),
         coeff * QLaurent.monomial(q_monomial_exponents(data, m)))
        for m, coeff in p.terms.items()
    )))


# --- exact quotient model --------------------------------------------------

def _graded_monomials(nvars, cap):
    return sorted(iter_disc_classes(nvars, cap), key=lambda m: (sum(m), m))


class QuotientModel:
    """Finite-dimensional model of the quotient by linear + quantum relations.

    Built by eliminating the linear relations exactly and row-reducing the
    Macaulay matrix of the quantum relations at exact rational q.  The basis
    is the set of standard monomials in the remaining l divisor variables.
    """

    def __init__(self, basis, free_indices, substitution, pivot_rows,
                 qvals, degree_cap, l):
        self.basis = basis                  # ascending graded monomials
        self.free_indices = free_indices    # ray indices kept as variables
        self.substitution = substitution    # pivot ray index -> {free pos: Fraction}
        self._pivot_rows = pivot_rows       # pivot monomial -> {nonpivot mono: Fraction}
        self.qvals = qvals
        self.degree_cap = degree_cap        # reductions valid through this degree
        self.l = l

    @property
    def dim(self):
        return len(self.basis)

    def reduce_divisor_poly(self, p):
        """Divisor polynomial -> polynomial in the free variables at fixed q."""
        nfree = len(self.free_indices)
        pos = {ray: s for s, ray in enumerate(self.free_indices)}
        out = {}
        for m, coeff in p.terms.items():
            c = coeff.evaluate_exact(self.qvals)
            if not c:
                continue
            acc = {(0,) * nfree: c}
            for ray, power in enumerate(m):
                if not power:
                    continue
                if ray in pos:
                    form = {tuple(1 if s == pos[ray] else 0 for s in range(nfree)): Fraction(1)}
                else:
                    form = {
                        tuple(1 if s == t else 0 for s in range(nfree)): v
                        for t, v in self.substitution[ray].items()
                        if v
                    }
                for _ in range(power):
                    acc = product(acc, form)
            add_into(out, acc.items())
        return out

    def normal_form(self, poly):
        """Reduce a free-variable polynomial to its basis representative."""
        out = {}
        for m, c in poly.items():
            if sum(m) > self.degree_cap:
                raise ClassNotReducible(
                    f"monomial of degree {sum(m)} exceeds the degree cap "
                    f"{self.degree_cap}"
                )
            row = self._pivot_rows.get(m)
            if row is None:
                add_into(out, ((m, c),))
            else:
                add_into(out, ((k, -c * v) for k, v in row.items()))
        return out

    def multiplication_matrix(self, p):
        """Exact matrix of multiplication by p on the quotient basis."""
        reduced = self.reduce_divisor_poly(p)
        index = {m: r for r, m in enumerate(self.basis)}
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for col, b in enumerate(self.basis):
            nf = self.normal_form(product(reduced, {b: Fraction(1)}))
            for m, c in nf.items():
                if m not in index:
                    raise ClassNotReducible("normal form left the basis span")
                mat[index[m]][col] = c
        return mat


def _macaulay_reduction(gens, nvars, cap):
    """Pivot rows and standard monomials of the degree-<=cap Macaulay slice."""
    monomials = _graded_monomials(nvars, cap)
    # column order: largest monomial first, so pivots are leading monomials
    order = list(reversed(monomials))
    col_of = {m: c for c, m in enumerate(order)}
    rows = []
    for g in gens:
        gdeg = max(sum(m) for m in g)
        for mult in iter_disc_classes(nvars, cap - gdeg):
            prod = product({tuple(mult): Fraction(1)}, g)
            row = [Fraction(0)] * len(order)
            for m, c in prod.items():
                row[col_of[m]] = c
            rows.append(row)
    pivot_cols = ila.rref(rows, len(order))
    pivot_rows = {}
    for r, col in enumerate(pivot_cols):
        rest = {}
        for c2 in range(col + 1, len(order)):
            if rows[r][c2]:
                rest[order[c2]] = rows[r][c2]
        pivot_rows[order[col]] = rest
    basis = [m for m in monomials if m not in pivot_rows]
    return pivot_rows, basis


def _linear_substitution(linear_gens, d):
    """Solve the linear relations for a pivot set of divisor variables."""
    n = len(linear_gens)
    vmat = [[Fraction(0)] * d for _ in range(n)]
    for j, g in enumerate(linear_gens):
        for m, coeff in g.terms.items():
            if sum(m) != 1:
                raise ValueError("linear generators must be homogeneous of degree 1")
            entries = list(coeff.terms.items())
            if len(entries) != 1 or any(entries[0][0]):
                raise ValueError("linear generators must have constant coefficients")
            vmat[j][m.index(1)] = entries[0][1]
    for pivots in itertools.combinations(range(d), n):
        sub = [[vmat[r][c] for c in pivots] for r in range(n)]
        inv = ila.inverse(sub)
        if inv is None:
            continue
        free = tuple(i for i in range(d) if i not in pivots)
        substitution = {}
        for r, ray in enumerate(pivots):
            # D_ray = -sum_s (Vp^-1 Vf)[r][s] D_free[s]
            substitution[ray] = {
                s: -sum(inv[r][k] * vmat[k][free[s]] for k in range(n))
                for s in range(len(free))
            }
        return free, substitution
    raise ValueError("linear relations do not have full rank")


def quotient_model(pres, q_rational, degree_cap=None):
    """Build the finite-dimensional quotient model at exact rational q.

    The dimension must agree between consecutive degree caps; on a mismatch
    the cap is doubled once before giving up with DimensionUnstable.
    """
    qvals = tuple(Fraction(x) for x in q_rational)
    free, substitution = _linear_substitution(pres.linear_gens, pres.d)
    l = len(free)
    eliminator = QuotientModel((), free, substitution, {}, qvals, 0, l)
    gens = []
    for g in pres.quantum_gens:
        reduced = eliminator.reduce_divisor_poly(g)
        if reduced:
            gens.append(reduced)
    # with no surviving relations the standard monomials grow without bound
    # and the stability loop below reports that honestly
    max_gdeg = max((max(sum(m) for m in g) for g in gens), default=0)
    cap = degree_cap if degree_cap is not None else len(pres.linear_gens) + 2
    cap = max(cap, max_gdeg)
    for attempt in (cap, 2 * cap):
        _, basis_small = _macaulay_reduction(gens, l, attempt)
        pivot_rows, basis_big = _macaulay_reduction(gens, l, attempt + 1)
        if basis_big == basis_small:
            if not basis_small:
                raise EmptyQuotient("quotient ring is zero at this q")
            return QuotientModel(
                basis=tuple(basis_small),
                free_indices=free,
                substitution=substitution,
                pivot_rows=pivot_rows,
                qvals=qvals,
                degree_cap=attempt + 1,
                l=l,
            )
    raise DimensionUnstable(
        f"standard monomials do not stabilize by degree cap {2 * cap}"
    )


def multiplication_spectrum(model, p):
    """Eigenvalues (with multiplicity) of multiplication by p on the model."""
    mat = model.multiplication_matrix(p)
    arr = np.array([[float(v) for v in row] for row in mat])
    eig = [complex(v) for v in np.linalg.eigvals(arr)]
    return sorted(eig, key=lambda zc: (zc.real, zc.imag))


def match_multisets(left, right):
    """Greedy minimal-distance pairing; returns the largest matched distance."""
    if len(left) != len(right):
        return float("inf")
    remaining = list(right)
    worst = 0.0
    for a in sorted(left, key=lambda zc: (zc.real, zc.imag)):
        best = min(range(len(remaining)), key=lambda k: abs(a - remaining[k]))
        worst = max(worst, abs(a - remaining.pop(best)))
    return worst


# --- full verification -------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict


@dataclass
class VerificationReport:
    checks: list
    dim: int
    point_count: int
    provenance: str
    spectra: dict = None
    critical_points: object = None

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def verify_isomorphism(data, pres, q_numeric, seed=0, degree_cap=None,
                       solver=None, spectral_tol=1e-6, ideal_tol=1e-8):
    """Three-part consistency check between the ring model and the mirror.

    (a) the linear generators map exactly onto the logarithmic derivatives of
    the superpotential; (b) the quantum generators vanish at every critical
    point, both as exact Laurent images and after elimination; (c) for every
    divisor class the multiplication spectrum on the quotient model matches
    the multiset of monomial values at the critical points, and the model
    dimension equals the critical-point count.
    """
    qfr = [x if isinstance(x, Fraction) else Fraction(str(x)) for x in q_numeric]
    qfl = [float(x) for x in qfr]
    w = superpotential(data)
    checks = []

    jac = jacobian_generators(w)
    syntactic = all(
        substitute_divisors(g, data) == jac[j]
        for j, g in enumerate(pres.linear_gens)
    )
    checks.append(
        CheckResult(
            "linear-generators-map-to-log-derivatives",
            syntactic,
            {"generators": len(pres.linear_gens)},
        )
    )

    model = quotient_model(pres, qfr, degree_cap)
    expected = vertex_count_reference(data)
    if solver is None:
        solver = SolverConfig(expected_count=expected, seed=seed)
    cps = critical_points(w, qfl, solver)

    residuals = []
    for g in pres.quantum_gens:
        image = substitute_divisors(g, data)
        residuals.extend(abs(v) for v in evaluate_at_critical(image, cps, qfl))
        reduced = model.reduce_divisor_poly(g)
        for point_values in cps.monomial_values:
            val = 0 + 0j
            for m, c in reduced.items():
                mono = complex(c)
                for s, e in enumerate(m):
                    mono *= point_values[model.free_indices[s]] ** e
                val += mono
            residuals.append(abs(val))
    worst_ideal = max(residuals, default=0.0)
    checks.append(
        CheckResult(
            "quantum-generators-vanish-at-critical-points",
            bool(worst_ideal <= ideal_tol),
            {"max_residual": float(worst_ideal), "tolerance": ideal_tol},
        )
    )

    dims_ok = model.dim == len(cps) == expected
    checks.append(
        CheckResult(
            "dimension-equals-critical-point-count",
            dims_ok,
            {"dim": model.dim, "points": len(cps), "vertices": expected},
        )
    )

    spectra = {}
    worst_spectral = 0.0
    for i in range(data.d):
        cls = DivisorPolynomial.variable(data.d, i, data.l)
        eig = multiplication_spectrum(model, cls)
        evals = [mv[i] for mv in cps.monomial_values]
        dist = match_multisets(eig, evals)
        worst_spectral = max(worst_spectral, dist)
        spectra[i] = {"eigenvalues": eig, "point_values": sorted(
            evals, key=lambda zc: (zc.real, zc.imag))}
    checks.append(
        CheckResult(
            "multiplication-spectra-match-point-evaluations",
            bool(worst_spectral <= spectral_tol),
            {"max_distance": float(worst_spectral), "tolerance": spectral_tol},
        )
    )

    return VerificationReport(
        checks=checks,
        dim=model.dim,
        point_count=len(cps),
        provenance=pres.provenance,
        spectra=spectra,
        critical_points=cps,
    )
