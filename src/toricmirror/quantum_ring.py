"""Divisor-generated ring presentations and the mirror isomorphism checks.

The ring is presented on divisor generators D_1..D_d by the n linear
relations sum_i v_i^j D_i and by quantum deformations of the monomial
relations.  ``DivisorPolynomial`` is the shared sparse container keyed by
divisor exponents; ``substitute_divisors`` maps it to the mirror by the
disc-class relabeling D^m -> e^{lambda.m} z^{v.m}.  The presentation
is chosen from the fan's data by ``presentation_for``: for products of
projective spaces the quantum relations are computed (one per factor), and
an input with the blowup example's rays, kernel basis and facet monomials
gets that example's built-in relations.  A finite-dimensional
quotient model is built at exact rational q: one row reduction of the linear
relations writes every divisor variable as a linear form in the free ones,
and a reduced Groebner basis of the quantum relations in those variables
gives the standard monomials.  Multiplication spectra on that model are
compared with point evaluations at the critical points of the superpotential.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

import numpy as np

from . import _intlinalg as ila
from .disc_algebra import (
    QLaurent,
    SparseTerms,
    add_into,
    class_columns,
    class_key,
    flat_json,
    group_classes,
    nonnegative_key,
    product,
)
from .errors import (
    ClassNotReducible,
    DimensionUnstable,
    EmptyQuotient,
    NotAProduct,
)
from .fixtures import blowup_p2
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

    _key = staticmethod(nonnegative_key)

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


def _blowup_relations(l):
    """The blowup example's quantum relations, in its fixture's kernel basis."""
    one = QLaurent.constant(1, l)
    q1 = QLaurent.monomial((1, 0))
    q2 = QLaurent.monomial((0, 1))
    return (
        # D1*D3 - q1*D4
        DivisorPolynomial([((1, 0, 1, 0), one), ((0, 0, 0, 1), q1.scale(-1))]),
        # D2*D4 - q2
        DivisorPolynomial([((0, 1, 0, 1), one), ((0, 0, 0, 0), q2.scale(-1))]),
    )


def _lattice_data(data):
    return data.rays, data.kbasis, data.lambda_exponents


def presentation_for(data, factorization=None):
    """Ring presentation chosen from the fan's data.

    A product fan gets its computed quantum relations.  An input whose rays,
    kernel basis and facet monomials equal the blowup example's gets that
    example's built-in relations (``lambda_numeric`` is not compared: it
    only fixes a numeric representative).  Anything else raises NotAProduct.
    """
    if factorization is None:
        factorization = product_structure(data)
    if factorization is not None:
        quantum, provenance = quantum_sr_ideal(data, factorization), "computed-product"
    elif _lattice_data(data) == _lattice_data(blowup_p2()):
        quantum, provenance = _blowup_relations(data.l), "builtin-example"
    else:
        raise NotAProduct(
            "no ring presentation available: the fan is not a product of "
            "projective-space fans and its rays, kernel basis and facet "
            "monomials are not those of the builtin blowup example"
        )
    return RingPresentation(
        d=data.d,
        linear_gens=tuple(linear_ideal(data)),
        quantum_gens=tuple(quantum),
        provenance=provenance,
    )


def substitute_divisors(p, data):
    """Image of a divisor polynomial under D_i -> e^{lambda_i} z^{v_i}."""
    columns = class_columns(data)
    pad = (0,) * data.n
    pairs = []
    for m, coeff in p.terms.items():
        key = class_key(columns, m)
        pairs.extend((tuple(map(add, key, pad + e)), c) for e, c in coeff.terms.items())
    return ZLaurent._wrap(group_classes(pairs, data.n))


# --- exact quotient model --------------------------------------------------

def _grevlex(m):
    """Sort key of the graded reverse lexicographic monomial order."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monic(p):
    """Plain dict -> (leading monomial, tail divided by the leading coefficient)."""
    lead = max(p, key=_grevlex)
    return lead, {m: v / p[lead] for m, v in p.items() if m != lead}


def _remainder(p, basis):
    """Remainder of the plain dict p on division by monic (lead, tail) pairs."""
    p, out = dict(p), {}
    while p:
        m = max(p, key=_grevlex)
        c = p.pop(m)
        for a, tail in basis:
            if _divides(a, m):
                add_into(p, product({tuple(map(sub, m, a)): -c}, tail).items())
                break
        else:
            out[m] = c
    return out


def groebner_basis(gens):
    """Reduced grevlex Groebner basis, as monic (lead, tail) pairs, leads ascending.

    Buchberger's algorithm on plain dicts: the pair with the smallest lcm goes
    first, and pairs with coprime leads are skipped (product criterion).
    """
    basis, pairs = [], []

    def insert(p):
        lead, tail = _monic(p)
        for i, (a, _) in enumerate(basis):
            lcm = tuple(map(max, a, lead))
            if lcm != tuple(map(add, a, lead)):
                heapq.heappush(pairs, (_grevlex(lcm), i, len(basis), lcm))
        basis.append((lead, tail))

    for g in filter(None, gens):
        insert(g)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        (a, ta), (b, tb) = basis[i], basis[j]
        spoly = add_into(
            product({tuple(map(sub, lcm, a)): Fraction(1)}, ta),
            product({tuple(map(sub, lcm, b)): Fraction(-1)}, tb).items(),
        )
        rem = _remainder(spoly, basis)
        if rem:
            insert(rem)
    minimal = []
    for lead, tail in sorted(basis, key=lambda g: _grevlex(g[0])):
        if not any(_divides(a, lead) for a, _ in minimal):
            minimal.append((lead, tail))
    return [(lead, _remainder(tail, minimal)) for lead, tail in minimal]


class QuotientModel:
    """Finite-dimensional model of the quotient by linear + quantum relations.

    Built by eliminating the linear relations exactly and computing a reduced
    grevlex Groebner basis of the quantum ones at exact rational q.  The basis
    is the set of standard monomials in the remaining l divisor variables.
    """

    def __init__(self, basis, free_indices, forms, groebner, qvals):
        self.basis = basis                  # ascending graded monomials
        self.free_indices = free_indices    # ray indices kept as variables
        self.forms = forms                  # per ray, a linear form in the free variables
        self.groebner = groebner            # reduced basis, monic (lead, tail) pairs
        self.qvals = qvals
        self.degree_cap = max((sum(a) for a, _ in groebner), default=0)
        self.l = len(free_indices)

    @property
    def dim(self):
        return len(self.basis)

    def reduce_divisor_poly(self, p):
        """Divisor polynomial -> polynomial in the free variables at fixed q."""
        return _eliminate(p, self.forms, self.qvals, self.l)

    def normal_form(self, poly):
        """Reduce a free-variable polynomial to its basis representative."""
        return _remainder(poly, self.groebner)

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


def _linear_substitution(linear_gens, d):
    """Solve the linear relations for a pivot set of divisor variables.

    One rref of the n x d relation matrix: its pivot columns are the
    lexicographically first basis.  Returns the free ray indices and, per
    ray, its linear form in the free variables as a plain term dict.
    """
    rows = [[Fraction(0)] * d for _ in linear_gens]
    for j, g in enumerate(linear_gens):
        for m, coeff in g.terms.items():
            if sum(m) != 1:
                raise ValueError("linear generators must be homogeneous of degree 1")
            entries = list(coeff.terms.items())
            if len(entries) != 1 or any(entries[0][0]):
                raise ValueError("linear generators must have constant coefficients")
            rows[j][m.index(1)] = entries[0][1]
    pivots = ila.rref(rows, d)
    if len(pivots) < len(rows):
        raise ValueError("linear relations do not have full rank")
    free = tuple(i for i in range(d) if i not in pivots)
    units = [tuple(int(s == t) for t in range(len(free))) for s in range(len(free))]
    forms = [None] * d
    for s, ray in enumerate(free):
        forms[ray] = {units[s]: Fraction(1)}
    for row, ray in zip(rows, pivots):
        # D_ray = -sum_s row[free[s]] D_free[s]
        forms[ray] = {units[s]: -row[i] for s, i in enumerate(free) if row[i]}
    return free, tuple(forms)


def _eliminate(p, forms, qvals, l):
    """Divisor polynomial -> plain dict in the l free variables at exact q."""
    out = {}
    for m, coeff in p.terms.items():
        c = coeff.evaluate_exact(qvals)
        if not c:
            continue
        acc = {(0,) * l: c}
        for ray, power in enumerate(m):
            for _ in range(power):
                acc = product(acc, forms[ray])
        add_into(out, acc.items())
    return out


def quotient_model(pres, q_rational):
    """Build the finite-dimensional quotient model at exact rational q.

    Certified by the Groebner basis: a constant in it raises EmptyQuotient, a
    variable without a pure-power leading monomial raises DimensionUnstable.
    """
    qvals = tuple(Fraction(x) for x in q_rational)
    free, forms = _linear_substitution(pres.linear_gens, pres.d)
    l = len(free)
    groebner = groebner_basis(_eliminate(g, forms, qvals, l) for g in pres.quantum_gens)
    leads = [lead for lead, _ in groebner]
    if leads and not any(leads[0]):  # the ascending basis starts at 1
        raise EmptyQuotient("quotient ring is zero at this q")
    for s in range(l):
        if not any(lead[s] and sum(lead) == lead[s] for lead in leads):
            raise DimensionUnstable("quotient is positive-dimensional: no leading "
                                    f"monomial is a pure power of free variable {s}")
    # the standard monomials form an order ideal, finite by the check above
    standard, frontier = set(), [(0,) * l]
    while frontier:
        m = frontier.pop()
        if m in standard or any(_divides(lead, m) for lead in leads):
            continue
        standard.add(m)
        frontier.extend(tuple(e + (s == t) for t, e in enumerate(m)) for s in range(l))
    basis = tuple(sorted(standard, key=lambda m: (sum(m), m)))
    return QuotientModel(basis, free, forms, tuple(groebner), qvals)


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

IDEAL_TOL = 1e-8     # largest residual of a quantum generator at a critical point
SPECTRAL_TOL = 1e-6  # largest distance between matched eigenvalue and point value


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


def verify_isomorphism(data, pres, q_numeric, seed=0, solver=None):
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

    model = quotient_model(pres, qfr)
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
            bool(worst_ideal <= IDEAL_TOL),
            {"max_residual": float(worst_ideal), "tolerance": IDEAL_TOL},
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
            bool(worst_spectral <= SPECTRAL_TOL),
            {"max_distance": float(worst_spectral), "tolerance": SPECTRAL_TOL},
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
