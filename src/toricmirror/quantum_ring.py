"""Divisor-generated ring presentations and the mirror isomorphism checks.

The ring is presented on divisor generators D_1..D_d by the n linear
relations sum_i v_i^j D_i and by quantum deformations of the monomial
relations.  ``DivisorPolynomial`` is the shared sparse container keyed by
divisor exponents; ``substitute_divisors`` maps it to the mirror by the
disc-class relabeling D^m -> e^{lambda.m} z^{v.m}, and ``relations_match``
decides exactly whether it sends the linear generators to the logarithmic
derivatives of the superpotential and the quantum ones to 0.  The presentation
is chosen from the fan's data by ``presentation_for``: for products of
projective spaces, which ``toric_core.product_structure`` detects, the
quantum relations are computed (one per factor), and an input with the
blowup example's rays, kernel basis and facet monomials gets that example's
built-in relations.  One finite-dimensional quotient model per presentation
is built over Q[q^{+-1}] and kept: one row reduction of the linear relations
writes every divisor variable as a linear form in the free ones, and a reduced
Groebner basis of the quantum relations in those variables, monic over units
a q^beta, gives the standard monomials and a sparse operator per free
variable.  QH* is a flat deformation of H*, so that basis serves every q, and
``verify_isomorphism`` only evaluates the model at its q: the divisors'
matrices as one float stack, whose spectra are compared with point
evaluations at the critical points of W and whose common eigenvectors are
where Newton starts its search for those points.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub
from types import SimpleNamespace

from . import _intlinalg as ila
from .disc_algebra import (QLaurent, SparseTerms, add_into, class_codec, facet_rows, nest,
                           nonnegative_key, product)
from .errors import (DimensionUnstable, EmptyQuotient, NonUnitLeadingCoefficient,
                     NotAProduct)
from .fixtures import fixture
from .lg_model import (
    SolverConfig,
    critical_points,
    jacobian_generators,
    superpotential,
)
from .syz_transform import ZLaurent
from .toric_core import product_structure, q_vector, vertex_count_reference


class DivisorPolynomial(SparseTerms):
    """Sparse polynomial in the divisor generators with QLaurent coefficients."""

    __slots__ = ()

    _key = staticmethod(nonnegative_key)

    @classmethod
    def variable(cls, d, i, l):
        m = tuple(1 if j == i else 0 for j in range(d))
        return cls({m: QLaurent.constant(1, l)})


def linear_ideal(data):
    """Generators sum_i v_i^j D_i of the linear-equivalence ideal, j = 1..n."""
    return [
        DivisorPolynomial([(tuple(int(t == i) for t in range(data.d)),
                            QLaurent.constant(v[j], data.l))
                           for i, v in enumerate(data.rays) if v[j]])
        for j in range(data.n)
    ]


def quantum_sr_ideal(data, factorization):
    """One quantum monomial relation per factor: prod_j D_{j,a} - q^{delta_a}."""
    if factorization is None:
        raise NotAProduct("fan is not a product of projective-space fans")
    return [
        DivisorPolynomial([
            (tuple(int(i in block.ray_indices) for i in range(data.d)),
             QLaurent.constant(1, data.l)),
            ((0,) * data.d, QLaurent.monomial(block.q_exponents, -1)),
        ])
        for block in factorization.factors
    ]


@dataclass(frozen=True)
class RingPresentation:
    d: int
    linear_gens: tuple
    quantum_gens: tuple
    provenance: str  # "computed-product" | "builtin-example"


def _blowup_relations(l):
    """The blowup example's quantum relations, in its fixture's kernel basis."""
    one = QLaurent.constant(1, l)
    minus_q1, minus_q2 = QLaurent.monomial((1, 0), -1), QLaurent.monomial((0, 1), -1)
    return (
        DivisorPolynomial([((1, 0, 1, 0), one), ((0, 0, 0, 1), minus_q1)]),  # D1*D3 - q1*D4
        DivisorPolynomial([((0, 1, 0, 1), one), ((0, 0, 0, 0), minus_q2)]),  # D2*D4 - q2
    )


def presentation_for(data, factorization=None):
    """Ring presentation chosen from the fan's data.

    A product fan gets its computed quantum relations.  An input whose rays,
    kernel basis and facet monomials equal the blowup example's gets that
    example's built-in relations.  Anything else raises NotAProduct.
    """
    if factorization is None:
        factorization = product_structure(data)
    if factorization is not None:
        quantum, provenance = quantum_sr_ideal(data, factorization), "computed-product"
    elif data == fixture("BlP2"):
        quantum, provenance = _blowup_relations(data.l), "builtin-example"
    else:
        raise NotAProduct("no ring presentation available: the fan is not a product of "
                          "projective-space fans and its rays, kernel basis and facet "
                          "monomials are not those of the builtin blowup example")
    return RingPresentation(data.d, tuple(linear_ideal(data)), tuple(quantum), provenance)


def substitute_divisors(p, data):
    """Image of a divisor polynomial under D_i -> e^{lambda_i} z^{v_i}."""
    # a term q^e D^m keys as m [v | E] + [0 | e]: a class of total |m| + 1
    # over the rows [v_i | E_i] and [0 | e]
    pad = (0,) * data.n
    es = list({e for c in p.terms.values() for e in c.terms})
    fields, base, rows = class_codec(facet_rows(data) + [pad + e for e in es],
                                     max(map(sum, p.terms), default=0) + 1)
    shift = dict(zip(es, rows[data.d:]))
    pairs = []
    for m, coeff in p.terms.items():
        key = sum(map(mul, m, rows)) + base
        pairs.extend((key + shift[e], c) for e, c in coeff.terms.items())
    return ZLaurent._wrap(nest(add_into({}, pairs).items(), fields, data.n, QLaurent))


def relations_match(data, pres, w):
    """(linear_ok, quantum_ok): the exact half of the mirror check.

    Under D_i -> e^{lambda_i} z^{v_i} the j-th linear generator must map onto
    z_j dW/dz_j of the superpotential ``w``, and every quantum generator to 0.
    """
    linear = [substitute_divisors(g, data) for g in pres.linear_gens]
    quantum_ok = not any(substitute_divisors(g, data) for g in pres.quantum_gens)
    return linear == jacobian_generators(w), quantum_ok


# --- quotient model over Q[q^{+-1}] ----------------------------------------------

def _grevlex(m):
    """Sort key of the graded reverse lexicographic monomial order."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monic(p):
    """Plain dict -> (leading monomial, tail divided by the leading coefficient).

    A QLaurent coefficient must be a unit a q^beta, whose inverse is (1/a) q^-beta."""
    lead = max(p, key=_grevlex)
    c = p[lead]
    if not isinstance(c, QLaurent):
        inverse = 1 / c
    elif len(c.terms) == 1:
        ((beta, a),) = c.terms.items()
        inverse = QLaurent._wrap({tuple(-b for b in beta): 1 / a})
    else:
        raise NonUnitLeadingCoefficient(f"leading coefficient {c!r} is not a unit a*q^beta")
    return lead, {m: v * inverse for m, v in p.items() if m != lead}


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

    Its coefficients are QLaurent (``_laurent_model``) or rational (``at`` q).
    The basis is the set of standard monomials in the l free divisor variables.
    Multiplication by each free variable is a tuple of sparse {row: c} columns;
    every other operator is a polynomial in those, applied exactly.
    """

    def __init__(self, basis, free_indices, forms, groebner, operators, qvals=None):
        self.basis = basis                  # ascending graded monomials
        self.free_indices = free_indices    # ray indices kept as variables
        self.forms = forms                  # per ray, a linear form in the free variables
        self.groebner = groebner            # reduced basis, monic (lead, tail) pairs
        self.operators = operators          # per free variable, per column
        self.qvals = qvals                  # the rational q, or None over Q[q^{+-1}]
        self.degree_cap = max((sum(a) for a, _ in groebner), default=0)
        self.l = len(free_indices)

    @property
    def dim(self):
        return len(self.basis)

    def at(self, qvals):
        """This model at exact rational q: every coefficient evaluated."""
        def value(terms):
            return {k: x for k, c in terms.items() if (x := c.evaluate_exact(qvals))}

        return QuotientModel(
            self.basis, self.free_indices, tuple(map(value, self.forms)),
            tuple((lead, value(tail)) for lead, tail in self.groebner),
            tuple(tuple(map(value, op)) for op in self.operators), qvals)

    def reduce_divisor_poly(self, p):
        """Divisor polynomial -> polynomial in the free variables (at q, if set)."""
        return _eliminate(p, self.forms, self.qvals, self.l)

    def normal_form(self, poly):
        """Reduce a free-variable polynomial to its basis representative."""
        return _remainder(poly, self.groebner)

    def multiplication_entries(self, p):
        """Nonzero entries {(row, col): c} of multiplication by p on the basis."""
        reduced, entries = self.reduce_divisor_poly(p), {}
        for col in range(self.dim):
            acc = {}
            for m, c in reduced.items():
                vec = {col: c}
                for s, e in enumerate(m):
                    for _ in range(e):
                        vec = _apply(self.operators[s], vec)
                add_into(acc, vec.items())
            entries.update(((row, col), c) for row, c in acc.items() if c)
        return entries


def _apply(operator, vec):
    """Sparse column maps applied to a sparse {index: coefficient} vector."""
    out = {}
    for k, c in vec.items():
        add_into(out, ((row, c * x) for row, x in operator[k].items()))
    return out


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
    """Divisor polynomial -> plain dict in the l free variables, at q unless None."""
    out = {}
    for m, coeff in p.terms.items():
        c = coeff if qvals is None else coeff.evaluate_exact(qvals)
        if not c:
            continue
        acc = {(0,) * l: c}
        for ray, power in enumerate(m):
            for _ in range(power):
                acc = product(acc, forms[ray])
        add_into(out, acc.items())
    return out


@functools.lru_cache(maxsize=64)
def _laurent_model(pres):
    """The quotient model over Q[q^{+-1}], kept for the last 64 presentations.

    Its linear forms are QLaurent constants.  Certified by the Groebner basis:
    a constant in it raises EmptyQuotient, a variable without a pure-power
    leading monomial raises DimensionUnstable.
    """
    free, forms = _linear_substitution(pres.linear_gens, pres.d)
    l = len(free)
    forms = tuple({k: QLaurent.constant(c, l) for k, c in f.items()} for f in forms)
    groebner = groebner_basis(_eliminate(g, forms, None, l) for g in pres.quantum_gens)
    leads = [lead for lead, _ in groebner]
    if leads and not any(leads[0]):  # the ascending basis starts at 1
        raise EmptyQuotient("quotient ring is zero at every q")
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
    index, one = {m: r for r, m in enumerate(basis)}, QLaurent.constant(1, l)

    def column(monomial):
        # a remainder's monomials are divisible by no lead, so each is standard
        return {index[m]: c for m, c in _remainder({monomial: one}, groebner).items()}

    operators = tuple(tuple(column(tuple(e + (s == t) for t, e in enumerate(b)))
                            for b in basis) for s in range(l))
    return QuotientModel(basis, free, forms, tuple(groebner), operators)


def quotient_model(pres, q_rational):
    """The presentation's model over Q[q^{+-1}] (``_laurent_model``) at rational q."""
    qvals = q_vector(map(Fraction, q_rational), pres.d - len(pres.linear_gens))
    return _laurent_model(pres).at(qvals)


@functools.lru_cache(maxsize=64)
def _ring_model(data, pres):
    """verify_isomorphism's q-free work, kept for the last 64 inputs: W,
    relations_match's pair, the expected point count, the unimodular chart, the
    Laurent model, and each D_i's entries and each reduced quantum generator's
    terms indexing one list of distinct QLaurents.
    """
    w, model = superpotential(data), _laurent_model(pres)
    index = {}
    slots = [(i, row, col, index.setdefault(c, len(index))) for i in range(pres.d)
             for (row, col), c in model.multiplication_entries(
                 DivisorPolynomial.variable(pres.d, i, model.l)).items()]
    reduced = tuple([(m, index.setdefault(c, len(index))) for m, c in
                     model.reduce_divisor_poly(g).items()] for g in pres.quantum_gens)
    return SimpleNamespace(w=w, match=relations_match(data, pres, w), model=model,
                           expected=vertex_count_reference(data), chart=_unimodular_chart(data),
                           slots=tuple(map(list, zip(*slots))), values=tuple(index),
                           reduced=reduced)


def _spectra(mats):  # the sorted eigenvalues of each matrix, from one eigvals call
    import numpy as np

    return [sorted(map(complex, eig), key=lambda zc: (zc.real, zc.imag))
            for eig in np.linalg.eigvals(mats)]


def multiplication_spectrum(model, p):
    """Eigenvalues (with multiplicity) of multiplication by p on the model at q."""
    import numpy as np

    mat = np.zeros((1, model.dim, model.dim))
    for (row, col), c in model.multiplication_entries(p).items():
        mat[0, row, col] = c.numerator / c.denominator  # what float(c) computes
    return _spectra(mat)[0]


def _unimodular_chart(data):
    """The first n rays whose matrix has an integer inverse, with that inverse (or None)."""
    for subset in map(list, combinations(range(data.d), data.n)):
        if (inv := ila.unimodular_inverse([data.rays[i] for i in subset])) is not None:
            return subset, inv


def _eigenvector_starts(data, chart, mats, q_numeric):
    """Log-coordinate Newton starts, one per left eigenvector v of sum_i w_i D_i.

    v holds the basis monomials' values at a point and basis[0] = 1, so term i
    is t_i = (D_i 1).v / v[0]; u solves through the chart (``_unimodular_chart``).
    """
    import numpy as np

    subset, inv = chart
    vecs = np.linalg.eig(np.tensordot(np.arange(2, data.d + 2) ** -0.5, mats, 1).T)[1] + 0j
    log_c = np.array(data.lambda_exponents, dtype=float)[subset] @ np.log(q_numeric)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log(mats[subset, :, 0] @ vecs / vecs[0])         # (n, dim)
        return (np.array(inv) @ (log_t - log_c[:, None])).T


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
    spectra: dict = None
    critical_points: object = None

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def verify_isomorphism(data, pres, q_numeric, seed=0):
    """Four consistency checks between the ring model and the mirror.

    (a) the linear generators map exactly onto the logarithmic derivatives of
    the superpotential; (b) the quantum generators map exactly to 0 and, after
    elimination, vanish at every critical point (the exact parts of (a) and
    (b) are ``relations_match``); (c) the model dimension equals the
    critical-point count; (d) for every divisor class the multiplication
    spectrum on the quotient model matches the multiset of monomial values
    at the critical points.  The critical points come from
    ``critical_points`` at its fixed Newton settings and the given ``seed``;
    when ``relations_match`` holds both ways, Newton starts first at the common
    eigenvectors of the divisor matrices, one float stack that gives every spectrum.
    All that does not depend on q is built once per input (``_ring_model``).
    """
    qfr = q_vector((x if isinstance(x, Fraction) else Fraction(str(x))
                    for x in q_numeric), data.l)
    qfl = [float(x) for x in qfr]
    ring = _ring_model(data, pres)
    linear_ok, quantum_ok = ring.match
    checks = [CheckResult("linear-generators-map-to-log-derivatives", linear_ok,
                          {"generators": len(pres.linear_gens)})]

    import numpy as np

    # the D_i at q as one float stack: each distinct entry evaluated once, exactly
    model, values = ring.model, [c.evaluate_exact(qfr) for c in ring.values]
    mats = np.zeros((data.d, model.dim, model.dim))
    *where, which = ring.slots
    mats[tuple(where)] = np.array([c.numerator / c.denominator for c in values])[which]
    expected = ring.expected
    # matched relations map QH*_q onto Jac(W)_q (z^{v_i} units, rays span Z^n): <= dim roots
    seeds = (_eigenvector_starts(data, ring.chart, mats, qfl)
             if linear_ok and quantum_ok and ring.chart else None)
    cps = critical_points(ring.w, qfl, SolverConfig(expected_count=expected, seed=seed),
                          seeds=seeds)

    residuals = []
    for reduced in ring.reduced:
        at_q = [(m, complex(values[k])) for m, k in reduced if values[k]]
        for point_values in cps.monomial_values:
            val = 0 + 0j
            for m, mono in at_q:
                for s, e in enumerate(m):
                    mono *= point_values[model.free_indices[s]] ** e
                val += mono
            residuals.append(abs(val))
    worst_ideal = max(residuals, default=0.0)
    checks.append(CheckResult("quantum-generators-vanish-at-critical-points",
                              quantum_ok and bool(worst_ideal <= IDEAL_TOL),
                              {"max_residual": float(worst_ideal), "tolerance": IDEAL_TOL}))
    checks.append(CheckResult("dimension-equals-critical-point-count",
                              model.dim == len(cps) == expected,
                              {"dim": model.dim, "points": len(cps), "vertices": expected,
                               "starts": cps.starts, "failed_starts": cps.failed_starts}))

    spectra = {}
    worst_spectral = 0.0
    for i, eig in enumerate(_spectra(mats)):
        evals = [mv[i] for mv in cps.monomial_values]
        worst_spectral = max(worst_spectral, match_multisets(eig, evals))
        spectra[i] = {"eigenvalues": eig, "point_values": sorted(
            evals, key=lambda zc: (zc.real, zc.imag))}
    checks.append(CheckResult("multiplication-spectra-match-point-evaluations",
                              bool(worst_spectral <= SPECTRAL_TOL),
                              {"max_distance": float(worst_spectral),
                               "tolerance": SPECTRAL_TOL}))
    return VerificationReport(checks, model.dim, len(cps), spectra, cps)
