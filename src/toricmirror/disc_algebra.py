"""Exact convolution algebra of disc-counting generating functions.

Every sparse "exponent tuple -> coefficient" map of the package is a
``SparseTerms`` subclass sharing one merge (``add_into``) and one
exponent-adding product (``product``).  The product works on flattened keys,
a nested coefficient {e: c} at v being the term c at the key v + e, and
multiplies integer numerators over one common denominator per factor.  The
class-indexed builds (``to_admissible``, ``exp_superpotential``,
``substitute_divisors``) key each disc class by one pass over the columns
of [rays | lambda_exponents] and nest the same way (``nest``).  The maps:

* ``QLaurent`` -- Laurent polynomials in the Kahler parameters q_1..q_l with
  rational coefficients; the common coefficient ring.
* ``AdmissibleFunction`` -- finitely supported maps from lattice boundary
  classes v in Z^n to QLaurent coefficients; the value at a fiber point is
  f_v(q) e^{-<x,v>}, so the lattice convolution of coefficients is the
  product on this space.
* ``DiscSeries`` -- rationals indexed by disc classes k in Z^d_{>=0}; the
  disc-count series stores 1/(k_1! ... k_d!) at every class up to a total
  degree.  The product adds classes, so the log-derivative identity's
  convolution with sum_i E_ia Psi_i is one product with {e_i: E_ia}.
* ``ZLaurent`` (syz_transform) and ``DivisorPolynomial`` (quantum_ring) --
  the same maps keyed by mirror exponents and divisor exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .errors import IndexOutOfRange


def add_into(out, pairs):
    """Accumulate (key, coefficient) pairs into the plain dict ``out``.

    Keys whose sum cancels are dropped.  Coefficients are combined with
    ``+`` into new objects, never mutated, so a coefficient stored here may
    be shared with other maps.  Returns ``out``.
    """
    for key, c in pairs:
        acc = out.get(key)
        if acc is None:
            out[key] = c
        else:
            new = acc + c
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def product(p, q):
    """Exponent-adding product of two plain term dicts.

    A one-term factor shifts the other's keys and scales its coefficients.
    Otherwise nested coefficients are flattened, ``{v: {e: c}}`` to
    ``{v + e: c}``, each side is written as integer numerators over its
    lcm denominator, the numerators are multiplied and summed as ``int``,
    and every nonzero sum is divided once and nested again.  Both maps hold
    coefficients of one kind: ``int``/``Fraction``, or ``SparseTerms`` over
    them.
    """
    if not p or not q:
        return {}
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        ((e1, c1),) = p.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in q.items()}
    fp, den_p = _numerators(p)
    fq, den_q = _numerators(q)
    acc = {}
    get = acc.get
    for k1, a in fp:
        for k2, b in fq:
            k = tuple(map(add, k1, k2))
            acc[k] = get(k, 0) + a * b
    den = den_p * den_q
    flat = ((k, Fraction(c, den)) for k, c in acc.items() if c)
    inner = next(iter(p.values()))
    if isinstance(inner, SparseTerms):
        return nest(flat, len(next(iter(p))), type(inner))
    return dict(flat)


def _numerators(terms):
    """Flattened (key, integer numerator) pairs and their common denominator."""
    flat = []
    for v, c in terms.items():
        if isinstance(c, SparseTerms):
            flat.extend((v + e, x) for e, x in c.terms.items())
        else:
            flat.append((v, c))
    den = math.lcm(*(c.denominator for _, c in flat))
    return [(k, c.numerator * (den // c.denominator)) for k, c in flat], den


def nest(pairs, m, inner):
    """Merged nonzero ``(v + e, c)`` pairs -> ``{v: inner({e: c})}``, len(v) = m."""
    out = {}
    for k, c in pairs:
        v = k[:m]
        terms = out.get(v)
        if terms is None:
            terms = out[v] = {}
        terms[k[m:]] = c
    return {v: inner._wrap(terms) for v, terms in out.items()}


def nonnegative_key(exps):
    """Exponent tuple of a map whose keys must lie in Z^d_{>=0}."""
    key = tuple(int(e) for e in exps)
    if any(e < 0 for e in key):
        raise ValueError(f"exponents must be nonnegative, got {key}")
    return key


class SparseTerms:
    """Finitely supported map from integer exponent tuples to coefficients.

    ``terms`` is a plain dict without zero coefficients.  Subclasses differ
    only in how input coefficients are coerced, which keys they accept, and
    how they evaluate and serialize.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            pairs = []
            for exps, coeff in items:
                coeff = self._coerce(coeff)
                if coeff:
                    pairs.append((self._key(exps), coeff))
            add_into(self.terms, pairs)

    @staticmethod
    def _coerce(coeff):
        return coeff

    @staticmethod
    def _key(exps):
        return tuple(int(e) for e in exps)

    @staticmethod
    def _zero():
        return QLaurent()

    @classmethod
    def _wrap(cls, terms):
        """Instance over an already normalized term dict, without copying."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        return self._wrap(add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with a map of the same type; otherwise scaling."""
        if type(other) is type(self):
            return self._wrap(product(self.terms, other.terms))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor):
        factor = self._coerce(factor)
        if not factor:
            return self._wrap({})
        return self._wrap({e: c * factor for e, c in self.terms.items()})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self._zero())

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class QLaurent(SparseTerms):
    """Sparse exact Laurent polynomial in the Kahler parameters."""

    __slots__ = ()
    _coerce = staticmethod(Fraction)
    _zero = staticmethod(Fraction)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): Fraction(coeff)})

    @classmethod
    def constant(cls, coeff, nvars):
        return cls({(0,) * nvars: Fraction(coeff)})

    def evaluate(self, qvals):
        """Float value at positive numeric parameters."""
        total = 0.0
        for e, c in self.terms.items():
            total += float(c) * math.prod(
                float(q) ** p for q, p in zip(qvals, e)
            )
        return total

    def evaluate_exact(self, qvals):
        """Exact value at rational parameters."""
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for q, p in zip(qvals, e):
                term *= Fraction(q) ** p
            total += term
        return total

    def to_json(self):
        return [
            {"q_exponents": list(e), "coefficient": str(c)}
            for e, c in sorted(self.terms.items())
        ]


def flat_json(terms, key_name):
    """One JSON row per (key exponents, q-exponents) pair of QLaurent terms."""
    return [
        {key_name: list(k), **entry}
        for k, c in sorted(terms.items())
        for entry in c.to_json()
    ]


class AdmissibleFunction(SparseTerms):
    """Finitely supported boundary-class coefficients of a fiberwise function.

    The product of two admissible functions is their lattice convolution.
    """

    __slots__ = ()

    def to_json(self):
        return [
            {"boundary_class": list(v), "coefficient": c.to_json()}
            for v, c in sorted(self.terms.items())
        ]


def unit(data):
    """Multiplicative identity: 1 at v = 0, zero elsewhere."""
    return AdmissibleFunction({(0,) * data.n: QLaurent.constant(1, data.l)})


def divisor_function(data, i, power=1):
    """Single-class function attached to facet i.

    ``power=+1`` puts e^{lambda_i} at v_i; ``power=-1`` puts e^{-lambda_i} at
    -v_i, the convolution inverse.
    """
    if not 0 <= i < data.d:
        raise IndexOutOfRange(f"no facet with index {i}")
    if power not in (1, -1):
        raise IndexOutOfRange("power must be +1 or -1")
    return divisor_power(data, i, power)


def divisor_power(data, i, k):
    """k-fold convolution power of the facet-i function, k in Z."""
    if k == 0:
        return unit(data)
    v = tuple(k * c for c in data.rays[i])
    exps = tuple(k * e for e in data.lambda_exponents[i])
    return AdmissibleFunction({v: QLaurent.monomial(exps)})


def convolve(f, g):
    """Lattice convolution (f*g)_v = sum_{v1+v2=v} f_{v1} g_{v2}."""
    return f * g


def iter_disc_classes(d, max_total):
    """All k in Z^d_{>=0} with sum k_i <= max_total."""
    def rec(slots, remaining):
        if slots == 0:
            yield ()
            return
        for first in range(remaining + 1):
            for rest in rec(slots - 1, remaining - first):
                yield (first,) + rest

    return rec(d, max_total)


def class_weight(k):
    """k_1! ... k_d!, the symmetry weight of a disc class."""
    w = 1
    for part in k:
        w *= math.factorial(part)
    return w


class DiscSeries(SparseTerms):
    """Rational coefficients on disc classes k in Z^d_{>=0}.

    The product adds classes, so multiplying by {e_i: c} is convolution with
    c times the facet-i function at disc-class level.
    """

    __slots__ = ()
    _coerce = staticmethod(Fraction)
    _zero = staticmethod(Fraction)
    _key = staticmethod(nonnegative_key)

    @property
    def truncation_order(self):
        """Total degree of the highest class present (0 when empty)."""
        return max(map(sum, self.terms), default=0)

    def restrict(self, max_total):
        return self._wrap(
            {k: c for k, c in self.terms.items() if sum(k) <= max_total}
        )

    def to_json(self):
        return {
            "truncation_order": self.truncation_order,
            "classes": [
                {"k": list(k), "coefficient": str(c)}
                for k, c in sorted(self.terms.items())
            ],
        }


def disc_series(data, max_total):
    """Disc-count generating series through total degree ``max_total``.

    Every class k with sum k_i <= max_total appears, with coefficient
    1/(k_1! ... k_d!); the q-monomial and the boundary class of k are derived
    views (see to_admissible).
    """
    if max_total < 0:
        raise ValueError("truncation order must be nonnegative")
    return DiscSeries._wrap(
        {k: Fraction(1, class_weight(k)) for k in iter_disc_classes(data.d, max_total)}
    )


def class_columns(data):
    """Columns of the d x (n + l) matrix [rays | lambda_exponents]."""
    return tuple(zip(*map(add, data.rays, data.lambda_exponents)))


def class_key(columns, k):
    """Boundary class sum_i k_i v_i followed by the q-exponents of class k."""
    return tuple(sum(map(mul, col, k)) for col in columns)


def group_classes(pairs, n):
    """(class key, rational) pairs -> {boundary class: QLaurent}, merged."""
    return nest(add_into({}, pairs).items(), n, QLaurent)


def to_admissible(series, data):
    """Group disc classes by boundary class, summing exact q-coefficients."""
    columns = class_columns(data)
    return AdmissibleFunction._wrap(group_classes(
        ((class_key(columns, k), c) for k, c in series.terms.items()), data.n
    ))


def q_log_derivative(series, a, data):
    """Apply q_a d/dq_a classwise: multiply class k by its q_a-exponent."""
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    out = {}
    for k, c in series.terms.items():
        weight = sum(k[i] * data.lambda_exponents[i][a] for i in range(data.d))
        if weight:
            out[k] = c * weight
    return DiscSeries._wrap(out)


def log_derivative_convolution(series, a, data):
    """Right side of the log-derivative identity, at disc-class level.

    q_a d/dq_a acts on the series as convolution with the combination
    sum_i E_ia Psi_i of facet functions, where E_ia is the q_a-exponent of
    e^{lambda_i}.  Under the normalized facet choice a single facet carries
    q_a and the combination is that one facet function.
    """
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    facets = DiscSeries._wrap({
        tuple(int(j == i) for j in range(data.d)): Fraction(data.lambda_exponents[i][a])
        for i in range(data.d)
        if data.lambda_exponents[i][a]
    })
    return series * facets
