"""Exact convolution algebra of disc-counting generating functions.

Every sparse "exponent tuple -> coefficient" map of the package is a
``SparseTerms`` subclass sharing one merge (``add_into``) and one
exponent-adding product (``product``):

* ``QLaurent`` -- Laurent polynomials in the Kahler parameters q_1..q_l with
  rational coefficients; the common coefficient ring.
* ``AdmissibleFunction`` -- finitely supported maps from lattice boundary
  classes v in Z^n to QLaurent coefficients; the value at a fiber point is
  f_v(q) e^{-<x,v>}, so the lattice convolution of coefficients is the
  product on this space.
* ``ZLaurent`` (syz_transform) and ``DivisorPolynomial`` (quantum_ring) --
  the same maps keyed by mirror exponents and divisor exponents.

``DiscSeries`` -- rationals indexed by disc classes k in Z^d_{>=0}, cut off by
total degree -- stores 1/(k_1! ... k_d!) at class k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

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
    """Exponent-adding product of two plain term dicts."""
    return add_into({}, (
        (tuple(map(add, e1, e2)), c1 * c2)
        for e1, c1 in p.items()
        for e2, c2 in q.items()
    ))


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

    def scale(self, factor):
        return super().scale(Fraction(factor))

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
    v = tuple(power * c for c in data.rays[i])
    exps = tuple(power * e for e in data.lambda_exponents[i])
    return AdmissibleFunction({v: QLaurent.monomial(exps)})


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


class DiscSeries:
    """Rational coefficients on disc classes, cut off by total degree."""

    __slots__ = ("terms", "truncation_order")

    def __init__(self, terms, truncation_order):
        self.truncation_order = int(truncation_order)
        self.terms = {}
        for k, c in (terms.items() if isinstance(terms, dict) else terms):
            c = Fraction(c)
            if not c:
                continue
            key = tuple(int(x) for x in k)
            if any(x < 0 for x in key) or sum(key) > self.truncation_order:
                raise ValueError(f"class {key} violates the truncation window")
            self.terms[key] = c

    def __eq__(self, other):
        return isinstance(other, DiscSeries) and self.terms == other.terms

    def coefficient(self, k):
        return self.terms.get(tuple(k), Fraction(0))

    def restrict(self, max_total):
        return DiscSeries(
            {k: c for k, c in self.terms.items() if sum(k) <= max_total},
            max_total,
        )

    def add(self, other, scale=1):
        scale = Fraction(scale)
        out = add_into(dict(self.terms), (
            (k, scale * c) for k, c in other.terms.items()
        ))
        return DiscSeries(out, max(self.truncation_order, other.truncation_order))

    def scaled(self, factor):
        factor = Fraction(factor)
        return DiscSeries(
            {k: c * factor for k, c in self.terms.items()} if factor else {},
            self.truncation_order,
        )

    def to_json(self):
        return {
            "truncation_order": self.truncation_order,
            "classes": [
                {"k": list(k), "coefficient": str(c)}
                for k, c in sorted(self.terms.items())
            ],
        }

    def __repr__(self):
        return f"DiscSeries({len(self.terms)} classes, <= {self.truncation_order})"


def disc_series(data, max_total):
    """Disc-count generating series through total degree ``max_total``.

    Every class k with sum k_i <= max_total appears, with coefficient
    1/(k_1! ... k_d!); the q-monomial and the boundary class of k are derived
    views (see to_admissible).
    """
    if max_total < 0:
        raise ValueError("truncation order must be nonnegative")
    return DiscSeries(
        {k: Fraction(1, class_weight(k)) for k in iter_disc_classes(data.d, max_total)},
        max_total,
    )


def boundary_class(data, k):
    """Boundary lattice class sum_i k_i v_i of a disc class."""
    return tuple(
        sum(k[i] * data.rays[i][j] for i in range(data.d)) for j in range(data.n)
    )


def q_monomial_exponents(data, k):
    """Exponent vector of prod_i (e^{lambda_i})^{k_i} in the q parameters."""
    return tuple(
        sum(k[i] * data.lambda_exponents[i][a] for i in range(data.d))
        for a in range(data.l)
    )


def to_admissible(series, data):
    """Group disc classes by boundary class, summing exact q-coefficients."""
    return AdmissibleFunction._wrap(add_into({}, (
        (boundary_class(data, k),
         QLaurent.monomial(q_monomial_exponents(data, k), c))
        for k, c in series.terms.items()
    )))


def q_log_derivative(series, a, data):
    """Apply q_a d/dq_a classwise: multiply class k by its q_a-exponent."""
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    out = {}
    for k, c in series.terms.items():
        weight = sum(k[i] * data.lambda_exponents[i][a] for i in range(data.d))
        if weight:
            out[k] = c * weight
    return DiscSeries(out, series.truncation_order)


def shift_by_ray(series, i, data):
    """Classwise convolution with the facet-i function: k -> k + e_i."""
    if not 0 <= i < data.d:
        raise IndexOutOfRange(f"no facet with index {i}")
    out = {}
    for k, c in series.terms.items():
        key = tuple(x + (1 if j == i else 0) for j, x in enumerate(k))
        out[key] = c
    return DiscSeries(out, series.truncation_order + 1)


def log_derivative_convolution(series, a, data):
    """Right side of the log-derivative identity, at disc-class level.

    q_a d/dq_a acts on the series as convolution with the combination
    sum_i E_ia Psi_i of facet functions, where E_ia is the q_a-exponent of
    e^{lambda_i}.  Under the normalized facet choice a single facet carries
    q_a and the combination is that one facet function.
    """
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    out = DiscSeries({}, series.truncation_order + 1)
    for i in range(data.d):
        weight = data.lambda_exponents[i][a]
        if weight:
            out = out.add(shift_by_ray(series, i, data), weight)
    return out
