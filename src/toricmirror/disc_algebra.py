"""Exact convolution algebra of disc-counting generating functions.

Every sparse "exponent tuple -> coefficient" map of the package is a
``SparseTerms`` subclass sharing one merge (``add_into``) and one
exponent-adding product (``product``).  The product works on flattened keys,
a nested coefficient {e: c} at v being the term c at the key v + e, packs
each flattened key into one ``int`` (mixed radices sized from the operands'
coordinate ranges, so packed keys add without carries) and multiplies
integer numerators over one common denominator per factor.  Disc classes
come from one walk, ``disc_classes``, which extends each class from its
prefix and so carries its key sum_i k_i rows[i] and its weight
k_1! ... k_d! forward one coordinate at a time; ``disc_series`` walks with
identity rows (the key is k itself) and ``exp_superpotential`` with the
rows [v_i | E_i] (``facet_rows``).  ``to_admissible`` and ``substitute_divisors``
key arbitrary classes from their nonzero parts (``row_sums``), and all three
class-indexed builds nest the same way (``nest``).  The maps:

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
    ``{v + e: c}``, and each side is written as integer numerators over its
    lcm denominator.  Every flattened key is packed into one ``int``, its
    coordinates read as digits in mixed radices wide enough for the sum of
    both operands' coordinate ranges, so adding two packed keys adds the
    exponent vectors without carries (Monagan-Pearce packed exponents).  The
    pair loop is one ``int`` add and one numerator multiply-add; every
    nonzero sum is unpacked once, divided once and nested again.  Both maps
    hold coefficients of one kind: ``int``/``Fraction``, or ``SparseTerms``
    over them.
    """
    if not p or not q:
        return {}
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        ((e1, c1),) = p.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in q.items()}
    keys_p, nums_p, den_p = _numerators(p)
    keys_q, nums_q, den_q = _numerators(q)
    fields, weight = [], 1
    for col_p, col_q in zip(zip(*keys_p), zip(*keys_q)):
        low_p, low_q = min(col_p), min(col_q)
        radix = max(col_p) - low_p + max(col_q) - low_q + 1
        fields.append((weight, radix, low_p + low_q))
        weight *= radix
    weights = [w for w, _, _ in fields]
    # q's keys carry the offset, so a packed sum's digits start at 0
    offset = sum(w * low for w, _, low in fields)
    packed_q = [(sum(map(mul, k, weights)) - offset, b) for k, b in zip(keys_q, nums_q)]
    acc = {}
    get = acc.get
    for key, a in zip(keys_p, nums_p):
        k1 = sum(map(mul, key, weights))
        for k2, b in packed_q:
            k = k1 + k2
            acc[k] = get(k, 0) + a * b
    den = den_p * den_q
    flat = (
        (tuple([k // w % radix + low for w, radix, low in fields]), Fraction(c, den))
        for k, c in acc.items() if c
    )
    inner = next(iter(p.values()))
    if isinstance(inner, SparseTerms):
        return nest(flat, len(next(iter(p))), type(inner))
    return dict(flat)


def _numerators(terms):
    """Flattened keys, their integer numerators and the common denominator."""
    if isinstance(next(iter(terms.values())), SparseTerms):
        keys, coeffs = [], []
        for v, c in terms.items():
            for e, x in c.terms.items():
                keys.append(v + e)
                coeffs.append(x)
    else:
        keys, coeffs = list(terms), list(terms.values())
    den = math.lcm(*(c.denominator for c in coeffs))
    return keys, [c.numerator * (den // c.denominator) for c in coeffs], den


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
    only in their coefficient ring, which keys they accept, and how they
    evaluate.  Coefficients are QLaurent unless a subclass says otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            pairs = []
            for exps, coeff in items:
                coeff = self._coefficient(coeff)
                if coeff:
                    pairs.append((self._key(exps), coeff))
            add_into(self.terms, pairs)

    @staticmethod
    def _coefficient(coeff):
        """A coefficient given at construction, in this map's ring."""
        if not isinstance(coeff, QLaurent):
            raise TypeError(f"coefficients must be QLaurent, got {type(coeff).__name__}")
        return coeff

    @staticmethod
    def _coerce(factor):
        """A scaling factor: a number or a QLaurent scales QLaurent coefficients."""
        return factor

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

    def __hash__(self):  # coefficients are never mutated (see add_into)
        return hash(frozenset(self.terms.items()))

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
    _coefficient = _coerce = _zero = staticmethod(Fraction)

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
        for e, term in self.terms.items():
            for q, p in zip(qvals, e):
                if p:
                    term *= Fraction(q) ** p
            total += term
        return total


class AdmissibleFunction(SparseTerms):
    """Finitely supported boundary-class coefficients of a fiberwise function.

    The product of two admissible functions is their lattice convolution.
    """

    __slots__ = ()


def unit(data):
    """Multiplicative identity: 1 at v = 0, zero elsewhere."""
    return AdmissibleFunction({(0,) * data.n: QLaurent.constant(1, data.l)})


def divisor_function(data, i, power=1):
    """Single-class function attached to facet i.

    ``power=+1`` puts e^{lambda_i} at v_i; ``power=-1`` puts e^{-lambda_i} at
    -v_i, the convolution inverse.
    """
    if power not in (1, -1):
        raise IndexOutOfRange("power must be +1 or -1")
    return divisor_power(data, i, power)


def divisor_power(data, i, k):
    """k-fold convolution power of the facet-i function, k in Z."""
    if not 0 <= i < data.d:
        raise IndexOutOfRange(f"no facet with index {i}")
    if k == 0:
        return unit(data)
    v = tuple(k * c for c in data.rays[i])
    exps = tuple(k * e for e in data.lambda_exponents[i])
    return AdmissibleFunction({v: QLaurent.monomial(exps)})


def convolve(f, g):
    """Lattice convolution (f*g)_v = sum_{v1+v2=v} f_{v1} g_{v2}."""
    return f * g


class DiscSeries(SparseTerms):
    """Rational coefficients on disc classes k in Z^d_{>=0}.

    The product adds classes, so multiplying by {e_i: c} is convolution with
    c times the facet-i function at disc-class level.
    """

    __slots__ = ()
    _coefficient = _coerce = _zero = staticmethod(Fraction)
    _key = staticmethod(nonnegative_key)

    @property
    def truncation_order(self):
        """Total degree of the highest class present (0 when empty)."""
        return max(map(sum, self.terms), default=0)

    def restrict(self, max_total):
        return self._wrap(
            {k: c for k, c in self.terms.items() if sum(k) <= max_total}
        )


def facet_rows(data):
    """Rows [v_i | E_i] of the d x (n + l) matrix [rays | lambda_exponents].

    The key of a disc class k, its boundary class sum_i k_i v_i followed by
    its q-exponents sum_i k_i E_i, is sum_i k_i [v_i | E_i].
    """
    return [tuple(v) + tuple(e) for v, e in zip(data.rays, data.lambda_exponents)]


def disc_classes(rows, max_total):
    """(sum_i k_i rows[i], 1/(k_1! ... k_d!)) for k in Z^d_{>=0}, sum k_i <= max_total.

    The classes come in lexicographic order of k.  They are built one
    coordinate at a time, each class extending its prefix: raising k_i by one
    adds rows[i] to the key and multiplies the weight by the new k_i.  Equal
    weights share one Fraction.
    """
    level = [((0,) * len(rows[0]), 1, max_total)]
    for row in rows:
        longer = []
        append = longer.append
        for key, weight, left in level:
            append((key, weight, left))
            for j in range(1, left + 1):
                key = tuple(map(add, key, row))
                weight *= j
                append((key, weight, left - j))
        level = longer
    inverse = {w: Fraction(1, w) for w in {w for _, w, _ in level}}
    return [(key, inverse[w]) for key, w, _ in level]


def row_sums(rows, classes):
    """sum_i k_i rows[i] for each class k, summed over its nonzero parts only."""
    multiples = [{} for _ in rows]
    zero = (0,) * len(rows[0])
    for k in classes:
        key = None
        for i, ki in enumerate(k):
            if ki:
                part = multiples[i].get(ki)
                if part is None:
                    part = multiples[i][ki] = tuple(ki * x for x in rows[i])
                key = part if key is None else tuple(map(add, key, part))
        yield zero if key is None else key


def disc_series(data, max_total):
    """Disc-count generating series through total degree ``max_total``.

    Every class k with sum k_i <= max_total appears, with coefficient
    1/(k_1! ... k_d!); the q-monomial and the boundary class of k are derived
    views (see to_admissible).
    """
    if max_total < 0:
        raise ValueError("truncation order must be nonnegative")
    identity = [tuple(int(j == i) for j in range(data.d)) for i in range(data.d)]
    return DiscSeries._wrap(dict(disc_classes(identity, max_total)))


def group_classes(pairs, n):
    """(class key, rational) pairs -> {boundary class: QLaurent}, merged."""
    return nest(add_into({}, pairs).items(), n, QLaurent)


def to_admissible(series, data):
    """Group disc classes by boundary class, summing exact q-coefficients."""
    keys = row_sums(facet_rows(data), series.terms)
    return AdmissibleFunction._wrap(
        group_classes(zip(keys, series.terms.values()), data.n)
    )


def q_log_derivative(series, a, data):
    """Apply q_a d/dq_a classwise: multiply class k by its q_a-exponent."""
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    facets = [(i, e[a]) for i, e in enumerate(data.lambda_exponents) if e[a]]
    out = {}
    for k, c in series.terms.items():
        weight = sum(k[i] * e for i, e in facets)
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
