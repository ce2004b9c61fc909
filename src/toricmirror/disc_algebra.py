"""Exact convolution algebra of disc-counting generating functions.

Every sparse "exponent tuple -> coefficient" map of the package is a
``SparseTerms`` subclass sharing one merge (``add_into``) and one
exponent-adding product (``product``).  One codec (``codec``) packs exponent
vectors into ``int`` keys, each column a mixed-radix field wide enough for its
range, so packed keys add without carries (Monagan-Pearce packed exponents).
Disc classes come from one walk, ``disc_classes``, which extends each class
from its prefix, carrying its key and its weight k_1! ... k_d! forward:
``disc_series`` extends tuples and ``exp_superpotential`` adds the packed
rows [v_i | E_i] (``facet_rows``, ``class_codec``).  ``to_admissible`` and
``substitute_divisors`` pack any class k as sum_i k_i packed[i] + base.  A
key stays one ``int`` until ``nest`` splits it into (v, e), unpacking each
distinct v and e once.  The maps:

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

    A one-term factor shifts the other's keys and scales its coefficients;
    a factor 1 only shifts, sharing the other's coefficients.  Otherwise
    nested coefficients are flattened, ``{v: {e: c}}`` to ``{v + e: c}``, and
    each side is written as integer numerators over its lcm denominator.
    Flattened keys are packed for the sum of both operands' coordinate
    ranges, so the pair loop is one ``int`` add and one numerator
    multiply-add; each distinct nonzero sum is divided once.  Both maps hold
    coefficients of one kind: ``int``/``Fraction``, or ``SparseTerms`` over
    them.
    """
    if not p or not q:
        return {}
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        ((e1, c1),) = p.items()
        if c1 == 1:
            return {tuple(map(add, e1, e2)): c2 for e2, c2 in q.items()}
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in q.items()}
    keys_p, nums_p, den_p = _numerators(p)
    keys_q, nums_q, den_q = _numerators(q)
    fields, base = codec((min(a) + min(b), max(a) + max(b))
                         for a, b in zip(zip(*keys_p), zip(*keys_q)))
    weights = [w for w, _, _ in fields]
    # q's keys carry the base, so a packed sum is nonnegative
    packed_q = [(sum(map(mul, k, weights)) + base, b) for k, b in zip(keys_q, nums_q)]
    acc = {}
    get = acc.get
    for key, a in zip(keys_p, nums_p):
        k1 = sum(map(mul, key, weights))
        for k2, b in packed_q:
            k = k1 + k2
            acc[k] = get(k, 0) + a * b
    den, divided = den_p * den_q, {}
    flat = ((k, divided.get(c) or divided.setdefault(c, Fraction(c, den)))
            for k, c in acc.items() if c)
    inner = next(iter(p.values()))
    if isinstance(inner, SparseTerms):
        return nest(flat, fields, len(next(iter(p))), type(inner))
    return {unpack(k, fields): c for k, c in flat}


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


def codec(bounds):
    """Fields (weight, radix, low) for columns in (low, high) bounds, and the base.

    A key x within the bounds packs to base + sum_j x_j weight_j >= 0.
    """
    fields, weight = [], 1
    for low, high in bounds:
        fields.append((weight, high - low + 1, low))
        weight *= high - low + 1
    return fields, -sum(w * low for w, _, low in fields)


def unpack(k, fields):
    """The exponent tuple of a packed key."""
    return tuple([k // w % radix + low for w, radix, low in fields])


def nest(pairs, fields, m, inner):
    """Merged nonzero ``(packed v + e, c)`` pairs -> ``{v: inner({e: c})}``, len(v) = m.

    One divmod by the product of v's radices splits a key; each distinct v
    and e is unpacked once.
    """
    split = math.prod(radix for _, radix, _ in fields[:m])
    tail = [(w // split, radix, low) for w, radix, low in fields[m:]]
    out, es = {}, {}
    for k, c in pairs:
        e, v = divmod(k, split)
        terms = out.get(v)
        if terms is None:
            terms = out[v] = {}
        terms[es.get(e) or es.setdefault(e, unpack(e, tail))] = c
    return {unpack(v, fields[:m]): inner._wrap(terms) for v, terms in out.items()}


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
    its q-exponents sum_i k_i E_i, is sum_i k_i [v_i | E_i].  Distinct classes
    have distinct keys: k = Q c with key 0 has q-exponents c^T Q^T E = c^T.
    """
    return [tuple(v) + tuple(e) for v, e in zip(data.rays, data.lambda_exponents)]


def class_codec(rows, max_total):
    """Codec of the keys sum_i k_i rows[i], |k| <= max_total, and the packed rows.

    Column j ranges over max_total * [min(0, min_i rows[i][j]),
    max(0, max_i rows[i][j])]; a class k packs to sum_i k_i packed[i] + base.
    """
    fields, base = codec((max_total * min(0, *c), max_total * max(0, *c)) for c in zip(*rows))
    weights = [w for w, _, _ in fields]
    return fields, base, [sum(map(mul, row, weights)) for row in rows]


def disc_classes(start, steps, max_total):
    """(key, 1/(k_1! ... k_d!)) for k in Z^d_{>=0}, sum k_i <= max_total.

    The classes come in lexicographic order of k.  Each class extends its
    prefix: k_i = j adds steps[i][j] to the prefix's key and multiplies its
    weight by j!.  Equal weights share one Fraction.
    """
    level = [(start, 1, max_total)]
    for step in steps:
        longer = []
        append = longer.append
        for key, weight, left in level:
            append((key + step[0], weight, left))
            for j in range(1, left + 1):
                weight *= j
                append((key + step[j], weight, left - j))
        level = longer
    inverse = {w: Fraction(1, w) for w in {w for _, w, _ in level}}
    return [(key, inverse[w]) for key, w, _ in level]


def disc_series(data, max_total):
    """Disc-count generating series through total degree ``max_total``.

    Every class k with sum k_i <= max_total appears, with coefficient
    1/(k_1! ... k_d!); the q-monomial and the boundary class of k are derived
    views (see to_admissible).
    """
    if max_total < 0:
        raise ValueError("truncation order must be nonnegative")
    steps = [[(j,) for j in range(max_total + 1)]] * data.d
    return DiscSeries._wrap(dict(disc_classes((), steps, max_total)))


def to_admissible(series, data):
    """Group disc classes by boundary class; classes never merge (see facet_rows)."""
    fields, base, rows = class_codec(facet_rows(data), series.truncation_order)
    pairs = zip([sum(map(mul, k, rows)) + base for k in series.terms], series.terms.values())
    return AdmissibleFunction._wrap(nest(pairs, fields, data.n, QLaurent))


def q_log_derivative(series, a, data):
    """Apply q_a d/dq_a classwise: multiply class k by its q_a-exponent."""
    if not 0 <= a < data.l:
        raise IndexOutOfRange(f"no Kahler parameter with index {a}")
    column = [e[a] for e in data.lambda_exponents]
    out, scaled = {}, {}
    for k, c in series.terms.items():
        weight = sum(map(mul, k, column))
        if weight:
            key = (c.numerator, c.denominator, weight)
            out[k] = scaled.get(key) or scaled.setdefault(key, c * weight)
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
