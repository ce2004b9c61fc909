"""The packed-key product and the class walk against the loops they replaced."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import toricmirror as tm
from toricmirror import disc_algebra as da
from toricmirror import quantum_ring as qr
from toricmirror import syz_transform as st

from helpers import FIXTURE_NAMES, data_for, random_qlaurent


def reference_product(p, q):
    """The nested Fraction loop: multiply each pair, recursing into nested maps, merge with +."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if isinstance(c1, da.SparseTerms):
                c = type(c1)._wrap(reference_product(c1.terms, c2.terms))
            else:
                c = Fraction(c1) * Fraction(c2)
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def assert_same_product(p, q):
    got = da.product(p, q)
    assert type(got) is dict
    assert got == reference_product(p, q)
    for c in got.values():
        assert c
        if isinstance(c, da.SparseTerms):
            assert type(c) is da.QLaurent and type(c.terms) is dict


NESTED = (tm.AdmissibleFunction, tm.ZLaurent, tm.DivisorPolynomial)
NONNEGATIVE = (tm.DivisorPolynomial, tm.DiscSeries)


def random_rational(rng):
    # mixed denominators, and a plain int now and then
    if rng.random() < 0.3:
        return rng.choice([-1, 1]) * rng.randint(1, 5)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))


def random_map(cls, rng, size):
    low = 0 if cls in NONNEGATIVE else -2
    terms = {}
    for _ in range(size):
        key = tuple(rng.randint(low, 2) for _ in range(3))
        terms[key] = random_qlaurent(rng, 2) if cls in NESTED else random_rational(rng)
    return cls(terms)


@pytest.mark.parametrize("cls", NESTED + (tm.QLaurent, tm.DiscSeries),
                         ids=lambda c: c.__name__)
def test_product_matches_nested_fraction_loop(cls):
    rng = random.Random(f"kernel-{cls.__name__}")
    sizes = (0, 1, 2, 5, 9)
    for size_p in sizes:
        for size_q in sizes:
            for _ in range(4):
                p, q = random_map(cls, rng, size_p), random_map(cls, rng, size_q)
                assert_same_product(p.terms, q.terms)
                pq = p * q
                assert type(pq) is cls and pq.terms == reference_product(p.terms, q.terms)


def test_product_of_plain_fraction_dicts():
    # the quantum ring's polynomials in the free variables, int entries included
    rng = random.Random("kernel-plain")
    for _ in range(200):
        p, q = ({tuple(rng.randint(0, 3) for _ in range(2)): random_rational(rng)
                 for _ in range(rng.randint(0, 6))} for _ in range(2))
        assert_same_product(p, q)
    assert da.product({(1, 0): 2}, {(0, 1): 3, (1, 1): Fraction(1, 2)}) == {
        (1, 1): 6, (2, 1): 1}
    assert da.product({(0,): Fraction(1, 3), (1,): 2}, {(0,): 3, (1,): Fraction(-1, 6)}) == {
        (0,): 1, (1,): Fraction(107, 18), (2,): Fraction(-1, 3)}


def test_one_term_operands_shift_and_scale():
    c = da.QLaurent({(1,): Fraction(2, 3), (-2,): 5})
    f = tm.AdmissibleFunction({(0, 1): c, (-1, 2): c.scale(-1)})
    mono = {(3, -3): da.QLaurent.monomial((-1,), Fraction(3, 4))}
    for p, q in ((mono, f.terms), (f.terms, mono)):
        assert da.product(p, q) == {
            (3, -2): da.QLaurent({(0,): Fraction(1, 2), (-3,): Fraction(15, 4)}),
            (2, -1): da.QLaurent({(0,): Fraction(-1, 2), (-3,): Fraction(-15, 4)}),
        }
    assert da.product({}, f.terms) == da.product(f.terms, {}) == {}


def test_cancelled_boundary_class_is_absent():
    c = da.QLaurent({(1, 0): 1, (0, -1): Fraction(2, 7)})
    one = da.QLaurent.constant(1, 2)
    p = {(0, 0): one, (1, 0): one.scale(-1)}
    q = {(1, 0): c, (0, 0): c}
    got = da.product(p, q)
    # both pairs land on (1, 0) and cancel there
    assert got == {(0, 0): c, (2, 0): c.scale(-1)}
    assert got == reference_product(p, q)
    # only some q-terms of a class cancel: the class stays with the rest
    d = da.QLaurent({(1, 0): 1, (0, 0): 3})
    got = da.product(p, {(1, 0): c, (0, 0): d})
    assert got[(1, 0)] == da.QLaurent({(0, -1): Fraction(2, 7), (0, 0): -3})
    assert got == reference_product(p, {(1, 0): c, (0, 0): d})


def random_wide_map(rng, width, spread, size, nested):
    terms = {}
    for _ in range(size):
        key = tuple(rng.randint(-spread, spread) for _ in range(width))
        terms[key] = random_qlaurent(rng, 2) if nested else random_rational(rng)
    return terms


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("nested", [False, True], ids=["plain", "nested"])
def test_packed_product_far_apart_exponents(width, nested):
    # exponents near +-10^6 and keys of length 1 and 8 pack without carries
    rng = random.Random(f"wide-{width}-{nested}")
    for _ in range(20):
        p, q = (random_wide_map(rng, width, 10**6, rng.randint(2, 6), nested)
                for _ in range(2))
        assert_same_product(p, q)
        # clustered at opposite ends, so every coordinate sum lands near 0
        far = {tuple(x // 1000 + 10**6 for x in k): c for k, c in p.items()}
        near = {tuple(x // 1000 - 10**6 for x in k): c for k, c in q.items()}
        assert_same_product(far, near)
    # the two pairs landing on 0 cancel, the extreme pairs stay
    low, high, one = (-10**6,) * width, (10**6,) * width, (1,) * width
    p = {low: Fraction(1, 3), one: 2}
    q = {high: 3, (-1,) * width: Fraction(-1, 2)}
    assert da.product(p, q) == {
        (-10**6 - 1,) * width: Fraction(-1, 6), (10**6 + 1,) * width: 6}


def test_packed_product_that_cancels_to_empty():
    # Laurent polynomials have no zero divisors, so a product is {} only when
    # every pair's numerator is 0: zero coefficients left in a plain dict
    q = {(1, -4): 3, (-2, 0): Fraction(1, 2), (0, 0): Fraction(-5, 7)}
    for p in ({(0, 0): 0, (3, 1): Fraction(0)}, {(0, 0): Fraction(0), (-9, 9): 0}):
        assert da.product(p, q) == da.product(q, p) == reference_product(p, q) == {}
    # every output key but the outer two cancels: (1 - x)(1 + x + ... + x^5)
    p = {(0,): 1, (1,): -1}
    q = {(j,): 1 for j in range(6)}
    assert da.product(p, q) == reference_product(p, q) == {(0,): 1, (6,): -1}


# --- the class walk and the class-indexed builds against per-class loops -------

def brute_force_classes(d, max_total):
    """(k, 1/(k_1! ... k_d!)) for k in Z^d_{>=0}, sum k <= max_total, lexicographic."""
    return [
        (k, Fraction(1, math.prod(map(math.factorial, k))))
        for k in itertools.product(range(max_total + 1), repeat=d)
        if sum(k) <= max_total
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_class_walk_matches_brute_force(d):
    rng = random.Random(f"walk-{d}")
    rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(d)]
    identity = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    # any rays with identity facet monomials: the key is (sum_i k_i rows[i] | k)
    walked = SimpleNamespace(d=d, n=5, rays=rows, lambda_exponents=identity)
    for order in range(6):
        want = brute_force_classes(d, order)
        # the disc series: every class, in lexicographic order, with its weight
        assert list(tm.disc_series(SimpleNamespace(d=d), order).terms.items()) == want
        # exp(W): the same walk and weights, keyed by sum_i k_i [rows[i] | e_i] and
        # nested by boundary class in order of first appearance
        nested = {}
        for k, c in want:
            v = tuple(sum(k[i] * row[j] for i, row in enumerate(rows)) for j in range(5))
            nested.setdefault(v, []).append((k, c))
        got = st.exp_superpotential(walked, order).terms
        assert [(v, list(c.terms.items())) for v, c in got.items()] == list(nested.items())


def old_boundary_class(data, k):
    return tuple(sum(k[i] * data.rays[i][j] for i in range(data.d)) for j in range(data.n))


def old_q_exponents(data, k):
    return tuple(
        sum(k[i] * data.lambda_exponents[i][a] for i in range(data.d)) for a in range(data.l)
    )


def merge_by_class(pairs):
    out = {}
    for v, c in pairs:
        out[v] = out[v] + c if v in out else c
    return {v: c for v, c in out.items() if c}


def old_to_admissible(series, data):
    return merge_by_class(
        (old_boundary_class(data, k), da.QLaurent.monomial(old_q_exponents(data, k), c))
        for k, c in series.terms.items()
    )


def old_substitute_divisors(p, data):
    return merge_by_class(
        (old_boundary_class(data, m),
         da.QLaurent._wrap(reference_product(coeff.terms, {old_q_exponents(data, m): 1})))
        for m, coeff in p.terms.items()
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_class_builds_match_per_class_loops(name):
    data = data_for(name)
    for order in range(7):
        series = tm.disc_series(data, order)
        adm = tm.to_admissible(series, data)
        assert adm.terms == old_to_admissible(series, data)
        weighted = tm.DiscSeries._wrap({k: c * (1 + sum(k)) for k, c in series.terms.items()})
        assert tm.to_admissible(weighted, data).terms == old_to_admissible(weighted, data)
        # the old exp(W) build was the same per-class loop over 1/k! weights
        assert st.exp_superpotential(data, order).terms == old_to_admissible(series, data)
        assert all(type(c) is da.QLaurent for c in adm.terms.values())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_substitute_divisors_matches_per_class_loop(name):
    data = data_for(name)
    pres = qr.presentation_for(data)
    for g in pres.linear_gens + pres.quantum_gens:
        got = qr.substitute_divisors(g, data)
        assert type(got) is tm.ZLaurent and got.terms == old_substitute_divisors(g, data)
    rng = random.Random(f"substitute-{name}")
    for _ in range(30):
        p = tm.DivisorPolynomial({
            tuple(rng.randint(0, 2) for _ in range(data.d)): random_qlaurent(rng, data.l)
            for _ in range(rng.randint(1, 6))
        })
        assert qr.substitute_divisors(p, data).terms == old_substitute_divisors(p, data)


def test_substituted_quantum_relation_cancels_to_empty():
    # D1 D2 D3 - q maps to q - q on P2: the whole class z^0 cancels
    data = data_for("P2")
    (g,) = qr.presentation_for(data).quantum_gens
    assert qr.substitute_divisors(g, data).terms == {}


# --- the codec on inputs that stress its ranges -----------------------------

def with_basis_change(name):
    """The fixture with kernel basis Q U and facet monomials E U^-T, U = [[1, 2], [0, 1]]."""
    data = data_for(name)
    u, u_inv_t = ((1, 2), (0, 1)), ((1, 0), (-2, 1))
    kbasis = [[sum(data.kbasis[b][i] * u[b][a] for b in range(2)) for i in range(data.d)]
              for a in range(2)]
    exps = [[sum(e[b] * u_inv_t[b][a] for b in range(2)) for a in range(2)]
            for e in data.lambda_exponents]
    return tm.build_toric_data(data.rays, lambda_exponents=exps, kbasis=kbasis)


def sheared(name, t):
    """The fixture's rays under the shear (x, y, ...) -> (x, y + t x, ...)."""
    rays = [(v[0], v[1] + t * v[0], *v[2:]) for v in data_for(name).rays]
    return tm.build_toric_data(rays)


STRESS = {
    "BlP2-basis-change": lambda: with_basis_change("BlP2"),
    "P1xP2-basis-change": lambda: with_basis_change("P1xP2"),
    "P2-shear": lambda: sheared("P2", 3),
    "P2-shear-large": lambda: sheared("P2", 1000),
    "BlP2-shear-large": lambda: sheared("BlP2", -999),
}


def old_q_log_derivative(series, a, data):
    out = {k: c * sum(k[i] * data.lambda_exponents[i][a] for i in range(data.d))
           for k, c in series.terms.items()}
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(STRESS))
def test_codec_on_stressed_ranges(name):
    data = STRESS[name]()
    if "basis" in name:
        assert min(map(min, data.lambda_exponents)) < 0
    for order in (0, 1, 2, 5):
        series = tm.disc_series(data, order)
        derivatives = [tm.q_log_derivative(series, a, data) for a in range(data.l)]
        for a, lhs in enumerate(derivatives):
            assert lhs.terms == old_q_log_derivative(series, a, data)
        # series with gaps: a restriction and log derivatives, and the empty series
        gapped = [series.restrict(order - 1), *derivatives, tm.DiscSeries()]
        for s in (series, *gapped):
            assert tm.to_admissible(s, data).terms == old_to_admissible(s, data)
        assert st.exp_superpotential(data, order).terms == old_to_admissible(series, data)
        adm = tm.to_admissible(series, data)
        if order <= 2:
            assert da.product(adm.terms, adm.terms) == reference_product(adm.terms, adm.terms)
    assert tm.to_admissible(tm.DiscSeries(), data).terms == {}
    rng = random.Random(f"stress-{name}")
    for _ in range(20):
        p = tm.DivisorPolynomial({
            tuple(rng.randint(0, 3) for _ in range(data.d)): random_qlaurent(rng, data.l)
            for _ in range(rng.randint(0, 5))
        })
        assert qr.substitute_divisors(p, data).terms == old_substitute_divisors(p, data)


# --- no per-class Fraction or tuple building ---------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_to_admissible_keeps_the_series_coefficients(name):
    data = data_for(name)
    series = tm.disc_series(data, 6)
    adm = tm.to_admissible(series, data)
    for k, c in series.terms.items():
        v, e = old_boundary_class(data, k), old_q_exponents(data, k)
        assert adm.terms[v].terms[e] is c


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_exp_superpotential_shares_one_fraction_per_weight(name):
    data = data_for(name)
    coeffs = [c for f in st.exp_superpotential(data, 7).terms.values() for c in f.terms.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_one_term_product_by_one_shares_coefficients():
    q = {(0, 1): Fraction(2, 3), (1, 0): Fraction(-5, 7), (2, 2): Fraction(1, 11)}
    for one in (1, Fraction(1)):
        for got in (da.product({(1, 1): one}, q), da.product(q, {(1, 1): one})):
            assert got == {(1, 2): Fraction(2, 3), (2, 1): Fraction(-5, 7), (3, 3): Fraction(1, 11)}
            assert [id(c) for c in got.values()] == [id(c) for c in q.values()]
    # the log-derivative convolution under the normalized facet choice
    data = data_for("BlP2")
    series = tm.disc_series(data, 6)
    rhs = da.log_derivative_convolution(series, 0, data)
    assert [id(c) for c in rhs.terms.values()] == [id(c) for c in series.terms.values()]


@pytest.mark.parametrize("nested", [False, True], ids=["plain", "nested"])
def test_product_shares_one_fraction_per_value(nested):
    # BlP2's q_2 sits on two facets, so its convolution takes the general path
    data = data_for("BlP2")
    series = tm.disc_series(data, 8)
    if nested:
        adm = tm.to_admissible(series.restrict(4), data)
        coeffs = [c for f in (adm * adm.scale(Fraction(2, 3))).terms.values()
                  for c in f.terms.values()]
    else:
        coeffs = list(da.log_derivative_convolution(series, 1, data).terms.values())
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)
