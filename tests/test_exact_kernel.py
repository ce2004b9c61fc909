"""The integer-numerator product and the class grouping against the loops they replaced."""

import random
from fractions import Fraction

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


# --- class-indexed builds against the per-class loops --------------------------

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
