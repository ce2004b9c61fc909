"""The Groebner engine against sympy's, on the same eliminated ideals.

sympy is a test-only oracle; the package never imports it.
"""

import itertools
import random
from fractions import Fraction

import pytest

from toricmirror import quantum_ring as qr

from helpers import data_for, product_data

sympy = pytest.importorskip("sympy")


def _cases():
    cube = product_data((1, 1, 1))
    planes = data_for("P2xP2")
    # presentation, rational q, number of maximal cones (the quotient dimension)
    return {
        "BlP2": (
            qr.presentation_for(data_for("BlP2")), [Fraction(1, 2), Fraction(3, 10)], 4
        ),
        "(P1)^3": (
            qr.presentation_for(cube), [Fraction(k, 9) for k in (6, 5, 4)], 8
        ),
        "(P2)^2": (
            qr.presentation_for(planes), [Fraction(7, 10), Fraction(1, 5)], 9
        ),
    }


CASES = _cases()


def _expr(poly, xs):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(x**e for x, e in zip(xs, m)))
        for m, c in poly.items()
    )


def _terms(expr, xs):
    return {
        m: Fraction(int(c.p), int(c.q))
        for m, c in sympy.Poly(expr, *xs).terms()
        if c
    }


def _oracle(name):
    pres, q, _ = CASES[name]
    model = qr.quotient_model(pres, q)
    xs = sympy.symbols(f"x0:{model.l}")
    gens = [model.reduce_divisor_poly(g) for g in pres.quantum_gens]
    basis = sympy.groebner(
        [_expr(g, xs) for g in gens if g], *xs, order="grevlex", domain="QQ"
    )
    return model, xs, basis


def _standard_count(leads, l):
    """Monomials divisible by no leading monomial, inside the pure-power box."""
    bounds = [
        min(m[s] for m in leads if m[s] and sum(m) == m[s]) for s in range(l)
    ]
    count = 0
    stack = [()]
    while stack:
        m = stack.pop()
        if len(m) == l:
            count += not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
            continue
        stack.extend(m + (e,) for e in range(bounds[len(m)]))
    return count


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduced_basis_matches_sympy(name):
    model, xs, basis = _oracle(name)
    ours = {
        frozenset({lead: Fraction(1), **tail}.items())
        for lead, tail in model.groebner
    }
    theirs = {frozenset(_terms(g, xs).items()) for g in basis.exprs}
    assert ours == theirs


@pytest.mark.parametrize("name", sorted(CASES))
def test_standard_monomial_count_matches_sympy(name):
    model, xs, basis = _oracle(name)
    leads = [
        sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs
    ]
    assert _standard_count(leads, model.l) == model.dim == CASES[name][2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_normal_forms_match_sympy_reduced(name):
    model, xs, basis = _oracle(name)
    rng = random.Random(name)
    for _ in range(10):
        poly = {}
        for _ in range(rng.randint(1, 6)):
            m = tuple(rng.randint(0, 5) for _ in range(model.l))
            poly[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        poly = {m: c for m, c in poly.items() if c}
        _, remainder = sympy.reduced(
            _expr(poly, xs), basis.exprs, *xs, order="grevlex"
        )
        assert model.normal_form(poly) == _terms(remainder, xs)


@pytest.mark.parametrize("seed", range(4))
def test_generic_quadrics_match_sympy(seed):
    # three dense quadrics in three variables: every S-pair does real work
    rng = random.Random(seed)
    xs = sympy.symbols("x0:3")
    monomials = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]
    gens = [
        {m: Fraction(rng.randint(-3, 3)) for m in monomials if rng.random() < 0.7}
        for _ in range(3)
    ]
    gens = [{m: c for m, c in g.items() if c} for g in gens]
    ours = {
        frozenset({lead: Fraction(1), **tail}.items())
        for lead, tail in qr.groebner_basis(gens)
    }
    basis = sympy.groebner(
        [_expr(g, xs) for g in gens], *xs, order="grevlex", domain="QQ"
    )
    assert ours == {frozenset(_terms(g, xs).items()) for g in basis.exprs}
