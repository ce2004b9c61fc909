import math
import random
from fractions import Fraction

import pytest

import toricmirror as tm
from toricmirror import disc_algebra as da
from toricmirror.errors import IndexOutOfRange

from helpers import FIXTURE_NAMES, data_for, random_admissible, random_qlaurent


def qmono(*exps):
    return da.QLaurent.monomial(tuple(exps))


# --- coefficient ring --------------------------------------------------------

def test_qlaurent_prunes_zeros_and_merges():
    p = da.QLaurent({(1,): Fraction(1, 2), (0,): 0})
    assert list(p.terms) == [(1,)]
    assert p + p.scale(-1) == da.QLaurent()
    assert not (p - p)


def test_qlaurent_product_and_negative_exponents():
    p = qmono(1, 0) * qmono(-1, 2)
    assert p == qmono(0, 2)
    assert p.evaluate([0.5, 2.0]) == pytest.approx(4.0)
    assert p.evaluate_exact([Fraction(1, 2), Fraction(2)]) == 4


def test_qlaurent_json_is_sorted():
    p = da.QLaurent({(2,): Fraction(1, 8), (0,): 1, (1,): 1})
    assert [e["q_exponents"] for e in p.to_json()] == [[0], [1], [2]]


SPARSE_CLASSES = (tm.QLaurent, tm.AdmissibleFunction, tm.ZLaurent, tm.DivisorPolynomial)


@pytest.mark.parametrize("cls", SPARSE_CLASSES, ids=lambda c: c.__name__)
def test_sparse_containers_share_merge_and_product(cls):
    rng = random.Random(cls.__name__)
    low = 0 if cls is tm.DivisorPolynomial else -2

    def coeff():
        if cls is tm.QLaurent:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        return random_qlaurent(rng, 2)

    def rand():
        return cls([
            (tuple(rng.randint(low, 2) for _ in range(3)), coeff())
            for _ in range(rng.randint(1, 6))
        ])

    key, a, b = (1, 0, 2), coeff(), coeff()
    assert cls([(key, a), (key, b)]).terms == ({key: a + b} if a + b else {})
    assert cls([(key, a), (key, -a)]).terms == {}
    for _ in range(20):
        p, q = rand(), rand()
        diff = p - p
        assert not diff and diff.terms == {}
        naive = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                naive[e] = naive[e] + c1 * c2 if e in naive else c1 * c2
        pq = p * q
        assert type(pq) is cls and type(pq.terms) is dict
        assert pq.terms == {e: c for e, c in naive.items() if c}
    t = {(i, 0, 1): coeff() for i in range(3)}
    assert cls(t).terms == t and cls(t) != t
    for other in SPARSE_CLASSES:
        if other is not cls and (other is tm.QLaurent) == (cls is tm.QLaurent):
            assert cls(t) != other(t)


# --- facet functions and unit ------------------------------------------------

def test_divisor_function_plane():
    data = data_for("P2")
    psi3 = tm.divisor_function(data, 2)
    assert psi3.terms == {(-1, -1): qmono(1)}
    psi1 = tm.divisor_function(data, 0)
    assert psi1.terms == {(1, 0): qmono(0)}


def test_unit_values():
    data = data_for("P2")
    one = tm.unit(data)
    assert one.coefficient((0, 0)) == da.QLaurent.constant(1, 1)
    assert one.coefficient((1, 0)) == da.QLaurent()


def test_inverse_facet_function_cancels():
    for name in FIXTURE_NAMES:
        data = data_for(name)
        for i in range(data.d):
            prod = tm.convolve(
                tm.divisor_function(data, i, -1), tm.divisor_function(data, i)
            )
            assert prod == tm.unit(data)


def test_divisor_function_index_errors():
    data = data_for("P2")
    with pytest.raises(IndexOutOfRange):
        tm.divisor_function(data, 3)
    with pytest.raises(IndexOutOfRange):
        tm.divisor_function(data, 0, power=2)


# --- convolution laws --------------------------------------------------------

def test_unit_is_two_sided_identity_random():
    rng = random.Random(1)
    data = data_for("P1xP1")
    one = tm.unit(data)
    for _ in range(100):
        f = random_admissible(rng, data.n, data.l)
        assert tm.convolve(f, one) == f
        assert tm.convolve(one, f) == f


def test_convolution_commutative_associative_random():
    rng = random.Random(2)
    for _ in range(20):
        n, l = rng.randint(1, 3), rng.randint(1, 2)
        f = random_admissible(rng, n, l)
        g = random_admissible(rng, n, l)
        h = random_admissible(rng, n, l)
        assert tm.convolve(f, g) == tm.convolve(g, f)
        assert tm.convolve(tm.convolve(f, g), h) == tm.convolve(f, tm.convolve(g, h))


def test_plane_facet_product_is_q_times_unit():
    data = data_for("P2")
    prod = tm.convolve(
        tm.convolve(tm.divisor_function(data, 0), tm.divisor_function(data, 1)),
        tm.divisor_function(data, 2),
    )
    assert prod == tm.unit(data).scale(qmono(1))


def test_quad_opposite_facets_product():
    data = data_for("P1xP1")
    prod = tm.convolve(tm.divisor_function(data, 0), tm.divisor_function(data, 1))
    assert prod == tm.unit(data).scale(qmono(1, 0))
    prod = tm.convolve(tm.divisor_function(data, 2), tm.divisor_function(data, 3))
    assert prod == tm.unit(data).scale(qmono(0, 1))


def test_kernel_column_relations_all_fixtures():
    # prod_i Psi_i^{Q_ia} = q_a * unit, including negative exponents (BlP2)
    for name in FIXTURE_NAMES:
        data = data_for(name)
        for a in range(data.l):
            acc = tm.unit(data)
            for i in range(data.d):
                k = data.kbasis[a][i]
                if k:
                    acc = tm.convolve(acc, tm.divisor_power(data, i, k))
            expected = tm.unit(data).scale(
                qmono(*(1 if b == a else 0 for b in range(data.l)))
            )
            assert acc == expected, (name, a)


# --- disc series -------------------------------------------------------------

def test_disc_series_order_zero():
    data = data_for("P2")
    s = tm.disc_series(data, 0)
    assert s.terms == {(0, 0, 0): Fraction(1)}
    assert tm.to_admissible(s, data) == tm.unit(data)


def test_disc_series_weights():
    data = data_for("P2")
    s = tm.disc_series(data, 3)
    assert s.coefficient((1, 1, 1)) == 1
    assert s.coefficient((3, 0, 0)) == Fraction(1, 6)
    assert s.coefficient((2, 1, 0)) == Fraction(1, 2)
    assert len(s.terms) == 20  # all classes of total degree <= 3 in 3 slots


def test_disc_series_zero_class_projection():
    # classes over v = 0 through degree 6: sum_{m<=2} q^m / (m!)^3
    data = data_for("P2")
    adm = tm.to_admissible(tm.disc_series(data, 6), data)
    assert adm.coefficient((0, 0)) == da.QLaurent(
        {(0,): 1, (1,): 1, (2,): Fraction(1, 8)}
    )


def test_to_admissible_low_order():
    data = data_for("P2")
    adm = tm.to_admissible(tm.disc_series(data, 1), data)
    assert adm.terms == {
        (0, 0): da.QLaurent.constant(1, 1),
        (1, 0): da.QLaurent.constant(1, 1),
        (0, 1): da.QLaurent.constant(1, 1),
        (-1, -1): qmono(1),
    }


def test_to_admissible_quad_zero_class():
    data = data_for("P1xP1")
    adm = tm.to_admissible(tm.disc_series(data, 2), data)
    assert adm.coefficient((0, 0)) == da.QLaurent(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )


# --- log derivative ----------------------------------------------------------

def test_q_log_derivative_zero_class_view():
    data = data_for("P2")
    s = tm.disc_series(data, 6)
    d = tm.q_log_derivative(s, 0, data)
    adm = tm.to_admissible(d, data)
    assert adm.coefficient((0, 0)) == da.QLaurent({(1,): 1, (2,): Fraction(1, 4)})


def test_q_log_derivative_kills_constant_class():
    data = data_for("P2")
    s = tm.disc_series(data, 2)
    d = tm.q_log_derivative(s, 0, data)
    assert d.coefficient((0, 0, 0)) == 0


def test_q_log_derivative_index_error():
    data = data_for("P2")
    with pytest.raises(IndexOutOfRange):
        tm.q_log_derivative(tm.disc_series(data, 1), 1, data)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_log_derivative_identity_all_fixtures(name):
    # classwise: q_a d/dq_a equals convolution with sum_i E_ia Psi_i
    data = data_for(name)
    s = tm.disc_series(data, 6)
    for a in range(data.l):
        lhs = tm.q_log_derivative(s, a, data)
        rhs = da.log_derivative_convolution(s, a, data).restrict(6)
        assert lhs == rhs


def test_log_derivative_single_facet_for_products():
    # in the product fixtures each parameter is carried by exactly one facet
    for name in ("P2", "P1xP1", "P1xP2", "P2xP2"):
        data = data_for(name)
        for a in range(data.l):
            weights = [data.lambda_exponents[i][a] for i in range(data.d)]
            assert sorted(weights) == [0] * (data.d - 1) + [1]


def test_log_derivative_identity_at_function_level():
    # project the classwise identity to boundary classes: every (v, q) term
    # of the derivative appears in the convolution with the carrier facet
    # (terms of the two sides are in bijection with disc classes, so the
    # truncation window is unambiguous)
    data = data_for("P1xP1")
    s = tm.disc_series(data, 4)
    for a in range(data.l):
        lhs = tm.to_admissible(tm.q_log_derivative(s, a, data), data)
        carrier = next(
            i for i in range(data.d) if data.lambda_exponents[i][a] == 1
        )
        rhs = tm.convolve(
            tm.to_admissible(s, data), tm.divisor_function(data, carrier)
        )
        for v, coeff in lhs.terms.items():
            rhs_coeff = rhs.coefficient(v)
            for e, c in coeff.terms.items():
                assert rhs_coeff.terms.get(e) == c


# --- convergence bound -------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_partial_sums_respect_global_bound(name):
    data = data_for(name)
    adm = tm.to_admissible(tm.disc_series(data, 8), data)
    for qvals in ((1.0,) * data.l, (0.3,) * data.l):
        bound = math.exp(data.n + sum(qvals))
        for coeff in adm.terms.values():
            assert coeff.evaluate(qvals) <= bound
