import random
from fractions import Fraction

import pytest

import toricmirror as tm
from toricmirror import disc_algebra as da
from toricmirror.syz_transform import (
    ZLaurent,
    exp_superpotential,
    inverse_transform,
    transform,
)

from helpers import data_for, exp_w_partial_sums, random_admissible


def test_transform_of_facet_functions():
    data = data_for("P2")
    assert transform(tm.divisor_function(data, 0)) == ZLaurent(
        {(1, 0): da.QLaurent.constant(1, 1)}
    )
    assert transform(tm.divisor_function(data, 2)) == ZLaurent(
        {(-1, -1): da.QLaurent.monomial((1,))}
    )


def test_transform_of_unit_is_one():
    data = data_for("P1xP2")
    assert transform(tm.unit(data)) == ZLaurent(
        {(0, 0, 0): da.QLaurent.constant(1, 2)}
    )


def test_transform_of_convolution_is_product():
    data = data_for("P2")
    f, g = tm.divisor_function(data, 0), tm.divisor_function(data, 1)
    assert transform(tm.convolve(f, g)) == transform(f) * transform(g)
    assert transform(tm.convolve(f, g)) == ZLaurent(
        {(1, 1): da.QLaurent.constant(1, 1)}
    )


def test_homomorphism_and_inversion_random():
    rng = random.Random(4)
    for _ in range(50):
        n, l = rng.randint(1, 3), rng.randint(1, 2)
        f = random_admissible(rng, n, l)
        g = random_admissible(rng, n, l)
        assert transform(tm.convolve(f, g)) == transform(f) * transform(g)
        assert inverse_transform(transform(f)) == f
        assert transform(inverse_transform(transform(g))) == transform(g)


def test_exp_superpotential_order_zero_is_one():
    data = data_for("P2")
    assert exp_superpotential(data, 0) == ZLaurent(
        {(0, 0): da.QLaurent.constant(1, 1)}
    )


def test_exp_superpotential_low_order_constant_term():
    # through degree 2 no class reaches v = 0 with a q power: constant stays 1
    data = data_for("P2")
    e = exp_superpotential(data, 2)
    assert e.coefficient((0, 0)) == da.QLaurent.constant(1, 1)


def test_exp_superpotential_constant_term_through_degree_six():
    data = data_for("P2")
    e = exp_superpotential(data, 6)
    assert e.coefficient((0, 0)) == da.QLaurent(
        {(0,): 1, (1,): 1, (2,): Fraction(1, 8)}
    )


@pytest.mark.parametrize("name", ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2"))
def test_transform_of_disc_series_is_exp_superpotential(name):
    data = data_for(name)
    powers = exp_w_partial_sums(data, 6)
    for order in range(7):
        lhs = transform(tm.to_admissible(tm.disc_series(data, order), data))
        assert lhs == exp_superpotential(data, order)
        assert lhs == powers[order]


def test_inverse_transform_of_one_is_unit():
    data = data_for("P2")
    one = ZLaurent({(0, 0): da.QLaurent.constant(1, 1)})
    assert inverse_transform(one) == tm.unit(data)
