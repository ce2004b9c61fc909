import itertools
import random
from fractions import Fraction

import pytest

from toricmirror import quantum_ring as qr
from toricmirror import tropical as trop
from toricmirror.errors import IndexOutOfRange, NotAProduct

from helpers import PRODUCT_NAMES, data_for


def glue_at(data, xi, indices):
    return trop.glue_discs(xi, [data.rays[i] for i in indices])


def test_glue_balanced_plane_fan():
    data = data_for("P2")
    curve = glue_at(data, (0, 0), (0, 1, 2))
    assert curve.vertex == (0, 0)
    assert sorted(curve.edges) == [(-1, -1), (0, 1), (1, 0)]


def test_glue_rejects_unbalanced():
    data = data_for("P2")
    with pytest.raises(trop.Unbalanced):
        glue_at(data, (0, 0), (0, 1))


def test_opposite_pair_balances_in_quad_fan():
    data = data_for("P1xP1")
    curve = glue_at(data, (Fraction(1, 3), 2), (0, 1))
    assert trop.curve_degree(curve, data) == (1, 1, 0, 0)


def test_curve_degree_plane():
    data = data_for("P2")
    curve = glue_at(data, (0, 0), (0, 1, 2))
    assert trop.curve_degree(curve, data) == (1, 1, 1)


def test_degree_lies_in_kernel_for_all_balanced_multisets():
    # exhaustive: gluing succeeds exactly when directions cancel, and the
    # degree vector is then killed by the ray map
    for name in ("P2", "P1xP1", "BlP2"):
        data = data_for(name)
        xi = (Fraction(1, 2), Fraction(-1, 3))
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(
                range(data.d), size
            ):
                total = tuple(
                    sum(data.rays[i][j] for i in combo) for j in range(data.n)
                )
                if any(total):
                    with pytest.raises(trop.Unbalanced):
                        glue_at(data, xi, combo)
                else:
                    degree = trop.curve_degree(glue_at(data, xi, combo), data)
                    assert all(
                        sum(degree[i] * data.rays[i][j] for i in range(data.d)) == 0
                        for j in range(data.n)
                    )


@pytest.mark.parametrize("name", PRODUCT_NAMES)
def test_factor_counts_are_one_at_random_vertices(name):
    data = data_for(name)
    fac = qr.product_structure(data)
    rng = random.Random(17)
    for _ in range(20):
        xi = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            for _ in range(data.n)
        )
        for a in range(len(fac)):
            assert trop.count_tgw(data, fac, a, xi) == 1


def test_factor_curve_degree_is_kernel_column():
    data = data_for("P1xP1")
    fac = qr.product_structure(data)
    xi = (Fraction(0), Fraction(0))
    for a in range(2):
        curve = trop.factor_curve(data, fac, a, xi)
        degree = trop.curve_degree(curve, data)
        assert degree == data.kbasis[a]


@pytest.mark.parametrize("a", (-1, 2))
@pytest.mark.parametrize("call", (trop.factor_curve, trop.count_tgw))
def test_factor_index_out_of_range(call, a):
    data = data_for("P1xP1")
    with pytest.raises(IndexOutOfRange):
        call(data, qr.product_structure(data), a, (0, 0))


def test_count_requires_product():
    data = data_for("BlP2")
    with pytest.raises(NotAProduct):
        trop.count_tgw(data, qr.product_structure(data), 0, (0, 0))


def test_scene_svg_contains_edges():
    data = data_for("P2")
    curve = glue_at(data, (0, 0), (0, 1, 2))
    svg = trop.scene_svg([curve])
    assert svg.startswith("<svg")
    assert svg.count("<line") == 3
    assert "<circle" in svg
