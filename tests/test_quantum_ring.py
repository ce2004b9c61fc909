import cmath
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import toricmirror as tm
from toricmirror import _intlinalg as ila
from toricmirror import quantum_ring as qr
from toricmirror.disc_algebra import QLaurent
from toricmirror.errors import (
    DimensionUnstable,
    EmptyQuotient,
    NotAProduct,
)
from toricmirror.syz_transform import ZLaurent

from helpers import croots, data_for, multiset_distance, product_data


def dpoly(pairs, l):
    terms = {}
    for m, c in pairs:
        coeff = c if isinstance(c, QLaurent) else QLaurent.constant(c, l)
        terms[tuple(m)] = terms.get(tuple(m), QLaurent()) + coeff
    return qr.DivisorPolynomial(terms)


# --- linear ideal ------------------------------------------------------------

def test_linear_ideal_plane():
    gens = qr.linear_ideal(data_for("P2"))
    assert gens[0] == dpoly([((1, 0, 0), 1), ((0, 0, 1), -1)], 1)
    assert gens[1] == dpoly([((0, 1, 0), 1), ((0, 0, 1), -1)], 1)


def test_linear_ideal_quad():
    gens = qr.linear_ideal(data_for("P1xP1"))
    assert gens[0] == dpoly([((1, 0, 0, 0), 1), ((0, 1, 0, 0), -1)], 2)
    assert gens[1] == dpoly([((0, 0, 1, 0), 1), ((0, 0, 0, 1), -1)], 2)


def test_linear_ideal_blowup():
    # second generator pairs the vertical coordinate with both south facets
    gens = qr.linear_ideal(data_for("BlP2"))
    assert gens[0] == dpoly([((1, 0, 0, 0), 1), ((0, 0, 1, 0), -1)], 2)
    assert gens[1] == dpoly(
        [((0, 1, 0, 0), 1), ((0, 0, 1, 0), -1), ((0, 0, 0, 1), -1)], 2
    )


# --- product detection -------------------------------------------------------

def test_product_structure_plane_single_factor():
    fac = qr.product_structure(data_for("P2"))
    assert fac is not None and len(fac) == 1
    assert fac.factors[0].ray_indices == (0, 1, 2)
    assert fac.factors[0].q_exponents == (1,)


def test_product_structure_quad_two_factors():
    fac = qr.product_structure(data_for("P1xP1"))
    assert len(fac) == 2
    assert fac.factors[0].ray_indices == (0, 1)
    assert fac.factors[1].ray_indices == (2, 3)
    assert fac.factors[0].q_exponents == (1, 0)
    assert fac.factors[1].q_exponents == (0, 1)


def test_product_structure_mixed_factors():
    fac = qr.product_structure(data_for("P1xP2"))
    assert len(fac) == 2
    assert [b.dimension for b in fac.factors] == [1, 2]


def test_product_structure_absent_for_blowup():
    assert qr.product_structure(data_for("BlP2")) is None


# --- quantum relations -------------------------------------------------------

def test_quantum_relations_plane():
    data = data_for("P2")
    gens = qr.quantum_sr_ideal(data, qr.product_structure(data))
    assert gens == [
        dpoly([((1, 1, 1), 1), ((0, 0, 0), QLaurent.monomial((1,), -1))], 1)
    ]


def test_quantum_relations_quad():
    data = data_for("P1xP1")
    gens = qr.quantum_sr_ideal(data, qr.product_structure(data))
    assert gens[0] == dpoly(
        [((1, 1, 0, 0), 1), ((0, 0, 0, 0), QLaurent.monomial((1, 0), -1))], 2
    )
    assert gens[1] == dpoly(
        [((0, 0, 1, 1), 1), ((0, 0, 0, 0), QLaurent.monomial((0, 1), -1))], 2
    )


def test_quantum_relations_mixed():
    data = data_for("P1xP2")
    gens = qr.quantum_sr_ideal(data, qr.product_structure(data))
    assert gens[0] == dpoly(
        [((1, 1, 0, 0, 0), 1), ((0,) * 5, QLaurent.monomial((1, 0), -1))], 2
    )
    assert gens[1] == dpoly(
        [((0, 0, 1, 1, 1), 1), ((0,) * 5, QLaurent.monomial((0, 1), -1))], 2
    )


def test_quantum_relations_require_product():
    with pytest.raises(NotAProduct):
        qr.quantum_sr_ideal(data_for("BlP2"), None)


def test_builtin_presentation_blowup():
    pres = qr.presentation_for(data_for("BlP2"))
    assert pres.provenance == "builtin-example"
    assert pres.quantum_gens[0] == dpoly(
        [((1, 0, 1, 0), 1), ((0, 0, 0, 1), QLaurent.monomial((1, 0), -1))], 2
    )
    assert pres.quantum_gens[1] == dpoly(
        [((0, 1, 0, 1), 1), ((0, 0, 0, 0), QLaurent.monomial((0, 1), -1))], 2
    )


def test_blowup_rays_with_computed_basis_are_not_the_builtin():
    data = tm.build_toric_data(data_for("BlP2").rays)
    assert data.kbasis != data_for("BlP2").kbasis
    with pytest.raises(NotAProduct):
        qr.presentation_for(data)


# --- substitution ------------------------------------------------------------

def test_substitute_linear_generators_give_log_derivatives():
    for name in ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2"):
        data = data_for(name)
        jac = tm.jacobian_generators(tm.superpotential(data))
        for j, gen in enumerate(qr.linear_ideal(data)):
            assert qr.substitute_divisors(gen, data) == jac[j]


def test_substitute_quantum_generators_vanish():
    for name in ("P2", "P1xP1", "P1xP2", "P2xP2"):
        data = data_for(name)
        for gen in qr.quantum_sr_ideal(data, qr.product_structure(data)):
            assert qr.substitute_divisors(gen, data) == ZLaurent()
    bl = data_for("BlP2")
    for gen in qr.presentation_for(bl).quantum_gens:
        assert qr.substitute_divisors(gen, bl) == ZLaurent()


# --- quotient models ---------------------------------------------------------

def combinations_pivot_reference(data):
    """First invertible column set in combinations order, by Fraction inverse.

    Returns the free ray indices and, per ray, its linear form in the free
    variables; D_pivot = -(Vp^-1 Vf) D_free.
    """
    n, d = data.n, data.d
    vmat = [[Fraction(data.rays[i][j]) for i in range(d)] for j in range(n)]
    for pivots in itertools.combinations(range(d), n):
        inv = ila.inverse([[vmat[r][c] for c in pivots] for r in range(n)])
        if inv is not None:
            break
    free = tuple(i for i in range(d) if i not in pivots)

    def unit(s):
        return tuple(int(s == t) for t in range(len(free)))

    forms = {ray: {unit(s): Fraction(1)} for s, ray in enumerate(free)}
    for r, ray in enumerate(pivots):
        forms[ray] = {}
        for s, f in enumerate(free):
            v = -sum(inv[r][k] * vmat[k][f] for k in range(n))
            if v:
                forms[ray][unit(s)] = v
    return free, tuple(forms[i] for i in range(d))


BLP2_RAYS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "blp2_rays.json"


@pytest.mark.parametrize("name", ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2",
                                  "BlP2-rays", "P2^3", "P2^4", "P1^5"))
def test_linear_substitution_matches_combinations_order(name):
    if name == "BlP2-rays":
        data = tm.build_toric_data(json.loads(BLP2_RAYS.read_text())["rays"])
    elif "^" in name:
        m, k = name[1:].split("^")
        data = product_data([int(m)] * int(k))
    else:
        data = data_for(name)
    free, forms = qr._linear_substitution(qr.linear_ideal(data), data.d)
    assert (free, forms) == combinations_pivot_reference(data)


def test_quotient_model_plane():
    pres = qr.presentation_for(data_for("P2"))
    model = qr.quotient_model(pres, [Fraction(1)])
    assert model.dim == 3
    assert model.basis == ((0,), (1,), (2,))
    assert model.free_indices == (2,)


def test_quotient_model_quad():
    pres = qr.presentation_for(data_for("P1xP1"))
    model = qr.quotient_model(pres, [Fraction(1), Fraction(1)])
    assert model.dim == 4
    assert model.basis == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_quotient_model_blowup():
    model = qr.quotient_model(
        qr.presentation_for(data_for("BlP2")), [Fraction(1), Fraction(1)]
    )
    assert model.dim == 4


@pytest.mark.parametrize(
    "name,dim", [("P2", 3), ("P1xP1", 4), ("P1xP2", 6), ("P2xP2", 9)]
)
def test_quotient_dimensions_products(name, dim):
    pres = qr.presentation_for(data_for(name))
    data = data_for(name)
    model = qr.quotient_model(pres, [Fraction(7, 10)] * data.l)
    assert model.dim == dim
    fac = qr.product_structure(data)
    expected = 1
    for block in fac.factors:
        expected *= block.dimension + 1
    assert model.dim == expected


def test_multiplication_matrices_commute():
    for name in ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2"):
        data = data_for(name)
        pres = qr.presentation_for(data)
        model = qr.quotient_model(pres, [Fraction(7, 10), Fraction(2, 10)][: data.l])
        mats = [
            np.array(
                [
                    [float(v) for v in row]
                    for row in model.multiplication_matrix(
                        qr.DivisorPolynomial.variable(data.d, i, data.l)
                    )
                ]
            )
            for i in range(data.d)
        ]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                assert np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) <= 1e-8


def test_spectrum_plane_hyperplane_class():
    pres = qr.presentation_for(data_for("P2"))
    model = qr.quotient_model(pres, [Fraction(1)])
    spec = qr.multiplication_spectrum(
        model, qr.DivisorPolynomial.variable(3, 0, 1)
    )
    roots = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert multiset_distance(spec, roots) < 1e-9


def test_spectrum_quad_first_factor():
    pres = qr.presentation_for(data_for("P1xP1"))
    model = qr.quotient_model(pres, [Fraction(1), Fraction(1)])
    spec = qr.multiplication_spectrum(
        model, qr.DivisorPolynomial.variable(4, 0, 2)
    )
    assert multiset_distance(spec, [1, 1, -1, -1]) < 1e-9


def test_spectrum_of_unit_class():
    data = data_for("P2")
    model = qr.quotient_model(qr.presentation_for(data), [Fraction(1)])
    one = dpoly([((0, 0, 0), 1)], 1)
    assert multiset_distance(qr.multiplication_spectrum(model, one), [1, 1, 1]) < 1e-12


# --- failure modes -----------------------------------------------------------

def test_positive_dimensional_ideal_is_rejected():
    data = data_for("P1xP1")
    pres = qr.presentation_for(data)
    partial = qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=pres.quantum_gens[:1],  # drops one factor's relation
        provenance="computed-product",
    )
    with pytest.raises(DimensionUnstable):
        qr.quotient_model(partial, [Fraction(1), Fraction(1)])


def test_unit_ideal_gives_empty_quotient():
    data = data_for("P2")
    pres = qr.presentation_for(data)
    spiked = qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=pres.quantum_gens
        + (dpoly([((0, 0, 0), 1)], 1),),  # the constant 1
        provenance="computed-product",
    )
    with pytest.raises(EmptyQuotient):
        qr.quotient_model(spiked, [Fraction(1)])


def test_high_power_class_reduces_exactly():
    # D3^9 lies far above the relation D3^3 = q; at q = 1 it is the unit
    # class, so multiplication by it has every eigenvalue 1
    data = data_for("P2")
    model = qr.quotient_model(qr.presentation_for(data), [Fraction(1)])
    big = dpoly([((0, 0, 9), 1)], 1)
    assert model.normal_form(model.reduce_divisor_poly(big)) == {(0,): 1}
    assert multiset_distance(qr.multiplication_spectrum(model, big), [1, 1, 1]) < 1e-12


def test_variable_without_pure_power_is_positive_dimensional():
    # D1^2 - D1*D3 on P1xP1 eliminates to x^2 - x*y: x has a pure-power
    # leading monomial, y has none, so y^k is standard for every k
    data = data_for("P1xP1")
    pres = qr.presentation_for(data)
    lopsided = qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=(dpoly([((2, 0, 0, 0), 1), ((1, 0, 1, 0), -1)], 2),),
        provenance="computed-product",
    )
    with pytest.raises(DimensionUnstable, match="pure power of free variable 1"):
        qr.quotient_model(lopsided, [Fraction(1), Fraction(1)])


def test_degree_cap_is_largest_leading_degree():
    data = data_for("P2xP2")
    model = qr.quotient_model(qr.presentation_for(data), [Fraction(7, 10)] * 2)
    assert model.degree_cap == 3
    assert sorted(lead for lead, _ in model.groebner) == [(0, 3), (3, 0)]


# --- full verification -------------------------------------------------------

def test_verify_isomorphism_plane():
    data = data_for("P2")
    report = qr.verify_isomorphism(data, qr.presentation_for(data), [1])
    assert report.ok
    assert report.dim == report.point_count == 3


def test_verify_isomorphism_quad_generic_q():
    data = data_for("P1xP1")
    report = qr.verify_isomorphism(
        data, qr.presentation_for(data), [Fraction(7, 10), Fraction(2, 10)]
    )
    assert report.ok
    assert report.dim == 4


def test_verify_isomorphism_blowup():
    data = data_for("BlP2")
    report = qr.verify_isomorphism(
        data, qr.presentation_for(data), [Fraction(1, 2), Fraction(3, 10)]
    )
    assert report.ok
    assert report.dim == report.point_count == 4
    assert report.provenance == "builtin-example"


def test_relations_absorbed_by_elimination_are_unstable():
    # a "quantum" generator lying inside the linear ideal reduces to zero,
    # leaving a free polynomial ring whose basis never stabilizes
    data = data_for("P2")
    pres = qr.presentation_for(data)
    degenerate = qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=(pres.linear_gens[0],),
        provenance="computed-product",
    )
    with pytest.raises(DimensionUnstable):
        qr.quotient_model(degenerate, [Fraction(1)])


def test_full_verification_on_unregistered_inputs():
    # the pipeline is not tied to the registered inputs: a line and a
    # three-space factor run end to end with the expected dimensions
    line = tm.build_toric_data([(1,), (-1,)])
    report = qr.verify_isomorphism(line, qr.presentation_for(line), [Fraction(1, 2)])
    assert report.ok and report.dim == 2

    threespace = tm.build_toric_data(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    )
    report = qr.verify_isomorphism(
        threespace, qr.presentation_for(threespace), [Fraction(7, 10)]
    )
    assert report.ok and report.dim == 4


def test_spectrum_multiplicities_on_product_of_planes():
    # multiplication by the first divisor on the 9-dimensional model has the
    # cube roots of q_1 as eigenvalues, each with multiplicity three
    data = data_for("P2xP2")
    model = qr.quotient_model(
        qr.presentation_for(data), [Fraction(7, 10), Fraction(1, 5)]
    )
    spec = qr.multiplication_spectrum(
        model, qr.DivisorPolynomial.variable(6, 0, 2)
    )
    expected = [r for r in croots(3, 0.7) for _ in range(3)]
    assert multiset_distance(spec, expected) < 1e-9


@pytest.mark.parametrize(
    "dims,q",
    [
        ((1, 1, 1, 1, 1), [Fraction(k, 9) for k in (7, 3, 5, 2, 8)]),
        ((2, 2, 2, 2), [Fraction(k, 9) for k in (7, 3, 5, 2)]),
    ],
)
def test_verify_isomorphism_at_scale(dims, q):
    # out of reach of a degree-capped Macaulay elimination: 32 and 81 classes
    data = product_data(dims)
    report = qr.verify_isomorphism(data, qr.presentation_for(data), q, seed=1)
    assert report.ok
    expected = 1
    for m in dims:
        expected *= m + 1
    assert report.dim == report.point_count == expected
