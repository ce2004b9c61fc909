import cmath
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import toricmirror as tm
from toricmirror import _intlinalg as ila
from toricmirror import quantum_ring as qr
from toricmirror.disc_algebra import QLaurent, product
from toricmirror.errors import (
    DimensionUnstable,
    EmptyQuotient,
    NonUnitLeadingCoefficient,
    NotAProduct,
    WrongParameterCount,
)
from toricmirror.syz_transform import ZLaurent

from helpers import FIXTURE_NAMES, croots, data_for, multiset_distance, product_data


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
        mats = [np.zeros((model.dim, model.dim)) for _ in range(data.d)]
        for i, mat in enumerate(mats):
            cls = qr.DivisorPolynomial.variable(data.d, i, data.l)
            for (row, col), c in model.multiplication_entries(cls).items():
                mat[row, col] = float(c)
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


def _normal_form_matrix(model, p):
    """Multiplication by p assembled column by column from NF(p * b)."""
    reduced = model.reduce_divisor_poly(p)
    index = {m: r for r, m in enumerate(model.basis)}
    mat = [[Fraction(0)] * model.dim for _ in range(model.dim)]
    for col, b in enumerate(model.basis):
        for m, c in model.normal_form(product(reduced, {b: Fraction(1)})).items():
            mat[index[m]][col] = c
    return mat


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("P2^3",))
def test_divisor_matrices_and_spectra_match_normal_forms(name):
    # the operator-built matrices equal the normal-form ones entry for entry,
    # and the spectra are eigvals of exactly their float(Fraction) arrays
    data = product_data([2] * 3) if name == "P2^3" else data_for(name)
    rng = random.Random(41)
    q = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(data.l)]
    pres = qr.presentation_for(data)
    model = qr.quotient_model(pres, q)
    report = qr.verify_isomorphism(data, pres, q, seed=1)
    assert report.ok
    for i in range(data.d):
        cls = qr.DivisorPolynomial.variable(data.d, i, data.l)
        expected = _normal_form_matrix(model, cls)
        assert model.multiplication_entries(cls) == {
            (row, col): c for row, cs in enumerate(expected) for col, c in enumerate(cs) if c}
        spectrum = qr.multiplication_spectrum(model, cls)
        assert report.spectra[i]["eigenvalues"] == spectrum
        arr = np.array([[float(v) for v in row] for row in expected])
        eig = sorted((complex(v) for v in np.linalg.eigvals(arr)),
                     key=lambda zc: (zc.real, zc.imag))
        assert spectrum == eig


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_number_of_parameters_is_rejected(count):
    # a short q used to be zipped away (q_2 read as 1), a long one truncated
    data = data_for("P1xP1")
    pres = qr.presentation_for(data)
    q = [Fraction(1, 2)] * count
    message = f"expected 2 parameter value\\(s\\), got {count}"
    with pytest.raises(WrongParameterCount, match=message):
        qr.quotient_model(pres, q)
    with pytest.raises(WrongParameterCount, match=message):
        qr.verify_isomorphism(data, pres, q)


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
    pres = qr.presentation_for(data)
    report = qr.verify_isomorphism(data, pres, [Fraction(1, 2), Fraction(3, 10)])
    assert report.ok
    assert report.dim == report.point_count == 4
    assert pres.provenance == "builtin-example"


def test_relations_match_on_every_fixture():
    for name in FIXTURE_NAMES:
        data = data_for(name)
        pres = qr.presentation_for(data)
        assert qr.relations_match(data, pres, tm.superpotential(data)) == (True, True)


def _with_log_derivative_as_quantum_generator(pres):
    return qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=pres.quantum_gens + (pres.linear_gens[0],),
        provenance=pres.provenance,
    )


def test_log_derivative_as_quantum_generator_fails_the_exact_check():
    # z_1 dW/dz_1 vanishes at every critical point but is not the zero Laurent
    # polynomial: only the exact comparison tells it from a quantum relation
    data = data_for("P2")
    pres = qr.presentation_for(data)
    spiked = _with_log_derivative_as_quantum_generator(pres)
    assert qr.relations_match(data, spiked, tm.superpotential(data)) == (True, False)
    q = [Fraction(7, 10)]
    report = qr.verify_isomorphism(data, spiked, q)
    image = qr.substitute_divisors(pres.linear_gens[0], data)
    assert image
    assert max(map(abs, tm.evaluate_at_critical(image, report.critical_points, q))) < 1e-12
    checks = {c.name: c for c in report.checks}
    vanish = checks["quantum-generators-vanish-at-critical-points"]
    assert not vanish.passed and vanish.details["max_residual"] <= qr.IDEAL_TOL
    assert checks["linear-generators-map-to-log-derivatives"].passed
    assert checks["dimension-equals-critical-point-count"].passed
    assert not report.ok


def test_newton_is_bounded_by_the_dimension_only_when_the_relations_match(monkeypatch):
    bounds = []

    def spy(w, q, config, seeds=None):
        bounds.append(None if seeds is None else len(seeds))
        return tm.critical_points(w, q, config, seeds=seeds)

    monkeypatch.setattr(qr, "critical_points", spy)
    data = data_for("P2")
    pres = qr.presentation_for(data)
    q = [Fraction(7, 10)]
    assert qr.verify_isomorphism(data, pres, q).ok
    assert not qr.verify_isomorphism(
        data, _with_log_derivative_as_quantum_generator(pres), q
    ).ok
    assert bounds == [3, None]


# the five fixtures and every rung of perfbench's two ladders
SPECTRUM_INPUTS = FIXTURE_NAMES + ((3,), (4,), (5,), (6,), (1, 3), (1, 1, 1),
                                   (2, 2, 2), (1, 1, 1, 1))


@pytest.mark.parametrize(
    "name", SPECTRUM_INPUTS,
    ids=lambda x: x if isinstance(x, str) else "x".join(f"P{m}" for m in x),
)
def test_batched_spectra_equal_the_spectrum_of_each_divisor(name):
    data = data_for(name) if name in FIXTURE_NAMES else product_data(name)
    pres = qr.presentation_for(data)
    q = [Fraction(2, 3) + Fraction(k, 7) for k in range(data.l)]
    report = qr.verify_isomorphism(data, pres, q)
    model = qr.quotient_model(pres, q)
    for i in range(data.d):
        cls = qr.DivisorPolynomial.variable(data.d, i, data.l)
        assert report.spectra[i]["eigenvalues"] == qr.multiplication_spectrum(model, cls)


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


# --- one ring model over Q[q^{+-1}] per input --------------------------------

# q = 1, a small rational, a decimal as the newton-ladder draws it, and 1e-20
EVALUATION_QS = (Fraction(1), Fraction(7, 10), Fraction(str(10 ** 1.2345)),
                 Fraction(1, 10 ** 20))


def _standard_monomials(leads, l):
    """Monomials divisible by no lead, in the basis order (degree, then lex)."""
    bound = max(map(max, leads)) if leads else 0
    return tuple(sorted(
        (m for m in itertools.product(range(bound + 1), repeat=l)
         if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)),
        key=lambda m: (sum(m), m)))


@pytest.mark.parametrize(
    "name", SPECTRUM_INPUTS,
    ids=lambda x: x if isinstance(x, str) else "x".join(f"P{m}" for m in x),
)
def test_laurent_model_at_q_is_the_exact_model_at_q(name):
    # the Groebner basis of the generators eliminated at exact q, its standard
    # monomials and its operators equal the Laurent model's evaluated at q
    data = data_for(name) if name in FIXTURE_NAMES else product_data(name)
    pres = qr.presentation_for(data)
    free, forms = qr._linear_substitution(pres.linear_gens, pres.d)
    ring = qr._ring_model(data, pres)
    for q0 in EVALUATION_QS:
        q = tuple(q0 * (k + 1) for k in range(data.l))
        exact = qr.groebner_basis(
            [qr._eliminate(g, forms, q, len(free)) for g in pres.quantum_gens])
        model = qr.quotient_model(pres, q)
        assert [(lead, tail) for lead, tail in model.groebner] == exact
        assert model.basis == _standard_monomials([lead for lead, _ in exact], len(free))
        index = {m: r for r, m in enumerate(model.basis)}
        for s, operator in enumerate(model.operators):
            for b, column in zip(model.basis, operator):
                shifted = tuple(e + (t == s) for t, e in enumerate(b))
                nf = qr._remainder({shifted: Fraction(1)}, exact)
                assert column == {index[m]: c for m, c in nf.items()}
        # verify_isomorphism's residuals sum the terms in the exact order
        values = [c.evaluate_exact(q) for c in ring.values]
        for g, reduced in zip(pres.quantum_gens, ring.reduced):
            at_q = [(m, values[k]) for m, k in reduced if values[k]]
            assert at_q == list(model.reduce_divisor_poly(g).items())


def test_non_unit_leading_coefficient_is_a_named_error():
    # (1 + q) D3^3 - q: the leading coefficient 1 + q is not a unit of Q[q^{+-1}]
    data = data_for("P2")
    pres = qr.presentation_for(data)
    q = QLaurent.monomial((1,))
    odd = qr.RingPresentation(
        d=pres.d,
        linear_gens=pres.linear_gens,
        quantum_gens=(dpoly([((0, 0, 3), QLaurent.constant(1, 1) + q), ((0, 0, 0), -q)], 1),),
        provenance="computed-product",
    )
    for _ in range(2):  # a raising build is not kept
        with pytest.raises(NonUnitLeadingCoefficient, match="not a unit"):
            qr.quotient_model(odd, [Fraction(1)])
    with pytest.raises(NonUnitLeadingCoefficient):
        qr.verify_isomorphism(data, odd, [Fraction(1)])


def _cold():
    qr._laurent_model.cache_clear()
    qr._ring_model.cache_clear()


def test_one_ring_model_serves_every_q(monkeypatch):
    # equal but distinct inputs at two q: one Groebner basis, one vertex
    # enumeration for the expected count and one chart search
    calls = []

    def counting(module, name):
        callee = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return callee(*args)

        monkeypatch.setattr(module, name, counted)

    counting(qr, "groebner_basis")
    counting(tm.toric_core, "polytope_vertices")
    counting(qr, "_unimodular_chart")
    _cold()
    rays = [r for r in data_for("P1xP2").rays]
    first, second = tm.build_toric_data(rays), tm.build_toric_data(rays)
    assert first == second and first is not second
    pres = [qr.presentation_for(first), qr.presentation_for(second)]
    assert qr.verify_isomorphism(first, pres[0], [Fraction(1, 3), Fraction(2, 5)]).ok
    assert qr.verify_isomorphism(second, pres[1], [Fraction(7, 10), Fraction(3)]).ok
    assert qr.quotient_model(pres[1], [Fraction(1), Fraction(1)]).dim == 6
    assert sorted(calls) == ["_unimodular_chart", "groebner_basis", "polytope_vertices"]
    # a presentation that differs builds its own model
    spiked = _with_log_derivative_as_quantum_generator(pres[0])
    assert not qr.verify_isomorphism(first, spiked, [Fraction(7, 10)] * 2).ok
    assert calls.count("groebner_basis") == 2


@pytest.mark.parametrize(
    "name", ("P2", "BlP2", (1, 1, 1)),
    ids=lambda x: x if isinstance(x, str) else "x".join(f"P{m}" for m in x),
)
def test_a_report_from_the_kept_model_equals_a_cold_one(name):
    data = data_for(name) if name in FIXTURE_NAMES else product_data(name)
    pres = qr.presentation_for(data)
    q = [Fraction(2, 3) + Fraction(k, 7) for k in range(data.l)]
    qr.verify_isomorphism(data, pres, [Fraction(1, 9)] * data.l, seed=5)
    warm = qr.verify_isomorphism(data, pres, q, seed=5)
    _cold()
    assert qr.verify_isomorphism(data, pres, q, seed=5) == warm
