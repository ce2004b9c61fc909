"""Fiberwise Fourier correspondence between the two sides of the mirror.

On coefficients the correspondence is a relabeling: the boundary-class
coefficient f_v becomes the coefficient of the mirror monomial z^v.  Both
sides are ``SparseTerms`` maps over the same exponent tuples, so
``transform`` and ``inverse_transform`` only change the type, and the algebra
law they transport -- lattice convolution on one side, the product of
Laurent objects on the other -- is the one shared ``product``.  The content
is in the truncated identity checked by ``exp_superpotential``.
"""

from __future__ import annotations

from fractions import Fraction

from .disc_algebra import (
    AdmissibleFunction,
    QLaurent,
    SparseTerms,
    add_into,
    class_weight,
    boundary_class,
    flat_json,
    iter_disc_classes,
    q_monomial_exponents,
)


class ZLaurent(SparseTerms):
    """Sparse Laurent object in the mirror coordinates z_1..z_n.

    Coefficients are QLaurent, so a term is (z-exponent, q-exponent, rational)
    and exact equality is equality of every such term.
    """

    __slots__ = ()

    def evaluate(self, z, qvals):
        """Complex value at nonzero mirror coordinates and numeric q."""
        total = 0 + 0j
        for w, c in self.terms.items():
            mono = 1 + 0j
            for zj, wj in zip(z, w):
                mono *= zj ** wj
            total += c.evaluate(qvals) * mono
        return total

    def to_json(self):
        return flat_json(self.terms, "z_exponents")


def transform(f: AdmissibleFunction) -> ZLaurent:
    """Fourier series of a finitely supported function: f_v -> z^v term."""
    return ZLaurent._wrap(dict(f.terms))


def inverse_transform(phi: ZLaurent) -> AdmissibleFunction:
    """Fourier coefficients of a Laurent object: z^w term -> value at v = w."""
    return AdmissibleFunction._wrap(dict(phi.terms))


def exp_superpotential(data, max_total):
    """Truncated exponential of the superpotential, with exact coefficients.

    Sums prod_i (e^{lambda_i} z^{v_i})^{k_i} / (k_1! ... k_d!) over all disc
    classes of total degree at most ``max_total``, merging equal
    (z-monomial, q-monomial) pairs.  Distinct classes never merge -- the class
    is recoverable from the pair -- so this equals the transform of the
    disc-count series truncated at the same order, term for term.
    """
    if max_total < 0:
        raise ValueError("truncation order must be nonnegative")
    return ZLaurent._wrap(add_into({}, (
        (boundary_class(data, k),
         QLaurent.monomial(q_monomial_exponents(data, k), Fraction(1, class_weight(k))))
        for k in iter_disc_classes(data.d, max_total)
    )))
