"""Registered desk-scale inputs used by the command line and the test suite.

``REGISTRY`` maps each name to its rays and, where the input pins one, its
kernel basis; ``fixture(name)`` builds the validated input from that row.
"""

from __future__ import annotations

from .errors import UnknownFixture
from .toric_core import build_toric_data

REGISTRY = {
    "P2": ([(1, 0), (0, 1), (-1, -1)], None),
    "P1xP1": ([(1, 0), (-1, 0), (0, 1), (0, -1)], None),
    "P1xP2": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)], None),
    "P2xP2": ([(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
               (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)], None),
    # The plane blown up at a torus-fixed point, with its trapezoid kernel
    # basis: it pins the facet monomials to (1, 1, q1*q2, q2), so the two
    # parameters measure the exceptional curve and the fiber class.
    "BlP2": ([(1, 0), (0, 1), (-1, -1), (0, -1)],
             [(1, 0, 1, -1), (0, 1, 0, 1)]),
}


def fixture(name):
    try:
        rays, kbasis = REGISTRY[name]
    except KeyError:
        raise UnknownFixture(
            f"unknown fixture {name!r}; registered: {', '.join(REGISTRY)}"
        ) from None
    return build_toric_data(rays, kbasis=kbasis)
