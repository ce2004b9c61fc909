"""Shared test utilities: cached fixtures/solves and independent oracles."""

import cmath
from fractions import Fraction

import toricmirror as tm
from toricmirror import _intlinalg as ila

FIXTURE_NAMES = ("P2", "P1xP1", "P1xP2", "P2xP2", "BlP2")
PRODUCT_NAMES = ("P2", "P1xP1", "P1xP2", "P2xP2")

_DATA = {}
_SOLVES = {}


def data_for(name):
    if name not in _DATA:
        _DATA[name] = tm.fixture(name)
    return _DATA[name]


def solve(name, q, seed=0):
    """Memoized critical-point solve for a named fixture."""
    key = (name, tuple(float(x) for x in q), seed)
    if key not in _SOLVES:
        data = data_for(name)
        w = tm.superpotential(data)
        cfg = tm.SolverConfig(
            expected_count=tm.vertex_count_reference(data), seed=seed
        )
        _SOLVES[key] = tm.critical_points(w, list(key[1]), cfg)
    return _SOLVES[key]


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x == rhs, or None if there is none.

    Forward substitution through ``column_echelon``: an oracle for kernel
    bases and Z-basis checks.
    """
    n = len(mat)
    d = len(mat[0]) if n else 0
    pivots, h, u = ila.column_echelon(mat)
    resid = list(rhs)
    y = [0] * d
    # Pivot columns vanish on all earlier rows, so substitution runs forward.
    for row, col in pivots:
        p = h[col][row]
        if resid[row] % p:
            return None
        t = resid[row] // p
        if t:
            y[col] = t
            for r in range(n):
                resid[r] -= t * h[col][r]
    if any(resid):
        return None
    return [sum(u[c][i] * y[c] for c in range(d)) for i in range(d)]


def product_data(dims):
    """Toric data of P^{m_1} x ... x P^{m_k} built from its rays."""
    total = sum(dims)
    rays, offset = [], 0
    for m in dims:
        for j in range(m):
            rays.append(tuple(1 if c == offset + j else 0 for c in range(total)))
        rays.append(tuple(-1 if offset <= c < offset + m else 0 for c in range(total)))
        offset += m
    return tm.build_toric_data(rays)


def croots(m, value):
    """All complex m-th roots of a positive real number."""
    r = value ** (1.0 / m)
    return [r * cmath.exp(2j * cmath.pi * k / m) for k in range(m)]


def closed_form_critical_points(name, q):
    """Factorwise closed-form critical points, hand-coded per fixture.

    For a projective-space factor the coordinates are equal and their common
    value runs over the roots of Z^(dim+1) = q_factor.  Independent of the
    Newton solver and of the library's product detection.
    """
    if name == "P2":
        return [(z, z) for z in croots(3, q[0])]
    if name == "P1xP1":
        return [(a, b) for a in croots(2, q[0]) for b in croots(2, q[1])]
    if name == "P1xP2":
        return [(a, b, b) for a in croots(2, q[0]) for b in croots(3, q[1])]
    if name == "P2xP2":
        return [
            (a, a, b, b) for a in croots(3, q[0]) for b in croots(3, q[1])
        ]
    raise ValueError(f"no closed form for {name}")


def multiset_distance(left, right):
    """Greedy minimal pairing distance between two complex multisets."""
    if len(left) != len(right):
        return float("inf")
    remaining = list(right)
    worst = 0.0
    for a in left:
        best = min(range(len(remaining)), key=lambda k: abs(a - remaining[k]))
        worst = max(worst, abs(a - remaining.pop(best)))
    return worst


def random_qlaurent(rng, l, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-2, 2) for _ in range(l))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[e] = terms.get(e, 0) + c
    return tm.QLaurent(terms)


def random_admissible(rng, n, l, max_support=4):
    terms = {}
    for _ in range(rng.randint(1, max_support)):
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        coeff = random_qlaurent(rng, l)
        terms[v] = terms.get(v, tm.QLaurent()) + coeff
    return tm.AdmissibleFunction(terms)


def exp_w_partial_sums(data, max_total):
    """[sum_{k<=K} W^k/k! for K = 0..max_total], from W and the product alone.

    An oracle for ``exp_superpotential`` that does not walk the disc classes.
    """
    w = tm.superpotential(data)
    power = total = tm.ZLaurent({(0,) * data.n: tm.QLaurent.constant(1, data.l)})
    sums = [total]
    for k in range(1, max_total + 1):
        power = (power * w).scale(Fraction(1, k))
        total = total + power
        sums.append(total)
    return sums
