import itertools
import math
import random
from fractions import Fraction

from toricmirror import _intlinalg as ila

from helpers import solve_integer


def test_exgcd_bezout_small_range():
    for a, b in itertools.product(range(-8, 9), repeat=2):
        g, x, y = ila.exgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g


def test_exgcd_divisor_keeps_pivot():
    # a | b must give the (sign(a), 0) pair, or elimination loops
    for a, b in ((1, 1), (1, -1), (-2, 6), (3, 0), (-1, 5)):
        g, x, y = ila.exgcd(a, b)
        assert y == 0 and x * a == g


def test_column_echelon_factors_matrix():
    rng = random.Random(7)
    for _ in range(100):
        n, d = rng.randint(1, 4), rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)]
        pivots, h, u = ila.column_echelon(mat)
        # H == mat @ U
        for r in range(n):
            for c in range(d):
                assert h[c][r] == sum(mat[r][k] * u[c][k] for k in range(d))
        # U unimodular
        assert ila.cramer([[u[c][i] for c in range(d)] for i in range(d)], d)[0] in (1, -1)
        # echelon: zero to the right of each pivot in its row
        for row, col in pivots:
            assert h[col][row] > 0
            assert all(h[c][row] == 0 for c in range(col + 1, d))


def test_integer_kernel_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        n, d = rng.randint(1, 3), rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        basis = ila.integer_kernel(mat)
        # every basis column is in the kernel
        for col in basis:
            assert all(
                sum(mat[r][i] * col[i] for i in range(d)) == 0 for r in range(n)
            )
        # every brute-force kernel vector is an integer combination
        box = itertools.product(range(-2, 3), repeat=d)
        stacked = [[col[i] for col in basis] for i in range(d)]
        for k in box:
            if any(sum(mat[r][i] * k[i] for i in range(d)) for r in range(n)):
                continue
            sol = solve_integer(stacked, list(k)) if basis else (
                None if any(k) else []
            )
            assert sol is not None, (mat, k, basis)


def test_solve_integer_roundtrip():
    mat = [[1, 0, -1, 0], [0, 1, -1, -1]]
    for rhs in ((1, 0), (0, 1), (3, -2)):
        sol = solve_integer(mat, list(rhs))
        assert sol is not None
        assert tuple(
            sum(mat[r][i] * sol[i] for i in range(4)) for r in range(2)
        ) == rhs


def test_det_and_unimodular_inverse():
    assert ila.cramer([[1, 2], [3, 4]], 2) == (-2, [[], []])
    assert ila.cramer([[2]], 1) == (2, [[]])
    m = [[1, -1], [0, 1]]
    inv = ila.unimodular_inverse(m)
    assert inv == [[1, 1], [0, 1]]
    assert ila.unimodular_inverse([[2, 0], [0, 1]]) is None


def test_rational_inverse_random():
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
               for _ in range(n)]
        inv = ila.inverse(mat)
        if inv is None:
            continue
        assert all(
            sum(inv[r][k] * mat[k][c] for k in range(n)) == (1 if r == c else 0)
            for r in range(n) for c in range(n)
        )
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        # the same system with each row cleared of denominators, in plain ints
        scale = [math.lcm(*(v.denominator for v in row)) for row in mat]
        det, nums = ila.cramer(
            [[int(v * s) for v in row] + [int(b * s)]
             for row, b, s in zip(mat, rhs, scale)], n
        )
        sol = [Fraction(row[0], det) for row in nums]
        assert [sum(mat[r][k] * sol[k] for k in range(n)) for r in range(n)] == rhs
        checked += 1


def test_singular_matrix_has_no_inverse_or_solution():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert ila.inverse(mat) is None
    assert ila.cramer([row + [b] for row, b in zip(mat, [1, 2, 0])], 3) == (0, None)
    assert ila.unimodular_inverse(mat) is None


def test_rref_pivot_columns_of_rank_deficient_matrix():
    # rank 2: row 3 = row 1 + row 2, and column 1 = 2 * column 0
    rows = [[Fraction(v) for v in row] for row in
            ([1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2])]
    assert ila.rref(rows, 4) == [0, 2]
    assert rows == [[1, 2, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]]


def _leibniz_det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(mat[r][perm[r]] for r in range(n))
    return total


def test_cramer_gives_determinant_and_adjugate():
    # oracles: the Leibniz sum, and det * (Fraction inverse) for the adjugate
    rng = random.Random(17)
    singular = 0
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        extra = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        det, block = ila.cramer([row + ext for row, ext in zip(mat, extra)], n)
        assert det == _leibniz_det(mat)
        inv = ila.inverse(mat)
        if inv is None:
            assert block is None
            singular += 1
            continue
        assert block == [
            [det * sum(inv[r][k] * extra[k][c] for k in range(n)) for c in range(m)]
            for r in range(n)
        ]
    assert 0 < singular < 200
