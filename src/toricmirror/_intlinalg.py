"""Exact linear algebra for the small dense matrices used here.

Integer matrices (lists of row lists of Python ints) get one unimodular
column (Hermite) reduction, ``column_echelon``, behind kernel bases and the
surjectivity test, and one fraction-free (Bareiss) Gauss-Jordan reduction,
``cramer``, which gives a square block's determinant and its adjugate times
the augmented block in plain ints, and so also the unimodular inverse.
Rational systems get one Fraction reduced-row-echelon routine, ``rref``,
behind ``inverse`` and quantum_ring's linear substitution.  Every matrix
here is desk scale (dimensions at most ~12), so clarity beats asymptotics.
"""

from fractions import Fraction


def exgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g.

    When a divides b the pair is (sign(a), 0), so a column-reduction step
    whose pivot already divides the entry keeps the pivot column (up to sign)
    and only subtracts a multiple of it from the other column.
    """
    if a and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def column_echelon(mat):
    """Column echelon form of an integer matrix under unimodular column ops.

    Returns (pivots, h_cols, u_cols) where, writing H and U for the matrices
    with those columns, H = mat @ U, U is unimodular, pivots is a list of
    (row, col) with positive pivot entries, and every entry to the right of a
    pivot in its row is zero.  Columns are represented as lists.
    """
    n = len(mat)
    d = len(mat[0]) if n else 0
    h = [[mat[r][c] for r in range(n)] for c in range(d)]
    u = [[1 if i == c else 0 for i in range(d)] for c in range(d)]
    pivots = []
    col = 0
    for row in range(n):
        if col >= d:
            break
        pivot = next((c for c in range(col, d) if h[c][row]), None)
        if pivot is None:
            continue
        h[col], h[pivot] = h[pivot], h[col]
        u[col], u[pivot] = u[pivot], u[col]
        for c in range(col + 1, d):
            if not h[c][row]:
                continue
            a, b = h[col][row], h[c][row]
            g, x, y = exgcd(a, b)
            s, t = a // g, b // g
            # [col, c] <- [col, c] @ [[x, -t], [y, s]], determinant one
            h[col], h[c] = (
                [x * h[col][r] + y * h[c][r] for r in range(n)],
                [-t * h[col][r] + s * h[c][r] for r in range(n)],
            )
            u[col], u[c] = (
                [x * u[col][i] + y * u[c][i] for i in range(d)],
                [-t * u[col][i] + s * u[c][i] for i in range(d)],
            )
        if h[col][row] < 0:
            h[col] = [-v for v in h[col]]
            u[col] = [-v for v in u[col]]
        pivots.append((row, col))
        col += 1
    return pivots, h, u


def integer_kernel(mat):
    """A Z-basis of {k : mat @ k == 0}, as a list of column tuples.

    First nonzero entry of each basis column is normalized positive.
    """
    n = len(mat)
    d = len(mat[0]) if n else 0
    if n == 0:
        return [tuple(1 if i == c else 0 for i in range(d)) for c in range(d)]
    pivots, _h, u = column_echelon(mat)
    cols = []
    for c in range(len(pivots), d):
        col = u[c]
        lead = next((v for v in col if v), 0)
        if lead < 0:
            col = [-v for v in col]
        cols.append(tuple(col))
    return cols


def is_surjective(mat):
    """Whether mat : Z^d -> Z^n is onto (trivial cokernel)."""
    n = len(mat)
    pivots, h, _u = column_echelon(mat)
    if len(pivots) != n:
        return False
    prod = 1
    for row, col in pivots:
        prod *= h[col][row]
    return abs(prod) == 1


def cramer(rows, n):
    """Fraction-free Gauss-Jordan reduction of integer rows [A | B], A n x n.

    Returns (det A, adj(A) @ B) as plain ints, so A^{-1} B is the second
    item over the first; (0, None) when A is singular.  Every intermediate
    entry is a minor of [A | B] (Bareiss, Math. Comp. 22, 1968), so each
    division by the previous pivot is exact.
    """
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for i in range(n):
            f = a[i][k]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    # now a == [p I | p A^{-1} B] with p = sign * det A
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def rref(rows, ncols):
    """In-place reduced row echelon form over Fraction; returns pivot cols.

    Only the first ``ncols`` columns are searched for pivots; row operations
    act on whole rows, so trailing columns carry an augmented block along.
    """
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][col]
        if scale != 1:
            rows[r] = [v / scale for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [v - f * w for v, w in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def inverse(mat):
    """Exact rational inverse of a square matrix, or None if it is singular."""
    n = len(mat)
    rows = [[Fraction(v) for v in mat[r]] + [Fraction(int(c == r)) for c in range(n)]
            for r in range(n)]
    if len(rref(rows, n)) < n:
        return None
    return [row[n:] for row in rows]


def unimodular_inverse(mat):
    """Exact integer inverse of a square matrix with determinant +-1.

    One fraction-free reduction of [mat | I]: the inverse is the adjugate
    times det, and None is returned when det is not +-1.
    """
    n = len(mat)
    rows = [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(mat)]
    det, adj = cramer(rows, n)
    return [[det * x for x in row] for row in adj] if det in (1, -1) else None
