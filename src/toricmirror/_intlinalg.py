"""Exact linear algebra for the small dense matrices used here.

Integer matrices (lists of row lists of Python ints) get unimodular column
and row reductions; rational systems get one Fraction reduced-row-echelon
routine, ``rref``, behind inverse, solve and unimodular inverse.  Apart from
the Macaulay matrices of the quotient model everything is desk scale
(dimensions at most ~10), so clarity beats asymptotics.
"""

from fractions import Fraction


def exgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g.

    When a divides b the pair is (sign(a), 0), so elimination steps built on
    it leave the pivot row alone; without this guarantee alternating row and
    column clearing can cycle.
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


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x == rhs, or None if there is none."""
    n = len(mat)
    d = len(mat[0]) if n else 0
    pivots, h, u = column_echelon(mat)
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


def smith_diagonal(mat):
    """Diagonal of a diagonalization of mat under unimodular row/column ops.

    Divisibility between entries is not normalized; the absolute product of
    the diagonal still equals the product of the invariant factors, which is
    all the saturation checks in this package need.
    """
    a = [list(row) for row in mat]
    n = len(a)
    d = len(a[0]) if n else 0
    diag = []
    top = 0
    while top < n and top < d:
        # find a nonzero entry in the trailing block
        pos = None
        for r in range(top, n):
            for c in range(top, d):
                if a[r][c]:
                    pos = (r, c)
                    break
            if pos:
                break
        if pos is None:
            break
        r0, c0 = pos
        a[top], a[r0] = a[r0], a[top]
        for row in a:
            row[top], row[c0] = row[c0], row[top]
        while True:
            # clear the column with row operations
            for r in range(top + 1, n):
                if a[r][top]:
                    g, x, y = exgcd(a[top][top], a[r][top])
                    s, t = a[top][top] // g, a[r][top] // g
                    a[top], a[r] = (
                        [x * a[top][c] + y * a[r][c] for c in range(d)],
                        [-t * a[top][c] + s * a[r][c] for c in range(d)],
                    )
            # then the row with column operations
            changed = False
            for c in range(top + 1, d):
                if a[top][c]:
                    g, x, y = exgcd(a[top][top], a[top][c])
                    s, t = a[top][top] // g, a[top][c] // g
                    for r in range(n):
                        a[r][top], a[r][c] = (
                            x * a[r][top] + y * a[r][c],
                            -t * a[r][top] + s * a[r][c],
                        )
                    changed = True
            if not changed and all(not a[r][top] for r in range(top + 1, n)):
                break
        diag.append(abs(a[top][top]))
        top += 1
    return diag


def det(mat):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    n = len(mat)
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


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


def _reduce_augmented(mat, extra):
    """Block ``extra`` of the row-reduced [mat | extra] for square ``mat``.

    Returns None when ``mat`` is singular, i.e. has fewer than n pivots.
    """
    n = len(mat)
    rows = [[Fraction(v) for v in mat[r]] + [Fraction(v) for v in extra[r]]
            for r in range(n)]
    if len(rref(rows, n)) < n:
        return None
    return [row[n:] for row in rows]


def inverse(mat):
    """Exact rational inverse of a square matrix, or None if it is singular."""
    n = len(mat)
    return _reduce_augmented(
        mat, [[1 if c == r else 0 for c in range(n)] for r in range(n)]
    )


def solve(mat, rhs):
    """The unique rational x with mat @ x == rhs, or None if mat is singular."""
    reduced = _reduce_augmented(mat, [[v] for v in rhs])
    return None if reduced is None else [row[0] for row in reduced]


def unimodular_inverse(mat):
    """Exact integer inverse of a square matrix with determinant +-1.

    Returns None when the determinant is not a unit, which for an integer
    matrix is exactly when its rational inverse is missing or not integral.
    """
    inv = inverse(mat)
    if inv is None or any(v.denominator != 1 for row in inv for v in row):
        return None
    return [[int(v) for v in row] for row in inv]
