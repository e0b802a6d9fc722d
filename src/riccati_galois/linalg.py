"""Exact linear algebra over Scalar coefficients.

Plain Gaussian elimination: every coefficient field we work in supports
exact division, so no pivot scaling tricks are needed.  Matrices are
lists of lists of Scalars.  Integer systems may instead take the
fraction-free solve_fraction_free, which builds no Scalar and finds the
same solution as solve.
"""

from fractions import Fraction

from .scalars import Scalar


def row_echelon(m, rhs=None):
    """Reduce m (in place after copying) to row echelon form.

    Returns (rows, rhs_rows, pivot_cols, swaps), swaps the number of row
    swaps.  rhs may be a vector; it gets the same row operations applied.
    """
    m = [[Scalar.coerce(x) for x in row] for row in m]
    t = [Scalar.coerce(x) for x in rhs] if rhs is not None else None
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_cols = []
    piv_r = swaps = 0
    for piv_c in range(n_cols):
        for i_row in range(piv_r, n_rows):
            if not m[i_row][piv_c].is_zero():
                break
        else:
            continue
        if i_row != piv_r:
            swaps += 1
            m[piv_r], m[i_row] = m[i_row], m[piv_r]
            if t is not None:
                t[piv_r], t[i_row] = t[i_row], t[piv_r]
        fp = m[piv_r][piv_c]
        for r in range(piv_r + 1, n_rows):
            fr = m[r][piv_c]
            if fr.is_zero():
                continue
            frp = fr / fp
            for c in range(piv_c, n_cols):
                m[r][c] = m[r][c] - m[piv_r][c] * frp
            if t is not None:
                t[r] = t[r] - t[piv_r] * frp
        pivot_cols.append(piv_c)
        piv_r += 1
    return m, t, pivot_cols, swaps


def solve(m, rhs):
    """One solution of m x = rhs, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    m, t, pivot_cols, _ = row_echelon(m, rhs)
    n_cols = len(m[0]) if m else 0
    rank = len(pivot_cols)
    for r in range(rank, len(m)):
        if not t[r].is_zero():
            return None
    sol = [Scalar.coerce(0)] * n_cols
    for r in range(rank - 1, -1, -1):
        piv_c = pivot_cols[r]
        s = -t[r]
        for c in range(piv_c + 1, n_cols):
            s = s + m[r][c] * sol[c]
        sol[piv_c] = -s / m[r][piv_c]
    return sol


def solve_fraction_free(m, rhs):
    """solve(m, rhs) for int entries: the same solution as Fractions, or
    None if inconsistent.

    Bareiss's fraction-free elimination (Math. Comp. 22 (1968) 565-578)
    on the augmented rows: after the k-th pivot every entry below the
    pivot row is a (k+1)-minor of the input, so each update divides
    exactly by the previous pivot and no entry outgrows a minor.
    Fractions appear only in the back-substitution.  The pivot columns
    are those of row_echelon, so free variables are zero here as well.
    """
    a = [list(row) + [b] for row, b in zip(m, rhs)]
    n_rows = len(a)
    n_cols = len(a[0]) - 1 if a else 0
    pivot_cols = []
    prev = 1
    for piv_c in range(n_cols):
        piv_r = len(pivot_cols)
        for i_row in range(piv_r, n_rows):
            if a[i_row][piv_c]:
                break
        else:
            continue
        a[piv_r], a[i_row] = a[i_row], a[piv_r]
        top = a[piv_r]
        p = top[piv_c]
        for row in a[piv_r + 1:]:
            # a row with a zero in the pivot column is scaled all the
            # same, so that every row holds minors of one size
            f = row[piv_c]
            row[piv_c] = 0
            for c in range(piv_c + 1, n_cols + 1):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
        pivot_cols.append(piv_c)
    rank = len(pivot_cols)
    if any(row[n_cols] for row in a[rank:]):
        return None
    sol = [Fraction(0)] * n_cols
    for r in range(rank - 1, -1, -1):
        row, piv_c = a[r], pivot_cols[r]
        s = row[n_cols]
        for c in range(piv_c + 1, n_cols):
            if row[c]:
                s -= row[c] * sol[c]
        sol[piv_c] = Fraction(s) / row[piv_c]
    return sol


def nullspace(m):
    """Basis of the kernel of m, one vector per free column.

    Each basis vector has a single free variable set to 1, in ascending
    column order, so the basis is canonical.
    """
    m, _, pivot_cols, _ = row_echelon(m)
    n_cols = len(m[0]) if m else 0
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Scalar.coerce(0)] * n_cols
        vec[fc] = Scalar.coerce(1)
        for r in range(len(pivot_cols) - 1, -1, -1):
            piv_c = pivot_cols[r]
            s = Scalar.coerce(0)
            for c in range(piv_c + 1, n_cols):
                s = s + m[r][c] * vec[c]
            vec[piv_c] = -s / m[r][piv_c]
        basis.append(vec)
    return basis


def det(m):
    """Determinant: the product of row_echelon's pivots, negated once
    per row swap."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    rows, _, pivot_cols, swaps = row_echelon(m)
    if len(pivot_cols) < n:
        return Scalar.coerce(0)
    acc = Scalar.coerce(1)
    for i, row in enumerate(rows):
        acc = acc * row[i]
    return -acc if swaps % 2 else acc
