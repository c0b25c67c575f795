"""Exact integer matrix algebra: HNF, SNF, determinants, solves.

All routines operate on lists of lists of Python ints (arbitrary precision) and
are deterministic.  Matrices are small (a few dozen rows at most in this
package), so clarity wins over asymptotics; the algorithms are the classical
elimination ones in integer arithmetic throughout.  K-perp is one Hermite
form of the pairing rows stacked on an identity (Cohen 1993, section 2.4)
in fqf.orthogonal_complement, which is off detect's path.  The K-perp of
a cyclic kernel is one congruence s . x = 0 mod p^mu per prime p dividing
its order, each Hermite form one gcd sweep.  Triangular solves read only
the nonzero entries of the basis.  Smith forms over Z serve only
fqf.smith_presentation, which only the tests call; K-perp/K takes sweeps
mod p^k; determinants are Bareiss eliminations.
"""

from __future__ import annotations

import math
from operator import mul
from typing import List, Sequence, Tuple

IntMatrix = List[List[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def matvec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(map(mul, row, v)) for row in a]


def transpose(a: Sequence[Sequence[int]]) -> IntMatrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def hnf_columns(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Column-style Hermite normal form of the lattice spanned by the columns.

    Returns a lower-triangular r x r basis H of the column span (which must be
    full rank r = number of rows), with positive diagonal and off-diagonal
    entries reduced to 0 <= H[i][j] < H[i][i] for j < i.

    Each column is folded into the pivot column of its first nonzero row,
    by an exact multiple when the pivot entry divides its entry, else by
    the extended-gcd 2 x 2 unimodular step (Cohen 1993, section 2.4), and
    what is left of it moves on to its next nonzero row.  The reduced HNF
    of a full-rank lattice is unique, so the fold order does not show.
    """
    rows = len(a)
    basis: list = [None] * rows     # basis[p]: the pivot column of row p
    for c in map(list, zip(*a)):
        p = 0
        while True:
            while p < rows and not c[p]:
                p += 1
            if p == rows:
                break
            b = basis[p]
            if b is None:
                basis[p] = c if c[p] > 0 else [-u for u in c]
                break
            x, y = b[p], c[p]
            f, rem = divmod(y, x)
            if rem:
                # s x + t y = 1 on the cofactors: the pivot entry becomes
                # gcd(x, y) > 0 and c's entry 0.
                g = math.gcd(x, y)
                x, y = x // g, y // g
                s = pow(x, -1, abs(y))
                t = (1 - s * x) // y
                basis[p], c = ([s * u + t * v for u, v in zip(b, c)],
                               [y * u - x * v for u, v in zip(b, c)])
            else:
                c = [v - f * u for u, v in zip(b, c)]
    if None in basis:
        raise ValueError("column span is not full rank")
    for i, b in enumerate(basis):
        for j in range(i):
            f = basis[j][i] // b[i]
            if f:
                basis[j] = [u - f * v for u, v in zip(basis[j], b)]
    return [list(row) for row in zip(*basis)]


def hnf_congruence(s: Sequence[int], m: int) -> IntMatrix:
    """The lower-triangular HNF (as from hnf_columns) of the lattice
    {x in Z^r : s . x = 0 mod m}, by one gcd sweep from the last coordinate.

    With g_j = gcd(s_j, ..., s_{r-1}, m) (g_r = m), the diagonal is
    d_j = g_{j+1} / g_j.  Column j is d_j e_j plus the reduced tail w, one
    entry per later row i with d_i > 1, that brings s . x back to 0 mod m:
    s_i w_i must take the value v left so far mod g_{i+1}, which fixes w_i
    mod d_i, as s_i / g_i is a unit mod d_i.  A row with d_i = 1 takes 0.
    When s_{r-1} is a unit mod m, as on a gluing vector, every other d_j is
    1 and the basis is [[I, 0], [t, m]]."""
    r = len(s)
    g = [m] * (r + 1)
    for j in reversed(range(r)):
        g[j] = math.gcd(s[j], g[j + 1])
    diag = [g[j + 1] // g[j] for j in range(r)]
    # (row, its g, the inverse of s_i / g_i mod d_i) for each d_i > 1
    pivots = [(i, g[i], pow(s[i] // g[i], -1, diag[i]))
              for i in range(r) if diag[i] > 1]
    h = [[0] * r for _ in range(r)]
    for j, d in enumerate(diag):
        h[j][j] = d
        v = -s[j] * d % m
        for i, gi, inv in pivots:
            if i > j:
                w = v // gi * inv % diag[i]
                h[i][j] = w
                v = (v - s[i] * w) % m
    return h


def hnf_solver(h: Sequence[Sequence[int]]):
    """solve(x): the integer z with H z = x for a lower-triangular H (as
    from hnf_columns), or None when there is none.  A row with diagonal 1
    and nothing left of it gives z_i = x_i; every other row keeps only its
    nonzero entries, so on a basis [[I, 0], [t, m]] a solve is one dot
    product."""
    rows = [(i, [j for j in range(i) if row[j]], [v for v in row[:i] if v],
             row[i])
            for i, row in enumerate(h) if row[i] != 1 or any(row[:i])]

    def solve(x: Sequence[int]) -> List[int] | None:
        z = list(x)
        for i, cols, coefs, d in rows:
            z[i], rem = divmod(
                z[i] - sum(map(mul, coefs, map(z.__getitem__, cols))), d)
            if rem:
                return None
        return z

    return solve


def det_lower_triangular(h: Sequence[Sequence[int]]) -> int:
    return math.prod(h[i][i] for i in range(len(h)))


def snf(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (d, u, v) with u @ a @ v = d, u and v
    unimodular, d diagonal with d[i][i] | d[i+1][i+1] and nonnegative.
    Only fqf.smith_presentation, which only the tests call, takes one."""
    d = [list(row) for row in a]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def addmul_row(dst, src, f):
        for k in range(cols):
            d[dst][k] += f * d[src][k]
        for k in range(rows):
            u[dst][k] += f * u[src][k]

    def addmul_col(dst, src, f):
        for r in d:
            r[dst] += f * r[src]
        for r in v:
            r[dst] += f * r[src]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # Find the nonzero entry of least absolute value in the submatrix.
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            d[t], d[bi], u[t], u[bi] = d[bi], d[t], u[bi], u[t]
            if bj != t:
                for r in d + v:
                    r[t], r[bj] = r[bj], r[t]
            done = True
            for i in range(t + 1, rows):
                if d[i][t]:
                    addmul_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        done = False
            for j in range(t + 1, cols):
                if d[t][j]:
                    addmul_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        done = False
            if not done:
                continue
            # Enforce divisibility: pivot must divide every remaining entry.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if d[t][t] < 0:
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
    return d, u, v


def smith_mod_prime_power(a: Sequence[Sequence[int]], p: int, k: int
                          ) -> Tuple[List[int], IntMatrix]:
    """The Smith form modulo p^k of an l x c matrix a whose column span
    contains p^k Z^l: (d, w) such that Z^l / (column span) is the direct
    sum of the cyclic groups of order d[t] that the w[t] generate.  w[t]
    is column t of u^-1 mod p^k, for u the sweep's row transform, which
    is not built.  Each pivot has least p-valuation among the entries
    left, so one row operation per row clears its column; the column
    operations would clear only its own row, so they are not made."""
    q = p ** k
    m = [[x % q for x in row] for row in a]
    rows = len(m)
    w = identity(rows)
    free = list(range(len(m[0]) if rows else 0))
    d: List[int] = []
    for t in range(rows):
        g, i, j = min(((math.gcd(m[i][j], q), i, j)
                       for i in range(t, rows) for j in free),
                      default=(q, t, 0))
        if g == q:
            d += [q] * (rows - t)
            break
        m[t], m[i], w[t], w[i] = m[i], m[t], w[i], w[t]
        free.remove(j)
        inv = pow(m[t][j] // g, -1, q)
        for i in range(t + 1, rows):
            f = m[i][j] // g * inv % q
            if f:
                # row i -= f row t, so column t of u^-1 += f column i
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[t])]
                w[t] = [(x + f * y) % q for x, y in zip(w[t], w[i])]
        d.append(g)
    return d, w


def det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss fraction-free
    elimination: every division is exact)."""
    n = len(a)
    work = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not work[k][k]:
            pivot = next((r for r in range(k + 1, n) if work[r][k]), None)
            if pivot is None:
                return 0
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        pk = work[k][k]
        row_k = work[k]
        for i in range(k + 1, n):
            row, f = work[i], work[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * row_k[j]) // prev
        prev = pk
    return sign * work[n - 1][n - 1] if n else 1

