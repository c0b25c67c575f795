"""Integer matrix algebra: HNF/SNF/inverse/determinant/solve
invariants, and the integer-only boundary of the hot-path modules."""
import ast
import importlib
import math
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realstrata import _intmat as im
from realstrata.fqf import _val

from _references import solve_mod_orders


def test_identity_matmul_matvec():
    a = [[1, 2], [3, 4]]
    assert im.matmul(im.identity(2), a) == a
    assert im.matmul(a, im.identity(2)) == a
    assert im.matvec(a, [1, 1]) == [3, 7]
    assert im.transpose(a) == [[1, 3], [2, 4]]


def test_hnf_columns_triangular_and_spans():
    a = [[2, 4, 0], [0, 6, 3], [0, 0, 5]]
    h = im.hnf_columns(a)
    n = 3
    for i in range(n):
        assert h[i][i] > 0
        for j in range(i + 1, n):
            assert h[i][j] == 0, "upper triangle must vanish"
        for j in range(i):
            assert 0 <= h[i][j] < h[i][i], "reduced off-diagonal"
    # every original column solves over the HNF basis
    for col in im.transpose(a):
        assert im.hnf_solver(h)(col) is not None


def test_hnf_columns_rejects_rank_deficient():
    with pytest.raises(ValueError):
        im.hnf_columns([[1, 2], [2, 4]])


def _hnf_by_remainders(a):
    """The column HNF by repeated remainders, as hnf_columns took it
    before the extended-gcd folds: per pivot row, the column of least
    entry reduces the others until one nonzero entry is left."""
    rows = len(a)
    work = [list(col) for col in zip(*a)] if a and a[0] else []
    basis = []
    for p in range(rows):
        while True:
            nonzero = [c for c in work if c[p] != 0]
            if not nonzero:
                raise ValueError("column span is not full rank")
            if len(nonzero) == 1:
                break
            nonzero.sort(key=lambda c: abs(c[p]))
            for c in nonzero[1:]:
                f = c[p] // nonzero[0][p]
                for i in range(rows):
                    c[i] -= f * nonzero[0][i]
        col = next(c for c in work if c[p] != 0)
        work.remove(col)
        basis.append(col if col[p] > 0 else [-x for x in col])
        work = [c for c in work if any(c)]
    for j in range(rows):
        for i in range(j + 1, rows):
            f = basis[j][i] // basis[i][i]
            for k in range(rows):
                basis[j][k] -= f * basis[i][k]
    return [[basis[j][i] for j in range(rows)] for i in range(rows)]


@st.composite
def _matrix_with_zero_columns(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.lists(st.lists(st.integers(-30, 30) | st.just(0),
                                  min_size=rows, max_size=rows),
                         max_size=8))
    zero_at = draw(st.lists(st.integers(0, len(cols)), max_size=2))
    for at in zero_at:
        cols.insert(at, [0] * rows)
    return [[col[i] for col in cols] for i in range(rows)] if cols else \
        [[] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(_matrix_with_zero_columns())
def test_hnf_columns_equals_the_repeated_remainder_form(a):
    # Negative entries and zero columns included.  The reduced HNF of a
    # full-rank lattice is unique, so the folds must land on the very
    # matrix the remainder loop does, and refuse the same inputs.
    try:
        want = _hnf_by_remainders(a)
    except ValueError as exc:
        assert str(exc) == "column span is not full rank"
        with pytest.raises(ValueError, match="column span is not full rank"):
            im.hnf_columns(a)
        return
    h = im.hnf_columns(a)
    assert h == want
    n = len(a)
    for i in range(n):
        assert h[i][i] > 0
        assert all(h[i][j] == 0 for j in range(i + 1, n))
        assert all(0 <= h[i][j] < h[i][i] for j in range(i))
    for col in zip(*a):
        assert im.hnf_solver(h)(list(col)) is not None


@settings(max_examples=100, deadline=None)
@given(_matrix_with_zero_columns(), st.lists(st.integers(-3, 3), min_size=5,
                                             max_size=5))
def test_hnf_columns_refuses_a_rank_deficient_span(a, coeffs):
    # One more row, an integer combination of the others: the columns
    # then span a lattice of rank below the row count.
    extra = [sum(c * row[j] for c, row in zip(coeffs, a))
             for j in range(len(a[0]))]
    with pytest.raises(ValueError, match="column span is not full rank"):
        im.hnf_columns(a + [extra])


def test_hnf_solve_none_outside_lattice():
    h = im.hnf_columns([[2, 0], [0, 2]])
    assert im.hnf_solver(h)([1, 0]) is None
    assert im.hnf_solver(h)([2, -4]) == [1, -2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=6),
       st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 30, 36, 64]))
def test_hnf_congruence_is_the_hermite_form_of_the_congruence(s, m):
    # {x : s . x = 0 mod m} is the lower part of the columns of
    # [[s, m], [I, 0]] with zero upper part, as in orthogonal_complement.
    s = [v % m for v in s]
    r = len(s)
    a = [s + [m]] + [[int(i == j) for j in range(r)] + [0]
                     for i in range(r)]
    want = [row[1:] for row in im.hnf_columns(a)[1:]]
    assert im.hnf_congruence(s, m) == want


def test_hnf_congruence_of_a_gluing_row_is_identity_and_one_row():
    # s_{r-1} = 1, as b(alpha, theta) m = 1 on a gluing vector.
    h = im.hnf_congruence([4, 0, 6, 1], 8)
    assert h == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [4, 0, 2, 8]]
    solve = im.hnf_solver(h)
    assert solve([1, 2, 3, 2]) == [1, 2, 3, -1]
    assert solve([1, 2, 3, 5]) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_hnf_solver_matches_the_dense_solve(a, x):
    if im.det(a) == 0:
        return
    # Forward substitution over Q: z is the integer solution, or None
    # when the rational one is not integral.
    h = im.hnf_columns(a)
    want = []
    for i, row in enumerate(h):
        want.append(Fraction(x[i] - sum(v * w for v, w in zip(row, want)),
                             row[i]))
    integral = all(w.denominator == 1 for w in want)
    assert im.hnf_solver(h)(x) == (want if integral else None)


def _check_snf(a):
    d, u, v = im.snf(a)
    assert im.matmul(im.matmul(u, a), v) == d
    rows, cols = len(a), len(a[0])
    # diagonal, nonnegative, divisibility chain
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
    # unimodularity: an integer matrix has an integer inverse iff its
    # determinant is a unit
    for m in (u, v):
        assert im.det(m) in (1, -1)
    return diag


def _leibniz_det(a):
    """sum over permutations s of sign(s) * prod_i a[i][s(i)]."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_snf_examples():
    assert _check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert _check_snf([[2, 4], [6, 8]]) == [2, 4]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    d, _, _ = im.snf([[4]])
    assert [d[0][0]] == [4]


def test_snf_random_battery():
    rng = random.Random(20260818)
    for _ in range(120):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        diag = _check_snf(a)
        # square inputs: |det| is the product of the invariant factors, and
        # det itself (with its sign) is the Leibniz expansion
        if n == m:
            det = im.det(a)
            prod = 1
            for x in diag:
                prod *= x
            assert abs(det) == prod
            assert det == _leibniz_det(a)


def _check_smith_mod_prime_power(a, p, k):
    d, w = im.smith_mod_prime_power(a, p, k)
    rows = len(a)
    # the pivots are the p-parts of the invariant factors over Z, so the
    # sum of the Z/d[t] has the order of Z^l / (column span)
    snf_d, _, _ = im.snf(a)
    want = [p ** min(k, _val(snf_d[i][i], p)) for i in range(rows)]
    assert sorted(d) == sorted(want)
    # each d[t] w[t] lies in the column span, so t -> w[t] is well defined
    h = im.hnf_columns(a)
    assert all(im.hnf_solver(h)([dt * x for x in wt]) is not None
               for dt, wt in zip(d, w))
    # and the w[t] with the span give all of Z^l, so it is onto: an
    # isomorphism between groups of one order
    cols = [list(col) for col in zip(*a)] + w
    assert im.det_lower_triangular(im.hnf_columns(im.transpose(cols))) == 1
    return d


def test_smith_mod_prime_power_needs_a_non_unit_pivot():
    # (Z/2 + Z/8) / <(1, 2)> is Z/4: after the unit pivot 1 clears (1, 2),
    # the column of 8 and the fill-in 2 * -2 = -4 leave the pivot 4.
    # Reading off the largest coordinate alone would give Z/2 + Z/2.
    assert sorted(_check_smith_mod_prime_power(
        [[2, 0, 1], [0, 8, 2]], 2, 3)) == [1, 4]


def test_smith_mod_prime_power_random_battery():
    # Random columns beside p^k e_i, moved by a random unimodular row
    # transform, so the span contains p^k Z^l without showing it.
    rng = random.Random(20261019)
    seen = set()
    for p in (2, 3):
        for _ in range(150):
            rows, k = rng.randrange(1, 5), rng.randrange(1, 4)
            cols = [[rng.randrange(-20, 21) * rng.choice((1, p, p * p))
                     for _ in range(rows)]
                    for _ in range(rng.randrange(0, 4))]
            cols += [[p ** k * (i == j) for i in range(rows)]
                     for j in range(rows)]
            rng.shuffle(cols)
            mix = im.identity(rows)
            for _ in range(4 if rows > 1 else 0):
                i, j = rng.sample(range(rows), 2)
                f = rng.randrange(-3, 4)
                mix[i] = [x + f * y for x, y in zip(mix[i], mix[j])]
            a = im.matmul(mix, im.transpose(cols))
            d = _check_smith_mod_prime_power(a, p, k)
            seen.update((p, x) for x in d)
    # units, intermediate pieces and whole p^k pieces all occur
    assert {(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 3), (3, 9),
            (3, 27)} <= seen


def test_det():
    assert im.det([[2, 1], [1, 2]]) == 3
    assert im.det([[0]]) == 0
    assert im.det([[0, 1], [1, 0]]) == -1    # needs a row swap
    assert im.det([]) == 1


def test_solve_mod_orders():
    # generators (1,0) and (1,1) of Z/4 x Z/2; hit (3, 1)
    gens = [[1, 0], [1, 1]]
    orders = [4, 2]
    sol = solve_mod_orders(gens, orders, [3, 1])
    assert sol is not None
    acc = [0, 0]
    for c, g in zip(sol, gens):
        acc = [(x + c * y) % o for x, y, o in zip(acc, g, orders)]
    assert acc == [3, 1]
    # unreachable target
    assert solve_mod_orders([[2, 0]], [4, 2], [1, 0]) is None


def test_solve_mod_orders_random_battery():
    # Against a brute search over c in [0, lcm(orders))^s, which covers
    # every residue class of solutions.  Entries and targets may be
    # negative; s = 0 (no generators) and r = 0 (no coordinates) occur.
    rng = random.Random(20240611)
    seen = {"solved": 0, "unsolvable": 0, "no_gens": 0}
    for _ in range(600):
        r, s = rng.randrange(3), rng.randrange(3)
        orders = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(r)]
        gens = [[rng.randrange(-12, 13) for _ in range(r)] for _ in range(s)]
        target = [rng.randrange(-12, 13) for _ in range(r)]

        def hits(c):
            return all((sum(ct * g[i] for ct, g in zip(c, gens)) - target[i])
                       % o == 0 for i, o in enumerate(orders))

        span = math.lcm(*orders) if orders else 1
        exists = any(hits(c) for c in product(range(span), repeat=s))
        sol = solve_mod_orders(gens, orders, target)
        assert (sol is not None) == exists, (gens, orders, target)
        if sol is not None:
            assert len(sol) == s and hits(sol)
        seen["solved" if exists else "unsolvable"] += 1
        seen["no_gens"] += s == 0
    assert min(seen.values()) >= 50, seen


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_snf_property(a):
    _check_snf(a)


def test_integer_modules_do_not_import_fractions():
    # The K-perp/K path and the genus step are integer-only; Fraction stays
    # at fqf's boundary (rational input, display and JSON) and in the
    # oracle, which keeps its own arithmetic on purpose.
    for name in ("_intmat", "isotropy", "lattices", "detector", "nikulin"):
        module = importlib.import_module(f"realstrata.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert "fractions" not in imported, name
