"""Reference constructions the package no longer carries: the Cartan
matrices of the ADE diagrams, and the discriminant form of any Gram
matrix by one Smith form over Z, from which the tests derive the root
discriminants that lattices.disc_root reads off closed forms and the
anti-isometries that the rank-19 dispatch lists off T's dual basis; the
earlier route of disc_root through a cyclic form and its restriction; and
a solve of linear congruences modulo coordinate orders."""

from __future__ import annotations

from operator import mul
from typing import Callable, List, NamedTuple, Sequence, Tuple

from realstrata import _intmat
from realstrata.fqf import (Element, FiniteQuadraticForm, cyclic_form,
                            trivial_form)
from realstrata.lattices import _ADE_VALID


def cartan_matrix(fam: str, n: int) -> List[List[int]]:
    """The Cartan matrix (2 on the diagonal, -1 per diagram edge)."""
    if not _ADE_VALID[fam](n):
        raise ValueError(f"invalid component {fam}{n}")
    edges: List[Tuple[int, int]] = []
    if fam == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif fam == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:  # E6, E7, E8: a chain with one branch at the third node
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return mat


class GramDisc(NamedTuple):
    """Discriminant form of an integral nondegenerate Gram matrix, with the
    coordinate bridge: elements of the quotient Z^n / G Z^n are addressed
    by integer vectors in dual coordinates."""
    form: FiniteQuadraticForm
    gen_duals: List[List[int]]      # dual coordinates of the generators
    to_coords: Callable[[Sequence[int]], Tuple[int, ...]]


def disc_of_gram(gram: Sequence[Sequence[int]]) -> GramDisc:
    """Discriminant form of an even integral lattice with the given Gram
    matrix: the group Z^n/G Z^n with q(v) = v^T G^{-1} v mod 2.

    Everything is read from one Smith form u G v = D: the generators are
    the columns w_i = u^{-1} e_i = G v e_i / d_i, and G^{-1} w_i =
    v e_i / d_i, so q and b are integers at the scale d_last (the
    exponent)."""
    n = len(gram)
    if n == 0:
        return GramDisc(trivial_form(), [], lambda v: ())
    d, u, v = _intmat.snf([list(row) for row in gram])
    dd = [d[i][i] for i in range(n)]
    if any(x == 0 for x in dd):
        raise ValueError("Gram matrix is singular")
    kept = [i for i in range(n) if dd[i] > 1]
    scale = dd[-1]
    v_cols = [[v[r][i] for r in range(n)] for i in kept]
    gen_duals = [[x // dd[i] for x in _intmat.matvec(gram, col)]
                 for i, col in zip(kept, v_cols)]
    # w_s^T G^{-1} w_t = w_s . v_t / d_t, at the scale d_last.
    pair = [[sum(map(mul, w, col)) * (scale // dd[i])
             for i, col in zip(kept, v_cols)] for w in gen_duals]
    k = len(kept)
    b = {(s, t): pair[s][t] for s in range(k) for t in range(s + 1, k)}
    form = FiniteQuadraticForm([dd[i] for i in kept],
                               [pair[s][s] for s in range(k)], b,
                               scale=scale)

    def to_coords(vec: Sequence[int]) -> Tuple[int, ...]:
        w = _intmat.matvec(u, list(vec))
        return tuple(w[i] % dd[i] for i in kept)

    return GramDisc(form, gen_duals, to_coords)


def disc_root_by_restriction(fam: str, n: int) -> FiniteQuadraticForm:
    """The root discriminant as disc_root built it before it read the
    prime-power pieces off in one constructor call: the cyclic form
    [m/den] of the closed form, restricted to the generators of its
    p-parts, descending prime (even D_n and E8 as in disc_root)."""
    if not _ADE_VALID[fam](n):
        raise ValueError(f"invalid component {fam}{n}")
    if fam == "D" and n % 2 == 0:
        return FiniteQuadraticForm([2, 2], [-n, -n], {(0, 1): n - 2},
                                   scale=4)
    if fam == "E":
        if n == 8:
            return trivial_form()
        base = cyclic_form(-4, 3) if n == 6 else cyclic_form(-3, 2)
    else:
        base = cyclic_form(-n, n + 1) if fam == "A" else cyclic_form(-n, 4)
    orders: List[int] = []
    gens: List[Element] = []
    for p in reversed(base.primes()):
        p_orders, p_gens = base._p_generators(p)
        orders += p_orders
        gens += p_gens
    return base.restricted_form(orders, gens)


def solve_mod_orders(gens: Sequence[Sequence[int]], orders: Sequence[int],
                     target: Sequence[int]) -> List[int] | None:
    """Find integer coefficients c with sum_t c[t] * gens[t] = target modulo
    the given coordinate orders, or None.  gens[t] and target are coordinate
    vectors of length len(orders).

    The columns of [[G, diag(orders)], [I_s, 0]] (G has the gens as columns)
    span the vectors (G c + diag(orders) y, c).  Their lower-triangular HNF
    H spans the reachable first parts with its top-left r x r block, so the
    target is reachable iff that block solves H11 z = target, and then
    c = H21 z with H21 the lower-left s x r block."""
    r, s = len(orders), len(gens)
    a = [[g[i] for g in gens] + [o if j == i else 0 for j in range(r)]
         for i, o in enumerate(orders)]
    a += [[int(j == t) for j in range(s)] + [0] * r for t in range(s)]
    h = _intmat.hnf_columns(a)
    z = _intmat.hnf_solver([row[:r] for row in h[:r]])(target)
    if z is None:
        return None
    return [sum(x * y for x, y in zip(row, z)) for row in h[r:]]
