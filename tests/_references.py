"""Reference constructions the package no longer carries: the Cartan
matrices of the ADE diagrams, from which the tests derive the root
discriminants that lattices.disc_root reads off closed forms, the earlier
route of disc_root through a cyclic form and its restriction, and a solve
of linear congruences modulo coordinate orders."""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
