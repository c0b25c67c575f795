"""The subquotient K-perp/K of a finite quadratic form by a cyclic
isotropic kernel K, with the induced quadratic form.

All constructions here are exact and element-enumeration free (integer
Hermite forms and Smith sweeps modulo prime powers), one prime at a time:
K-perp/K is presented by prime-power pieces, as lattices.disc_root
presents root discriminants, each represented by one element of K-perp.
The presentation is the induced form and those reps, all a decision
reads: the genus clauses read the form, and cond3 reads theta and the
reps, which generate K-perp.
The 2-adic gluing-case classification, which the program never runs,
is a tests helper (tests/_gluing.py) that checks each gluing shape's
K-perp/K against `subquotient`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from . import _intmat
from .fqf import Element, FiniteQuadraticForm, _val


class Subquotient:
    """K-perp/K for a cyclic kernel K = <theta>, presented with
    prime-power generators.

    form: the induced finite quadratic form on K-perp/K;
    reps: ambient representatives, one per generator's K-coset, so
          theta and the reps generate K-perp.
    """
    __slots__ = ("form", "reps")

    def __init__(self, form: FiniteQuadraticForm, reps: List[Element]
                 ) -> None:
        self.form = form
        self.reps = reps


def subquotient(form: FiniteQuadraticForm, theta: Sequence[int],
                among: Iterable[int] = ()) -> Subquotient:
    """Compute K-perp/K for the cyclic kernel K = <theta>; `among`, when
    given, holds every prime of the form's order.

    Raises ValueError on a theta not of the form's rank, or with q(theta)
    != 0 (K not isotropic).  With m the order of theta, K-perp is the
    congruence s . x = 0 mod m, s_i = m b(e_i, theta), taken one prime
    at a time and never whole.  K-perp/K is the sum of the (K_p)-perp/K_p in
    the p-parts of F, with coordinates the pieces g_j = c_j e_j of order
    p^a_j, c_j = o_j / p^a_j.  A piece off the support of K_p = <(m/p^mu)
    theta> and orthogonal to it splits off, as all do when p does not
    divide m.  On the rest, (K_p)-perp is s' . y = 0 mod p^mu, s'_j =
    c_j s_j / (m/p^mu); the relations (m/p^mu) theta and p^a_j e_j, solved
    on its Hermite basis H ([[I, 0], [t, p^mu]] for a gluing vector), are
    swept mod p^k, and the pivots > 1 are the pieces, represented by H
    times the sweep's columns w.  K is isotropic, so any member of a coset
    represents it; theta and the reps generate K-perp."""
    if len(theta) != form.rank:
        raise ValueError(f"theta has {len(theta)} coordinates, the form "
                         f"has rank {form.rank}")
    theta = form.reduce(theta)
    if form.eval_qn(theta):
        raise ValueError("kernel is not isotropic")
    m, r = form.order_of(theta), form.rank
    step = form.N // m
    s = [v // step for v in form._pairing_row(theta)]
    orders: List[int] = []
    reps: List[Element] = []
    for p in form.primes(among):
        idx, pa, inv, pieces = form._p_coordinates(p)
        pm = math.gcd(m, max(pa))
        sp = [g[j] * s[j] // (m // pm) % pm for j, g in zip(idx, pieces)]
        tp = [m // pm * theta[j] * i % q for j, i, q in zip(idx, inv, pa)]
        live = [t for t in range(len(idx)) if sp[t] or tp[t]]
        free = [t for t in range(len(idx)) if t not in live]
        orders += [pa[t] for t in free]
        reps += [pieces[t] for t in free]
        if math.prod(pa[t] for t in live) > pm * pm:    # else order 1
            h = _intmat.hnf_congruence([sp[t] for t in live], pm)
            solve = _intmat.hnf_solver(h)
            rel = [[tp[t] for t in live]] + [
                [pa[t] * (t == i) for i in live] for t in live]
            d, w = _intmat.smith_mod_prime_power(
                _intmat.transpose([solve(y) for y in rel]), p,
                _val(max(pa), p))
            for dc, wc in zip(d, w):
                if dc > 1:
                    x = [0] * r
                    for t, v in zip(live, _intmat.matvec(h, wc)):
                        x[idx[t]] = pieces[t][idx[t]] * v
                    orders.append(dc)
                    reps.append(form.reduce(x))
    if math.prod(orders) != form.order // (m * m):
        raise AssertionError("subquotient size mismatch")
    return Subquotient(form.restricted_form(orders, reps), reps)
