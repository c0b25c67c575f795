"""The subquotient K-perp/K of a finite quadratic form by a cyclic
isotropic kernel K.

The subquotient of a finite quadratic form F by an isotropic subgroup K is
K-perp/K with the induced quadratic form.  All constructions here are exact
and element-enumeration free on the main path (integer HNF/SNF lattice
arithmetic): each quotient generator is represented by the Smith
representative the presentation of K-perp/K yields, one per coset.
The 2-adic gluing-case classification is in `gluing`, which no engine
module imports.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from . import _intmat
from .fqf import Element, FiniteQuadraticForm, Subgroup, _smith_generators


class Subquotient:
    """K-perp/K for a cyclic kernel K = <theta>, presented with
    invariant-factor generators.

    form:      the induced finite quadratic form on K-perp/K;
    reps:      ambient Smith representatives, one per generator's K-coset;
    kperp:     the subgroup K-perp of the ambient form;
    theta:     the reduced generator of K;
    to_coords: ambient element of K-perp -> quotient coordinates.
    """
    __slots__ = ("form", "reps", "kperp", "theta", "to_coords")

    def __init__(self, form: FiniteQuadraticForm, reps: List[Element],
                 kperp: Subgroup, theta: Element,
                 to_coords: Callable[[Sequence[int]], Tuple[int, ...]]
                 ) -> None:
        self.form = form
        self.reps = reps
        self.kperp = kperp
        self.theta = theta
        self.to_coords = to_coords


def subquotient(form: FiniteQuadraticForm, theta: Sequence[int]
                ) -> Subquotient:
    """Compute K-perp/K for the cyclic kernel K = <theta>.

    Raises ValueError when q(theta) != 0, that is, when K is not isotropic
    (q(k theta) = k^2 q(theta)).  With m the order of theta, b(e_i, theta)
    lies in (1/m)Z/Z, so K-perp is the one congruence s . x = 0 mod m with
    s_i = m b(e_i, theta), read off Bn; _intmat.hnf_congruence gives its
    Hermite basis by one gcd sweep, [[I, 0], [t, m]] for a gluing vector.
    K/(orders lattice) is spanned by theta and the orders o_i e_i, which
    are the relations, solved on that basis, of one Smith form.  Its
    generators are an invariant-factor chain, each represented by its
    Smith representative.  The reps lie in K-perp and K is isotropic, so
    q(rep + k) = q(rep) and b(rep + k, .) = b(rep, .): the quotient form
    does not depend on which member of a coset represents it.
    """
    theta = form.reduce(theta)
    if form.eval_qn(theta):
        raise ValueError("kernel is not isotropic")
    m, r = form.order_of(theta), form.rank
    step = form.N // m
    s = [v // step for v in form._pairing_row(theta)]
    kperp = Subgroup(form, (), _lattice=_intmat.hnf_congruence(s, m))
    inner = [list(theta)] + [[o * (i == j) for i in range(r)]
                             for j, o in enumerate(form.orders)]
    pres = _smith_generators(form, kperp.lattice, inner)
    if math.prod(pres.orders) != form.order // (m * m):
        raise AssertionError("subquotient size mismatch")
    quot = form.restricted_form(pres.orders, pres.reps)
    return Subquotient(quot, pres.reps, kperp, theta, pres.to_coords)
