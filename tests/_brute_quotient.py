"""The brute-force K-perp/K: the whole-group walk the oracle's certificate
walk of K-perp replaced, kept as the tests' reference.

brute_subquotient walks every element of the form, finds K-perp by the
pairings with the kernel generators, and groups it into cosets of K, each
keyed by its lex-min member.  It shares the oracle's own q and b (its
scaled Gram and _walk) and nothing of the engine."""

from typing import Dict, Sequence

from realstrata.fqf import Element, FiniteQuadraticForm
from realstrata.oracle import (ORACLE_CUTOFF, _qd, _require, _scaled_gram,
                               _walk, _within_cutoff)


class BruteQuotient:
    """K-perp/K rebuilt coset by coset."""
    __slots__ = ("order", "coset_q", "d", "assigned")

    def __init__(self, order: int,
                 coset_q: Dict[Element, int],      # q*d per coset's lex-min
                 d: int,                           # the scale of coset_q
                 assigned: Dict[Element, Element]  # K-perp element -> rep
                 ) -> None:
        self.order = order
        self.coset_q = coset_q
        self.d = d
        self.assigned = assigned


def brute_subquotient(form: FiniteQuadraticForm,
                      kernel_gens: Sequence[Element],
                      cutoff: int = ORACLE_CUTOFF) -> BruteQuotient:
    """Construct K-perp/K by explicit coset enumeration, checking that K is
    isotropic and that q is constant on every coset (the well-definedness
    of the induced form).  b vanishes on K once q does, by polarization.
    One walk over the form: a coset's lex-min is the first of its members
    the walk meets, and each later member is checked against its q there."""
    _within_cutoff(form.order, cutoff)
    g = _scaled_gram(form)
    # K as the closure of its generators under addition, walked here
    # rather than read off the engine's Hermite-form Subgroup.
    kset = {form.zero()}
    todo = list(kset)
    while todo:
        x = todo.pop()
        for k in kernel_gens:
            y = form.add(x, k)
            if y not in kset:
                kset.add(y)
                todo.append(y)
    _require(not any(_qd(g, k) for k in kset), "kernel is not isotropic")
    nonzero = [k for k in kset if any(k)]       # x + 0 is x itself
    d = g.d
    assigned: Dict[Element, Element] = {}
    coset_q: Dict[Element, int] = {}
    for x, q, row in _walk(form, g, kernel_gens):
        rep = assigned.get(x)
        if rep is not None:
            _require(q == coset_q[rep], "q is not constant on a coset")
            continue
        if any(v % d for v in row):           # x is not in K-perp
            continue
        # The walk is in lexicographic order, so the first unassigned
        # member of K-perp is the lex-min member of its coset.
        assigned[x] = x
        for k in nonzero:
            assigned[form.add(x, k)] = x
        coset_q[x] = q
    return BruteQuotient(order=len(coset_q), coset_q=coset_q, d=d,
                         assigned=assigned)
