"""Shared battery for the structural gluing-case table.

For synthesized instances of each 2-adic gluing shape this module checks
that:

  * ``_gluing.classify_gluing_case`` returns the expected tag and
    order exponent m,
  * for both odd lifts of delta (the glued cyclic block's square numerator),
    the subquotient K-perp/K of the glued form, from the engine's
    ``realstrata.isotropy.subquotient``, has the expected group shape,
  * the tabulated generators w_i lie in K-perp, have the expected orders in
    the quotient, are orthogonal to the passive summand, and together with
    it generate the whole quotient, all read in the glued form itself
    (modulo K = <theta>),
  * the parity flip (source 2-part odd, quotient 2-part even) happens
    exactly under the per-case condition encoded in each instance.

Importable by unit and acceptance tests; pytest does not collect it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from realstrata.fqf import (FiniteQuadraticForm, cyclic_form, factorint,
                            trivial_form, u_block, v_block)
from _gluing import classify_gluing_case
from realstrata.isotropy import subquotient

from _fractions import canon_mod2


def pair_form(level: int, mu: int, nu: int) -> FiniteQuadraticForm:
    """Rank-2 homogeneous block at the given level: q = (mu, nu)/2^level,
    linking b(u, v) = 1/2^level."""
    o = 1 << level
    return FiniteQuadraticForm((o, o),
                               (Fraction(mu, o), Fraction(nu, o)),
                               {(0, 1): Fraction(1, o)})


def prime_power_multiset(orders: Sequence[int]) -> List[int]:
    out: List[int] = []
    for o in orders:
        for p, e in factorint(o).items():
            out.append(p ** e)
    return sorted(out)


# Passive orthogonal summands (all even on the 2-part).
MBARS = {
    "triv": trivial_form(),
    "c3": cyclic_form(4, 3),
    "c3b": cyclic_form(2, 3),
    "U2": u_block(1),
    "V2": v_block(1),
    "V4": v_block(2),
}


@dataclass
class Instance:
    tag: str
    m: int
    npart: FiniteQuadraticForm          # the 2-adic blocks carrying kappa
    kappa_n: Tuple[int, ...]            # kappa inside npart
    mbar: str                           # key into MBARS (kept even)
    ambiguous: bool                     # expected parity flip
    # prime-power orders the quotient adds beyond the passive summand
    quot_powers: List[int] = field(default_factory=list)
    # builds w vectors in glued coordinates given (case, delta, big, to_full)
    w_builder: Optional[Callable] = None
    w_orders: List[int] = field(default_factory=list)


def inv_mod(a: int, n: int) -> int:
    return pow(a, -1, n)


def big_vec(big: FiniteQuadraticForm,
            full_parts: Sequence[Tuple[Sequence[int], int]],
            alpha_coeff: int) -> Tuple[int, ...]:
    """Combine scaled full-form elements plus an alpha coefficient."""
    vec = [0] * big.rank
    for elem, coeff in full_parts:
        for i, c in enumerate(elem):
            vec[i] += coeff * c
    vec[-1] += alpha_coeff
    return big.reduce(vec)


def run_instance(inst: Instance) -> None:
    form = inst.npart.direct_sum(MBARS[inst.mbar])
    assert MBARS[inst.mbar].is_even_2part(), "passive summand must stay even"
    kappa = tuple(inst.kappa_n) + (0,) * MBARS[inst.mbar].rank
    case = classify_gluing_case(form, kappa, inst.m)
    assert case is not None and case.tag == inst.tag, (
        inst.tag, case.tag if case else None)
    m = case.m
    assert m == inst.m

    # embed split-block generators back into the full form
    def to_full(elem2: Sequence[int]) -> Tuple[int, ...]:
        acc = form.zero()
        for c, g in zip(elem2, case.embedding):
            acc = form.add(acc, form.smul(c, g))
        return acc

    qv = canon_mod2(case.form2.eval_q(case.kappa2))
    xi = int(qv * (1 << (m - 1)))
    assert xi % 2 == 1
    mod = 1 << (m + 1)
    for delta in ((-xi) % (1 << m), (-xi) % (1 << m) + (1 << m)):
        big = form.direct_sum(cyclic_form(delta % mod, mod))
        theta = big.reduce(tuple(kappa) + (2,))
        assert big.eval_q(theta) == 0, (inst.tag, delta)
        sq = subquotient(big, theta)

        expected_powers = sorted(
            inst.quot_powers + prime_power_multiset(MBARS[inst.mbar].orders))
        assert prime_power_multiset(sq.form.orders) == expected_powers, (
            inst.tag, delta, sq.form.orders, expected_powers)

        ws = inst.w_builder(case, delta, big, to_full)
        assert len(ws) == len(inst.w_orders)
        # K-perp/K read in the glued form itself: the passive units lie in
        # K-perp, an order in the quotient is one modulo K = <theta>, and b
        # on the quotient is b on any reps.
        units = []
        for j in range(MBARS[inst.mbar].rank):
            e = [0] * big.rank
            e[inst.npart.rank + j] = 1
            assert big.eval_b(e, theta) == 0, (inst.tag, delta, e)
            units.append(tuple(e))
        k_order = big.subgroup([theta]).order
        for w, od in zip(ws, inst.w_orders):
            assert big.eval_b(w, theta) == 0, (inst.tag, delta, w)
            w_order = big.subgroup([w, theta]).order // k_order
            assert w_order == od, (inst.tag, delta, w, w_order, od)
            for e in units:
                assert big.eval_b(e, w) == 0, (inst.tag, delta)
        assert big.subgroup(units + ws + [theta]).order == (
            sq.form.order * k_order), (
            inst.tag, delta, "w gens + passive summand must span quotient")

        flip = (not form.is_even_2part()) and sq.form.is_even_2part()
        assert flip == inst.ambiguous, (
            inst.tag, delta, "flip", flip, "expected", inst.ambiguous)


# ---------------------------------------------------------------- builders
def w_single_pair(case, delta, big, to_full):
    blk = case.split.blocks[0]
    v1 = to_full(blk.v)
    return [big_vec(big, [(v1, -delta)], 1)]          # alpha - delta*v1


def w_cyclic_pair_high(case, delta, big, to_full):
    blk2 = case.split.blocks[1]
    u2, v2 = to_full(blk2.u), to_full(blk2.v)
    return [big_vec(big, [(v2, delta)], -1),          # delta*v2 - alpha
            big_vec(big, [(u2, delta)], -blk2.mu)]    # delta*u2 - mu2*alpha


def w_pair_cyclic_high(case, delta, big, to_full):
    blk1, blk2 = case.split.blocks
    u2 = to_full(blk2.u)
    v1 = to_full(blk1.v)
    t = 2 * inv_mod(blk2.mu, 1 << (blk2.level + 1))
    return [big_vec(big, [(v1, 1), (u2, -t)], 0),     # v1 - (2/mu2)*u2
            big_vec(big, [(v1, blk1.mu // 2), (u2, 1)], 1)]


def w_cyclic_cyclic_deep(case, delta, big, to_full):
    blk2 = case.split.blocks[1]
    u2 = to_full(blk2.u)
    return [big_vec(big, [(u2, delta)], -blk2.mu)]    # delta*u2 - mu2*alpha


def w_cyclic_pair_deep(case, delta, big, to_full):
    return w_cyclic_pair_high(case, delta, big, to_full)


def w_low2_cyclic(case, delta, big, to_full):
    blk2 = case.split.blocks[1]
    u2 = to_full(blk2.u)
    return [big_vec(big, [(u2, -delta)], blk2.mu)]    # -delta*u2 + mu2*alpha


def w_pair_low2_cyclic(case, delta, big, to_full):
    blk1, blk2 = case.split.blocks
    u2 = to_full(blk2.u)
    v1 = to_full(blk1.v)
    shift = 1 << (case.m - blk1.level)
    return [big_vec(big, [(v1, blk2.mu), (u2, -shift)], 0),
            big_vec(big, [(v1, blk1.mu // 2), (u2, 1)], 1)]


def w_r1_cyclic(case, delta, big, to_full):
    blk = case.split.blocks[0]
    u1 = to_full(blk.u)
    return [big_vec(big, [(u1, 1)], 1),               # u1 + alpha
            big_vec(big, [(u1, 1 << case.m)], 0)]     # 2^m * u1


# ---------------------------------------------------------------- instances
def single_pair(m, mu, nu, mbar, amb):
    return Instance("r0_single_pair", m, pair_form(m, mu, nu), (1, 0),
                    mbar, amb, [1 << (m + 1)], w_single_pair, [1 << (m + 1)])


def cyclic_pair_high(m, mu1, mu2, nu2, mbar, amb):
    npart = FiniteQuadraticForm((1 << (m - 1),),
                                (Fraction(mu1, 1 << (m - 1)),), {})
    npart = npart.direct_sum(pair_form(m + 1, mu2, nu2))
    return Instance("r0_cyclic_low1_pair_high1", m, npart, (1, 2, 0),
                    mbar, amb, [1 << (m + 1)] * 2, w_cyclic_pair_high,
                    [1 << (m + 1)] * 2)


def pair_cyclic_high(m, mu1, nu1, mu2, mbar, amb):
    npart = pair_form(m - 1, mu1, nu1).direct_sum(
        FiniteQuadraticForm((1 << (m + 1),),
                            (Fraction(mu2, 1 << (m + 1)),), {}))
    return Instance("r0_pair_low1_cyclic_high1", m, npart, (1, 0, 2),
                    mbar, amb, [1 << m] * 2, w_pair_cyclic_high, [1 << m] * 2)


def cyclic_cyclic_deep(m, r2, mu1, mu2, mbar, amb):
    npart = FiniteQuadraticForm(
        (1 << (m - 1), 1 << (m + r2)),
        (Fraction(mu1, 1 << (m - 1)), Fraction(mu2, 1 << (m + r2))), {})
    return Instance("r0_cyclic_low1_cyclic_deep", m, npart, (1, 1 << r2),
                    mbar, amb, [1 << (m + r2)], w_cyclic_cyclic_deep,
                    [1 << (m + r2)])


def cyclic_pair_deep(m, r2, mu1, mu2, nu2, mbar, amb):
    npart = FiniteQuadraticForm(
        (1 << (m - 1),), (Fraction(mu1, 1 << (m - 1)),), {}).direct_sum(
        pair_form(m + r2, mu2, nu2))
    return Instance("r0_cyclic_low1_pair_deep", m, npart, (1, 1 << r2, 0),
                    mbar, amb, [1 << (m + r2)] * 2, w_cyclic_pair_deep,
                    [1 << (m + r2)] * 2)


def low2_cyclic(m, n, mu1, mu2, mbar, amb):
    npart = FiniteQuadraticForm(
        (1 << n, 1 << (m + 1)),
        (Fraction(mu1, 1 << n), Fraction(mu2, 1 << (m + 1))), {})
    return Instance("r0_cyclic_low2_cyclic_high1", m, npart, (1, 2),
                    mbar, amb, [1 << (n + 2)], w_low2_cyclic, [1 << (n + 2)])


def pair_low2_cyclic(m, n, mu1, nu1, mu2, mbar, amb):
    npart = pair_form(n, mu1, nu1).direct_sum(
        FiniteQuadraticForm((1 << (m + 1),),
                            (Fraction(mu2, 1 << (m + 1)),), {}))
    return Instance("r0_pair_low2_cyclic_high1", m, npart, (1, 0, 2),
                    mbar, amb, [1 << (n + 1)] * 2, w_pair_low2_cyclic,
                    [1 << (n + 1)] * 2)


def r1_cyclic(m, mu1, mbar):
    npart = FiniteQuadraticForm((1 << (m + 1),),
                                (Fraction(mu1, 1 << (m + 1)),), {})
    return Instance("r1_single_cyclic", m, npart, (2,),
                    mbar, False, [2, 2], w_r1_cyclic, [2, 2])


INSTANCES = [
    # -- single pair at level m; flip iff m=1 and nu odd
    single_pair(1, 2, 1, "c3", True),
    single_pair(1, 2, 0, "triv", False),
    single_pair(1, 2, 3, "U2", True),
    single_pair(2, 2, 1, "c3", False),
    single_pair(2, 6, 2, "triv", False),
    single_pair(3, 2, 5, "V2", False),
    # -- odd cyclic at m-1 + pair at m+1; flip iff m=2
    cyclic_pair_high(2, 1, 2, 0, "triv", True),
    cyclic_pair_high(2, 3, 0, 0, "c3", True),
    cyclic_pair_high(2, 1, 2, 2, "V2", True),
    cyclic_pair_high(3, 1, 2, 1, "triv", False),
    cyclic_pair_high(3, 5, 4, 3, "c3b", False),
    # -- even pair at m-1 + odd cyclic at m+1; flip iff m=2 and nu odd
    pair_cyclic_high(2, 2, 1, 1, "triv", True),
    pair_cyclic_high(2, 2, 0, 1, "c3", False),
    pair_cyclic_high(2, 0, 1, 3, "triv", True),
    pair_cyclic_high(3, 2, 1, 1, "V2", False),
    pair_cyclic_high(2, 2, 3, 5, "U2", True),
    # -- odd cyclic at m-1 + odd cyclic at m+r2, r2>1; flip iff m=2
    cyclic_cyclic_deep(2, 2, 1, 1, "triv", True),
    cyclic_cyclic_deep(2, 2, 3, 3, "c3", True),
    cyclic_cyclic_deep(2, 3, 1, 5, "triv", True),
    cyclic_cyclic_deep(3, 2, 1, 1, "V2", False),
    cyclic_cyclic_deep(3, 2, 3, 7, "triv", False),
    # -- odd cyclic at m-1 + pair at m+r2, r2>1; flip iff m=2
    cyclic_pair_deep(2, 2, 1, 2, 0, "triv", True),
    cyclic_pair_deep(2, 2, 3, 0, 0, "c3", True),
    cyclic_pair_deep(2, 3, 1, 2, 2, "triv", True),
    cyclic_pair_deep(3, 2, 1, 2, 1, "triv", False),
    cyclic_pair_deep(3, 2, 5, 0, 3, "V2", False),
    # -- odd cyclic at n <= m-2 + odd cyclic at m+1; flip iff n=1
    low2_cyclic(3, 1, 1, 1, "triv", True),
    low2_cyclic(3, 1, 3, 3, "c3", True),
    low2_cyclic(3, 1, 1, 7, "V2", True),
    low2_cyclic(4, 2, 1, 1, "triv", False),
    low2_cyclic(4, 1, 5, 3, "triv", True),
    low2_cyclic(4, 2, 3, 5, "c3", False),
    # -- even pair at n <= m-2 + odd cyclic at m+1; flip iff n=1 and nu odd
    pair_low2_cyclic(3, 1, 2, 1, 1, "triv", True),
    pair_low2_cyclic(3, 1, 2, 0, 1, "c3", False),
    pair_low2_cyclic(3, 1, 0, 1, 3, "triv", True),
    pair_low2_cyclic(4, 2, 2, 1, 1, "triv", False),
    pair_low2_cyclic(3, 1, 0, 3, 5, "V2", True),
    # -- kappa = 2*u1 in a single odd cyclic at m+1; never flips
    r1_cyclic(2, 1, "triv"),
    r1_cyclic(2, 3, "c3"),
    r1_cyclic(1, 1, "triv"),
    r1_cyclic(3, 5, "V4"),
    r1_cyclic(2, 7, "U2"),
]
