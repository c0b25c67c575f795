"""Genus-level existence tests for primitive embeddings into the even
unimodular lattice of signature (3, 19).

The decision data is the discriminant form together with a signature pair;
the per-prime invariant is the square class of the determinant of the
p-primary Gram matrix (odd p: modulo squares of p-adic units; p = 2: modulo
8, coarsened to {1,5}/{3,7} when the 2-primary form is odd).
"""

from __future__ import annotations

import math
from numbers import Rational
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from . import _intmat
from .fqf import Element, FiniteQuadraticForm, _val, cyclic_form


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p and a prime to p."""
    a %= p
    if a == 0:
        raise ValueError("argument not prime to p")
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class SquareClass(NamedTuple):
    """A p-adic square class p^valuation * unit.

    For odd p the unit is +-1 (the Legendre class); for p = 2 it is a residue
    in {1, 3, 5, 7} mod 8 together with the evenness grading of the form it
    came from (odd 2-forms only determine the unit up to the {1,5}/{3,7}
    coarsening).
    """
    prime: int
    valuation: int
    unit: int
    even: bool = True

    def same_class(self, other: "SquareClass") -> bool:
        if self.prime != other.prime or self.valuation != other.valuation:
            return False
        if self.prime != 2:
            return self.unit == other.unit
        if self.even and other.even:
            return self.unit == other.unit
        return (self.unit % 8 in (1, 5)) == (other.unit % 8 in (1, 5))

    def scaled_by_unit(self, n: int) -> "SquareClass":
        """The class of n * (this class) for an integer n prime to p."""
        if n % self.prime == 0:
            raise ValueError("n must be prime to p")
        if self.prime == 2:
            return SquareClass(2, self.valuation, (self.unit * n) % 8,
                               self.even)
        return SquareClass(self.prime, self.valuation,
                           self.unit * legendre(n, self.prime), self.even)


def unit_square_class(n: Rational, p: int, even: bool = True
                      ) -> SquareClass:
    """Square class of a p-adic unit given as an int or a Fraction."""
    num, den = n.numerator, n.denominator
    if num % p == 0 or den % p == 0:
        raise ValueError("not a p-adic unit")
    if p == 2:
        return SquareClass(2, 0, (num * pow(den, -1, 8)) % 8, even)
    return SquareClass(p, 0, legendre(num, p) * legendre(den, p), even)


def det_p(form: FiniteQuadraticForm, p: int) -> SquareClass:
    """Square class of the determinant of the p-primary Gram matrix.

    The Gram matrix of the p-part uses canonical representatives (diagonal:
    q in [0,2); off-diagonal: b in [0,1)); its determinant equals
    unit / |F_p|, and the returned class records p^{v_p(|F_p|)} * unit with
    the 2-adic grading flag when p = 2.  With the Gram read at the form's own
    scale N, unit = det * |F_p| / N^ell = det(Gram_ij * o_j), an integer.
    """
    orders, gens = form._p_generators(p)
    ell = len(gens)
    # Each generator is m * e_k, so its entries are read off Qn and Bn.
    coords = [next((k, m) for k, m in enumerate(g) if m) for g in gens]
    n = form.N
    gram = [[m * m * form.Qn[k] % (2 * n) if i == j
             else m * m2 * form.Bn[k][k2] % n
             for j, (k2, m2) in enumerate(coords)]
            for i, (k, m) in enumerate(coords)]
    order_p = math.prod(orders)
    unit, rem = divmod(_intmat.det(gram) * order_p, form.N ** ell)
    if rem:
        raise ValueError("det_p: det * |F_p| / N^ell is not an integer")
    even = form.is_even_2part() if p == 2 else True
    return SquareClass(p, _val(order_p, p),
                       unit_square_class(unit, p, even).unit, even)


# ------------------------------------------------------- embedding criterion


def length_bound(sigma_plus: int, sigma_minus: int) -> int:
    """The largest l_p(form) that clause 1 of embedding_clauses admits for
    an even lattice of signature (sigma_plus, sigma_minus): 22 - rank."""
    return 22 - (sigma_plus + sigma_minus)


def embedding_clauses(sigma_plus: int, sigma_minus: int,
                      form: FiniteQuadraticForm, among: Iterable[int] = ()
                      ) -> Dict[str, bool]:
    """Detailed clause outcomes for primitive embeddability of an even
    lattice with invariants (sigma_plus, sigma_minus, form) into the even
    unimodular lattice of signature (3, 19).

    Keys, in insertion order: "clause1" (signature and length bounds),
    "clause2:<p>" for each odd prime dividing |form| in ascending order
    (vacuously True below the length threshold), and "clause3" (the 2-adic
    threshold condition, vacuously True when below the threshold or when
    the 2-part is odd).  `among`, when given, holds every prime of the
    form's order (FiniteQuadraticForm.primes).
    """
    size = form.order
    threshold = length_bound(sigma_plus, sigma_minus)
    primes = form.primes(among)
    out: Dict[str, bool] = {}
    out["clause1"] = (sigma_plus <= 3 and sigma_minus <= 19
                      and max(map(form.length_p, primes), default=0)
                      <= threshold)
    target_sign = (-1) ** (sigma_plus - 1)
    for p in primes:
        if p == 2:
            continue
        key = f"clause2:{p}"
        if form.length_p(p) != threshold:
            out[key] = True
            continue
        dp = det_p(form, p)
        total = dp.scaled_by_unit(size // p ** dp.valuation)
        want = SquareClass(p, dp.valuation,
                           legendre(target_sign % p, p), True)
        out[key] = total.same_class(want)
    if 2 in primes:
        d2 = det_p(form, 2)
        if form.length_p(2) != threshold or not d2.even:
            out["clause3"] = True
        else:
            total = d2.scaled_by_unit(size // 2 ** d2.valuation)
            out["clause3"] = total.unit % 8 in (1, 7)
    else:
        out["clause3"] = True
    return out


def embeds_into_big_L(sigma_plus: int, sigma_minus: int,
                      form: FiniteQuadraticForm, among: Iterable[int] = ()
                      ) -> Tuple[bool, Optional[str]]:
    """Decide primitive embeddability into the even unimodular (3, 19)
    lattice; on failure the reason names the first failing clause."""
    clauses = embedding_clauses(sigma_plus, sigma_minus, form, among)
    failed = next((key for key, ok in clauses.items() if not ok), None)
    return failed is None, failed


# ------------------------------------------------------- gluing ambient


def ambient_with_a_block(form: FiniteQuadraticForm, a2: int
                         ) -> FiniteQuadraticForm:
    """form (+) [1/a2], the discriminant form after adjoining the polarizing
    rank-one lattice of square a2."""
    return form.direct_sum(cyclic_form(1, a2))


def theta_vector(form: FiniteQuadraticForm, kappa: Sequence[int],
                 n: int) -> Element:
    """The gluing vector kappa (+) n*alpha inside form (+) [1/a2]."""
    return tuple(kappa) + (n,)
