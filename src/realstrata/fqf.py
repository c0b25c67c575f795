"""Finite quadratic forms as exact integers at the scale of their exponent.

A finite quadratic form (FQF) is a finite abelian group F presented as a
product of cyclic groups Z/o_1 x ... x Z/o_r with independent generators,
together with a quadratic map q : F -> Q/2Z and the polarized bilinear map
b : F x F -> Q/Z satisfying

    q(x + y) - q(x) - q(y) = 2 b(x, y)   (mod 2Z),
    b(x, x) = q(x)                        (mod 1).

A form is stored as integers at the scale N = exponent of F:
Qn[i] = q(e_i)*N mod 2N and Bn[i][j] = b(e_i, e_j)*N mod N.  Both are exact,
since o_i q(e_i) and o_i b(e_i, e_j) are integers and o_i divides N.  Every
evaluation on the engine's paths is integer arithmetic (`eval_qn`,
`eval_bn`), and so are display, JSON and the invariants read from the
integer Gram (nondegeneracy, one orthogonal block at a time, and
`nikulin.det_p`); `fractions.Fraction` appears only at the boundary: the
public `eval_q`/`eval_b` wrappers, the `q`/`b` tuples the oracle reads,
and the rational input of the constructor.  Floating point never appears.
Elements of F are tuples of canonical residues (0 <= x_i < o_i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from operator import mul
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from . import _intmat

Element = Tuple[int, ...]


def _ratio_text(v: int, n: int) -> str:
    """str(Fraction(v, n)), read from the integers."""
    g = math.gcd(v, n)
    return f"{v // g}" if g == n else f"{v // g}/{n // g}"


def factorint(n: int) -> Dict[int, int]:
    """Prime factorization of a positive integer, primes ascending: trial
    division by the integers below 2^10, then, on a cofactor too large to
    be prime by that alone, Miller-Rabin, a perfect-power test and
    Pollard's rho (_is_prime, _power_root, _rho), so a huge prime factor
    costs no scan up to its square root.  Raises ValueError on a cofactor
    that is no perfect power and that rho does not split within
    _RHO_STEPS steps, which a product of two primes above about 2^40
    can be."""
    if n < 1:
        raise ValueError("factorint needs a positive integer")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n and d < 1 << 10:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if d * d > m or _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = _power_root(m)
        if k > 1:
            todo += [root] * k
        else:
            f = _rho(m)
            todo += [f, m // f]
    return dict(sorted(out.items()))


def _power_root(m: int) -> Tuple[int, int]:
    """(r, k) with r^k = m and k >= 2 as small as possible, or (m, 1).
    Every prime factor of m exceeds 2^10 here, so k < bits(m) / 10."""
    for k in range(2, m.bit_length() // 10 + 1):
        # Newton's iteration for the integer k-th root, from above.
        x = 1 << -(-m.bit_length() // k)
        while True:
            y = ((k - 1) * x + m // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
        if x ** k == m:
            return x, k
    return m, 1


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 primes as bases, for an odd n > 41:
    no composite below 3.3 * 10^24 passes them all (Sorenson and Webster
    2015), so the answer is proven there; above, n is a strong probable
    prime to all 13 bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_STEPS = 1 << 20


def _rho(n: int) -> int:
    """A proper divisor of an odd composite n: Pollard's rho with Brent's
    cycle search on x -> x^2 + c from x = 2, for c = 1, 2, ... until one
    splits n.  The differences are multiplied 128 at a time before one
    gcd; when a batch overshoots to n, it is replayed one step at a time.
    Past _RHO_STEPS steps over all c it raises ValueError: rho needs
    about sqrt(p) steps to find a prime factor p."""
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise ValueError(
                    f"cannot factor {n}: Pollard's rho found no factor "
                    f"in {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class FiniteQuadraticForm:
    """A nondegenerate finite quadratic form on a product of cyclic groups.

    Parameters
    ----------
    orders:
        Orders o_i >= 2 of the independent generators.
    q_values:
        q(e_i) in Q/2Z, one per generator.
    b_matrix:
        A dict {(i, j): b(e_i, e_j)} in Q/Z keyed 0 <= i < j < rank,
        omitted pairs meaning 0 (None for none); the diagonal is q mod 1.
    scale:
        None when the values are rationals (anything ``Fraction`` accepts);
        an integer S when they are integers v standing for v/S.  Forms built
        from another form pass its integer values with ``scale`` = its N.

    The form keeps N, ``Qn`` and ``Bn`` (with Bn[i][i] = Qn[i] mod N).  It
    raises ValueError on any other b key, on a value not defined on its
    generators (read on the nonzero entries alone), and on a degenerate b,
    decided one orthogonal block at a time (`_check_nondegenerate`).
    """

    def __init__(self, orders: Sequence[int],
                 q_values: Sequence, b_matrix: Optional[dict] = None,
                 scale: Optional[int] = None):
        orders = [int(o) for o in orders]
        if any(o < 2 for o in orders):
            raise ValueError("generator orders must be >= 2")
        r = len(orders)
        if len(q_values) != r:
            raise ValueError("q_values length mismatch")
        n = math.lcm(*orders) if orders else 1
        two_n = 2 * n

        # value * N as an int, or as a Fraction when it is not integral
        # (which the validity checks below reject).
        def at_n(v):
            if scale is None:
                t = Fraction(v) * n
                return t.numerator if t.denominator == 1 else t
            t, rem = divmod(v * n, scale)
            return Fraction(v * n, scale) if rem else t

        q = [at_n(v) % two_n for v in q_values]
        b = [[0] * r for _ in range(r)]
        for (i, j), v in (b_matrix or {}).items():
            if not 0 <= i < j < r:
                raise ValueError("pass q for diagonal entries, not b" if i == j
                                 else f"b key {(i, j)} not 0 <= i < j < {r}")
            b[i][j] = b[j][i] = at_n(v) % n
        # Validity: q_i must define a quadratic value on a generator of
        # order o_i (o*q integral and o^2*q even), and o_i b_ij integral;
        # a zero b_ij cannot fail, so row i checks its nonzero ones alone.
        for i, o in enumerate(orders):
            if type(q[i]) is Fraction or (o * q[i]) % n:
                raise ValueError(f"q[{i}] is not defined on Z/{o}")
            if (o * o * q[i]) % two_n:
                raise ValueError(f"q[{i}] violates o^2 q = 0 mod 2 on Z/{o}")
            for j in compress(range(r), b[i]):
                if type(b[i][j]) is Fraction or (o * b[i][j]) % n:
                    raise ValueError(f"b[{i}][{j}] is not defined on Z/{o}")
            b[i][i] = q[i] % n
        self.orders: Tuple[int, ...] = tuple(orders)
        self.N: int = n
        self.Qn: Tuple[int, ...] = tuple(q)
        self.Bn: Tuple[Tuple[int, ...], ...] = tuple(tuple(row) for row in b)
        # Bn with Qn on the diagonal: q(x)*N = x^T G x mod 2N, and
        # b(x, y)*N = x^T G y mod N.
        self._gram = tuple(row[:i] + (q[i],) + row[i + 1:]
                           for i, row in enumerate(self.Bn))
        # orthogonal_cuts: every c, ascending, with b(e_i, e_j) = 0 for all
        # i < c <= j, where the generators split into two orthogonal
        # halves; far is the last generator that one before c pairs with.
        cuts, far = [], -1
        for c, row in enumerate(b):
            if far < c:
                cuts.append(c)
                far = c
            if any(row[far + 1:]):
                far = max(j for j, v in enumerate(row) if v)
        self.orthogonal_cuts: Tuple[int, ...] = tuple(cuts) + (r,)
        self._check_nondegenerate()

    # ---------------------------------------------------------------- basics

    @cached_property
    def q(self) -> Tuple[Fraction, ...]:
        """q(e_i) in [0, 2), as Fractions (the oracle's boundary), one
        Fraction per distinct value."""
        at = {v: Fraction(v, self.N) for v in set(self.Qn)}
        return tuple(map(at.__getitem__, self.Qn))

    @cached_property
    def b(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """b(e_i, e_j) in [0, 1), as Fractions (the oracle's boundary), one
        Fraction per distinct value."""
        at = {v: Fraction(v, self.N) for v in set().union(*self.Bn)}
        return tuple(tuple(map(at.__getitem__, row)) for row in self.Bn)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def exponent(self) -> int:
        return self.N

    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, vec: Sequence[int]) -> Element:
        return tuple(int(v) % o for v, o in zip(vec, self.orders))

    def add(self, x: Sequence[int], y: Sequence[int]) -> Element:
        return tuple((a + c) % o for a, c, o in zip(x, y, self.orders))

    def neg(self, x: Sequence[int]) -> Element:
        return tuple((-a) % o for a, o in zip(x, self.orders))

    def smul(self, n: int, x: Sequence[int]) -> Element:
        return tuple((n * a) % o for a, o in zip(x, self.orders))

    def order_of(self, x: Sequence[int]) -> int:
        n = 1
        for a, o in zip(x, self.orders):
            n = math.lcm(n, o // math.gcd(a, o))
        return n

    def eval_qn(self, x: Sequence[int]) -> int:
        """q(x) * N mod 2N, an integer in [0, 2N)."""
        total = 0
        for xi, row in zip(x, self._gram):
            if xi:
                total += xi * sum(map(mul, x, row))
        return total % (2 * self.N)

    def eval_bn(self, x: Sequence[int], y: Sequence[int]) -> int:
        """b(x, y) * N mod N, an integer in [0, N)."""
        total = 0
        for xi, row in zip(x, self.Bn):
            if xi:
                total += xi * sum(map(mul, y, row))
        return total % self.N

    def _pairing_row(self, y: Sequence[int]) -> List[int]:
        """b(e_i, y) * N mod N for every generator e_i: the row that pairs
        with the coordinates of x to give b(x, y) * N mod N."""
        n = self.N
        return [sum(map(mul, row, y)) % n for row in self.Bn]

    def eval_q(self, x: Sequence[int]) -> Fraction:
        """q(x) in Q/2Z, canonical in [0, 2)."""
        return Fraction(self.eval_qn(x), self.N)

    def eval_b(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """b(x, y) in Q/Z, canonical in [0, 1)."""
        return Fraction(self.eval_bn(x, y), self.N)

    def restricted_form(self, orders: Sequence[int],
                        gens: Sequence[Sequence[int]]
                        ) -> "FiniteQuadraticForm":
        """The form read on independent elements gens of the given orders
        (generators of a subgroup, or coset reps of a subquotient)."""
        nz = [[(i, v) for i, v in enumerate(g) if v] for g in gens]
        bn = self.Bn
        b = {(s, t): v for s in range(len(gens))
             for t in range(s + 1, len(gens))
             if (v := sum(a * c * bn[i][j] for i, a in nz[s]
                          for j, c in nz[t]))}
        return FiniteQuadraticForm(orders, [self.eval_qn(g) for g in gens],
                                   b, scale=self.N)

    def iter_elements(self) -> Iterator[Element]:
        """All group elements in lexicographic coordinate order."""
        return iter(product(*(range(o) for o in self.orders)))

    def elements_of_order(self, order: int, targets: Sequence[int]
                          ) -> List[List[Element]]:
        """For each target t, the elements of exact order `order` with q*N =
        t mod 2N, in lexicographic order: one list per target, in the order
        of `targets`.

        Meets in the middle at the orthogonal cut that makes the two halves
        smallest: since q(u + w) = q(u) + q(w) there, each prefix u, in
        lexicographic order, reads the one bucket of suffixes w with
        q(w)*N = t - q(u)*N, in lexicographic order too, and keeps those
        that lift its order to `order`.  The halves depend on the order
        alone, so they are built once for all targets, and the suffixes are
        bucketed once, keeping the buckets some (prefix, target) reads.
        Each half runs x_i over the multiples of o_i / gcd(o_i, order) with
        q(x + v e_i) = q(x) + v^2 q(e_i) + 2 v b(x, e_i), x zero from i on;
        a prefix is dropped once the coordinates left cannot lift its order
        to `order`.  Prefixes start from eval_qn at the zero element, so
        every list rests on the form's own evaluator."""
        r, two_n = self.rank, 2 * self.N
        values = [[(v, o // math.gcd(v, o))
                   for v in range(0, o, o // math.gcd(o, order))]
                  for o in self.orders]
        # reach[i]: the largest order coordinates i.. can contribute.
        reach = [1] * (r + 1)
        for i in reversed(range(r)):
            reach[i] = math.lcm(math.gcd(self.orders[i], order), reach[i + 1])
        sizes = [len(v) for v in values]
        cut = min(self.orthogonal_cuts,
                  key=lambda c: math.prod(sizes[:c]) + math.prod(sizes[c:]))

        def half(lo: int, hi: int, qn0: int, need: Optional[List[int]]
                 ) -> List[Tuple[Element, int, int]]:
            """(x, order of x, q(x)*N + qn0 mod 2N) on coordinates lo..hi-1,
            pruned to lcm(order of x, need[i + 1]) = `order` when need is
            set."""
            level = [((), 1, qn0)]
            for i in range(lo, hi):
                q_i, row = self.Qn[i], self.Bn[i][lo:i]
                level = [(x + (v,), o, (qn + v * (v * q_i + b)) % two_n)
                         for x, x_order, qn in level
                         for b in (2 * sum(map(mul, x, row)),)
                         for v, v_order in values[i]
                         for o in (math.lcm(x_order, v_order),)
                         if need is None or math.lcm(o, need[i + 1]) == order]
            return level

        prefix = half(0, cut, self.eval_qn(self.zero()), reach)
        # Only the buckets some prefix reads, for some target, are kept.
        buckets = {(t - qn) % two_n: []
                   for t in targets for _, _, qn in prefix}
        for w, w_order, qn in half(cut, r, 0, None) if buckets else ():
            if qn in buckets:
                buckets[qn].append((w, w_order))
        # Every suffix's order divides `order`, so a prefix of that order
        # keeps its whole bucket.
        return [[u + w for u, u_order, qn in prefix
                 for w, w_order in buckets[(t - qn) % two_n]
                 if u_order == order or math.lcm(u_order, w_order) == order]
                for t in targets]

    # ------------------------------------------------------------ invariants

    def length_p(self, p: int) -> int:
        """Minimal generator count of the p-part."""
        return sum(1 for o in self.orders if o % p == 0)

    def primes(self, among: Iterable[int] = ()) -> List[int]:
        """The primes dividing the group order, ascending, read off
        `among`, when given, a set of primes that holds them all."""
        ps = among or factorint(self.N)
        return sorted(p for p in ps if any(o % p == 0 for o in self.orders))

    def is_even_2part(self) -> bool:
        """True when q takes only integer values on the order-<=2 elements
        (the evenness grading of the 2-primary part).

        The 2-torsion is spanned by h_i = (o_i/2)*e_i for even o_i, and
        q(x + y) = q(x) + q(y) + 2b(x, y) with 2b(h_i, h_j) an integer, so
        q is integral on all of it iff it is integral on each h_i."""
        return all(((o // 2) ** 2 * qn) % self.N == 0
                   for o, qn in zip(self.orders, self.Qn) if o % 2 == 0)

    # ------------------------------------------------------- d sums / parts

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        return direct_sum_all([self, other])

    def p_part(self, p: int) -> Tuple["FiniteQuadraticForm", List[Element]]:
        """The p-primary part, with the embedding of its generators.

        Returns (form, gens) where gens[i] is the element of self generating
        the i-th cyclic factor of the p-part.
        """
        orders, gens = self._p_generators(p)
        return self.restricted_form(orders, gens), gens

    def _p_generators(self, p: int) -> Tuple[List[int], List[Element]]:
        """Orders p^a_i and elements (o_i/p^a_i)*e_i generating the cyclic
        factors of the p-part, one per generator of order divisible by p."""
        orders: List[int] = []
        gens: List[Element] = []
        for i, o in enumerate(self.orders):
            if o % p == 0:
                pa = p ** _val(o, p)
                orders.append(pa)
                vec = [0] * self.rank
                vec[i] = o // pa
                gens.append(tuple(vec))
        return orders, gens

    def _p_coordinates(self, p: int) -> tuple:
        """_p_generators with the index i of each piece and the inverse of
        o_i/p^a_i mod p^a_i, (idx, orders, inv, gens), cached per prime."""
        cache = self.__dict__.setdefault("_by_prime", {})
        if p not in cache:
            orders, gens = self._p_generators(p)
            idx = [i for i, o in enumerate(self.orders) if o % p == 0]
            cache[p] = idx, orders, [pow(g[i], -1, pa) for i, pa, g
                                     in zip(idx, orders, gens)], gens
        return cache[p]

    # ------------------------------------------------------------- subgroups

    def subgroup(self, gens: Sequence[Sequence[int]]) -> "Subgroup":
        return Subgroup(self, [self.reduce(g) for g in gens])

    def orthogonal_complement(self, sub: "Subgroup") -> "Subgroup":
        """The subgroup {x : b(x, h) = 0 for all h in sub}.

        Row t of B is the pairing row of the t-th generator h_t of sub, so
        K-perp is the lattice {x : B x = 0 mod N}.  Its vectors are the
        lower parts of the columns (B x + N y, x) with zero upper part.  The
        HNF of [[B, N*I_k], [I_r, 0]] pivots the k constraint rows first, so
        its lower-right r x r block is the canonical HNF basis of K-perp
        (Cohen 1993, section 2.4)."""
        r, n = self.rank, self.N
        rows = [self._pairing_row(h) for h in sub.gens]
        k = len(rows)
        a = [row + [n if s == t else 0 for s in range(k)]
             for t, row in enumerate(rows)]
        a += [[int(i == j) for j in range(r)] + [0] * k for i in range(r)]
        h = _intmat.hnf_columns(a)
        return Subgroup(self, (), _lattice=[row[k:] for row in h[k:]])

    def smith_presentation(self, sub: "Subgroup"
                           ) -> Tuple[List[int], List[Element]]:
        """Smith presentation of the subgroup itself (quotient by nothing):
        its invariant factors > 1 and their generators."""
        return _smith_generators(self, sub.lattice)

    def subgroup_as_form(self, sub: "Subgroup") -> Tuple["FiniteQuadraticForm", List[Element]]:
        """Restrict the form to a (nondegenerate) subgroup.

        Returns (form, gens) with gens the independent generators inside self.
        Raises ValueError when the restriction is degenerate.
        """
        orders, gens = self.smith_presentation(sub)
        return self.restricted_form(orders, gens), gens

    # -------------------------------------------------------------- encoding

    def to_json_dict(self) -> dict:
        return {"orders": list(self.orders),
                "q": [_ratio_text(v, self.N) for v in self.Qn],
                "b": [[_ratio_text(v, self.N) for v in vs] for vs in self.Bn]}

    def display(self) -> str:
        """Human-readable generator-wise description like ``[-7/8] (+) [1/4]``:
        q(e_i) in (-1, 1], starred when e_i pairs with another generator."""
        n = self.N
        return " (+) ".join(
            f"[{_ratio_text(qn - 2 * n if qn > n else qn, n)}]"
            + ("*" if any(row[:i]) or any(row[i + 1:]) else "")
            for i, (qn, row) in enumerate(zip(self.Qn, self.Bn))) or "[0]"

    def __repr__(self) -> str:
        return f"FiniteQuadraticForm(orders={list(self.orders)})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteQuadraticForm)
                and self.orders == other.orders
                and self.Qn == other.Qn
                and self.Bn == other.Bn)

    def __hash__(self):
        return hash((self.orders, self.Qn, self.Bn))

    # ------------------------------------------------------------- internals

    def _check_nondegenerate(self) -> None:
        """b is nondegenerate iff x -> b(x, .) maps F onto its dual
        prod Z/o_j, read in coordinates o_j*b(., e_j): iff the columns
        (o_j*Bn[j][i]/N)_j, one per e_i, and o_j*e_j span Z^r.  Between
        orthogonal_cuts the matrix is block diagonal, so the index of the
        span is the product of the blocks' indices: a block of one
        generator of order o has index gcd(o*Bn[i][i]/N, o), a larger one
        the determinant of its own Hermite form."""
        n, orders, bn = self.N, self.orders, self.Bn
        cuts = self.orthogonal_cuts
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo == 1:
                det = math.gcd(orders[lo] * bn[lo][lo] // n, orders[lo])
            else:
                det = _intmat.det_lower_triangular(_intmat.hnf_columns(
                    [[o * v // n for v in bn[j][lo:hi]]
                     + [o * (k == j) for k in range(lo, hi)]
                     for j, o in enumerate(orders[lo:hi], lo)]))
            if det != 1:
                raise ValueError(
                    "degenerate bilinear form (nontrivial radical)")


# ------------------------------------------------------------------ subgroup


class Subgroup:
    """A subgroup of a FiniteQuadraticForm, canonically presented by the HNF
    basis of its coordinate lattice (which always contains the orders
    lattice)."""

    def __init__(self, ambient: FiniteQuadraticForm,
                 gens: Sequence[Element], _lattice=None):
        self.ambient = ambient
        r = ambient.rank
        if _lattice is None:
            cols = [list(g) for g in gens] + [
                [o * (i == j) for i in range(r)]
                for j, o in enumerate(ambient.orders)]
            _lattice = _intmat.hnf_columns(_intmat.transpose(cols))
        self.lattice = _lattice  # r x r lower-triangular HNF basis
        basis = [ambient.reduce([_lattice[i][j] for i in range(r)])
                 for j in range(r)]
        self.gens: List[Element] = [x for x in basis if any(x)]
        self.order = ambient.order // _intmat.det_lower_triangular(_lattice)

    def iter_elements(self) -> Iterator[Element]:
        """All subgroup elements (by combinations of the canonical basis)."""
        amb = self.ambient
        gens = self.gens
        seen = set()
        ords = [amb.order_of(g) for g in gens]
        for coeffs in product(*(range(o) for o in ords)):
            vec = amb.zero()
            for c, g in zip(coeffs, gens):
                if c:
                    vec = amb.add(vec, amb.smul(c, g))
            if vec not in seen:
                seen.add(vec)
                yield vec

    def elements(self) -> List[Element]:
        out = sorted(self.iter_elements())
        if len(out) != self.order:
            raise AssertionError(
                "subgroup element count differs from its order")
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.ambient == other.ambient
                and self.lattice == other.lattice)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={self.gens})"


# -------------------------------------------------- relative Smith machinery


def _smith_generators(ambient: FiniteQuadraticForm,
                      outer_lattice: List[List[int]]
                      ) -> Tuple[List[int], List[Element]]:
    """Smith presentation of (outer lattice)/(orders lattice) in Z^r, the
    outer lattice containing the orders lattice: the invariant factors > 1
    (ascending divisibility) and ambient representatives of their
    generators."""
    r = ambient.rank
    inner = [[o * (i == j) for i in range(r)]
             for j, o in enumerate(ambient.orders)]
    solve = _intmat.hnf_solver(outer_lattice)
    rel = [solve(col) for col in inner]
    if None in rel:
        raise ValueError("inner lattice not contained in outer lattice")
    d, _u, v = _intmat.snf(_intmat.transpose(rel))
    dd = [d[i][i] for i in range(r)]
    # The generators are the columns of b u^-1 = inner v d^-1 (from
    # u rel v = d with b rel = inner): column j of inner v, divided by d_j.
    c = _intmat.matmul(_intmat.transpose(inner), v)
    kept = [j for j in range(r) if dd[j] > 1]
    return ([dd[j] for j in kept],
            [ambient.reduce([c[i][j] // dd[j] for i in range(r)])
             for j in kept])


# ------------------------------------------------------------- constructors


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm([], [], {})


def cyclic_form(m: int, n: int) -> FiniteQuadraticForm:
    """The cyclic form [m/n]: Z/n with q(g) = m/n mod 2.  The constructor
    refuses n < 2, an odd mn, and gcd(m, n) > 1, where b is degenerate."""
    return FiniteQuadraticForm([n], [m], scale=n)


def u_block(k: int) -> FiniteQuadraticForm:
    """Hyperbolic 2-adic block on (Z/2^k)^2: Gram (1/2^k)[[0,1],[1,0]]."""
    n = 2 ** k
    return FiniteQuadraticForm([n, n], [Fraction(0), Fraction(0)],
                               {(0, 1): Fraction(1, n)})


def v_block(k: int) -> FiniteQuadraticForm:
    """The other even 2-adic block on (Z/2^k)^2: Gram (1/2^k)[[2,1],[1,2]]."""
    n = 2 ** k
    return FiniteQuadraticForm([n, n], [Fraction(2, n), Fraction(2, n)],
                               {(0, 1): Fraction(1, n)})


def direct_sum_all(forms: Sequence[FiniteQuadraticForm]) -> FiniteQuadraticForm:
    """The orthogonal sum, built once at the lcm of the exponents."""
    n = math.lcm(*(f.N for f in forms))
    orders: List[int] = []
    q: List[int] = []
    b: Dict[Tuple[int, int], int] = {}
    for f in forms:
        s, base = n // f.N, len(orders)
        for i in range(f.rank):
            for j in range(i + 1, f.rank):
                b[(base + i, base + j)] = f.Bn[i][j] * s
        orders += f.orders
        q += [v * s for v in f.Qn]
    return FiniteQuadraticForm(orders, q, b, scale=n)
