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
`eval_bn`), and so are the invariants read from the integer Gram
(nondegeneracy, `nikulin.det_p`); `fractions.Fraction` appears only at
the boundary: the public `eval_q`/`eval_b` wrappers, the `q`/`b` tuples
used for display and JSON, and the rational input of the constructor.
Floating point never appears.
Elements of F are tuples of canonical residues (0 <= x_i < o_i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import _intmat

Element = Tuple[int, ...]


def canon_mod2(x: Fraction) -> Fraction:
    """Canonical representative of x mod 2Z in [0, 2)."""
    return x - 2 * math.floor(x / 2)


def canon_mod1(x: Fraction) -> Fraction:
    """Canonical representative of x mod Z in [0, 1)."""
    return x - math.floor(x)


def display_rep(x: Fraction) -> Fraction:
    """Representative of x mod 2Z in (-1, 1], the human-display convention."""
    y = canon_mod2(x)
    return y - 2 if y > 1 else y


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
        A dict {(i, j): b(e_i, e_j)} in Q/Z for i < j, omitted pairs
        meaning 0 (None for none); the diagonal is q mod 1.
    scale:
        None when the values are rationals (anything ``Fraction`` accepts);
        an integer S when they are integers v standing for v/S.  Forms built
        from another form pass its integer values with ``scale`` = its N.

    The form keeps N = exponent, ``Qn`` (q(e_i)*N mod 2N) and ``Bn``
    (b(e_i, e_j)*N mod N, with Bn[i][i] = Qn[i] mod N).
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
        if scale is None:
            def at_n(v):
                t = Fraction(v) * n
                return t.numerator if t.denominator == 1 else t
        else:
            def at_n(v):
                t, rem = divmod(v * n, scale)
                return Fraction(v * n, scale) if rem else t

        q = [at_n(v) % two_n for v in q_values]
        b = [[0] * r for _ in range(r)]
        for (i, j), v in (b_matrix or {}).items():
            if i == j:
                raise ValueError("pass q for diagonal entries, not b")
            b[i][j] = b[j][i] = at_n(v) % n
        # Validity: q_i must define a quadratic value on a generator of
        # order o_i (o*q integral and o^2*q even), and o_i b_ij integral.
        for i, o in enumerate(orders):
            if isinstance(q[i], Fraction) or (o * q[i]) % n:
                raise ValueError(f"q[{i}] is not defined on Z/{o}")
            if (o * o * q[i]) % two_n:
                raise ValueError(f"q[{i}] violates o^2 q = 0 mod 2 on Z/{o}")
            for j in range(r):
                if i != j and (isinstance(b[i][j], Fraction)
                               or (o * b[i][j]) % n):
                    raise ValueError(f"b[{i}][{j}] is not defined on Z/{o}")
        for i in range(r):
            b[i][i] = q[i] % n
        self.orders: Tuple[int, ...] = tuple(orders)
        self.N: int = n
        self.Qn: Tuple[int, ...] = tuple(q)
        self.Bn: Tuple[Tuple[int, ...], ...] = tuple(tuple(row) for row in b)
        # Bn with Qn on the diagonal: q(x)*N = x^T G x mod 2N, and
        # b(x, y)*N = x^T G y mod N.
        self._gram = tuple(row[:i] + (q[i],) + row[i + 1:]
                           for i, row in enumerate(self.Bn))
        self._check_nondegenerate()

    # ---------------------------------------------------------------- basics

    @cached_property
    def q(self) -> Tuple[Fraction, ...]:
        """q(e_i) in [0, 2), as Fractions (display and JSON boundary)."""
        return tuple(Fraction(v, self.N) for v in self.Qn)

    @cached_property
    def b(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """b(e_i, e_j) in [0, 1), as Fractions (display and JSON boundary)."""
        return tuple(tuple(Fraction(v, self.N) for v in row)
                     for row in self.Bn)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    def exponent(self) -> int:
        return self.N

    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, vec: Sequence[int]) -> Element:
        return tuple(int(v) % o for v, o in zip(vec, self.orders))

    def add(self, x: Sequence[int], y: Sequence[int]) -> Element:
        return tuple((a + c) % o for a, c, o in zip(x, y, self.orders))

    def sub(self, x: Sequence[int], y: Sequence[int]) -> Element:
        return tuple((a - c) % o for a, c, o in zip(x, y, self.orders))

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
        q = [self.eval_qn(g) for g in gens]
        rows = [self._pairing_row(g) for g in gens]
        b = {(s, t): sum(map(mul, gens[s], rows[t]))
             for s in range(len(gens)) for t in range(s + 1, len(gens))}
        return FiniteQuadraticForm(orders, q, b, scale=self.N)

    def iter_elements(self) -> Iterator[Element]:
        """All group elements in lexicographic coordinate order."""
        return iter(product(*(range(o) for o in self.orders)))

    # ------------------------------------------------------------ invariants

    def length_p(self, p: int) -> int:
        """Minimal generator count of the p-part."""
        return sum(1 for o in self.orders if o % p == 0)

    def length(self) -> int:
        primes = set()
        for o in self.orders:
            primes.update(factorint(o))
        return max((self.length_p(p) for p in primes), default=0)

    def primes(self) -> List[int]:
        ps = set()
        for o in self.orders:
            ps.update(factorint(o))
        return sorted(ps)

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

    def primary_component(self, x: Sequence[int], p: int) -> Element:
        """The p-primary component of x inside self."""
        o = self.order_of(x)
        a = _val(o, p)
        m = o // p ** a
        if a == 0:
            return self.zero()
        # e = 1 mod p^a, 0 mod m
        e = (m * pow(m, -1, p ** a)) % o if m > 1 else 1
        return self.smul(e, x)

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

    def smith_presentation(self, sub: "Subgroup") -> "QuotientPresentation":
        """Smith presentation of the subgroup itself (quotient by nothing)."""
        r = self.rank
        inner = []
        for i in range(r):
            col = [0] * r
            col[i] = self.orders[i]
            inner.append(col)
        return _smith_generators(self, sub.lattice, inner)

    def subgroup_as_form(self, sub: "Subgroup") -> Tuple["FiniteQuadraticForm", List[Element]]:
        """Restrict the form to a (nondegenerate) subgroup.

        Returns (form, gens) with gens the independent generators inside self.
        Raises ValueError when the restriction is degenerate.
        """
        pres = self.smith_presentation(sub)
        return self.restricted_form(pres.orders, pres.reps), list(pres.reps)

    # -------------------------------------------------------------- encoding

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": [str(v) for v in self.q],
            "b": [[str(v) for v in row] for row in self.b],
        }

    def display(self) -> str:
        """Human-readable generator-wise description like ``[-7/8] (+) [1/4]``."""
        if not self.orders:
            return "[0]"
        parts = []
        for i in range(self.rank):
            off = any(self.Bn[i][j] for j in range(self.rank) if j != i)
            rep = display_rep(self.q[i])
            parts.append(f"[{rep}]" + ("*" if off else ""))
        return " (+) ".join(parts)

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
        (o_j*Bn[j][i]/N)_j, one per e_i, and o_j*e_j span Z^r."""
        r, n = self.rank, self.N
        rows = [[o * v // n for v in row] + [o * (k == j) for k in range(r)]
                for j, (o, row) in enumerate(zip(self.orders, self.Bn))]
        if _intmat.det_lower_triangular(_intmat.hnf_columns(rows)) != 1:
            raise ValueError("degenerate bilinear form (nontrivial radical)")


def _identity_gens(form: FiniteQuadraticForm) -> List[Element]:
    r = form.rank
    return [tuple(int(i == j) for j in range(r)) for i in range(r)]


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
            cols = [list(g) for g in gens]
            for i in range(r):
                col = [0] * r
                col[i] = ambient.orders[i]
                cols.append(col)
            _lattice = _intmat.hnf_columns(_intmat.transpose(cols))
        self.lattice = _lattice  # r x r lower-triangular HNF basis
        basis = [ambient.reduce([_lattice[i][j] for i in range(r)])
                 for j in range(r)]
        self.gens: List[Element] = [x for x in basis if any(x)]
        self.order = ambient.order // _intmat.det_lower_triangular(_lattice)

    def contains(self, x: Sequence[int]) -> bool:
        return _intmat.hnf_solve(self.lattice, list(x)) is not None

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


class QuotientPresentation:
    """Smith presentation of outer/inner for coordinate lattices
    inner <= outer inside Z^r (both containing nothing in particular;
    the quotient must be finite).

    orders: invariant factors > 1 (ascending divisibility);
    reps: ambient coordinate representatives of the generators;
    to_coords: maps an ambient vector lying in the outer lattice to its
    quotient coordinates.
    """
    __slots__ = ("orders", "reps", "to_coords")

    def __init__(self, orders: List[int], reps: List[Element],
                 to_coords: Callable[[Sequence[int]], Tuple[int, ...]]
                 ) -> None:
        self.orders = orders
        self.reps = reps
        self.to_coords = to_coords


def _smith_generators(ambient: FiniteQuadraticForm,
                      outer_lattice: List[List[int]],
                      inner_cols: List[List[int]]) -> QuotientPresentation:
    """Smith presentation of (outer lattice)/(inner lattice) in Z^r, where
    inner_cols generate the inner lattice (the ambient orders lattice must be
    contained in it for the quotient to be a bona fide subquotient group).
    Representatives are reduced into ambient coordinates."""
    r = ambient.rank
    b = outer_lattice
    rel = []
    for col in inner_cols:
        z = _intmat.hnf_solve(b, col)
        if z is None:
            raise ValueError("inner lattice not contained in outer lattice")
        rel.append(z)
    relmat = _intmat.transpose(rel)
    d, u, v = _intmat.snf(relmat)
    dd = [d[i][i] for i in range(r)]
    if any(x == 0 for x in dd):
        raise ValueError("quotient is not finite")
    kept = [i for i in range(r) if dd[i] > 1]
    # The generators are the columns of b u^-1 = inner v d^-1 (from
    # u rel v = d with b rel = inner): column j of inner v, divided by d_j.
    c = _intmat.matmul(_intmat.transpose(inner_cols), v)
    reps = [ambient.reduce([c[i][j] // dd[j] for i in range(r)])
            for j in kept]
    rows = [(u[i], dd[i]) for i in kept]

    def to_coords(x: Sequence[int]) -> Tuple[int, ...]:
        # c = b u^-1, so c^-1 x = u b^-1 x, read on the kept rows of u.
        z = _intmat.hnf_solve(b, x)
        if z is None:
            raise ValueError("vector is not in the outer lattice")
        return tuple(sum(map(mul, row, z)) % o for row, o in rows)

    return QuotientPresentation([dd[i] for i in kept], reps, to_coords)


# ------------------------------------------------------------- constructors


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm([], [], {})


def cyclic_form(m: int, n: int) -> FiniteQuadraticForm:
    """The cyclic form [m/n]: Z/n with q(g) = m/n mod 2 (mn even, gcd(m,n)=1)."""
    if n < 2:
        raise ValueError("cyclic form needs n >= 2")
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    if (m * n) % 2 != 0:
        raise ValueError("mn must be even")
    return FiniteQuadraticForm([n], [Fraction(m, n)], {})


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


# ------------------------------------------------- homogeneous decomposition


class HomogeneousBlock:
    """A rank-1 or rank-2 orthogonal block of a 2-primary form.

    gens are elements of the ambient form; level is k with exponent 2^k.
    """
    __slots__ = ("level", "gens")

    def __init__(self, level: int, gens: List[Element]) -> None:
        self.level = level
        self.gens = gens


_DECOMP_CUTOFF = 1 << 16


def homogeneous_decomposition(form: FiniteQuadraticForm
                              ) -> List[HomogeneousBlock]:
    """Orthogonally split a 2-primary form into rank-<=2 blocks.

    Deterministic: at each step picks the lexicographically least maximal-order
    element x with b(x,x) of full order (cyclic split) or, failing that, the
    lexicographically least pair (x, y) with b(x,y) of full order.  Blocks are
    returned grouped by descending level.
    """
    for o in form.orders:
        if o != 1 << _val(o, 2):
            raise ValueError("form is not 2-primary")
    if form.order > _DECOMP_CUTOFF:
        raise ValueError("homogeneous_decomposition cutoff exceeded")

    blocks: List[HomogeneousBlock] = []

    def recurse(f: FiniteQuadraticForm, embed: List[Element]) -> None:
        if f.rank == 0:
            return
        e = f.exponent()
        lvl = _val(e, 2)
        top = sorted(x for x in f.iter_elements() if f.order_of(x) == e)
        # b(x, x) = q(x) mod 1, resp. b(x, y), has order e iff its value
        # at scale N = e is a unit mod e.
        cyclic = next((x for x in top
                       if math.gcd(f.eval_qn(x), e) == 1), None)
        if cyclic is not None:
            picked = [cyclic]
        else:
            picked = None
            for x in top:
                y = next((y for y in top
                          if math.gcd(f.eval_bn(x, y), e) == 1), None)
                if y is not None:
                    picked = [x, y]
                    break
            if picked is None:
                raise AssertionError("no splittable block at top exponent")
        lifted = [_lift(embed, form, x) for x in picked]
        blocks.append(HomogeneousBlock(lvl, lifted))
        comp = f.orthogonal_complement(f.subgroup(picked))
        sub_form, sub_gens = f.subgroup_as_form(comp)
        if sub_form.order * (e ** len(picked)) != f.order:
            raise AssertionError("split block and complement orders differ "
                                 "from the form's")
        recurse(sub_form, [_lift(embed, form, g) for g in sub_gens])

    recurse(form, _identity_gens(form))
    blocks.sort(key=lambda blk: (-blk.level, blk.gens))
    total = 1
    for blk in blocks:
        total *= 1 << (blk.level * len(blk.gens))
    if total != form.order:
        raise AssertionError("homogeneous block orders differ from the "
                             "form's")
    return blocks


def _lift(embed: List[Element], ambient: FiniteQuadraticForm,
          x: Sequence[int]) -> Element:
    vec = ambient.zero()
    for c, g in zip(x, embed):
        if c:
            vec = ambient.add(vec, ambient.smul(c, g))
    return vec
