"""Brute-force re-derivations used to cross-check the main engine.

Everything here recomputes results by exhaustive element enumeration or
symbolic identities, sharing as little code as possible with the fast
paths: subquotients are rebuilt coset by coset, automorphism groups by
generator-image backtracking, and signatures via exact root-of-unity
sums.  q and b are evaluated here as integer sums over the common
denominator d of form.q and form.b (the Fraction tuples), never by the
engine's integer evaluators or its integer Gram.  Every listing of a
group is one lexicographic odometer.  _walk lists the elements of a form
as its digit vectors and carries q(x)*d and b(x, .)*d along: the step
that raises digit j adds a fixed s_j, and q(x + s_j) = q(x) + q(s_j) +
2 b(x, s_j), so a step costs O(rank) where a from-scratch evaluation
costs O(rank^2); q(s_j) and the b(s_j, .) are evaluated from scratch
once per walk.  _span lists the sums of given generators with one
form.add per step.  All functions refuse (with OracleSizeError) groups
larger than a fixed cutoff rather than sampling, so a passing check is a
complete one.
The engine's K-perp/K presentation, the very Subquotient its decision
read, is handed in and proved by one walk over the sum of its cyclic
factors: the generator reps send each coordinate vector to a distinct
brute-force coset, on which the engine's coordinate map gives the vector
back and the engine's quotient q agrees with the brute one.  That proves
an isometry, so the invariant factors agree too.  The oracle never calls
the engine's subquotient construction, and takes K from its own generators.
A witness phi is re-checked from its matrix with the oracle's q and b.
A failed check raises OracleMismatch explicitly, so the checks also run
under ``python -O``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .fqf import Element, FiniteQuadraticForm
from .isotropy import Subquotient
from .lattices import DiscAutomorphism, PolarizedForm
from .nikulin import ambient_with_a_block, embeds_into_big_L, theta_vector

ORACLE_CUTOFF = 4096


class OracleSizeError(RuntimeError):
    """The group is too large for exhaustive checking."""


class OracleMismatch(AssertionError):
    """A brute-force re-derivation disagrees with the engine."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def _within_cutoff(order: int, cutoff: int) -> None:
    if order > cutoff:
        raise OracleSizeError(
            f"group order {order} exceeds oracle cutoff {cutoff}")


class _ScaledGram(NamedTuple):
    """form.q and form.b over their common denominator d: q[i] = q(e_i)*d
    and b[i][j] = b(e_i, e_j)*d, integers read off the Fraction tuples."""
    d: int
    q: Tuple[int, ...]
    b: Tuple[Tuple[int, ...], ...]


def _scaled_gram(form: FiniteQuadraticForm) -> _ScaledGram:
    d = lcm(*(v.denominator for v in form.q),
            *(v.denominator for row in form.b for v in row))
    return _ScaledGram(d, tuple(v.numerator * (d // v.denominator)
                                for v in form.q),
                       tuple(tuple(v.numerator * (d // v.denominator)
                                   for v in row) for row in form.b))


def _qd(g: _ScaledGram, x: Sequence[int]) -> int:
    """q(x)*d mod 2d, in [0, 2d)."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * (xi * g.q[i]
                           + 2 * sum(map(mul, x[i + 1:], g.b[i][i + 1:])))
    return total % (2 * g.d)


def _bd(g: _ScaledGram, x: Sequence[int], y: Sequence[int]) -> int:
    """b(x, y)*d mod d, in [0, d)."""
    total = 0
    for xi, row in zip(x, g.b):
        if xi:
            total += xi * sum(map(mul, y, row))
    return total % g.d


def _units(rank: int) -> List[Element]:
    return [tuple(int(i == j) for i in range(rank)) for j in range(rank)]


def _odometer(orders: Sequence[int]) -> Iterator[Tuple[int, List[int]]]:
    """Count through the digit vectors t, 0 <= t_j < orders[j], in
    lexicographic order, starting after zero: yield (j, t) for each step,
    which raises t_j and resets the digits after it.  t is one list,
    changed in place."""
    m = len(orders)
    last = [o - 1 for o in orders]
    t = [0] * m
    while True:
        j = m - 1
        while j >= 0 and t[j] == last[j]:
            t[j] = 0
            j -= 1
        if j < 0:
            return
        t[j] += 1
        yield j, t


def _span(form: FiniteQuadraticForm, gens: Sequence[Element],
          orders: Sequence[int]) -> Iterator[Element]:
    """sum_j t_j gens[j] for every t with 0 <= t_j < orders[j], in
    lexicographic order of t, with one form.add per step: the odometer
    step that raises t_j adds s_j = gens[j] - sum_{i>j} (orders[i] - 1)
    gens[i]."""
    steps: List[Element] = []
    tail = [0] * form.rank      # -sum_{i>j} (orders[i] - 1) gens[i]
    for gen, o in zip(reversed(gens), reversed(orders)):
        steps.append(form.reduce(map(add, gen, tail)))
        tail = [t - (o - 1) * c for t, c in zip(tail, gen)]
    steps.reverse()
    x = form.zero()
    yield x
    for j, _t in _odometer(orders):
        x = form.add(x, steps[j])
        yield x


def _walk(form: FiniteQuadraticForm, g: _ScaledGram,
          targets: Sequence[Element] = ()
          ) -> Iterator[Tuple[Element, int, Tuple[int, ...]]]:
    """Yield (x, q(x)*d mod 2d, row) for every element x of form, in
    lexicographic order; g is the scaled Gram of form.  row[i] is
    b(x, targets[i])*d up to a multiple of d.

    x is the odometer's digit vector.  The step that raises x_j adds
    s_j = e_j - sum_{i>j} (o_i - 1) e_i, which is 1 from coordinate j on
    and 0 before, and q(x + s_j) = q(x) + q(s_j) + 2 b(x, s_j).  So the
    walk carries b(x, s_j)*d for every j and b(x, y)*d for every target
    y in one vector, which moves by that of s_j: a step costs
    O(rank + len(targets)) where a from-scratch _qd costs O(rank^2)."""
    m = form.rank
    steps = [(0,) * j + (1,) * (m - j) for j in range(m)]
    step_q = [_qd(g, s) for s in steps]
    paired = steps + list(targets)
    step_b = []
    for s in steps:
        srow = [sum(map(mul, s, col)) for col in zip(*g.b)]  # b(s, e_i)*d
        step_b.append(tuple(sum(map(mul, srow, y)) % g.d for y in paired))
    d2 = 2 * g.d
    q, b = 0, (0,) * len(paired)
    yield form.zero(), q, b[m:]
    for j, t in _odometer(form.orders):
        q = (q + step_q[j] + 2 * b[j]) % d2
        b = tuple(map(add, b, step_b[j]))
        yield tuple(t), q, b[m:]


def brute_kernel_candidates(pf: PolarizedForm, a2: int, n: int,
                            cutoff: int = ORACLE_CUTOFF) -> List[Element]:
    """kappa such that K = <kappa (+) n*alpha> is an isotropic subgroup of
    order a2/n in disc (+) [1/a2] meeting both summands trivially (the
    graph of an anti-isometry <kappa> -> <n*alpha>, which keeps both
    glued factors primitive) — derived by scanning the big group and
    walking each cyclic subgroup element by element, not by the bucket
    lookup the engine uses."""
    if a2 % n:
        return []
    form = pf.form
    big = ambient_with_a_block(form, a2)
    _within_cutoff(big.order, cutoff)
    g = _scaled_gram(big)
    r = form.rank
    out = []
    for kappa in form.iter_elements():
        theta = big.reduce(theta_vector(form, kappa, n))
        mult = theta
        size = 1
        graph = True
        while any(mult):
            if not any(mult[:r]) or mult[r] == 0:
                graph = False        # K would meet a glued summand
                break
            if _qd(g, mult) or _bd(g, mult, theta):
                graph = False        # K would not be isotropic
                break
            mult = big.add(mult, theta)
            size += 1
        if graph and size == a2 // n:
            out.append(kappa)
    return sorted(out)


def brute_aut_group(form: FiniteQuadraticForm,
                    cutoff: int = ORACLE_CUTOFF
                    ) -> List[Tuple[Tuple[int, ...], ...]]:
    """All isometries of the form, as matrices (columns = images of the
    standard generators), found by backtracking over generator images.
    Bijectivity of a full set of images is one _span of them."""
    _within_cutoff(form.order, cutoff)
    r = form.rank
    gens = _units(r)
    g = _scaled_gram(form)
    buckets: Dict[Tuple[int, int], List[Element]] = {}
    for x, q, _row in _walk(form, g):
        buckets.setdefault((form.order_of(x), q), []).append(x)
    gen_keys = [(form.orders[j], _qd(g, gens[j])) for j in range(r)]
    results: List[Tuple[Tuple[int, ...], ...]] = []
    images: List[Element] = []

    def full_matrix() -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(images[j][i] for j in range(r)) for i in range(r))

    def extend(j: int) -> None:
        if j == r:
            seen = set(_span(form, images, form.orders))
            if len(seen) == form.order:
                results.append(full_matrix())
            return
        for cand in buckets.get(gen_keys[j], ()):
            ok = True
            for i in range(j):
                if _bd(g, images[i], cand) != _bd(g, gens[i], gens[j]):
                    ok = False
                    break
            if ok:
                images.append(cand)
                extend(j + 1)
                images.pop()

    extend(0)
    return sorted(results)


def brute_involutions(form: FiniteQuadraticForm,
                      cutoff: int = ORACLE_CUTOFF) -> List[DiscAutomorphism]:
    """Order-(1 or 2) isometries, from the brute automorphism group.
    phi o phi = id is decided with the oracle's own _apply on every
    generator, not with the engine's involution test, which picks the
    engine's fixed slot options."""
    return [DiscAutomorphism(form, mat)
            for mat in brute_aut_group(form, cutoff)
            if all(_apply(form, mat, _apply(form, mat, e)) == e
                   for e in _units(form.rank))]


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


def verify_subquotient_presentation(form: FiniteQuadraticForm,
                                    kernel_gens: Sequence[Element],
                                    sq: Subquotient,
                                    cutoff: int = ORACLE_CUTOFF
                                    ) -> BruteQuotient:
    """Cross-check the engine's K-perp/K presentation sq, for the K the
    kernel_gens generate in form, against the brute coset construction, and
    return the BruteQuotient.  Raises OracleMismatch on any disagreement.

    Let d_j be the engine's invariant factors, g_j its generator reps and
    f its coordinate map.  The checks: the same group order; each g_j lies
    in K-perp with f(g_j) = e_j; each d_j*g_j lies in K.  The last makes
    psi(c) = [sum_j c_j g_j] a well-defined homomorphism from the sum of
    the Z/d_j to K-perp/K.  Then one walk over every c in lexicographic
    order, carrying sum_j c_j g_j with one addition per step, requires
    that psi(c) is a coset not met before, that f(psi(c)) = c, and that the
    engine's quotient q at c is the brute q of psi(c).  psi is one to one
    between groups of the same order, so it is bijective, and f on coset
    reps is its inverse: an isomorphism that sends each generator to its
    unit and keeps q.  So the invariant factors d_j are those of K-perp/K,
    and b agrees by polarization, 2 b(x, y) = q(x + y) - q(x) - q(y) mod 2.
    The cost is |K-perp/K| + rank calls of f and two walks in step: a
    _walk of the quotient form lists the c with its q at c, and a _span of
    the reps carries sum_j c_j g_j with one addition per step.  No q is
    evaluated from scratch per coset; the brute one is an integer at the
    scale d of form, compared cross-multiplied."""
    brute = brute_subquotient(form, kernel_gens, cutoff)
    qform = sq.form
    _require(qform.order == brute.order, "quotient orders differ")
    zero = form.zero()
    for d, gen, unit in zip(qform.orders, sq.reps, _units(qform.rank)):
        g = brute.assigned.get(gen)
        _require(g is not None and sq.to_coords(g) == unit,
                 "a generator rep does not map to its generator")
        _require(brute.assigned[form.smul(d, gen)] == zero,
                 "a generator rep times its invariant factor is not in K")
    qg = _scaled_gram(qform)
    seen = set()
    for (c, qc, _row), x in zip(_walk(qform, qg),
                                _span(form, sq.reps, qform.orders)):
        rep = brute.assigned[x]
        _require(rep not in seen, "two coordinate vectors give one coset")
        seen.add(rep)
        _require(sq.to_coords(rep) == c, "to_coords is not additive")
        # qc/qg.d == coset_q/brute.d, cross-multiplied
        _require(qc * brute.d == brute.coset_q[rep] * qg.d,
                 "q differs on a coset")
    return brute


# ---------------------------------------------------------------------------
# Exact Gauss-sum signature (Milgram), computed in Z[x]/(x^M - 1) and
# compared modulo the M-th cyclotomic polynomial.
# ---------------------------------------------------------------------------

def _poly_mul(a: List[int], b: List[int], m: int) -> List[int]:
    out = [0] * m
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % m] += ai * bj
    return out


def _poly_sub(a: List[int], b: List[int]) -> List[int]:
    return [ai - bi for ai, bi in zip(a, b)]


def _trim(a: List[int]) -> List[int]:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _poly_divmod_monic(num: List[int], den: List[int]
                       ) -> Tuple[List[int], List[int]]:
    num = list(num)
    den = _trim(den)
    _require(bool(den) and den[-1] == 1, "divisor must be monic")
    d = len(den) - 1
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quo[i - d] = c
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    return quo, _trim(num)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> Tuple[int, ...]:
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            quo, rem = _poly_divmod_monic(num, list(_cyclotomic(d)))
            _require(rem == [], f"Phi_{d} does not divide x^{m} - 1")
            num = quo
    return tuple(_trim(num))


def _is_zero_mod_cyclotomic(poly: List[int], m: int) -> bool:
    _, rem = _poly_divmod_monic(poly, list(_cyclotomic(m)))
    return rem == []


def _squarefree_split(n: int) -> Tuple[int, int]:
    """n = s^2 * m with m squarefree; returns (s, m)."""
    s, m, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1
    m *= n
    return s, m


def gauss_sum_signature(form: FiniteQuadraticForm,
                        cutoff: int = ORACLE_CUTOFF) -> int:
    """Signature mod 8 via the exact identity
    sum_x exp(pi*i*q(x)) = sqrt(|F|) * zeta_8^sigma,
    evaluated symbolically in Z[x]/(x^M - 1): sqrt(2) = zeta_8 + zeta_8^-1,
    sqrt(p) from the quadratic Gauss sum of p, equality tested modulo the
    M-th cyclotomic polynomial.  Diagnostic; raises if no sigma matches."""
    _within_cutoff(form.order, cutoff)
    e2 = 2 * form.exponent()
    s, m_free = _squarefree_split(form.order)
    odd_primes = []
    mm = m_free
    if mm % 2 == 0:
        mm //= 2
    p = 3
    while p * p <= mm:
        if mm % p == 0:
            odd_primes.append(p)
            mm //= p
        else:
            p += 2
    if mm > 1:
        odd_primes.append(mm)
    m = e2
    for extra in [8] + odd_primes:
        m = m * extra // gcd(m, extra)

    g = _scaled_gram(form)
    big_sum = [0] * m
    for _x, q, _row in _walk(form, g):
        k, rem = divmod(q * m, 2 * g.d)           # q*m/2 in [0, m)
        _require(rem == 0, "q*M/2 is not an integer exponent")
        big_sum[k] += 1

    sqrt_part = [0] * m
    sqrt_part[0] = s
    if m_free % 2 == 0:
        zeta8 = m // 8
        root2 = [0] * m
        root2[zeta8] += 1
        root2[m - zeta8] += 1
        sqrt_part = _poly_mul(sqrt_part, root2, m)
    for p in odd_primes:
        g = [0] * m
        step = m // p
        for t in range(p):
            g[(t * t * step) % m] += 1
        if p % 4 == 3:                        # g = i*sqrt(p): divide by i
            minus_i = [0] * m
            minus_i[(m - m // 4) % m] = 1
            g = _poly_mul(g, minus_i, m)
        sqrt_part = _poly_mul(sqrt_part, g, m)

    for sigma in range(8):
        zeta = [0] * m
        zeta[(sigma * (m // 8)) % m] = 1
        cand = _poly_mul(sqrt_part, zeta, m)
        if _is_zero_mod_cyclotomic(_poly_sub(big_sum, cand), m):
            return sigma
    raise OracleMismatch("no signature residue matches the Gauss sum")


# ---------------------------------------------------------------------------
# Witness and trace re-validation.
# ---------------------------------------------------------------------------

def _apply(form: FiniteQuadraticForm, matrix: Sequence[Sequence[int]],
           x: Sequence[int]) -> Element:
    """x under the map whose j-th column is the image of e_j."""
    return tuple(sum(map(mul, row, x)) % o
                 for row, o in zip(matrix, form.orders))


def revalidate_witness(pf: PolarizedForm, cand, phi: DiscAutomorphism,
                       sq: Subquotient, cutoff: int = ORACLE_CUTOFF):
    """Re-verify a reported witness by brute force, against sq, the
    K-perp/K the engine decided it from.  Returns True, or the string
    "skipped_cutoff" when the glued group is too large to enumerate.
    Raises OracleMismatch when a check fails.
    """
    form = pf.form
    if form.order * cand.a2 > cutoff:       # the order of the glued group
        return "skipped_cutoff"
    big = ambient_with_a_block(form, cand.a2)
    # phi keeps q on the generators and b on their pairs, with the oracle's
    # own q and b, hence everywhere, and is its own inverse.
    g, r = _scaled_gram(form), form.rank
    units = _units(r)
    images = [_apply(form, phi.matrix, e) for e in units]
    for j, (e, y) in enumerate(zip(units, images)):
        _require(not any(form.smul(form.orders[j], y)),
                 "witness phi is not a homomorphism")
        _require(_qd(g, y) == _qd(g, e) and all(
            _bd(g, images[i], y) == _bd(g, units[i], e) for i in range(j)),
            "witness phi is not an isometry")
        _require(_apply(form, phi.matrix, y) == e,
                 "witness phi is not an involution")
    _require(_apply(form, phi.matrix, cand.kappa) == form.neg(cand.kappa),
             "witness phi does not negate kappa")
    theta = big.reduce(theta_vector(form, cand.kappa, cand.n))
    _require(big.order_of(theta) == cand.a2 // cand.n,
             "glue vector has the wrong order")

    # brute_subquotient also requires q = 0 on K = <theta>, theta included.
    brute = verify_subquotient_presentation(big, [theta], sq, cutoff)
    _require(len(brute.assigned) * (cand.a2 // cand.n) == big.order,
             "K-perp has the wrong size")
    # phi (+) -1 on the glued group, row by row from phi's columns.
    glued = [tuple(y[i] for y in images) + (0,) for i in range(r)]
    glued.append((0,) * r + (-1,))
    for x, rep in brute.assigned.items():
        img = tuple(sum(map(mul, row, x)) % o
                    for row, o in zip(glued, big.orders))
        _require(brute.assigned.get(img) == rep,
                 "witness involution fails on K-perp")
    ok, _ = embeds_into_big_L(2, pf.rank_S, sq.form)
    _require(ok, "witness glue does not embed")
    return True


def cross_check_trace(pf: PolarizedForm, trace: List[dict],
                      witness: Optional[dict],
                      cutoff: int = ORACLE_CUTOFF):
    """Re-derive every trace row by brute force where sizes permit.

    Returns True when every row was re-checked, "partial" when some rows
    were skipped because the glued group exceeds the cutoff.  Raises
    OracleMismatch on any disagreement.
    """
    from .detector import KernelCandidate, check_candidate, kernel_candidates

    form = pf.form
    partial = False
    seen_pairs = {}
    for row in trace:
        seen_pairs.setdefault((row["a2"], row["n"]), []).append(row)
    if witness is not None:
        seen_pairs.setdefault((witness["a2"], witness["n"]), [])

    for (a2, n), rows in sorted(seen_pairs.items()):
        big_order = form.order * a2
        if big_order > cutoff:
            partial = True
            continue
        where = f"a2={a2} n={n}"
        brute = brute_kernel_candidates(pf, a2, n, cutoff)   # sorted
        engine = [c.kappa for c in kernel_candidates(pf, a2, n)]
        _require(brute == engine, f"candidate lists differ at {where}")
        big = ambient_with_a_block(form, a2)
        for row in rows:
            if row["kappa"] is None:
                _require(brute == [], f"row without kappa at {where}")
                continue
            kappa = tuple(row["kappa"])
            theta = big.reduce(theta_vector(form, kappa, n))
            status, _phi, sq = check_candidate(
                pf, KernelCandidate(a2, n, kappa))
            verify_subquotient_presentation(big, [theta], sq, cutoff)
            _require(status == row["reason"],
                     f"status {status!r} differs from trace row {row}")
    return "partial" if partial else True
