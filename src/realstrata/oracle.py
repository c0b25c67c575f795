"""Brute-force re-derivations used to cross-check the main engine.

Everything here recomputes results by exhaustive element enumeration or
symbolic identities, sharing as little code as possible with the fast
paths: kernel candidates by a sweep of the glued group, subquotients by
a certificate walk of K-perp, automorphism groups by generator-image
backtracking, and signatures via exact root-of-unity sums.  q and b are
evaluated here as integer sums over the common denominator d of form.q
and form.b (the Fraction tuples), never by the engine's integer
evaluators or its integer Gram.  The glued group form (+) [1/a2] is no
form here: its orders are form's and a2, and its scaled Gram is form's,
rescaled to lcm(d, a2), with one orthogonal generator of q = 1/a2 added
(_glued_gram), so the oracle imports no engine gluing and builds no
form; the glue vector theta = kappa (+) n*alpha is (*kappa, n), reduced
into the glued group here too.  Every listing of a group is one
lexicographic odometer over sum_j t_j g_j for given generators g_j: the
step that raises t_j adds a fixed s_j, and q(x + s_j) = q(x) + q(s_j) +
2 b(x, s_j), so a walk carries x, q(x)*d and b(x, .)*d by one addition
each per step, where a from-scratch evaluation costs O(rank^2); q(s_j)
and the b(s_j, .) are evaluated from scratch once per walk.  _walk lists
a form by its units, _span lists sums alone.  All functions refuse (with
OracleSizeError) groups larger than a fixed cutoff rather than sampling,
so a passing check is a complete one.
The engine's K-perp/K presentation, the very Subquotient its decision
read, is handed in and proved by one walk of K-perp alone (Nikulin 1979,
1.4), which theta and the generator reps span: |K-perp| is read off the
pairings b(e_i, theta), and the walk requires distinct elements, each
with a brute q equal to the engine's quotient q at its coset.  That proves
an isometry, so the presentation's orders d_j (prime powers) are those
of cyclic factors of K-perp/K, and K with the reps generates K-perp.
The oracle never calls the engine's subquotient construction, and lists
K by its own additions.  An automorphism is a plain integer matrix
here, its j-th column the image of the j-th generator.  A witness phi is
re-checked from its matrix with the oracle's q and b, and phi (+) -1 on
every element of K-perp, in the same walk.  brute_involutions returns
brute_aut_group's own matrices, which it proved to keep the oracle's q
and b and to be bijective: no engine check runs on them.  A failed
check raises OracleMismatch explicitly, so the checks also run under
``python -O``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mod, mul
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .fqf import Element, FiniteQuadraticForm
from .isotropy import Subquotient
from .lattices import PolarizedForm
from .nikulin import embeds_into_big_L

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


def _glued_gram(g: _ScaledGram, a2: int) -> _ScaledGram:
    """The scaled Gram of form (+) [1/a2], g that of form: at d' =
    lcm(d, a2), form's q and b times d'/d, and a last generator with
    q*d' = b*d' = d'/a2 that pairs to 0 with the rest.  The glued group
    is (*form.orders, a2); no form of it is built."""
    d = lcm(g.d, a2)
    s, last = d // g.d, d // a2
    return _ScaledGram(
        d, (*(v * s for v in g.q), last),
        (*(tuple(v * s for v in row) + (0,) for row in g.b),
         (0,) * len(g.q) + (last,)))


def _reduce(group: Sequence[int], x: Iterable[int]) -> Element:
    """x reduced into the group of the given orders."""
    return tuple(map(mod, x, group))


def _order_of(group: Sequence[int], x: Sequence[int]) -> int:
    return lcm(*(o // gcd(v, o) for v, o in zip(x, group)))


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


def _steps(group: Sequence[int], gens: Sequence[Element],
           orders: Sequence[int]) -> List[Element]:
    """The odometer's steps over sum_j t_j gens[j], 0 <= t_j < orders[j],
    in the group of the given orders: the step that raises t_j adds s_j =
    gens[j] - sum_{i>j} (orders[i] - 1) gens[i], reduced."""
    steps: List[Element] = []
    tail = [0] * len(group)     # -sum_{i>j} (orders[i] - 1) gens[i]
    for gen, o in zip(reversed(gens), reversed(orders)):
        steps.append(_reduce(group, map(add, gen, tail)))
        tail = [t - (o - 1) * c for t, c in zip(tail, gen)]
    steps.reverse()
    return steps


def _span(form: FiniteQuadraticForm, gens: Sequence[Element],
          orders: Sequence[int]) -> Iterator[Element]:
    """sum_j t_j gens[j] for every t with 0 <= t_j < orders[j], in
    lexicographic order of t, with one form.add per step."""
    steps = _steps(form.orders, gens, orders)
    x = form.zero()
    yield x
    for j, _t in _odometer(orders):
        x = form.add(x, steps[j])
        yield x


def _step_values(g: _ScaledGram, steps: Sequence[Element],
                 targets: Sequence[Element] = ()
                 ) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """q(s)*d for each step s, and the row of b(s, y)*d mod d for y in the
    steps and then the targets: what a walk adds to its q and b."""
    paired = [*steps, *targets]
    step_b = []
    for s in steps:
        srow = [sum(map(mul, s, col)) for col in zip(*g.b)]  # b(s, e_i)*d
        step_b.append(tuple(sum(map(mul, srow, y)) % g.d for y in paired))
    return [_qd(g, s) for s in steps], step_b


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
    step_q, step_b = _step_values(g, steps, targets)
    d2 = 2 * g.d
    q, b = 0, (0,) * (m + len(targets))
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
    group = (*form.orders, a2)
    _within_cutoff(prod(group), cutoff)
    g = _glued_gram(_scaled_gram(form), a2)
    r = form.rank
    out = []
    for kappa in form.iter_elements():
        theta = _reduce(group, (*kappa, n))
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
            mult = _reduce(group, map(add, mult, theta))
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


def brute_involutions(form: FiniteQuadraticForm
                      ) -> List[Tuple[Tuple[int, ...], ...]]:
    """Order-(1 or 2) isometries, as brute_aut_group's own sorted matrices,
    which it proved to keep the oracle's q and b and to be bijective.
    phi o phi = id is decided with the oracle's own _apply on every
    generator, not with the engine's involution test, which picks the
    engine's fixed slot options; no engine check runs on them."""
    return [mat for mat in brute_aut_group(form)
            if all(_apply(form, mat, _apply(form, mat, e)) == e
                   for e in _units(form.rank))]


def _kperp_walk(group: Sequence[int], g: _ScaledGram,
                kernel_gens: Sequence[Element], sq: Subquotient,
                involution: Optional[Sequence[Sequence[int]]] = None
                ) -> List[Element]:
    """Prove that sq presents K-perp/K, K = <theta> the kernel_gens
    generate in the group of the given orders with scaled Gram g, by one
    walk of K-perp, and return K-perp in walk order: |K| elements per
    coset, the cosets in lexicographic order of their coordinates c.
    Given the rows of an involution of the group, also require that it
    sends every element into its own coset.  Raises OracleMismatch on any
    disagreement; see verify_subquotient_presentation."""
    size, rank = prod(group), len(group)
    _within_cutoff(size, ORACLE_CUTOFF)
    if len(kernel_gens) > 1:
        raise ValueError("K must be cyclic: give at most one generator")
    qform = sq.form
    _require(len(sq.reps) == qform.rank, "not one rep per quotient generator")
    zero = (0,) * rank
    theta = _reduce(group, kernel_gens[0]) if kernel_gens else zero
    kernel = [zero]             # K listed by the oracle's own additions
    while any(k := _reduce(group, map(add, kernel[-1], theta))):
        kernel.append(k)
    _require(not any(_qd(g, k) for k in kernel), "kernel is not isotropic")
    m = len(kernel)
    # b(., theta) maps the group onto the subgroup of (1/d)Z/Z its values
    # on the units generate, and K-perp is its kernel.
    image = g.d // gcd(g.d, *(_bd(g, e, theta) for e in _units(rank)))
    _require(qform.order * m * image == size, "quotient orders differ")
    kset = set(kernel)
    for o, gen in zip(qform.orders, sq.reps):
        _require(len(gen) == rank and not _bd(g, gen, theta),
                 "a generator rep is not in K-perp")
        _require(_reduce(group, (o * v for v in gen)) in kset,
                 "a generator rep times its invariant factor is not in K")
    # One odometer over (c, t), theta the fastest digit: x = sum_j c_j g_j +
    # t*theta moves by the step s_j of the digit j raised, q(x)*d and
    # b(x, s_.)*d by their recurrence, and the quotient's q at c and
    # b(c, u_.) by theirs, u_j its own step, only when a c digit moves.
    gens, orders, r = [*sq.reps, theta], (*qform.orders, m), qform.rank
    steps = _steps(group, gens, orders)
    step_q, step_b = _step_values(g, steps)
    qg = _scaled_gram(qform)
    qstep_q, qstep_b = _step_values(
        qg, _steps(qform.orders, _units(r), qform.orders))
    if involution is not None:  # the image of x, less x: in K iff same coset
        moves = [_reduce(group, (sum(map(mul, row, s)) - v
                                 for row, v in zip(involution, s)))
                 for s in steps]
        y = zero
    d, qd = g.d, qg.d
    x, q, b, qc, bc = zero, 0, (0,) * len(steps), 0, (0,) * r
    seen = {x: None}            # K-perp in walk order
    for j, _t in _odometer(orders):
        x = tuple(map(mod, map(add, x, steps[j]), group))
        q = (q + step_q[j] + 2 * b[j]) % (2 * d)
        b = tuple(map(add, b, step_b[j]))
        if j < r:
            qc = (qc + qstep_q[j] + 2 * bc[j]) % (2 * qd)
            bc = tuple(map(add, bc, qstep_b[j]))
        _require(x not in seen, "two coordinate vectors give one coset")
        seen[x] = None
        _require(q * qd == qc * d, "q differs on a coset")  # q/d == qc/qd
        if involution is not None:
            y = tuple(map(mod, map(add, y, moves[j]), group))
            _require(y in kset, "witness involution fails on K-perp")
    return list(seen)


def verify_subquotient_presentation(form: FiniteQuadraticForm,
                                    kernel_gens: Sequence[Element],
                                    sq: Subquotient) -> int:
    """Prove the engine's K-perp/K presentation sq, for the cyclic K =
    <theta> the kernel_gens (at most one) generate in form, by one walk of
    K-perp, and return |K-perp|.  Raises OracleMismatch on any
    disagreement.

    Let d_j be the presentation's orders (prime powers) and g_j its
    generator reps, one per d_j, and m = |K|, K listed by the oracle's own
    additions with q = 0 on it.  Each g_j pairs to 0 with theta, so lies in
    K-perp, and each d_j*g_j lies in K: so psi(c) = [sum_j c_j g_j] is a
    well-defined homomorphism from the sum of the Z/d_j to K-perp/K.
    x -> b(x, theta) is a homomorphism whose image the b(e_i, theta)
    generate, so |K-perp| is read off them with no walk, and must be
    |sq.form|*m.  Then one odometer over (c, t), 0 <= t < m and theta the
    fastest digit, lists x = sum_j c_j g_j + t*theta, carrying x, its brute
    q and the engine's quotient q at c by one addition per step.  It
    requires that each x is new, so that psi is one to one and the walk
    lists all of K-perp, and that the brute q(x) is the engine's q at c,
    x being in the coset psi(c).  psi is one to one between groups of the
    same order, so it is bijective: an isomorphism that sends each unit to
    its generator's coset and keeps q.  So the cyclic factors Z/d_j present
    K-perp/K, the g_j with K generate K-perp, and b agrees by polarization,
    2 b(x, y) = q(x + y) - q(x) - q(y) mod 2.  No engine map is called and
    no q is evaluated from scratch per element; the brute q is an integer
    at the scale d of form, compared cross-multiplied."""
    return len(_kperp_walk(form.orders, _scaled_gram(form), kernel_gens, sq))


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


def gauss_sum_signature(form: FiniteQuadraticForm) -> int:
    """Signature mod 8 via the exact identity
    sum_x exp(pi*i*q(x)) = sqrt(|F|) * zeta_8^sigma,
    evaluated symbolically in Z[x]/(x^M - 1): sqrt(2) = zeta_8 + zeta_8^-1,
    sqrt(p) from the quadratic Gauss sum of p, equality tested modulo the
    M-th cyclotomic polynomial.  Diagnostic; raises if no sigma matches."""
    _within_cutoff(form.order, ORACLE_CUTOFF)
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


def revalidate_witness(pf: PolarizedForm, cand,
                       phi: Sequence[Sequence[int]], sq: Subquotient):
    """Re-verify a reported witness by brute force, against sq, the
    K-perp/K the engine decided it from; phi is the witness's matrix, its
    j-th column the image of the j-th generator.  Returns True, or the
    string "skipped_cutoff" when the glued group is too large to
    enumerate.  Raises OracleMismatch when a check fails.
    """
    form = pf.form
    if form.order * cand.a2 > ORACLE_CUTOFF:    # the order of the glued group
        return "skipped_cutoff"
    # phi keeps q on the generators and b on their pairs, with the oracle's
    # own q and b, hence everywhere, and is its own inverse.
    g, r = _scaled_gram(form), form.rank
    units = _units(r)
    images = [_apply(form, phi, e) for e in units]
    for j, (e, y) in enumerate(zip(units, images)):
        _require(not any(form.smul(form.orders[j], y)),
                 "witness phi is not a homomorphism")
        _require(_qd(g, y) == _qd(g, e) and all(
            _bd(g, images[i], y) == _bd(g, units[i], e) for i in range(j)),
            "witness phi is not an isometry")
        _require(_apply(form, phi, y) == e,
                 "witness phi is not an involution")
    _require(_apply(form, phi, cand.kappa) == form.neg(cand.kappa),
             "witness phi does not negate kappa")
    group = (*form.orders, cand.a2)
    theta = _reduce(group, (*cand.kappa, cand.n))
    _require(_order_of(group, theta) == cand.a2 // cand.n,
             "glue vector has the wrong order")

    # phi (+) -1 on the glued group, row by row from phi's columns, checked
    # on every element of K-perp by the walk that proves sq.
    glued = [tuple(y[i] for y in images) + (0,) for i in range(r)]
    glued.append((0,) * r + (-1,))
    _kperp_walk(group, _glued_gram(g, cand.a2), [theta], sq, glued)
    ok, _ = embeds_into_big_L(2, pf.rank_S, sq.form)
    _require(ok, "witness glue does not embed")
    return True


def cross_check_trace(pf: PolarizedForm, trace: List[dict],
                      witness: Optional[dict]):
    """Re-derive every trace row by brute force where sizes permit.

    Returns True when every row was re-checked, "partial" when some rows
    were skipped because the glued group exceeds the cutoff.  Raises
    OracleMismatch on any disagreement.
    """
    from .detector import KernelCandidate, check_candidate, kernel_candidates

    form = pf.form
    g = _scaled_gram(form)
    partial = False
    seen_pairs = {}
    for row in trace:
        seen_pairs.setdefault((row["a2"], row["n"]), []).append(row)
    if witness is not None:
        seen_pairs.setdefault((witness["a2"], witness["n"]), [])

    for (a2, n), rows in sorted(seen_pairs.items()):
        big_order = form.order * a2
        if big_order > ORACLE_CUTOFF:
            partial = True
            continue
        where = f"a2={a2} n={n}"
        brute = brute_kernel_candidates(pf, a2, n)   # sorted
        engine = kernel_candidates(pf, a2, n)
        _require(brute == engine, f"candidate lists differ at {where}")
        group, glued = (*form.orders, a2), _glued_gram(g, a2)
        for row in rows:
            if row["kappa"] is None:
                _require(brute == [], f"row without kappa at {where}")
                continue
            kappa = tuple(row["kappa"])
            theta = _reduce(group, (*kappa, n))
            status, _phi, sq = check_candidate(
                pf, KernelCandidate(a2, n, kappa))
            _kperp_walk(group, glued, [theta], sq)
            _require(status == row["reason"],
                     f"status {status!r} differs from trace row {row}")
    return "partial" if partial else True
