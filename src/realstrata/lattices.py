"""Root specifications, discriminant forms of ADE lattices, the polarized
discriminant, its symmetry-induced involutions, and the rank-2 positive
definite automorphism machinery.

A root spec is an ordered formal sum of ADE labels (e.g. ``A7+A6+A3+A2`` or
``2*A1+D4``).  The polarized discriminant adjoins a rank-one block [1/h2]
for the polarization class, tagged "h".
"""

from __future__ import annotations

import re
from itertools import product
from math import isqrt, prod
from operator import mul
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from . import _intmat
from .fqf import (Element, FiniteQuadraticForm, cyclic_form, direct_sum_all,
                  factorint, trivial_form)

# --------------------------------------------------------------- root specs


# ASCII digits only: \d would also match the digits of other scripts.
_TERM_RE = re.compile(r"(?:([0-9]+)\*)?([ADE])([0-9]+)")
# ASCII whitespace around '+' and '*'; any other is left inside a term.
_OP_RE = re.compile(r"[ \t\n\r\f\v]*([+*])[ \t\n\r\f\v]*")

_ADE_VALID = {
    "A": lambda n: n >= 1,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
}


class RootSpec(NamedTuple):
    """An ordered multiset of ADE components."""
    components: Tuple[Tuple[str, int], ...]
    text: str = ""

    @classmethod
    def parse(cls, text: str) -> "RootSpec":
        cleaned = _OP_RE.sub(r"\1", (text or "").strip(" \t\n\r\f\v"))
        if cleaned in ("", "0", "none"):
            return cls((), "")
        comps: List[Tuple[str, int]] = []
        rank = 0
        for term in cleaned.split("+"):
            m = _TERM_RE.fullmatch(term)
            if not m:
                raise ValueError(f"cannot parse root-spec term {term!r}")
            count = int(m.group(1)) if m.group(1) else 1
            fam, n = m.group(2), int(m.group(3))
            if count < 1:
                raise ValueError(f"bad multiplicity in {term!r}")
            if not _ADE_VALID[fam](n):
                raise ValueError(f"invalid component {fam}{n}")
            # Checked before the term is expanded, so a huge multiplicity
            # is refused without allocating it.
            rank += count * n
            _require_root_rank(rank)
            comps.extend([(fam, n)] * count)
        return cls(tuple(comps), cleaned)

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    def canonical_text(self) -> str:
        if not self.components:
            return "0"
        groups: Dict[Tuple[str, int], int] = {}
        for comp in self.components:
            groups[comp] = groups.get(comp, 0) + 1
        ordered = sorted(groups.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
        parts = []
        for (fam, n), cnt in ordered:
            parts.append(f"{cnt}*{fam}{n}" if cnt > 1 else f"{fam}{n}")
        return "+".join(parts)

    def display_text(self) -> str:
        return self.text if self.text else "0"


def require_stratum_rank(spec: RootSpec) -> None:
    """Raise ValueError unless the root lattice fits a stratum: with h it
    spans a sublattice of the Picard lattice, whose rank is at most 20.
    RootSpec.parse already refuses a larger rank; this covers specs built
    directly."""
    _require_root_rank(spec.rank)


def _require_root_rank(rank: int) -> None:
    if rank > 19:
        raise ValueError("root rank exceeds 19; no such stratum")


# --------------------------------------------- discriminants of Gram lattices


class GramDisc:
    """Discriminant form of an integral nondegenerate Gram matrix, with the
    coordinate bridge: elements of the quotient Z^n / G Z^n are addressed by
    integer vectors in dual coordinates."""
    __slots__ = ("form", "gen_duals", "to_coords")

    def __init__(self, form: FiniteQuadraticForm,
                 gen_duals: List[List[int]],   # dual coordinates of the gens
                 to_coords: Callable[[Sequence[int]], Tuple[int, ...]]
                 ) -> None:
        self.form = form
        self.gen_duals = gen_duals
        self.to_coords = to_coords


def disc_of_gram(gram: Sequence[Sequence[int]]) -> GramDisc:
    """Discriminant form of an even integral lattice with the given Gram
    matrix: the group Z^n/G Z^n with q(v) = v^T G^{-1} v mod 2.

    Everything is read from one Smith form u G v = D: the generators are
    the columns w_i = u^{-1} e_i = G v e_i / d_i, and G^{-1} w_i =
    v e_i / d_i, so q and b are integers at the scale d_last (the
    exponent)."""
    n = len(gram)
    if n == 0:
        return GramDisc(trivial_form(), [], lambda v: ())
    d, u, v = _intmat.snf([list(row) for row in gram])
    dd = [d[i][i] for i in range(n)]
    if any(x == 0 for x in dd):
        raise ValueError("Gram matrix is singular")
    kept = [i for i in range(n) if dd[i] > 1]
    scale = dd[-1]
    v_cols = [[v[r][i] for r in range(n)] for i in kept]
    gen_duals = [[x // dd[i] for x in _intmat.matvec(gram, col)]
                 for i, col in zip(kept, v_cols)]
    # w_s^T G^{-1} w_t = w_s . v_t / d_t, at the scale d_last.
    pair = [[sum(map(mul, w, col)) * (scale // dd[i])
             for i, col in zip(kept, v_cols)] for w in gen_duals]
    k = len(kept)
    b = {(s, t): pair[s][t] for s in range(k) for t in range(s + 1, k)}
    form = FiniteQuadraticForm([dd[i] for i in kept],
                               [pair[s][s] for s in range(k)], b,
                               scale=scale)

    def to_coords(vec: Sequence[int]) -> Tuple[int, ...]:
        w = _intmat.matvec(u, list(vec))
        return tuple(w[i] % dd[i] for i in kept)

    return GramDisc(form, gen_duals, to_coords)


def disc_root(fam: str, n: int) -> FiniteQuadraticForm:
    """Discriminant form of the negative definite ADE root lattice, read
    off its closed form (Conway-Sloane, SPLAG ch. 4; Nikulin 1979,
    section 1): [-n/(n+1)] for A_n, [-n/4] for odd D_n, [-4/3] for E6,
    [-3/2] for E7, trivial for E8, and for even D_n the two spinor
    classes, q = -n/4 each, pairing to (n-2)/4 mod 1 (their sum, the
    vector class, has q = -1).  A cyclic form [m/den] is split into
    prime-power pieces, descending prime: the piece of p^k exactly
    dividing den is generated by c*g, c = den/p^k, so q = m*c^2/den, and
    pieces of two primes pair to c*c'*m/den, an integer."""
    if not _ADE_VALID[fam](n):
        raise ValueError(f"invalid component {fam}{n}")
    if fam == "D" and n % 2 == 0:
        return FiniteQuadraticForm([2, 2], [-n, -n], {(0, 1): n - 2},
                                   scale=4)
    if fam == "E":
        if n == 8:
            return trivial_form()
        m, den = (-4, 3) if n == 6 else (-3, 2)
    else:
        m, den = (-n, n + 1) if fam == "A" else (-n, 4)
    pieces = [p ** k for p, k in reversed(factorint(den).items())]
    return FiniteQuadraticForm(pieces, [m * (den // pk) ** 2 for pk in pieces],
                               scale=den)


# ---------------------------------------------------------- polarized discs


class PolarizedForm:
    """Discriminant form of (root part) (+) Z h with h^2 = h2 >= 2 even.

    tags[i] is the index of the originating component, or "h" for the
    polarization generator (always last).
    """
    __slots__ = ("spec", "h2", "form", "tags", "comp_slices", "_cache")

    def __init__(self, spec: RootSpec, h2: int, form: FiniteQuadraticForm,
                 tags: List[object], comp_slices: List[Tuple[int, int]]
                 ) -> None:
        self.spec = spec
        self.h2 = h2
        self.form = form
        self.tags = tags
        self.comp_slices = comp_slices
        self._cache: dict = {}

    @property
    def rank_S(self) -> int:
        return self.spec.rank

    @property
    def rank_T(self) -> int:
        return 21 - self.rank_S

    def display(self) -> str:
        return self.form.display()


def polarized_disc(spec: RootSpec, h2: int) -> PolarizedForm:
    if h2 < 2 or h2 % 2:
        raise ValueError("h2 must be a positive even integer")
    parts: List[FiniteQuadraticForm] = []
    tags: List[object] = []
    comp_slices: List[Tuple[int, int]] = []
    roots: Dict[Tuple[str, int], FiniteQuadraticForm] = {}
    pos = 0
    for idx, (fam, n) in enumerate(spec.components):
        dform = roots.get((fam, n))
        if dform is None:
            dform = roots[fam, n] = disc_root(fam, n)
        parts.append(dform)
        comp_slices.append((pos, pos + dform.rank))
        tags.extend([idx] * dform.rank)
        pos += dform.rank
    parts.append(cyclic_form(1, h2))
    tags.append("h")
    form = direct_sum_all(parts)
    return PolarizedForm(spec, h2, form, tags, comp_slices)


# --------------------------------------------------------- disc automorphisms


def _check_isometry(form: FiniteQuadraticForm,
                    matrix: Sequence[Sequence[int]], lo: int = 0) -> None:
    """Raise ValueError unless the k x k matrix, whose j-th column c_j is
    the image of the j-th generator, defines a homomorphism keeping q and
    b on the generators lo .. lo+k-1 of form (all of them by default),
    which must span an orthogonal summand: column by column, q(c_j)*N =
    c_j^T G c_j mod 2N before b(c_i, c_j)*N = c_i^T G c_j mod N, G the
    integer Gram of the summand at form's scale N.  Bijective then: b is
    kept, so the kernel lies in the trivial radical (forms are
    nondegenerate)."""
    k, n = len(matrix), form.N
    hi = lo + k
    orders = form.orders[lo:hi]
    for j in range(k):
        for i in range(k):
            if (orders[j] * matrix[i][j]) % orders[i]:
                raise ValueError("matrix does not define a homomorphism")
    gram = [row[lo:hi] for row in form._gram[lo:hi]]
    cols = list(zip(*matrix))
    for j, col in enumerate(cols):
        g_col = [sum(map(mul, row, col)) for row in gram]
        if sum(map(mul, col, g_col)) % (2 * n) != form.Qn[lo + j]:
            raise ValueError("map does not preserve q")
        for i in range(j + 1, k):
            if sum(map(mul, cols[i], g_col)) % n != form.Bn[lo + i][lo + j]:
                raise ValueError("map does not preserve b")


def _is_inverse(orders: Sequence[int], b: Sequence[Sequence[int]],
                c: Sequence[Sequence[int]]) -> bool:
    """b*c = I, row a reduced mod orders[a]: the map c makes on
    generators of these orders, followed by the map b makes, is the
    identity (column j of the product is the image of the j-th
    generator).  With c = b, b is an involution."""
    cols = list(zip(*c))
    return all(sum(map(mul, row, col)) % o == (i == j)
               for i, (o, row) in enumerate(zip(orders, b))
               for j, col in enumerate(cols))


_D4_S3 = [
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[1, 0], [1, 1]],
    [[1, 1], [0, 1]],
    [[0, 1], [1, 1]],
    [[1, 1], [1, 0]],
]


def _component_swap_isos(fam: str, n: int, k: int) -> List[List[List[int]]]:
    """The diagram automorphisms of one component, as images on its k
    disc generators: +-1, the spinor swap of D_even, S3 on D4.  Each one
    identifies a swapped pair of equal components; the involutive ones
    are the symmetries of a fixed component.  Each list is a group, so
    it holds the inverse of each of its blocks."""
    if fam == "D" and n == 4:
        return list(_D4_S3)
    if fam == "D" and n % 2 == 0:
        return [_intmat.identity(2), [[0, 1], [1, 0]]]
    ident = _intmat.identity(k)
    return [ident, [[-v for v in row] for row in ident]]


# An automorphism of a form is its reduced matrix: column j is the image
# of the j-th generator, row i read mod the i-th order.
Block = Tuple[Tuple[int, ...], ...]
# A slot option as sparse rows: for every coordinate the slot owns, its
# nonzero (column, value) entries.
Rows = Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
Options = Tuple[Rows, ...]
# The options of one index: (partner, rows), the partner None when fixed.
Choices = List[Tuple[object, Rows]]
# Checked blocks of one class: (block, its inverse), an involutive block
# stored as its own inverse.
Checked = List[Tuple[List[List[int]], List[List[int]]]]
# One class of the symmetry table: its component indices (("h",) for h),
# their coordinate slices, each index's slot choices, and the orbit
# minimum of every element of one component's discriminant (None for h).
Symmetry = Tuple[Tuple[object, ...], List[Tuple[int, int]],
                 Dict[object, Choices], Optional[Dict[Element, Element]]]
Pairs = Sequence[Tuple[Sequence[int], Sequence[int]]]


_NOT_AN_INVOLUTION = "a symmetry-induced map is not an involution"


def checked_involution(form: FiniteQuadraticForm,
                       matrix: Sequence[Sequence[int]]) -> Block:
    """The matrix reduced, row i mod form.orders[i], checked on every
    generator to be a homomorphism keeping q and b (_check_isometry) and
    an involution (_is_inverse).  Both checks raise explicitly, so they
    also run under python -O."""
    r = form.rank
    mat = tuple(tuple(matrix[i][j] % o for j in range(r))
                for i, o in enumerate(form.orders))
    _check_isometry(form, mat)
    if not _is_inverse(form.orders, mat, mat):
        raise AssertionError(_NOT_AN_INVOLUTION)
    return mat


def _checked_blocks(form: FiniteQuadraticForm, lo: int, hi: int,
                    blocks: Iterable[Sequence[Sequence[int]]]) -> Checked:
    """The distinct blocks mod the orders of form's generators lo .. hi-1
    (one per row), in first-seen order, each checked once on that slice,
    an orthogonal summand of form: one component (or h), at form's scale
    (_check_isometry from lo).  Each is returned beside its inverse, the
    block C of the same list with B*C = I: an involutive block is its
    own.  Then an involutive block is a fixed slot's option, and for
    every block B, [[0, B^-1], [B, 0]] is an involutive isometry of the
    slice's form (+) itself.  A block whose inverse is not in the list is
    refused.  Every check raises explicitly."""
    orders = form.orders[lo:hi]
    reduced: List[List[List[int]]] = []
    for raw in blocks:
        block = [[v % o for v in row] for row, o in zip(raw, orders)]
        if block not in reduced:
            reduced.append(block)
    out: Checked = []
    for block in reduced:
        _check_isometry(form, block, lo)
        inv = next((c for c in reduced if _is_inverse(orders, block, c)),
                   None)
        if inv is None:
            raise AssertionError(_NOT_AN_INVOLUTION)
        out.append((block, inv))
    return out


def _checked_slot(src: int, dst: int, blocks: Checked) -> Options:
    """The options of one slot of a symmetry-induced involution: a fixed
    component (src == dst), a swapped pair of equal components, or the h
    generator, placed from blocks that _checked_blocks checked.  Each
    block maps the generators starting at src onto those starting at dst;
    for a pair its inverse maps them back."""
    options: List[Rows] = []
    for block, inv in blocks:
        parts = [(dst, src, block)]
        if src != dst:
            parts.append((src, dst, inv))
        options.append(tuple(
            (to + i, tuple((fro + j, v) for j, v in enumerate(row) if v))
            for to, fro, part in parts for i, row in enumerate(part)))
    return tuple(options)


def _symmetry_table(pf: PolarizedForm) -> List[Symmetry]:
    """The symmetry group G of pf (diagram symmetries of each component,
    permutations of equal components, the sign on h), one entry per class
    of equal components, sorted by label, then one for h.  Built once per
    form, after checking, with an explicit raise, that pf.form is the
    orthogonal sum of its component slices and the h generator, in that
    order (every slice starts at one of the form's orthogonal_cuts), with
    equal forms on equal components (Nikulin 1979, section 1): G acts on
    that sum block by block.

    So each distinct block of a class is checked once, on its first
    component's slice of pf.form (_checked_blocks): that slice is the
    component's own form at pf's scale N, where each congruence is the one
    at the component's exponent, scaled.  Everything else is read off the
    checked blocks: for each index c the slot options of c, fixed (the
    involutive blocks) or paired with a later index of the class, and the
    orbit minimum of every element of the component's discriminant.  The
    h generator's options are its signs; its orbit key, min(h, -h), is
    closed-form.  Components with a trivial discriminant (E8) own no rows
    and are left out, so distinct matchings make distinct matrices.

    Each choice list is sorted by its options' rows written out densely,
    in row order, so c's rows come first.  Two options of c differ there
    (an inverse block fixes its block, and a different partner means a
    different column support), so _matchings walks the matchings of a
    class in sorted order of the matrices they make."""
    table = pf._cache.get("symmetry")
    if table is not None:
        return table
    form = pf.form
    r = form.rank
    spans = list(pf.comp_slices) + [(r - 1, r)]
    if (len(pf.comp_slices) != len(pf.spec.components)
            or [i for lo, hi in spans for i in range(lo, hi)] != list(range(r))
            or not {lo for lo, _ in spans} <= set(form.orthogonal_cuts)):
        raise ValueError("the polarized form is not the orthogonal sum of "
                         "its components and h")
    classes: Dict[Tuple[str, int], List[int]] = {}
    for idx, comp in enumerate(pf.spec.components):
        classes.setdefault(comp, []).append(idx)

    def dense(option: Tuple[object, Rows]) -> List[List[int]]:
        return [[entries.get(j, 0) for j in range(r)]
                for entries in (dict(row) for _, row in sorted(option[1]))]

    table = []
    for (fam, n), idxs in sorted(classes.items()):
        cuts = [pf.comp_slices[c] for c in idxs]
        if len({(form.orders[lo:hi], form.Qn[lo:hi],
                 tuple(row[lo:hi] for row in form.Bn[lo:hi]))
                for lo, hi in cuts}) > 1:
            raise ValueError("equal components have different forms")
        lo, hi = cuts[0]
        if lo == hi:
            continue
        orders = form.orders[lo:hi]
        blocks = _checked_blocks(form, lo, hi,
                                 _component_swap_isos(fam, n, hi - lo))
        fixed = [(block, inv) for block, inv in blocks if inv is block]
        choices = {}
        for pos, (c, (src, _)) in enumerate(zip(idxs, cuts)):
            options = [(d, rows)
                       for d, (dst, _) in zip(idxs[pos + 1:], cuts[pos + 1:])
                       for rows in _checked_slot(src, dst, blocks)]
            options += [(None, rows)
                        for rows in _checked_slot(src, src, fixed)]
            choices[c] = sorted(options, key=dense)
        minima = {x: min(tuple(sum(map(mul, row, x)) % o
                               for row, o in zip(block, orders))
                         for block, _ in blocks)
                  for x in product(*map(range, orders))}
        table.append((tuple(idxs), cuts, choices, minima))
    h = r - 1
    signs = _checked_blocks(form, h, r, [[[1]], [[-1]]])
    table.append((("h",), [(h, r)],
                  {"h": [(None, rows) for rows in _checked_slot(h, h, signs)]},
                  None))
    pf._cache["symmetry"] = table
    return table


def _matchings(items: Tuple[object, ...], choices: Dict[object, Choices]
               ) -> Iterator[Tuple[Rows, ...]]:
    """Every matching of items into fixed points and pairs, as one option
    per slot, in the order of the choice lists: taking each remaining
    index's options in turn, backtracking at a dead end.  A partner that
    led to a dead end is not tried again with another option."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    dead = set()
    for partner, rows in choices[first]:
        if partner in dead or (partner is not None and partner not in rest):
            continue
        left = rest if partner is None else tuple(c for c in rest
                                                  if c != partner)
        found = False
        for sub in _matchings(left, choices):
            found = True
            yield (rows,) + sub
        if not found:
            dead.add(partner)


def _count(items: Tuple[object, ...], choices: Dict[object, Choices]) -> int:
    """The number of matchings _matchings(items, choices) yields, by a
    recursion over the tuple of remaining items, memoised, that builds
    none of them."""
    memo: Dict[Tuple[object, ...], int] = {(): 1}

    def count(items: Tuple[object, ...]) -> int:
        if items not in memo:
            first, rest = items[0], items[1:]
            memo[items] = sum(
                count(rest if partner is None
                      else tuple(c for c in rest if c != partner))
                for partner, _ in choices[first]
                if partner is None or partner in rest)
        return memo[items]

    return count(items)


def _live_classes(pf: PolarizedForm, pairs: Pairs) -> list:
    """The slot choices of the symmetry table with only the options that
    send x to y for every (x, y) in pairs.  x may be longer than the
    form's rank; only its first rank coordinates are read.

    A slot map acts on its own coordinates only, so phi(x) = y iff every
    chosen option sends x's part on its source coordinates to y's part on
    its destination coordinates (and back again, for a swapped pair).
    Classes act on disjoint coordinates, so a matching in each class
    combines with any matching in the others."""
    orders = pf.form.orders

    def live(options: Choices) -> Choices:
        return [(partner, rows) for partner, rows in options
                if all((sum(v * x[j] for j, v in row) - y[i]) % orders[i] == 0
                       for x, y in pairs for i, row in rows)]

    return [(idxs, {c: live(options) for c, options in choices.items()})
            for idxs, _, choices, _ in _symmetry_table(pf)]


def _join(r: int, matchings: Iterable[Tuple[Rows, ...]]) -> Block:
    """The r x r matrix made of the rows of one matching per class."""
    mat = [[0] * r for _ in range(r)]
    for matching in matchings:
        for rows in matching:
            for i, row in rows:
                for j, v in row:
                    mat[i][j] = v
    return tuple(map(tuple, mat))


def _first_involution(pf: PolarizedForm, pairs: Pairs) -> Optional[Block]:
    """The least symmetry-induced involution phi, in sorted matrix order,
    with phi(x) = y for every (x, y) in pairs, as a reduced matrix, or
    None.  Classes own disjoint rows and _matchings walks each class in
    sorted matrix order, so this joins the first matching of each class
    left by _live_classes and builds no other matrix; a class with no
    matching left means there is no such phi."""
    firsts = []
    for cls in _live_classes(pf, pairs):
        first = next(_matchings(*cls), None)
        if first is None:
            return None
        firsts.append(first)
    return _join(pf.form.rank, firsts)


_INVOLUTION_CAP = 2_000_000


def disc_involutions(pf: PolarizedForm) -> List[Block]:
    """All involutions of the polarized discriminant induced by diagram
    symmetries, label-preserving component permutations, and the sign on the
    polarization block, as reduced matrices (column j the image of the j-th
    generator), sorted by their entries, each checked on the whole matrix
    to be a homomorphism keeping q and b (_check_isometry).

    Each involution is a product of slot maps (a diagram symmetry of a
    fixed component, an identification of a swapped pair of equal
    components, a sign on h).  Slot maps act on disjoint blocks, so they
    commute, and a product of checked involutive isometries is one again.
    Distinct matchings make distinct matrices.

    This is the full list, for `autos` and the tests; detection asks
    _first_involution for the first phi with given images only.  Raises
    RuntimeError, before building any matrix, when the list would hold
    more than ~2e6 matrices.
    """
    classes = [(idxs, choices) for idxs, _, choices, _ in _symmetry_table(pf)]
    if prod(_count(*cls) for cls in classes) > _INVOLUTION_CAP:
        raise RuntimeError("involution enumeration exceeds the generation cap")
    r = pf.form.rank
    mats = sorted(_join(r, matchings)
                  for matchings in product(*(_matchings(*cls)
                                             for cls in classes)))
    for mat in mats:
        _check_isometry(pf.form, mat)
    return mats


# ----------------------------------------------------- rank-2 positive autos


def binary_autos(gram: Sequence[Sequence[int]]) -> List[List[List[int]]]:
    """The orthogonal group of a positive definite even binary lattice,
    as integer matrices in the lattice basis, sorted.

    Lagrange steps take the Gram to a reduced one, |2b| <= a <= d, by a
    unimodular P (its columns the reduced basis), whose isometries lie in
    a box that the entries as given do not bound; each isometry M of the
    reduced Gram is P M P^-1 in the given basis."""
    a, b, d = gram[0][0], gram[0][1], gram[1][1]
    if gram[1][0] != b:
        raise ValueError("Gram matrix must be symmetric")
    det = a * d - b * b
    if a <= 0 or det <= 0:
        raise ValueError("Gram matrix must be positive definite")
    if a % 2 or d % 2:
        raise ValueError("lattice must be even")
    (p, q), (r, s) = (1, 0), (0, 1)
    while True:
        if a > d:                       # swap the basis vectors
            a, d, p, q, r, s = d, a, q, p, s, r
        elif abs(2 * b) > a:            # e2 -= k e1, k nearest to b/a
            k = (2 * b + a) // (2 * a)
            b, d = b - k * a, d - 2 * k * b + k * k * a
            q, s = q - k * p, s - k * r
        else:
            break

    def vectors_of_norm(t: int) -> Set[Tuple[int, int]]:
        # a x^2 + 2bxy + d y^2 = t iff (a x + b y)^2 = a t - det y^2: one
        # square root per y, and |y| <= 1 on a reduced Gram.
        out = set()
        ymax = isqrt(a * t // det)
        for y in range(-ymax, ymax + 1):
            rest = a * t - det * y * y
            root = isqrt(rest)
            if root * root == rest:
                out.update((num // a, y)
                           for num in (root - b * y, -root - b * y)
                           if num % a == 0)
        return out

    v1s = vectors_of_norm(a)
    v2s = vectors_of_norm(d)
    autos = []
    for v1 in v1s:
        for v2 in v2s:
            pair = a * v1[0] * v2[0] + b * (v1[0] * v2[1] + v1[1] * v2[0]) \
                + d * v1[1] * v2[1]
            if pair != b:
                continue
            mat = [[v1[0], v2[0]], [v1[1], v2[1]]]
            dm = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            if dm not in (1, -1):
                raise AssertionError("isometry of T has determinant "
                                     f"{dm}, not +-1")
            autos.append(mat)
    # P^-1 = det(P) [[s, -q], [-r, p]], and det(P) = +-1.
    e = p * s - q * r
    back, inv = [[p, q], [r, s]], [[e * s, -e * q], [-e * r, e * p]]
    return sorted(_intmat.matmul(_intmat.matmul(back, m), inv)
                  for m in autos)


def maximizing_has_skew(tgram: Sequence[Sequence[int]],
                        pf: PolarizedForm) -> bool:
    """Rank-19 dispatch: does some determinant -1 isometry of the rank-2
    positive lattice T act, through an anti-isometry of discriminants, as a
    symmetry-induced involution of the polarized discriminant?

    For a reflection rho and an anti-isometry psi, sigma = psi rho psi^-1
    sends psi(t_i) to psi(rho t_i) for the generators t_i of disc T.  These
    images determine sigma, since the psi(t_i) generate the polarized
    discriminant, so sigma is symmetry-induced iff some symmetry-induced
    involution sends each psi(t_i) there.

    Raises ValueError when disc T is not anti-isometric to the polarized
    discriminant.
    """
    gd = disc_of_gram([list(row) for row in tgram])
    disc_t = gd.form
    disc_s = pf.form
    if disc_t.order != disc_s.order:
        raise ValueError("discriminant group sizes differ")
    if disc_s.order > 4096:
        raise ValueError("discriminant too large for the rank-19 dispatch")
    psis = _anti_isometries(disc_t, disc_s)
    if not psis:
        raise ValueError(
            "discriminant of T is not anti-isometric to the polarized "
            "discriminant")
    reflections = [m for m in binary_autos(tgram)
                   if m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1]
    for refl in reflections:
        if refl[0][0] + refl[1][1]:
            raise AssertionError("det -1 must be a reflection")
        rho = _induced_on_disc(gd, refl)
        for psi in psis:
            # Column i of rho is rho(t_i) in disc T coordinates.
            pairs = [(img, tuple(sum(map(mul, col, row)) % o
                                 for row, o in zip(zip(*psi), disc_s.orders)))
                     for img, col in zip(psi, zip(*rho))]
            if _first_involution(pf, pairs) is not None:
                return True
    return False


def _induced_on_disc(gd: GramDisc, iso: Sequence[Sequence[int]]
                     ) -> List[List[int]]:
    """Matrix induced on the discriminant generators by a 2x2 lattice
    isometry (dual-coordinate action is by the inverse transpose, the
    adjugate's transpose divided by the determinant +-1)."""
    (a, b), (c, d) = iso
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("isometry is not unimodular")
    inv_t = [[d * det, -c * det], [-b * det, a * det]]
    cols = [gd.to_coords(_intmat.matvec(inv_t, w)) for w in gd.gen_duals]
    return [list(row) for row in zip(*cols)]


def _anti_isometries(src: FiniteQuadraticForm, dst: FiniteQuadraticForm
                     ) -> List[List[Element]]:
    """All group isomorphisms psi: src -> dst with q(psi x) = -q(x),
    as lists of generator images."""
    if src.order != dst.order:
        return []
    # The images of e_i, listed once: q(y) = -q_src(e_i) mod 2 with both
    # sides at their own scale is qn(y) = -Qn_src[i]*dN/sN mod 2dN, with
    # no y when that is not an integer, and y of exact order o_i.
    #
    # Every full list of images is an anti-isometry, with no check that
    # they generate dst: each y_i has order o_i, so e_i -> y_i is a
    # homomorphism psi; psi carries q to -q on each generator and b to -b
    # on each pair of them, so b(psi x, psi y) = -b(x, y) for all x, y,
    # and q(psi x) = -q(x); a kernel element of psi then pairs to 0 with
    # all of src, which is nondegenerate, so psi is injective, and onto
    # since |src| = |dst|.
    s_n, d_n = src.N, dst.N
    images_of = []
    for o, qn in zip(src.orders, src.Qn):
        target, rem = divmod(-qn * d_n, s_n)
        images_of.append([] if rem else dst.elements_of_order(o, target))
    results: List[List[Element]] = []

    def extend(images: List[Element]) -> None:
        i = len(images)
        if i == src.rank:
            results.append(list(images))
            return
        for y in images_of[i]:
            # b(y, psi e_t) = -b_src(e_i, e_t) mod 1, at both scales.
            if all((dst.eval_bn(y, images[t]) * s_n
                    + src.Bn[i][t] * d_n) % (s_n * d_n) == 0
                   for t in range(i)):
                extend(images + [y])

    extend([])
    return results
