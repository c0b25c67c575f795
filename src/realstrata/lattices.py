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
                    Optional, Sequence, Tuple)

from . import _intmat
from .fqf import (Element, FiniteQuadraticForm, cyclic_form, direct_sum_all,
                  trivial_form)

# --------------------------------------------------------------- root specs


_TERM_RE = re.compile(r"^(?:(\d+)\*)?([ADE])(\d+)$")

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
        cleaned = re.sub(r"\s+", "", text or "")
        if cleaned in ("", "0", "none"):
            return cls((), "")
        comps: List[Tuple[str, int]] = []
        rank = 0
        for term in cleaned.split("+"):
            m = _TERM_RE.match(term)
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


# ----------------------------------------------------------- Cartan matrices


def cartan_matrix(fam: str, n: int) -> List[List[int]]:
    """The Cartan matrix (2 on the diagonal, -1 per diagram edge)."""
    if not _ADE_VALID[fam](n):
        raise ValueError(f"invalid component {fam}{n}")
    edges: List[Tuple[int, int]] = []
    if fam == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif fam == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:  # E6, E7, E8: a chain with one branch at the third node
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return mat


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
    """Discriminant form of the negative definite ADE root lattice, with
    generators split into prime-power cyclic pieces (descending prime within
    each invariant factor).  D_even components use the two spinor classes."""
    gram = [[-x for x in row] for row in cartan_matrix(fam, n)]
    gd = disc_of_gram(gram)
    base = gd.form
    if fam == "D" and n % 2 == 0:
        # (Z/2)^2; canonical generators are the two spinor classes, whose
        # q-value is -n/4 mod 2; the vector class has q = -1 mod 2.
        # The group has exponent N = 2, so the target is -n/2 mod 4.
        target = (-n * base.N // 4) % (2 * base.N)
        spinors = [x for x in sorted(base.iter_elements())
                   if any(x) and base.eval_qn(x) == target]
        if len(spinors) == 3:  # D4: all three agree; take the first two
            spinors = spinors[:2]
        if len(spinors) != 2:
            raise AssertionError(f"D{n} has {len(spinors)} spinor classes")
        return base.restricted_form([2, 2], spinors)
    # Every other base is cyclic, so splitting prime by prime (descending)
    # splits its one generator into prime-power pieces.
    orders: List[int] = []
    gens: List[Element] = []
    for p in reversed(base.primes()):
        p_orders, p_gens = base._p_generators(p)
        orders += p_orders
        gens += p_gens
    return base.restricted_form(orders, gens)


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
                    matrix: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless the matrix, whose j-th column c_j is the
    image of the j-th generator, defines a homomorphism keeping q and b:
    column by column, q(c_j)*N = c_j^T G c_j mod 2N before b(c_i, c_j)*N =
    c_i^T G c_j mod N, G the integer Gram.  Bijective then: b is kept, so
    the kernel lies in the trivial radical (forms are nondegenerate)."""
    orders, n, r = form.orders, form.N, form.rank
    for j in range(r):
        for i in range(r):
            if (orders[j] * matrix[i][j]) % orders[i]:
                raise ValueError("matrix does not define a homomorphism")
    cols = list(zip(*matrix))
    for j, col in enumerate(cols):
        g_col = [sum(map(mul, row, col)) for row in form._gram]
        if sum(map(mul, col, g_col)) % (2 * n) != form.Qn[j]:
            raise ValueError("map does not preserve q")
        for i in range(j + 1, r):
            if sum(map(mul, cols[i], g_col)) % n != form.Bn[i][j]:
                raise ValueError("map does not preserve b")


def _is_involution(orders: Sequence[int],
                   block: Sequence[Sequence[int]]) -> bool:
    """block*block = I, row a reduced mod orders[a]: the map the block
    makes on generators of these orders, applied twice, is the identity
    (column b of the square is the image of the b-th generator)."""
    cols = list(zip(*block))
    return all(sum(map(mul, row, col)) % o == (a == b)
               for a, (o, row) in enumerate(zip(orders, block))
               for b, col in enumerate(cols))


class DiscAutomorphism:
    """An automorphism of a finite quadratic form, stored as an integer
    matrix whose j-th column gives the image of the j-th generator.  The
    constructor checks, on the whole matrix, that it is a homomorphism
    keeping q and b (_check_isometry); is_involution checks M*M = I."""

    def __init__(self, form: FiniteQuadraticForm,
                 matrix: Sequence[Sequence[int]]):
        r = form.rank
        self.form = form
        self.matrix = tuple(tuple(matrix[i][j] % form.orders[i]
                                  for j in range(r)) for i in range(r))
        _check_isometry(form, self.matrix)

    def apply(self, x: Sequence[int]) -> Element:
        return tuple(sum(map(mul, row, x)) % o
                     for row, o in zip(self.matrix, self.form.orders))

    def is_involution(self) -> bool:
        """M*M = I on the group."""
        return _is_involution(self.form.orders, self.matrix)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiscAutomorphism)
                and self.form == other.form and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"DiscAutomorphism({self.matrix})"


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
    are the symmetries of a fixed component."""
    if fam == "D" and n == 4:
        return list(_D4_S3)
    if fam == "D" and n % 2 == 0:
        return [_intmat.identity(2), [[0, 1], [1, 0]]]
    ident = _intmat.identity(k)
    return [ident, [[-v for v in row] for row in ident]]


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
                       matrix: Sequence[Sequence[int]]) -> DiscAutomorphism:
    """The matrix as a DiscAutomorphism, checked on every generator to be
    a homomorphism keeping q and b (by the constructor) and an involution.
    Both checks raise explicitly, so they also run under python -O."""
    auto = DiscAutomorphism(form, matrix)
    if not auto.is_involution():
        raise AssertionError(_NOT_AN_INVOLUTION)
    return auto


def _checked_blocks(own: FiniteQuadraticForm,
                    blocks: Iterable[Sequence[Sequence[int]]]) -> Checked:
    """The distinct blocks mod own's orders (one per row), in first-seen
    order, each checked once on own, the form of one component (or of h)
    on its own generators, to be an isometry with an inverse, returned
    beside it.  Then an involutive block is a fixed slot's option, and for
    every block B, [[0, B^-1], [B, 0]] is an involutive isometry of own
    (+) own.  Every check raises explicitly."""
    out: Checked = []
    for raw in blocks:
        block = [[v % o for v in row] for row, o in zip(raw, own.orders)]
        if any(block == seen for seen, _ in out):
            continue
        DiscAutomorphism(own, block)
        inv = (block if _is_involution(own.orders, block)
               else _invert_mod_orders(block, own.orders))
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
    order, with equal forms on equal components (Nikulin 1979, section 1):
    G acts on that sum block by block.

    So each distinct block of a class is checked once, on its component's
    own form (_checked_blocks), and everything else is read off the
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
    owner = [c for c, (lo, hi) in enumerate(spans) for _ in range(lo, hi)]
    if (len(pf.comp_slices) != len(pf.spec.components)
            or [i for lo, hi in spans for i in range(lo, hi)] != list(range(r))
            or any(form.Bn[i][j] for i in range(r) for j in range(i)
                   if owner[i] != owner[j])):
        raise ValueError("the polarized form is not the orthogonal sum of "
                         "its components and h")
    classes: Dict[Tuple[str, int], List[int]] = {}
    for idx, comp in enumerate(pf.spec.components):
        classes.setdefault(comp, []).append(idx)

    def own_form(lo: int, hi: int) -> FiniteQuadraticForm:
        units = [tuple(int(i == j) for i in range(r)) for j in range(lo, hi)]
        return form.restricted_form(form.orders[lo:hi], units)

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
        blocks = _checked_blocks(own_form(lo, hi),
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
    signs = _checked_blocks(own_form(h, r), [[[1]], [[-1]]])
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


def disc_involutions(pf: PolarizedForm) -> List[DiscAutomorphism]:
    """All involutions of the polarized discriminant induced by diagram
    symmetries, label-preserving component permutations, and the sign on the
    polarization block, as validated DiscAutomorphisms sorted by matrix
    entries.

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
    return [DiscAutomorphism(pf.form, m) for m in mats]


def _invert_mod_orders(m: Sequence[Sequence[int]], orders: Sequence[int]
                       ) -> Optional[List[List[int]]]:
    """Inverse of a square matrix acting on prod Z/orders, or None."""
    k = len(orders)
    cols = [[m[i][j] for i in range(k)] for j in range(k)]
    inv_cols = []
    for j in range(k):
        target = [1 if i == j else 0 for i in range(k)]
        sol = _intmat.solve_mod_orders(cols, list(orders), target)
        if sol is None:
            return None
        inv_cols.append(sol)
    return [[inv_cols[j][i] % orders[i] for j in range(k)]
            for i in range(k)]


# ----------------------------------------------------- rank-2 positive autos


def binary_autos(gram: Sequence[Sequence[int]]) -> List[List[List[int]]]:
    """The orthogonal group of a positive definite even binary lattice,
    as integer matrices in the lattice basis."""
    a, b, d = gram[0][0], gram[0][1], gram[1][1]
    if gram[1][0] != b:
        raise ValueError("Gram matrix must be symmetric")
    det = a * d - b * b
    if a <= 0 or det <= 0:
        raise ValueError("Gram matrix must be positive definite")
    if a % 2 or d % 2:
        raise ValueError("lattice must be even")

    def vectors_of_norm(t: int) -> List[Tuple[int, int]]:
        out = []
        xmax = isqrt(t * d // det) + 1
        ymax = isqrt(t * a // det) + 1
        for x in range(-xmax, xmax + 1):
            for y in range(-ymax, ymax + 1):
                if a * x * x + 2 * b * x * y + d * y * y == t:
                    out.append((x, y))
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
    autos.sort()
    return autos


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
    cols = []
    for w in gd.gen_duals:
        cols.append(gd.to_coords(_intmat.matvec(inv_t, w)))
    k = len(gd.gen_duals)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _anti_isometries(src: FiniteQuadraticForm, dst: FiniteQuadraticForm
                     ) -> List[List[Element]]:
    """All group isomorphisms psi: src -> dst with q(psi x) = -q(x),
    as lists of generator images."""
    if src.order != dst.order:
        return []
    dst_elems = sorted(dst.iter_elements())
    results: List[List[Element]] = []
    # q(y) = -q_src(e_i) mod 2 with both sides at their own scale:
    # qn(y)/dN + Qn_src/sN = 0 mod 2, i.e. qn(y)*sN + Qn_src*dN = 0 mod
    # 2*sN*dN (and the same mod sN*dN for b).
    s_n, d_n = src.N, dst.N

    def extend(images: List[Element]) -> None:
        i = len(images)
        if i == src.rank:
            sub = dst.subgroup(images)
            if sub.order == dst.order:
                results.append(list(images))
            return
        oi = src.orders[i]
        for y in dst_elems:
            if dst.smul(oi, y) != dst.zero():
                continue
            if (dst.eval_qn(y) * s_n + src.Qn[i] * d_n) % (2 * s_n * d_n):
                continue
            good = True
            for t in range(i):
                if (dst.eval_bn(y, images[t]) * s_n
                        + src.Bn[i][t] * d_n) % (s_n * d_n):
                    good = False
                    break
            if good:
                extend(images + [y])

    extend([])
    return results
