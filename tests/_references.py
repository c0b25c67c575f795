"""Reference constructions the package no longer carries: the Cartan
matrices of the ADE diagrams, and the discriminant form of any Gram
matrix by one Smith form over Z, from which the tests derive the root
discriminants that lattices.disc_root reads off closed forms and the
anti-isometries that the rank-19 dispatch lists off T's dual basis; the
earlier route of disc_root through a cyclic form and its restriction; a
solve of linear congruences modulo coordinate orders; and the slot options
of the symmetry-induced involutions as the symmetry table once placed and
sorted them, with the involution question asked by filtering them."""

from __future__ import annotations

from operator import mul
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from realstrata import _intmat
from realstrata.fqf import (Element, FiniteQuadraticForm, cyclic_form,
                            trivial_form)
from realstrata.lattices import (_ADE_VALID, PolarizedForm, _checked_blocks,
                                 _component_swap_isos)


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


class GramDisc(NamedTuple):
    """Discriminant form of an integral nondegenerate Gram matrix, with the
    coordinate bridge: elements of the quotient Z^n / G Z^n are addressed
    by integer vectors in dual coordinates."""
    form: FiniteQuadraticForm
    gen_duals: List[List[int]]      # dual coordinates of the generators
    to_coords: Callable[[Sequence[int]], Tuple[int, ...]]


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


def disc_root_by_restriction(fam: str, n: int) -> FiniteQuadraticForm:
    """The root discriminant as disc_root built it before it read the
    prime-power pieces off in one constructor call: the cyclic form
    [m/den] of the closed form, restricted to the generators of its
    p-parts, descending prime (even D_n and E8 as in disc_root)."""
    if not _ADE_VALID[fam](n):
        raise ValueError(f"invalid component {fam}{n}")
    if fam == "D" and n % 2 == 0:
        return FiniteQuadraticForm([2, 2], [-n, -n], {(0, 1): n - 2},
                                   scale=4)
    if fam == "E":
        if n == 8:
            return trivial_form()
        base = cyclic_form(-4, 3) if n == 6 else cyclic_form(-3, 2)
    else:
        base = cyclic_form(-n, n + 1) if fam == "A" else cyclic_form(-n, 4)
    orders: List[int] = []
    gens: List[Element] = []
    for p in reversed(base.primes()):
        p_orders, p_gens = base._p_generators(p)
        orders += p_orders
        gens += p_gens
    return base.restricted_form(orders, gens)


def solve_mod_orders(gens: Sequence[Sequence[int]], orders: Sequence[int],
                     target: Sequence[int]) -> List[int] | None:
    """Find integer coefficients c with sum_t c[t] * gens[t] = target modulo
    the given coordinate orders, or None.  gens[t] and target are coordinate
    vectors of length len(orders).

    The columns of [[G, diag(orders)], [I_s, 0]] (G has the gens as columns)
    span the vectors (G c + diag(orders) y, c).  Their lower-triangular HNF
    H spans the reachable first parts with its top-left r x r block, so the
    target is reachable iff that block solves H11 z = target, and then
    c = H21 z with H21 the lower-left s x r block."""
    r, s = len(orders), len(gens)
    a = [[g[i] for g in gens] + [o if j == i else 0 for j in range(r)]
         for i, o in enumerate(orders)]
    a += [[int(j == t) for j in range(s)] + [0] * r for t in range(s)]
    h = _intmat.hnf_columns(a)
    z = _intmat.hnf_solver([row[:r] for row in h[:r]])(target)
    if z is None:
        return None
    return [sum(x * y for x, y in zip(row, z)) for row in h[r:]]


# A slot option as sparse rows: for every coordinate the slot owns, its
# nonzero (column, value) entries.
Rows = Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
# The options of one slot: (partner's first generator, rows), the partner
# None when the slot is fixed.
Choices = List[Tuple[Optional[int], Rows]]


def placed_slot(src: int, dst: int, blocks) -> Tuple[Rows, ...]:
    """The options of one slot, placed from (block, inverse) pairs: the
    block maps the generators starting at src onto those starting at dst
    and, for a pair (src != dst), its inverse maps them back."""
    options = []
    for block, inv in blocks:
        parts = [(dst, src, block)]
        if src != dst:
            parts.append((src, dst, inv))
        options.append(tuple(
            (to + i, tuple((fro + j, v) for j, v in enumerate(row) if v))
            for to, fro, part in parts for i, row in enumerate(part)))
    return tuple(options)


# Per class: the first generators of its components, and each one's
# options.
Classes = List[Tuple[Tuple[int, ...], Dict[int, Choices]]]


def slot_choices_by_dense(pf: PolarizedForm) -> Classes:
    """Per class of equal components (by label, then h), the first
    generators of its components and each one's slot options, built as the
    symmetry table built them before it kept only the checked blocks: every
    pair option with each later component of the class and every fixed
    involutive block placed (placed_slot), sorted by the options' rows
    written out densely in row order; h's options in the order of its
    signs."""
    form, r = pf.form, pf.form.rank
    classes: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    for comp, cut in zip(pf.spec.components, pf.comp_slices):
        classes.setdefault(comp, []).append(cut)

    def dense(option):
        return [[entries.get(j, 0) for j in range(r)]
                for entries in (dict(row) for _, row in sorted(option[1]))]

    out = []
    for (fam, n), cuts in sorted(classes.items()):
        lo, hi = cuts[0]
        if lo == hi:
            continue
        blocks = _checked_blocks(form, lo, hi,
                                 _component_swap_isos(fam, n, hi - lo))
        fixed = [(block, inv) for block, inv in blocks if inv is block]
        starts = tuple(start for start, _ in cuts)
        choices = {}
        for pos, src in enumerate(starts):
            options = [(dst, rows) for dst in starts[pos + 1:]
                       for rows in placed_slot(src, dst, blocks)]
            options += [(None, rows) for rows in placed_slot(src, src, fixed)]
            choices[src] = sorted(options, key=dense)
        out.append((starts, choices))
    h = r - 1
    signs = _checked_blocks(form, h, r, [[[1]], [[-1]]])
    out.append(((h,), {h: [(None, rows)
                           for rows in placed_slot(h, h, signs)]}))
    return out


def live_choices(pf: PolarizedForm, pairs) -> Classes:
    """slot_choices_by_dense with only the options that send x to y for
    every (x, y) in pairs, on the coordinates they own; x may be longer
    than the form's rank."""
    orders = pf.form.orders

    def live(options: Choices) -> Choices:
        return [(partner, rows) for partner, rows in options
                if all((sum(v * x[j] for j, v in row) - y[i]) % orders[i] == 0
                       for x, y in pairs for i, row in rows)]

    return [(starts, {c: live(options) for c, options in choices.items()})
            for starts, choices in slot_choices_by_dense(pf)]


def matchings(items: Tuple[int, ...], choices: Dict[int, Choices]
              ) -> Iterator[Tuple[Rows, ...]]:
    """Every matching of items into fixed points and pairs, one option per
    slot, in the order of the choice lists, backtracking at a dead end; a
    partner that led to a dead end is not tried again."""
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
        for sub in matchings(left, choices):
            found = True
            yield (rows,) + sub
        if not found:
            dead.add(partner)


def first_involution_by_filtering(pf: PolarizedForm, pairs):
    """The involution question asked by filtering every placed option
    (live_choices), then joining the first matching of each class into
    one reduced matrix, or None when some class has none left."""
    r = pf.form.rank
    mat = [[0] * r for _ in range(r)]
    for cls in live_choices(pf, pairs):
        first = next(matchings(*cls), None)
        if first is None:
            return None
        for rows in first:
            for i, row in rows:
                for j, v in row:
                    mat[i][j] = v
    return tuple(map(tuple, mat))
