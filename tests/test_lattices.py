"""Root specs, Cartan matrices, discriminants of ADE lattices, polarized
forms, symmetry-induced involutions, and rank-2 isometry groups."""
import hashlib
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

from realstrata.fqf import cyclic_form, trivial_form, u_block, v_block
from realstrata.detector import (KernelCandidate, check_candidate, detect,
                                 enumerate_a_squares, kernel_candidates)
from realstrata.isotropy import subquotient
from realstrata import lattices
from realstrata.lattices import (RootSpec, _anti_isometries,
                                 _component_swap_isos,
                                 _count, _first_involution,
                                 _live_classes, _symmetry_table, binary_autos,
                                 checked_involution, disc_involutions,
                                 disc_root, maximizing_has_skew,
                                 polarized_disc)
from realstrata.nikulin import (ambient_with_a_block, embeds_into_big_L,
                                theta_vector)
from realstrata.oracle import _apply, brute_involutions

from _fractions import canon_mod2, display_rep
from _references import (cartan_matrix, disc_of_gram,
                         disc_root_by_restriction, solve_mod_orders)


# ------------------------------------------------------------------ RootSpec


def test_rootspec_parse_and_rank():
    rs = RootSpec.parse("D7+A6+A3+A2")
    assert rs.components == (("D", 7), ("A", 6), ("A", 3), ("A", 2))
    assert rs.rank == 18
    assert RootSpec.parse("2*A1+A3").components == \
        (("A", 1), ("A", 1), ("A", 3))
    assert RootSpec.parse("").components == ()
    assert RootSpec.parse("  A1 + A2 ").rank == 3


def test_rootspec_canonical_text():
    assert RootSpec.parse("A3+2*A1").canonical_text() == "A3+2*A1"
    assert RootSpec.parse("A1+A3+A1").canonical_text() == "A3+2*A1"
    assert RootSpec.parse("").canonical_text() == "0"
    assert RootSpec.parse("D7+A6+A3+A2").canonical_text() == "D7+A6+A3+A2"


def test_rootspec_rejects_invalid():
    for bad in ("A0", "D3", "E5", "E9", "B2", "A1+", "0*A1", "Q7"):
        with pytest.raises(ValueError):
            RootSpec.parse(bad)


@pytest.mark.parametrize("text, term", [
    ("A1 7", "A1 7"), ("1 8*A1", "1 8*A1"), ("A 1", "A 1"),
    ("2*A1+D 4", "D 4"), ("A1\u2003+A2", "A1\u2003"),
    ("\u2003A1", "\u2003A1")])
def test_rootspec_refuses_whitespace_inside_a_term(text, term):
    # Digits on both sides of a space must not join: "A1 7" is no A17 and
    # "1 8*A1" no 18*A1.  Only ASCII whitespace is taken, and only around
    # '+' and '*' or at either end.
    with pytest.raises(ValueError) as exc:
        RootSpec.parse(text)
    assert str(exc.value) == f"cannot parse root-spec term {term!r}"


@pytest.mark.parametrize("text, shown", [
    (" 2 * A1 + A2 ", "2*A1+A2"), ("\tA1\n+\x0bA2\x0c", "A1+A2"),
    ("2 *A1", "2*A1"), ("D7 + A6+A3 +A2", "D7+A6+A3+A2"), (" none ", "0")])
def test_rootspec_takes_ascii_whitespace_around_operators(text, shown):
    assert RootSpec.parse(text).display_text() == shown
    assert RootSpec.parse(text) == RootSpec.parse(shown)


# ------------------------------------------------------------ Cartan martix


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_cartan_determinants():
    # det A_n = n+1, det D_n = 4, det E6 = 3, det E7 = 2, det E8 = 1
    for n in range(1, 9):
        assert _det(cartan_matrix("A", n)) == n + 1
    for n in range(4, 9):
        assert _det(cartan_matrix("D", n)) == 4
    assert _det(cartan_matrix("E", 6)) == 3
    assert _det(cartan_matrix("E", 7)) == 2
    assert _det(cartan_matrix("E", 8)) == 1


def test_cartan_symmetric_with_minus_one_edges():
    mat = cartan_matrix("D", 5)
    for i in range(5):
        assert mat[i][i] == 2
        for j in range(5):
            assert mat[i][j] == mat[j][i]
            if i != j:
                assert mat[i][j] in (0, -1)


# ---------------------------------------------------------------- disc_root


def test_disc_root_anchors():
    assert disc_root("A", 7).display() == "[-7/8]"
    assert disc_root("D", 7).display() == "[1/4]"
    assert disc_root("E", 8) == trivial_form()
    assert disc_root("A", 2).display() == "[-2/3]"
    assert disc_root("A", 3).display() == "[-3/4]"
    assert disc_root("E", 7).display() == "[1/2]"
    assert disc_root("E", 6).display() == "[2/3]"
    assert disc_root("A", 1).display() == "[-1/2]"


def test_disc_root_orders():
    for n in range(1, 9):
        assert disc_root("A", n).order == n + 1
    for n in range(4, 9):
        assert disc_root("D", n).order == 4
    assert disc_root("D", 5).orders == (4,)
    assert disc_root("D", 6).orders == (2, 2)


def test_disc_root_d_even_spinor_classes():
    for n in (4, 6, 8):
        form = disc_root("D", n)
        target = canon_mod2(Fraction(-n, 4))
        assert form.eval_q((1, 0)) == target
        assert form.eval_q((0, 1)) == target
        # the vector class is the sum of the two spinor classes
        assert form.eval_q((1, 1)) == canon_mod2(Fraction(-1))


def test_disc_root_d_even_is_the_form_on_the_spinor_classes():
    # In disc_of_gram coordinates the unit e_i is the class of the i-th
    # fundamental weight: the spinor classes are those of the fork's ends
    # e_{n-2} and e_{n-1}, the vector class that of e_0.  For n = 4 mod 8
    # all three nonzero classes have the spinors' q, and disc_root takes
    # the first two (for D12 a spinor and the vector class), which carry
    # the same form.
    for n in range(4, 20, 2):
        gd = disc_of_gram([[-x for x in row]
                           for row in cartan_matrix("D", n)])
        base = gd.form
        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        spinors = sorted(gd.to_coords(unit[j]) for j in (n - 2, n - 1))
        assert disc_root("D", n) == base.restricted_form([2, 2], spinors), n
        found, = base.elements_of_order(2, [-n * base.N // 4])
        if n % 8 == 4:
            assert found == sorted(spinors + [gd.to_coords(unit[0])]), n
        else:
            assert found == spinors, n


def test_disc_root_splits_composite_cyclic():
    # A5 disc has order 6, presented as prime-power pieces
    form = disc_root("A", 5)
    assert sorted(form.orders) == [2, 3]


def test_disc_root_always_from_even_lattice():
    for fam, n in (("A", 1), ("A", 4), ("A", 7), ("D", 4), ("D", 7),
                   ("E", 6), ("E", 7), ("E", 8)):
        form = disc_root(fam, n)
        for i in range(form.rank):
            gen = tuple(1 if j == i else 0 for j in range(form.rank))
            q = form.eval_q(gen)
            assert (q * form.orders[i]).denominator <= 2


ADE_COMPONENTS = ([("A", n) for n in range(1, 20)]
                  + [("D", n) for n in range(4, 20)]
                  + [("E", n) for n in (6, 7, 8)])


def _disc_from_cartan(fam, n):
    """The root discriminant derived from the Cartan matrix C: the form
    of disc_of_gram(-C) on its two spinor classes for even D_n (the first
    two nonzero classes with q = -n/4, in lexicographic order), else on
    its one cyclic generator split prime by prime, descending."""
    base = disc_of_gram([[-x for x in row]
                         for row in cartan_matrix(fam, n)]).form
    if fam == "D" and n % 2 == 0:
        target = (-n * base.N // 4) % (2 * base.N)
        spinors = [x for x in sorted(base.iter_elements())
                   if any(x) and base.eval_qn(x) == target][:2]
        return base.restricted_form([2, 2], spinors)
    orders, gens = [], []
    for p in reversed(base.primes()):
        p_orders, p_gens = base._p_generators(p)
        orders += p_orders
        gens += p_gens
    return base.restricted_form(orders, gens)


def test_disc_root_closed_forms_equal_the_cartan_derivation():
    # disc_root reads each form off a table of closed forms; derived from
    # the Cartan matrix, every component of rank <= 19 gives the same
    # orders, q and b on the same generators.
    for fam, n in ADE_COMPONENTS:
        assert disc_root(fam, n) == _disc_from_cartan(fam, n), (fam, n)
    for fam, n in (("A", 0), ("D", 3), ("E", 9)):
        with pytest.raises(ValueError, match=f"invalid component {fam}{n}"):
            disc_root(fam, n)


def test_disc_root_equals_the_restricted_cyclic_route():
    # disc_root builds each cyclic component's prime-power pieces in one
    # constructor call; the earlier route, a cyclic form restricted to its
    # p-parts, gives the same form, JSON and display on every component
    # of rank <= 19, and refuses the same invalid ones.
    for fam, n in ADE_COMPONENTS:
        new, old = disc_root(fam, n), disc_root_by_restriction(fam, n)
        assert (new.orders, new.Qn, new.Bn, new.N) == \
            (old.orders, old.Qn, old.Bn, old.N), (fam, n)
        assert new.to_json_dict() == old.to_json_dict(), (fam, n)
        assert new.display() == old.display(), (fam, n)
    for fam, n in (("A", 0), ("D", 3), ("E", 9)):
        for build in (disc_root, disc_root_by_restriction):
            with pytest.raises(ValueError, match="invalid component"):
                build(fam, n)


# ------------------------------------------------------------- disc_of_gram
# The reference in _references.py that the disc_root and rank-19 tests
# compare against.


def test_disc_of_gram_examples():
    gd = disc_of_gram([[-2]])
    assert gd.form.display() == "[-1/2]"
    gd = disc_of_gram([[2, 0], [0, 4]])
    assert sorted(gd.form.orders) == [2, 4]
    vals = sorted((gd.form.order_of(x), gd.form.eval_q(x))
                  for x in gd.form.iter_elements())
    assert (2, Fraction(1, 2)) in vals
    assert (4, Fraction(1, 4)) in vals
    with pytest.raises(ValueError):
        disc_of_gram([[2, 2], [2, 2]])


def _fraction_solve(a, w):
    """x with a x = w, by Gauss-Jordan over the rationals."""
    n = len(a)
    work = [[Fraction(x) for x in a[i]] + [Fraction(w[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n] for row in work]


def test_disc_of_gram_matches_rational_inverse_on_ade():
    # q(w_i) = w_i^T G^-1 w_i mod 2 and b(w_i, w_j) = w_i^T G^-1 w_j mod 1
    # on the generators' dual vectors w, with G^-1 w from a Fraction solve:
    # every ADE family up to rank 19, and sums with unequal invariant
    # factors (each ADE discriminant alone has only one size).
    cases = ([[comp] for comp in ADE_COMPONENTS]
             + [[("A", 1), ("A", 3)], [("A", 2), ("A", 8)],
                [("D", 5), ("A", 1), ("A", 7)], [("D", 4), ("A", 5)]])
    for comps in cases:
        blocks = [cartan_matrix(fam, n) for fam, n in comps]
        size = sum(len(blk) for blk in blocks)
        gram = [[0] * size for _ in range(size)]
        pos = 0
        for blk in blocks:
            for i, row in enumerate(blk):
                for j, x in enumerate(row):
                    gram[pos + i][pos + j] = -x
            pos += len(blk)
        gd = disc_of_gram(gram)
        form = gd.form
        order = 1
        for fam, n in comps:
            order *= {"A": n + 1, "D": 4, "E": 9 - n}[fam]
        assert form.order == order, comps
        solved = [_fraction_solve(gram, w) for w in gd.gen_duals]
        for i, w in enumerate(gd.gen_duals):
            assert gd.to_coords(w) == form.reduce(
                [int(j == i) for j in range(form.rank)]), (comps, i)
            assert form.q[i] == canon_mod2(
                sum(t * x for t, x in zip(w, solved[i]))), (comps, i)
            for j, other in enumerate(gd.gen_duals):
                val = sum(t * x for t, x in zip(other, solved[i]))
                assert form.b[i][j] == val % 1, (comps, i, j)


def test_disc_of_gram_to_coords():
    gd = disc_of_gram([[4]])
    assert gd.form.orders == (4,)
    zero = gd.to_coords([4])
    assert zero == (0,)


# ------------------------------------------------------------ polarized_disc


def test_polarized_disc_golden_displays():
    pf = polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    assert pf.display() == "[1/4] (+) [-6/7] (+) [-3/4] (+) [-2/3] (+) [1/4]"
    pf = polarized_disc(RootSpec.parse("A7+A6+A3+A2"), 4)
    assert pf.display() == "[-7/8] (+) [-6/7] (+) [-3/4] (+) [-2/3] (+) [1/4]"
    pf = polarized_disc(RootSpec.parse("A7+A6+A5"), 2)
    assert pf.display() == "[-7/8] (+) [-6/7] (+) [2/3] (+) [1/2] (+) [1/2]"


def _fraction_display_and_json(form):
    """display() and to_json_dict() as str of the Fractions form.q and
    form.b: q shown in (-1, 1], starred when b pairs e_i with another
    generator."""
    r = form.rank
    display = " (+) ".join(
        f"[{display_rep(form.q[i])}]"
        + ("*" if any(form.b[i][j] for j in range(r) if j != i) else "")
        for i in range(r)) or "[0]"
    return display, {"orders": list(form.orders),
                     "q": [str(v) for v in form.q],
                     "b": [[str(v) for v in row] for row in form.b]}


def test_display_and_json_are_the_fraction_text():
    # The integer formatter prints what str(Fraction) printed: every ADE
    # component of rank <= 19 on its own, and the golden and ladder
    # strata at five models.
    forms = [disc_root(fam, n) for fam, ns in (("A", range(1, 20)),
                                               ("D", range(4, 20)),
                                               ("E", (6, 7, 8)))
             for n in ns]
    forms += [polarized_disc(RootSpec.parse(spec), h2).form
              for spec in ("D7+A6+A3+A2", "A7+A6+A3+A2", "A7+A6+A5",
                           "6*A1", "7*A1", "8*A1")
              for h2 in (2, 4, 16, 32, 64)]
    for form in forms:
        assert (form.display(), form.to_json_dict()) == \
            _fraction_display_and_json(form), form.orders
    assert max(form.rank for form in forms) == 9
    assert any("*" in form.display() for form in forms)


def test_a_polarized_form_cuts_inside_a_component():
    # A5's discriminant splits into Z/3 and Z/2 pieces that b does not
    # pair, so the form cuts at 3 too, where no component boundary falls;
    # D4's two spinors pair to 1/2, so nothing cuts between them.
    pf = polarized_disc(RootSpec.parse("A7+A6+A5"), 2)
    assert pf.comp_slices == [(0, 1), (1, 2), (2, 4)]
    assert pf.form.orthogonal_cuts == (0, 1, 2, 3, 4, 5)
    r = pf.form.rank
    assert [c for c in range(r + 1)
            if all(pf.form.b[i][j] == 0
                   for i in range(c) for j in range(c, r))] == list(range(6))
    assert polarized_disc(RootSpec.parse("D4+A1"), 4).form.orthogonal_cuts \
        == (0, 2, 3, 4)


def test_polarized_disc_tags_and_h_block():
    pf = polarized_disc(RootSpec.parse("2*A1+A3"), 4)
    assert pf.tags == [0, 1, 2, "h"]
    assert pf.rank_S == 5 and pf.rank_T == 16
    h_idx = pf.tags.index("h")
    assert pf.form.orders[h_idx] == 4
    gen = tuple(1 if i == h_idx else 0 for i in range(pf.form.rank))
    assert pf.form.eval_q(gen) == Fraction(1, 4)
    # component-tagged generators reproduce each component disc verbatim
    for idx, (lo, hi) in enumerate(pf.comp_slices):
        fam, n = pf.spec.components[idx]
        comp = disc_root(fam, n)
        assert pf.form.orders[lo:hi] == comp.orders
        for k in range(hi - lo):
            gen = tuple(1 if i == lo + k else 0 for i in range(pf.form.rank))
            unit = tuple(1 if i == k else 0 for i in range(comp.rank))
            assert pf.form.eval_q(gen) == comp.eval_q(unit)


def test_polarized_disc_builds_each_distinct_component_once(monkeypatch):
    built = []
    real = lattices.disc_root

    def counted(fam, n):
        built.append((fam, n))
        return real(fam, n)

    monkeypatch.setattr(lattices, "disc_root", counted)
    pf = polarized_disc(RootSpec.parse("8*A1"), 4)
    assert built == [("A", 1)]
    assert pf.form.orders == (2,) * 8 + (4,)
    assert pf.comp_slices == [(i, i + 1) for i in range(8)]
    built.clear()
    polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    assert len(built) == 4
    # a second call builds them again: nothing is kept between calls
    built.clear()
    polarized_disc(RootSpec.parse("8*A1"), 4)
    assert built == [("A", 1)]


def test_polarized_disc_rejects_bad_h2():
    with pytest.raises(ValueError):
        polarized_disc(RootSpec.parse("A1"), 3)
    with pytest.raises(ValueError):
        polarized_disc(RootSpec.parse("A1"), 0)


# --------------------------------------------------------- disc_involutions


def test_disc_involutions_are_involutions():
    pf = polarized_disc(RootSpec.parse("D4+A2"), 4)
    autos = disc_involutions(pf)
    assert autos, "never empty: identity and h-negation at least"
    seen = set()
    for a in autos:
        assert lattices._is_inverse(pf.form.orders, a, a)
        assert a not in seen, "deduplicated"
        seen.add(a)


def test_disc_involutions_2a1_contains_swap():
    pf = polarized_disc(RootSpec.parse("2*A1"), 4)
    mats = set(disc_involutions(pf))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert swap in mats


def test_disc_involutions_e8_only_h():
    pf = polarized_disc(RootSpec.parse("E8"), 4)
    mats = set(disc_involutions(pf))
    assert mats == {((1,),), ((3,),)}   # +-id on the h generator


def test_disc_involutions_subset_of_brute():
    for spec, h2 in (("A3", 4), ("A1+A2", 4), ("D4", 4)):
        pf = polarized_disc(RootSpec.parse(spec), h2)
        eng = set(disc_involutions(pf))
        brute = set(brute_involutions(pf.form))
        assert eng <= brute


# The h sign collapsing mod 2 (A1@2), swapped pairs (2*A1, 3*A2, 2*D4,
# 2*D6), the D4 triality, odd D, E6, E7, and components with trivial
# discriminant (E8, 2*E8).
FILTER_FORMS = [("A1", 2), ("2*A1", 4), ("3*A2", 4), ("D4", 4), ("2*D4", 4),
                ("2*D6", 4), ("D5", 4), ("E6", 4), ("E7", 4), ("E8+A1", 4),
                ("2*E8+A1", 4)]
# Classes of equal components whose rows interleave.
INTERLEAVED = ["A1+A2+A1", "A2+D4+A2", "A1+D4+A1+D4"]


def _assert_filter_matches(pf, pairs, want, label):
    """The slot filter keeps exactly len(want) matchings, and its first
    involution is the head of want: the brute-filtered full list."""
    assert prod(_count(*cls) for cls in _live_classes(pf, pairs)) \
        == len(want), label
    assert _first_involution(pf, pairs) == (want or [None])[0], label


def test_kappa_filter_equals_filtering_the_full_list():
    for spec, h2 in FILTER_FORMS:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        form = pf.form
        full = disc_involutions(pf)
        for kappa in form.iter_elements():
            pairs = [(kappa, form.neg(kappa))]
            want = [a for a in full
                    if _apply(form, a, kappa) == form.neg(kappa)]
            _assert_filter_matches(pf, pairs, want, (spec, kappa))


def test_minus_one_is_a_symmetry_induced_involution():
    # check_candidate asks no separate phi(kappa) = -kappa question: -1 is
    # always symmetry-induced and negates every kappa.  With every
    # generator negated, the only candidate is -1 itself.
    forms = FILTER_FORMS + [(s, 4) for s in INTERLEAVED]
    for h2 in (2, 4):
        forms += [(f"A{n}", h2) for n in range(1, 20)]
        forms += [(f"D{n}", h2) for n in range(4, 20)]
        forms += [(f"E{n}", h2) for n in (6, 7, 8)]
    for spec, h2 in forms:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        form = pf.form
        r = form.rank
        gens = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        minus_one = tuple(tuple(-(i == j) % o for j in range(r))
                          for i, o in enumerate(form.orders))
        assert _first_involution(
            pf, [(e, form.neg(e)) for e in gens]) == minus_one, (spec, h2)



def test_pair_filter_equals_filtering_the_full_list():
    # phi(x) = y for y = x, -x and x + kappa, one pair at a time and all
    # at once, and (kappa, -kappa) together with (x, x + kappa).  x may
    # carry trailing coordinates past the rank, like a K-perp generator.
    # The first matrix is what _first_involution finds without the list,
    # and _count counts the list without building it.  Each matching
    # makes its own matrix, also when a component owns no rows: 2*E8+A1
    # has 2 involutions, not 4.
    rng = random.Random(20240)
    for spec, h2 in FILTER_FORMS + [(s, 4) for s in INTERLEAVED]:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        form = pf.form
        full = disc_involutions(pf)
        assert len(set(full)) == len(full) == prod(
            _count(idxs, choices)
            for idxs, _, choices, _ in _symmetry_table(pf)), spec
        elems = sorted(form.iter_elements())
        for _ in range(12):
            x, kappa = rng.choice(elems), rng.choice(elems)
            shifted = form.add(x, kappa)
            queries = [[(x, x)], [(x, form.neg(x))], [(x, shifted)],
                       [(kappa, form.neg(kappa)), (x + (1,), shifted)],
                       [(x, x), (kappa, form.neg(kappa)), (x, shifted)]]
            for pairs in queries:
                want = [a for a in full
                        if all(_apply(form, a, u[:form.rank]) == v
                               for u, v in pairs)]
                _assert_filter_matches(pf, pairs, want, (spec, pairs))

def _reference_check(pf, cand):
    """check_candidate as it was before the slot filter: filter the whole
    sorted involution list by phi(kappa) = -kappa, and test K-membership
    of (phi (+) -1)(g) - g on every generator g of K-perp, taken from
    fqf.orthogonal_complement and not from the presentation under test."""
    form = pf.form
    r = form.rank
    big = ambient_with_a_block(form, cand.a2)
    theta = big.reduce(theta_vector(form, cand.kappa, cand.n))
    sq = subquotient(big, theta)
    kernel = big.subgroup([theta]).elements()
    kperp = big.orthogonal_complement(big.subgroup([theta])).gens
    if not embeds_into_big_L(2, pf.rank_S, sq.form)[0]:
        return "genus_empty", None
    cond2 = [phi for phi in disc_involutions(pf)
             if _apply(form, phi, cand.kappa) == form.neg(cand.kappa)]
    if not cond2:
        return "no_involution_cond2", None
    for phi in cond2:
        if all(big.add(big.reduce(list(_apply(form, phi, g[:r])) + [-g[r]]),
                       big.neg(g)) in kernel
               for g in kperp):
            return "witness", phi
    return "no_involution_cond3", None


SMOKE = ["A1", "2*A1", "A2", "A3", "D4", "A1+A2", "2*A2", "A4", "A3+A1",
         "D5", "E6", "3*A1"]


def test_smoke_set_statuses_and_witnesses_match_the_full_list():
    # Beyond the smoke set: inverse blocks of swapped pairs (2*D4, 3*A2,
    # 2*D6, E6+2*A3), the D4 triality in cond3, classes whose rows
    # interleave, and the golden quartics, whose no_involution_cond3
    # candidates test cond3 against the whole K-perp.
    for spec in (SMOKE + ["2*D4", "3*A2", "2*D6", "E6+2*A3"] + INTERLEAVED
                 + ["D7+A6+A3+A2", "A7+A6+A3+A2"]):
        pf = polarized_disc(RootSpec.parse(spec), 4)
        first = None
        for a2 in enumerate_a_squares(pf):
            for n in (2, 1):
                for kappa in kernel_candidates(pf, a2, n):
                    cand = KernelCandidate(a2, n, kappa)
                    got = check_candidate(pf, cand)[:2]
                    assert got == _reference_check(pf, cand), (spec, cand)
                    if got[0] == "witness" and first is None:
                        first = {"a2": a2, "n": n, "kappa": list(cand.kappa),
                                 "phi": [list(row) for row in got[1]]}
        assert detect(4, spec).witness == first, spec


def test_checked_involution_agrees_with_applying_twice():
    # 3*A1 @ 4: orders (2, 2, 2, 4); the A1 generators all have q = 3/2,
    # so every permutation of them is an isometry.  checked_involution
    # returns the reduced matrix of the swap and refuses the 3-cycle, an
    # isometry that is no involution, as applying each twice tells.
    pf = polarized_disc(RootSpec.parse("3*A1"), 4)
    form = pf.form
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    cycle = [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    expected = {"swap": True, "cycle": False}
    for name, mat in (("swap", swap), ("cycle", cycle)):
        twice = all(_apply(form, mat, _apply(form, mat, x)) == x
                    for x in form.iter_elements())
        outcome = _outcome(checked_involution, form, mat)
        assert (outcome is None) is twice is expected[name], name
        if outcome is None:
            assert checked_involution(form, mat) == tuple(
                tuple(v % o for v in row)
                for row, o in zip(mat, form.orders)), name
        else:
            assert outcome == ("AssertionError",
                               lattices._NOT_AN_INVOLUTION), name
    for auto in disc_involutions(pf):
        assert all(_apply(form, auto, _apply(form, auto, x)) == x
                   for x in form.iter_elements())


def test_check_isometry_accepts_exactly_the_brute_isometries():
    # Every integer matrix reduced mod the orders: the whole-matrix check
    # that checked_involution and disc_involutions run must accept exactly
    # the maps that are bijective on the group and keep q.
    forms = [u_block(2), v_block(2),
             cyclic_form(1, 4).direct_sum(cyclic_form(-1, 4))]
    for form in forms:
        r = form.rank
        elems = list(form.iter_elements())
        accepted = 0
        for entries in product(*(range(form.orders[i])
                                 for i in range(r) for _ in range(r))):
            mat = [list(entries[i * r:(i + 1) * r]) for i in range(r)]
            images = [tuple(sum(mat[i][j] * x[j] for j in range(r))
                            % form.orders[i] for i in range(r))
                      for x in elems]
            brute = (len(set(images)) == len(elems)
                     and all(form.eval_q(y) == form.eval_q(x)
                             for x, y in zip(elems, images)))
            try:
                lattices._check_isometry(form, mat)
                engine = True
            except ValueError:
                engine = False
            assert engine is brute, (form.orders, mat)
            accepted += engine
        assert accepted >= 2, form.orders   # the identity and -1 at least


def _outcome(check, *args):
    """None when check(*args) accepts, else its exception's type and text."""
    try:
        check(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _mutated_blocks(rng, orders, bases):
    """Blocks on generators of the given orders: the bases, then for each
    base a column scaled by a random factor (q), the whole block negated,
    its columns permuted (an involution or not) and one entry set to 1 (a
    homomorphism or not, and b kept or not), and random signed
    permutations."""
    size = len(orders)
    blocks = list(bases)
    for block in bases:
        b = rng.randrange(size)
        scale = rng.randrange(2, max(orders) + 1)
        blocks.append([[v * scale if c == b else v
                        for c, v in enumerate(row)] for row in block])
        blocks.append([[-v for v in row] for row in block])
        perm = rng.sample(range(size), size)
        blocks.append([[row[perm[c]] for c in range(size)] for row in block])
        a, b = rng.randrange(size), rng.randrange(size)
        blocks.append([[1 if (x, c) == (a, b) else v
                        for c, v in enumerate(row)]
                       for x, row in enumerate(block)])
    for _ in range(len(bases) + 2):
        perm = rng.sample(range(size), size)
        blocks.append([[rng.choice((1, -1)) if perm[c] == x else 0
                        for c in range(size)] for x in range(size)])
    return blocks


def _placed(r, parts):
    """The r x r matrix that is the identity except on the given parts
    (dst, src, block): block maps the generators from src onto those from
    dst."""
    whole = [[int(i == j) for j in range(r)] for i in range(r)]
    for dst, src, block in parts:
        for i in range(len(block)):
            whole[dst + i][dst + i] = 0
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                whole[dst + i][src + j] = v
    return whole


def _inverse_by_search(block, orders):
    """The C with block*C = I on generators of these orders, row a of
    both read mod orders[a], found by trying every such C; or None."""
    k = len(orders)
    for entries in product(*(range(o) for o in orders for _ in range(k))):
        c = [list(entries[i * k:(i + 1) * k]) for i in range(k)]
        if all(sum(x * c[t][j] for t, x in enumerate(row)) % o == (i == j)
               for i, (o, row) in enumerate(zip(orders, block))
               for j in range(k)):
            return c
    return None


def test_local_slot_check_equals_the_whole_matrix_check():
    # Every diagram automorphism of every component (the D4 3-cycles are
    # isometries but no involutions), the signs on h, and their mutations:
    # _checked_blocks checks each on the component's slice of pf.form.
    # Alone, a block is refused with the exception and message
    # that checked_involution gives on the whole matrix placing the block
    # on its component and the identity elsewhere, and accepted, as its
    # own inverse, exactly when that matrix is accepted.  Passed with its
    # inverse (found test-side, when there is one), it is refused with
    # the same exception as alone unless it is an isometry, and then
    # returned beside that inverse; on a class of equal components, the
    # whole matrix placing the block and its inverse on a swapped pair
    # is refused or accepted as the pair of blocks is.
    rng = random.Random(5150)
    seen = set()
    forms = FILTER_FORMS + [(s, 4) for s in INTERLEAVED] + [
        ("2*A5", 4), ("A11+A1", 2), ("2*D5+A3", 8)]
    for spec, h2 in forms:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        form, r = pf.form, pf.form.rank
        classes = {}
        for comp, cut in zip(pf.spec.components, pf.comp_slices):
            classes.setdefault(comp, []).append(cut)
        items = [(cuts, _component_swap_isos(*comp, cuts[0][1] - cuts[0][0]))
                 for comp, cuts in classes.items() if cuts[0][1] > cuts[0][0]]
        items.append(([(r - 1, r)], [[[1]], [[-1]]]))
        for cuts, bases in items:
            lo, hi = cuts[0]
            orders = form.orders[lo:hi]
            for block in _mutated_blocks(rng, orders, bases):
                got = _outcome(lattices._checked_blocks, form, lo, hi, [block])
                fixed = _outcome(checked_involution, form,
                                 _placed(r, [(lo, lo, block)]))
                seen.update((got, fixed))
                assert got == fixed, (spec, h2, lo, block)
                reduced = [[v % o for v in row]
                           for row, o in zip(block, orders)]
                if got is None:
                    [(kept, inv)] = lattices._checked_blocks(
                        form, lo, hi, [block])
                    assert kept == reduced and inv is kept, (spec, block)
                inv = _inverse_by_search(reduced, orders)
                if inv is None:
                    continue
                paired = _outcome(lattices._checked_blocks, form, lo, hi,
                                  [block, inv])
                if paired is None:
                    (kept, kept_inv), *_ = lattices._checked_blocks(
                        form, lo, hi, [block, inv])
                    assert (kept, kept_inv) == (reduced, inv), (spec, block)
                    assert (kept_inv is kept) == (got is None), (spec, block)
                else:
                    assert paired == got, (spec, h2, lo, block)
                if len(cuts) < 2:
                    continue
                (src, _), (dst, _) = cuts[:2]
                pair = _outcome(checked_involution, form, _placed(
                    r, [(dst, src, block), (src, dst, inv)]))
                assert pair == paired, (spec, h2, src, dst, block)
    assert seen == {None,
                    ("ValueError", "matrix does not define a homomorphism"),
                    ("ValueError", "map does not preserve q"),
                    ("ValueError", "map does not preserve b"),
                    ("AssertionError", lattices._NOT_AN_INVOLUTION)}


@pytest.mark.parametrize("h2", [2, 4])
def test_slice_check_equals_the_component_form_check(h2):
    # _check_isometry on a component's slice of pf.form, at pf's scale,
    # accepts and refuses each block as it does on the block reduced mod
    # the component's own form, with the same message: every component of
    # rank <= 19, alone and behind an A1 (a slice that starts past 0),
    # on each of its diagram automorphisms, and on x -> 2x on A8 and a
    # D4 3-cycle with one entry changed, whose two columns are then equal.
    mutated = {("A", 8): [[[2]]], ("D", 4): [[[1, 1], [0, 0]]]}
    seen = set()
    for fam, n in ADE_COMPONENTS:
        comp = disc_root(fam, n)
        if comp.rank == 0:
            continue
        blocks = _component_swap_isos(fam, n, comp.rank) + \
            mutated.get((fam, n), [])
        for spec in [f"{fam}{n}"] + ([f"A1+{fam}{n}"] if n < 19 else []):
            pf = polarized_disc(RootSpec.parse(spec), h2)
            lo, hi = pf.comp_slices[-1]
            assert pf.form.orders[lo:hi] == comp.orders, spec
            for block in blocks:
                got = _outcome(lattices._check_isometry, pf.form, block, lo)
                reduced = [[v % o for v in row]
                           for row, o in zip(block, comp.orders)]
                want = _outcome(lattices._check_isometry, comp, reduced)
                seen.add(got)
                assert got == want, (spec, h2, block)
    assert seen == {None, ("ValueError", "map does not preserve q"),
                    ("ValueError", "map does not preserve b")}


def test_slot_table_at_census_size_builds_no_whole_matrix(monkeypatch):
    # The census walks every rank-18 spec, 18*A1 among them: its symmetry
    # table checks 3 distinct blocks, each once on its component's slice
    # of rank 1 (the A1 block, +1 = -1 mod 2, and the two h signs), not
    # 18 + 153 + 2 options on the rank-19 form.  It checks no whole
    # matrix at all: every _check_isometry call is on a rank-1 block, and
    # checked_involution is never called.  Counted, not timed.
    built, checked = [], []
    real_involution = lattices.checked_involution
    real_check = lattices._check_isometry

    def counting_involution(form, matrix):
        built.append(form.rank)
        return real_involution(form, matrix)

    def counting_check(form, matrix, lo=0):
        checked.append((len(matrix), tuple(map(tuple, matrix))))
        real_check(form, matrix, lo)

    monkeypatch.setattr(lattices, "checked_involution", counting_involution)
    monkeypatch.setattr(lattices, "_check_isometry", counting_check)
    table = _symmetry_table(polarized_disc(RootSpec.parse("18*A1"), 4))
    assert built == []
    assert checked == [(1, ((1,),)), (1, ((1,),)), (1, ((3,),))]
    assert sum(len(options) for _, _, choices, _ in table
               for options in choices.values()) == 18 + 153 + 2


def test_decision_checks_run_under_optimize():
    # python -O strips assert statements; the inverse check on the blocks
    # of the symmetry group and the size check in subquotient must still
    # raise.  A D4 3-cycle is no involution, so only its inverse completes
    # it to a swap; with the last block of D4's list, one 3-cycle's
    # inverse, dropped, the slot check refuses the other.  The
    # kernel <(2, 0)> of u_block(2) has order 2, so its 2-part is swept;
    # a sweep that returns one piece too many must fail the size check.
    script = textwrap.dedent("""
        from realstrata import _intmat, isotropy, lattices
        from realstrata.fqf import u_block
        print("debug:", __debug__)
        real = lattices._component_swap_isos
        lattices._component_swap_isos = lambda *comp: real(*comp)[:-1]
        pf = lattices.polarized_disc(lattices.RootSpec.parse("D4"), 4)
        try:
            lattices.disc_involutions(pf)
        except AssertionError as exc:
            print("involutions:", exc)
        engine = _intmat.smith_mod_prime_power
        def one_too_many(a, p, k):
            d, w = engine(a, p, k)
            return d + [p], w + w[-1:]
        _intmat.smith_mod_prime_power = one_too_many
        try:
            isotropy.subquotient(u_block(2), (2, 0))
        except AssertionError as exc:
            print("subquotient:", exc)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug: False",
        "involutions: a symmetry-induced map is not an involution",
        "subquotient: subquotient size mismatch"]


def test_slot_checks_run_under_optimize():
    # Every generated involution is a product of slot maps, placed from
    # blocks of the symmetry table, each checked once; a bad block must
    # raise from detect and from disc_involutions, also when python -O
    # strips asserts.  detect builds the table before its walk, so it
    # raises though its witness (the identity on 2*A4) uses no bad block.
    # Neither x -> 2x nor the zero block keeps q on A4; a D4 3-cycle whose
    # inverse is dropped from D4's list cannot complete a swap of 2*D4 to
    # an involution.
    script = textwrap.dedent("""
        from realstrata import detector, lattices
        print("debug:", __debug__)

        def options(*scales):
            return lambda fam, n, k: [
                [[m if i == j else 0 for j in range(k)] for i in range(k)]
                for m in scales]

        def run(label, spec):
            calls = (
                ("disc_involutions", lambda: lattices.disc_involutions(
                    lattices.polarized_disc(
                        lattices.RootSpec.parse(spec), 4))),
                ("detect", lambda: detector.detect(4, spec)))
            for name, call in calls:
                try:
                    call()
                    print(label, name, "no error")
                except (ValueError, AssertionError) as exc:
                    print(label, name, type(exc).__name__, exc)

        real = lattices._component_swap_isos
        lattices._component_swap_isos = options(1, 2)
        run("scaled", "2*A4")
        lattices._component_swap_isos = options(1, 0)
        run("singular", "2*A4")
        lattices._component_swap_isos = lambda *comp: real(*comp)[:-1]
        run("no-inverse", "2*D4")
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    not_q = "ValueError map does not preserve q"
    not_involution = ("AssertionError a symmetry-induced map is not an "
                      "involution")
    assert proc.stdout.splitlines() == [
        "debug: False",
        f"scaled disc_involutions {not_q}",
        f"scaled detect {not_q}",
        f"singular disc_involutions {not_q}",
        f"singular detect {not_q}",
        f"no-inverse disc_involutions {not_involution}",
        f"no-inverse detect {not_involution}"]


def test_a_form_that_is_no_orthogonal_sum_is_refused_under_optimize():
    # Each block is checked on its component's own form, which is sound
    # only when pf.form is the orthogonal sum of its component slices and
    # h, with equal forms on equal components.  Two hand-built 2*A3 @ 4
    # forms break that: one pairs the two A3 generators to 1/2, the other
    # negates q on the second A3.  _symmetry_table and detect must refuse
    # both, also when python -O strips asserts.
    script = textwrap.dedent("""
        from fractions import Fraction
        from realstrata import detector, lattices
        from realstrata.fqf import FiniteQuadraticForm
        print("debug:", __debug__)
        good = lattices.polarized_disc(lattices.RootSpec.parse("2*A3"), 4)
        q = good.form.q
        forms = (
            ("paired", FiniteQuadraticForm(good.form.orders, q,
                                           {(0, 1): Fraction(1, 2)})),
            ("unequal", FiniteQuadraticForm(good.form.orders,
                                            [q[0], -q[1], q[2]])))
        for label, form in forms:
            def hand_built(spec, h2):
                return lattices.PolarizedForm(good.spec, h2, form,
                                              list(good.tags),
                                              list(good.comp_slices))
            detector.polarized_disc = hand_built
            calls = (
                ("table", lambda: lattices._symmetry_table(
                    hand_built(None, 4))),
                ("detect", lambda: detector.detect(4, "2*A3")))
            for name, call in calls:
                try:
                    call()
                    print(label, name, "no error")
                except ValueError as exc:
                    print(label, name, exc)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    not_a_sum = ("the polarized form is not the orthogonal sum of its "
                 "components and h")
    unequal = "equal components have different forms"
    assert proc.stdout.splitlines() == [
        "debug: False",
        f"paired table {not_a_sum}",
        f"paired detect {not_a_sum}",
        f"unequal table {unequal}",
        f"unequal detect {unequal}"]


# -------------------------------------------------------------- binary_autos


def _matmul2(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def test_binary_autos_orders():
    assert len(binary_autos([[2, 0], [0, 2]])) == 8
    assert len(binary_autos([[2, 1], [1, 2]])) == 12
    # Unreduced Grams of those lattices: the box their entries as given
    # would span is far larger than the group.
    assert len(binary_autos([[10, 4], [4, 2]])) == 8
    assert len(binary_autos([[2, 1001], [1001, 501002]])) == 12
    # Reduced, but a norm-d vector's x ranges up to sqrt(d/a).
    assert len(binary_autos([[2, 0], [0, 2 * 10 ** 30]])) == 4
    autos = binary_autos([[2, 0], [0, 6]])
    assert len(autos) == 4
    mats = {tuple(tuple(r) for r in m) for m in autos}
    assert mats == {((1, 0), (0, 1)), ((-1, 0), (0, -1)),
                    ((1, 0), (0, -1)), ((-1, 0), (0, 1))}


def test_binary_autos_group_closure_and_reflections():
    for gram in ([[2, 0], [0, 2]], [[2, 1], [1, 2]], [[2, 0], [0, 6]],
                 [[4, 1], [1, 4]], [[2, 11], [11, 62]], [[6, -3], [-3, 6]],
                 [[4, 1000], [1000, 250006]]):
        autos = binary_autos(gram)
        assert autos == sorted(autos)
        mats = {tuple(tuple(r) for r in m) for m in autos}
        assert ((1, 0), (0, 1)) in mats
        assert ((-1, 0), (0, -1)) in mats
        for a in mats:
            assert _matmul2(_matmul2(tuple(zip(*a)), gram), a) == \
                tuple(map(tuple, gram)), "isometry"
            for b in mats:
                assert _matmul2(a, b) in mats, "closure"
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            assert det in (1, -1)
            if det == -1 and _matmul2(a, a) == ((1, 0), (0, 1)):
                assert a[0][0] + a[1][1] == 0, \
                    "rank-2 skew involutions are reflections (trace 0)"


def test_binary_autos_rejects_indefinite():
    with pytest.raises(ValueError):
        binary_autos([[2, 3], [3, 2]])
    with pytest.raises(ValueError):
        binary_autos([[-2, 0], [0, 2]])


# -------------------------------------------------------- maximizing_has_skew


def test_maximizing_has_skew_accepts_matching_pair():
    pf = polarized_disc(RootSpec.parse("A3"), 2)
    assert maximizing_has_skew(((2, 0), (0, 4)), pf) is True


def test_maximizing_has_skew_rejects_mismatched_disc():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    with pytest.raises(ValueError):
        maximizing_has_skew(((2, 0), (0, 4)), pf)


def test_a_large_disc_is_refused_without_a_scan():
    # |disc| = 4096 passes the size check; disc T = Z/2 x Z/2048 has an
    # element of order 2048, the polarized form none, so the listing of
    # the second generator's images is empty at once.
    pf = polarized_disc(RootSpec.parse("9*A1+D10"), 2)
    assert pf.form.order == 4096
    start = time.monotonic()
    with pytest.raises(ValueError, match="not anti-isometric"):
        maximizing_has_skew(((2, 0), (0, 2048)), pf)
    assert time.monotonic() - start < 2


# Rank-19 polarized forms of |disc| <= 300: 24 with an anti-isometric T,
# 12 without.
RANK19 = [("2*D6+E6+A1", 2), ("2*E8+A2+A1", 2), ("A10+A9", 2),
          ("A10+E6+A3", 2), ("A10+E7+2*A1", 2), ("A10+E8+A1", 2),
          ("A12+A7", 2), ("A12+E7", 2), ("A13+E6", 2), ("A14+D5", 2),
          ("A16+A3", 2), ("A18+A1", 4), ("A7+2*E6", 2), ("A8+D7+D4", 2),
          ("A8+E8+A2+A1", 2), ("A9+E8+A2", 2), ("D10+D7+A2", 4),
          ("D11+A8", 2), ("D11+D8", 2), ("D13+3*A2", 2), ("D13+A4+A2", 2),
          ("D13+E6", 4), ("D15+A3+A1", 4), ("D17+A2", 2), ("D7+A6+E6", 2),
          ("D7+E7+D5", 4), ("D9+2*D5", 4), ("D9+E6+A4", 4), ("E7+2*E6", 2),
          ("E7+2*E6", 4), ("E7+E6+A4+A2", 2), ("E8+A5+2*A3", 2),
          ("E8+A6+A3+A2", 2), ("E8+A6+A5", 2), ("E8+A7+2*A2", 2),
          ("E8+D6+A3+2*A1", 2)]


def _reduced_tgrams(det):
    """Every reduced even positive definite Gram (a, b, d) of determinant
    det: |2b| <= a <= d, with a and d even."""
    out = []
    for a in range(2, det + 1, 2):
        if 3 * a * a > 4 * det:
            break
        for b in range(-(a // 2), a // 2 + 1):
            d, rem = divmod(det + b * b, a)
            if not rem and d % 2 == 0 and d >= a:
                out.append(((a, b), (b, d)))
    return out


def _ade_sums(rank, start=0):
    """Every multiset of ADE_COMPONENTS of the given total rank, as a list
    of components in ADE_COMPONENTS order."""
    if rank == 0:
        yield []
        return
    for i in range(start, len(ADE_COMPONENTS)):
        fam, n = ADE_COMPONENTS[i]
        if n <= rank:
            for rest in _ade_sums(rank - n, i):
                yield [(fam, n)] + rest


def _rank19_answers(h2s, cap):
    """(spec, h2, a, b, d, answer) for every rank-19 spec, in canonical
    spelling, at each h2 with |disc| <= cap, and every reduced T of that
    determinant: answer is maximizing_has_skew's bool, or the message of
    the ValueError it raises."""
    specs = sorted(RootSpec.parse("+".join(f"{fam}{n}" for fam, n in comps))
                   .canonical_text() for comps in _ade_sums(19))
    rows = []
    for spec in specs:
        for h2 in h2s:
            pf = polarized_disc(RootSpec.parse(spec), h2)
            if pf.form.order > cap:
                continue
            for tgram in _reduced_tgrams(pf.form.order):
                try:
                    answer = str(maximizing_has_skew(tgram, pf))
                except ValueError as exc:
                    answer = str(exc)
                (a, b), (_, d) = tgram
                rows.append((spec, h2, a, b, d, answer))
    return sorted(rows)


# The rows of _rank19_answers((2, 4), 400), as the dispatch answered them
# when it built disc T by a Smith form over Z and searched anti-isometries
# generator by generator: their sha256, one tab-separated row per line.
RANK19_ANSWERS_SHA256 = (
    "24fac22acd849754e87e42174fe9fe54c58760aee846a32ae970ebbde04ae17b")


def test_the_rank_19_answers_are_pinned():
    rows = _rank19_answers((2, 4), 400)
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    assert counts == {"True": 78, "False": 64,
                      "discriminant of T is not anti-isometric to the "
                      "polarized discriminant": 6926}
    text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == RANK19_ANSWERS_SHA256


def _scanned_anti_isometries(src, dst):
    """_anti_isometries as it was before the listing: at every node, scan
    every element of dst for the images of the next generator."""
    dst_elems = sorted(dst.iter_elements())
    results = []
    s_n, d_n = src.N, dst.N

    def extend(images):
        i = len(images)
        if i == src.rank:
            if dst.subgroup(images).order == dst.order:
                results.append(list(images))
            return
        for y in dst_elems:
            if (dst.smul(src.orders[i], y) == dst.zero()
                    and (dst.eval_qn(y) * s_n + src.Qn[i] * d_n)
                    % (2 * s_n * d_n) == 0
                    and all((dst.eval_bn(y, images[t]) * s_n
                             + src.Bn[i][t] * d_n) % (s_n * d_n) == 0
                            for t in range(i))):
                extend(images + [y])

    extend([])
    return results


def _dual_basis_images(gd, psi, dst):
    """The images (psi(t_1*), psi(t_2*)) of T's dual basis under an
    anti-isometry psi of gd.form = disc_of_gram(T).form onto dst, given as
    the images of gd.form's generators.  In dual coordinates t_i* =
    G^-1 e_i is e_i itself."""
    images = []
    for i in range(2):
        image = dst.zero()
        for c, img in zip(gd.to_coords([int(j == i) for j in range(2)]), psi):
            image = dst.add(image, dst.smul(c, img))
        images.append(image)
    return tuple(images)


def test_anti_isometries_equal_the_full_scan_on_rank_19_forms():
    # Each anti-isometry the full scan finds on the Smith form of disc T,
    # read as the images of T's dual basis, is one pair of the listing,
    # and the listing holds no other.
    found = 0
    for spec, h2 in RANK19:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        for tgram in _reduced_tgrams(pf.form.order):
            gd = disc_of_gram(tgram)
            got = _anti_isometries(tgram, pf.form)
            assert len(set(got)) == len(got), (spec, h2, tgram)
            assert set(got) == {
                _dual_basis_images(gd, psi, pf.form)
                for psi in _scanned_anti_isometries(gd.form, pf.form)}, \
                (spec, h2, tgram)
            found += bool(got)
    assert found == 35


def _reference_has_skew(tgram, pf):
    """maximizing_has_skew as it was before the pair filter, on the Smith
    form of disc T: conjugate each reflection of T through each
    anti-isometry psi of the full scan into a matrix on the polarized
    discriminant, and look it up in the full involution list.  A
    reflection M is its own inverse, so it acts on dual coordinates by
    M^-T = M^T."""
    gd = disc_of_gram([list(row) for row in tgram])
    disc_t, disc_s = gd.form, pf.form
    invol_set = set(disc_involutions(pf))
    for refl in binary_autos(tgram):
        if refl[0][0] * refl[1][1] - refl[0][1] * refl[1][0] != -1:
            continue
        cols = [gd.to_coords([refl[0][i] * w[0] + refl[1][i] * w[1]
                              for i in range(2)]) for w in gd.gen_duals]
        rho = [list(row) for row in zip(*cols)]
        for psi in _scanned_anti_isometries(disc_t, disc_s):
            sigma = _conjugate(disc_t, disc_s, psi, rho)
            if sigma is not None and sigma in invol_set:
                return True
    return False


def _conjugate(disc_t, disc_s, psi, rho):
    """The matrix of psi rho psi^-1 on the disc_s generators."""
    r_s, r_t = disc_s.rank, disc_t.rank

    def psi_apply(tvec):
        out = disc_s.zero()
        for c, img in zip(tvec, psi):
            if c:
                out = disc_s.add(out, disc_s.smul(c, img))
        return out

    cols = []
    for kgen in range(r_s):
        target = [1 if i == kgen else 0 for i in range(r_s)]
        coeff = solve_mod_orders([list(img) for img in psi],
                                 list(disc_s.orders), target)
        if coeff is None:
            return None
        image = disc_s.zero()
        for i, c in enumerate(coeff):
            if c % disc_t.orders[i]:
                rho_gi = tuple(rho[t][i] % disc_t.orders[t]
                               for t in range(r_t))
                image = disc_s.add(image, disc_s.smul(c, psi_apply(rho_gi)))
        cols.append(image)
    return tuple(tuple(cols[j][i] for j in range(r_s)) for i in range(r_s))


def test_maximizing_has_skew_matches_conjugating_into_the_full_list():
    cases = [("A10+D9", 2, (4, 0, 22), True), ("A1+A2", 4, (4, 0, 6), True),
             ("A3", 2, (2, 0, 4), True), ("A11+E8", 2, (4, 0, 6), False),
             ("A4+E7", 2, (4, 2, 6), False), ("D5+E6", 8, (8, 0, 12), False),
             ("A6+D5", 2, (6, 2, 10), False)]
    for spec, h2, (a, b, d), expected in cases:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        tgram = ((a, b), (b, d))
        assert _reference_has_skew(tgram, pf) is expected, spec
        assert maximizing_has_skew(tgram, pf) is expected, spec


def test_involution_cap_spares_the_filtered_queries(monkeypatch):
    # The cap guards the full list only: detect takes the first matching
    # and never reads it, so the reports are the same at a cap of 0.
    def report(h2, spec):
        out = detect(h2, spec).to_json_dict()
        del out["wall_time_ms"], out["generated_at"]
        return out

    plain = {key: report(*key) for key in ((4, "10*A1"), (16, "8*A1"))}
    monkeypatch.setattr("realstrata.lattices._INVOLUTION_CAP", 0)
    for key, want in plain.items():
        assert report(*key) == want, key
