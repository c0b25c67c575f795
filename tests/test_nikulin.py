"""Per-prime determinant square classes and the genus-level existence test
for primitive embeddings into the even unimodular lattice of signature
(3, 19)."""
from fractions import Fraction

import pytest

from realstrata._intmat import det
from realstrata.detector import (KernelCandidate, check_candidate,
                                 kernel_candidates)
from realstrata.fqf import (cyclic_form, direct_sum_all, trivial_form,
                            u_block, v_block)
from realstrata.isotropy import subquotient
from realstrata.lattices import RootSpec, polarized_disc
from realstrata.nikulin import (SquareClass, ambient_with_a_block, det_p,
                                embedding_clauses, embeds_into_big_L,
                                legendre, theta_vector, unit_square_class)

from _corpus import corpus

# ----------------------------------------------------------- square classes


def test_legendre_basics():
    assert legendre(1, 7) == 1
    assert legendre(2, 7) == 1       # residues mod 7 are {1, 2, 4}
    assert legendre(3, 7) == -1
    assert legendre(2, 3) == -1
    assert legendre(8, 7) == 1
    with pytest.raises(ValueError):
        legendre(14, 7)


def test_square_class_comparison_and_coarsening():
    assert SquareClass(3, 1, 1).same_class(SquareClass(3, 1, 1))
    assert not SquareClass(3, 1, 1).same_class(SquareClass(3, 1, -1))
    assert not SquareClass(3, 1, 1).same_class(SquareClass(3, 2, 1))
    assert not SquareClass(3, 1, 1).same_class(SquareClass(5, 1, 1))
    # even 2-adic grading distinguishes all of {1,3,5,7} mod 8
    assert not SquareClass(2, 0, 1).same_class(SquareClass(2, 0, 5))
    # odd grading collapses {1,5} and {3,7}
    a, b = SquareClass(2, 1, 3, False), SquareClass(2, 1, 7, False)
    assert a.same_class(b)
    assert not a.same_class(SquareClass(2, 1, 5, False))


def test_square_class_negation():
    assert SquareClass(2, 0, 1).scaled_by_unit(-1).unit == 7
    # -1 is a square mod p iff p = 1 mod 4
    assert SquareClass(5, 0, 1).scaled_by_unit(-1).unit == 1
    assert SquareClass(3, 0, 1).scaled_by_unit(-1).unit == -1


def test_unit_square_class_rejects_non_units():
    with pytest.raises(ValueError):
        unit_square_class(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        unit_square_class(3, 3)


# -------------------------------------------------------------------- det_p


def test_det_p_anchors():
    sc = det_p(cyclic_form(-1, 2), 2)          # [-1/2]
    assert (sc.valuation, sc.unit, sc.even) == (1, 3, False)
    sc = det_p(u_block(1), 2)                  # U(2), det -1/4
    assert (sc.valuation, sc.unit, sc.even) == (2, 7, True)
    sc = det_p(cyclic_form(1, 4), 2)           # [1/4]
    assert (sc.valuation, sc.unit, sc.even) == (2, 1, True)
    sc = det_p(cyclic_form(2, 3), 3)           # [2/3]: 2 is a non-residue
    assert (sc.valuation, sc.unit) == (1, -1)
    sc = det_p(cyclic_form(-6, 7), 7)          # unit -6 = 1 mod 7, a residue
    assert (sc.valuation, sc.unit) == (1, 1)
    for p in (2, 3, 7):
        sc = det_p(trivial_form(), p)
        assert (sc.valuation, sc.unit, sc.even) == (0, 1, True)


def test_det_p_multiplicativity():
    a = cyclic_form(-1, 2)
    b = cyclic_form(1, 4)
    ab = det_p(a.direct_sum(b), 2)
    assert ab.valuation == det_p(a, 2).valuation + det_p(b, 2).valuation
    assert ab.unit == (det_p(a, 2).unit * det_p(b, 2).unit) % 8
    assert ab.even is False    # odd (+) even is odd

    a3, b3 = cyclic_form(-2, 3), cyclic_form(2, 3)
    ab3 = det_p(a3.direct_sum(b3), 3)
    assert ab3.valuation == 2
    assert ab3.unit == det_p(a3, 3).unit * det_p(b3, 3).unit


def test_det_p_cyclic_reproduces_numerator_class():
    # for [m/p^k] the unit of det_p is the class of m itself
    for m, pk, p in ((-6, 7, 7), (2, 3, 3), (-2, 3, 3), (4, 5, 5)):
        sc = det_p(cyclic_form(m, pk), p)
        assert sc.unit == legendre(m % p, p)
    for m, pk in ((1, 4), (3, 4), (-7, 8), (1, 8)):
        sc = det_p(cyclic_form(m, pk), 2)
        assert sc.same_class(
            SquareClass(2, sc.valuation, m % 8, sc.even))
    # odd grading comparison for the order-2 blocks
    for m in (1, -1):
        sc = det_p(cyclic_form(m, 2), 2)
        assert sc.even is False
        assert sc.same_class(SquareClass(2, 1, m % 8, False))


def _det_p_from_p_part(form, p):
    """The class read from the standalone p-part form's integer Gram at its
    own scale N_p: unit = det * |F_p| / N_p^ell."""
    fp, _ = form.p_part(p)
    ell = fp.rank
    gram = [[fp.Qn[i] if i == j else fp.Bn[i][j] for j in range(ell)]
            for i in range(ell)]
    unit = Fraction(det(gram) * fp.order, fp.N ** ell)
    even = fp.is_even_2part() if p == 2 else True
    val, n = 0, fp.order
    while n % p == 0:
        n //= p
        val += 1
    return SquareClass(p, val, unit_square_class(unit, p, even).unit, even)


def test_det_p_matches_p_part_gram():
    # The corpus forms have prime-power generator orders; the composite
    # cyclic forms make the p-part generators proper multiples of e_i.
    composite = [cyclic_form(1, 6), cyclic_form(5, 12), cyclic_form(2, 15),
                 cyclic_form(4, 45), cyclic_form(7, 24).direct_sum(u_block(1))]
    forms = [item.form for item in corpus()] + composite
    for form in forms:
        for p in form.primes():
            assert det_p(form, p) == _det_p_from_p_part(form, p), (form, p)


# ------------------------------------------------------- embedding criterion


def test_embeds_small_profile():
    form = cyclic_form(-1, 2).direct_sum(cyclic_form(1, 4))
    ok, reason = embeds_into_big_L(1, 1, form)
    assert ok and reason is None
    clauses = embedding_clauses(1, 1, form)
    assert all(clauses.values())


def test_embeds_clause1_signature_bounds():
    assert embeds_into_big_L(4, 0, trivial_form()) == (False, "clause1")
    assert embeds_into_big_L(0, 20, trivial_form()) == (False, "clause1")


def test_embeds_clause1_length_bound():
    # at rank 20 the length threshold is 2
    form = u_block(1).direct_sum(u_block(1))          # l_2 = 4
    assert embeds_into_big_L(2, 18, form) == (False, "clause1")
    form = direct_sum_all([cyclic_form(-1, 2), cyclic_form(1, 2),
                           cyclic_form(1, 4)])        # l = 3
    assert embeds_into_big_L(2, 18, form) == (False, "clause1")


def test_embeds_clause2_odd_prime_determinant():
    # rank 20, l_3 = 2 = threshold: need |S| det_3 = (-1)^{sigma_+ - 1} = -1
    bad = cyclic_form(2, 3).direct_sum(cyclic_form(2, 3))   # unit 1
    assert embeds_into_big_L(2, 18, bad) == (False, "clause2:3")
    good = cyclic_form(2, 3).direct_sum(cyclic_form(-2, 3))  # unit -1
    assert embeds_into_big_L(2, 18, good) == (True, None)


def test_embeds_clause3_two_adic_determinant():
    # rank 20, l_2 = 2 = threshold, even 2-part: need |S| det_2 = +-1 mod 8
    assert embeds_into_big_L(2, 18, u_block(1)) == (True, None)     # unit 7
    assert embeds_into_big_L(2, 18, v_block(1)) == (False, "clause3")  # 3
    # odd 2-part at the threshold: clause vacuous
    odd = cyclic_form(-1, 2).direct_sum(cyclic_form(1, 2))
    assert embeds_into_big_L(2, 18, odd) == (True, None)


def test_embeds_reason_is_first_failing_clause_on_corpus():
    # Reference rule: clause1, then clause2:p by ascending p, then clause3.
    seen = set()
    for item in corpus():
        for sp, sm in ((2, 19), (2, 18), (1, 18), (3, 15)):
            clauses = embedding_clauses(sp, sm, item.form)
            order = (["clause1"]
                     + sorted((k for k in clauses if k.startswith("clause2:")),
                              key=lambda k: int(k.split(":")[1]))
                     + ["clause3"])
            want = next((k for k in order if not clauses[k]), None)
            assert embeds_into_big_L(sp, sm, item.form) == (want is None, want)
            seen.add(want)
    assert {None, "clause1", "clause2:3", "clause3"} <= seen, seen


def test_embeds_below_threshold_vacuous():
    clauses = embedding_clauses(2, 18, cyclic_form(2, 3))  # l_3 = 1 < 2
    assert clauses == {"clause1": True, "clause2:3": True, "clause3": True}


# ---------------------------------------------------- kernel-level existence


def test_ambient_and_theta_shapes():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    big = ambient_with_a_block(pf.form, 8)
    assert big.orders == pf.form.orders + (8,)
    theta = theta_vector(pf.form, (1, 1), 1)
    assert theta == (1, 1, 1)
    assert big.eval_q(theta) == pf.form.eval_q((1, 1)) + Fraction(1, 8)


def _glued_form(pf, cand):
    """K-perp/K for the candidate's kernel inside disc (+) [1/a2]."""
    big = ambient_with_a_block(pf.form, cand.a2)
    theta = theta_vector(pf.form, cand.kappa, cand.n)
    return subquotient(big, theta).form


def test_genus_tilde_trivial_kernel_cases():
    # a2=2, n=2: theta = 0, so K-perp/K is disc (+) [1/2] itself.
    # Rank-18 strata put its length over the threshold 22 - 20 = 2.
    for spec in ("D7+A6+A3+A2", "A7+A6+A3+A2"):
        pf = polarized_disc(RootSpec.parse(spec), 4)
        cand = KernelCandidate(2, 2, (0,) * pf.form.rank)
        assert embeds_into_big_L(2, pf.rank_S, _glued_form(pf, cand)) == \
            (False, "clause1")
        assert check_candidate(pf, cand)[:2] == ("genus_empty", None)
    # the one-node stratum is far below every bound
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    cand = KernelCandidate(2, 2, (0, 0))
    assert embeds_into_big_L(2, pf.rank_S, _glued_form(pf, cand)) == \
        (True, None)
    assert check_candidate(pf, cand)[0] != "genus_empty"


def test_genus_tilde_rejects_all_a4_n2_candidates_on_golden():
    pf = polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    cands = kernel_candidates(pf, 4, 2)
    assert cands
    for kappa in cands:
        assert check_candidate(pf, KernelCandidate(4, 2, kappa))[:2] == (
            "genus_empty", None)
