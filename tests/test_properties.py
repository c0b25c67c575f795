"""Randomized property suite.

A fixed-seed corpus of >= 10^3 finite quadratic forms of order <= 512,
each with a random cyclic isotropic kernel, exercises the determinant and
length relations between a form and its kernel subquotient, plus full
brute-force agreement for the subquotient, involution, and candidate
machinery.  Hypothesis adds free-form block combinations on top.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from realstrata._intmat import hnf_congruence
from realstrata.fqf import (cyclic_form, direct_sum_all, factorint, u_block,
                            v_block)
from realstrata.isotropy import subquotient
from realstrata.nikulin import det_p
from realstrata.oracle import verify_subquotient_presentation

from _corpus import (CORPUS_SIZE, ORDER_CAP, SEED, build_corpus, corpus,
                     det_relation_report, oracle_agreement_report)

# ------------------------------------------------------------ corpus shape


def test_corpus_size_and_bounds():
    items = corpus()
    assert len(items) >= 1000
    for item in items:
        assert 2 <= item.form.order <= ORDER_CAP
        # block construction keeps every generator of prime-power order
        for o in item.form.orders:
            assert len([p for p in (2, 3, 5, 7) if o % p == 0]) == 1


def test_corpus_is_deterministic():
    again = build_corpus(count=25, seed=SEED)
    for fresh, stored in zip(again, corpus()[:25]):
        assert fresh.form == stored.form
        assert fresh.kappa == stored.kappa


def test_corpus_mixes_kernel_shapes():
    items = corpus()
    nonzero = sum(1 for it in items if any(it.kappa))
    with_2part = sum(1 for it in items
                     if any(it.kappa[i] for i in it.two_indices))
    assert nonzero >= CORPUS_SIZE // 2
    assert with_2part >= CORPUS_SIZE // 4
    assert nonzero < len(items)  # zero kernels are represented too


# --------------------------------------------- determinant/length relations


def test_determinant_relations_hold_exactly():
    report = det_relation_report()
    assert report["failures"] == []
    counts = report["counts"]
    assert counts["items"] == len(corpus())
    assert counts["nonzero_kernels"] >= CORPUS_SIZE // 2


def test_relation_branches_are_exercised():
    counts = det_relation_report()["counts"]
    # equal-length comparisons and genuine 2-adic length drops both occur
    assert counts["length_equal"] >= 100
    assert counts["length_drop_2"] >= 100
    assert counts["r1_checked"] >= 50


# ------------------------------------------------------- brute-force checks


def test_subquotients_match_brute_force():
    report = oracle_agreement_report()
    assert report["failures"] == []
    assert report["counts"]["subquotients"] == len(corpus())


def test_candidate_and_involution_agreement():
    report = oracle_agreement_report()
    assert report["failures"] == []
    counts = report["counts"]
    assert counts["strata"] == 15
    assert counts["candidate_pairs"] >= 100


# ---------------------------------------------------------- integer core


class _Rational:
    """q and b from the Fraction values form.q and form.b alone: each value
    is an exact sum over their common denominator L, returned as one
    Fraction (q in [0, 2), b in [0, 1))."""

    def __init__(self, form):
        values = list(form.q) + [v for row in form.b for v in row]
        self.den = math.lcm(*(v.denominator for v in values))
        self.q = [v.numerator * (self.den // v.denominator) for v in form.q]
        self.b = [[v.numerator * (self.den // v.denominator) for v in row]
                  for row in form.b]

    def eval_q(self, x):
        total = 0
        for i, xi in enumerate(x):
            total += xi * xi * self.q[i]
            for j in range(i + 1, len(x)):
                total += 2 * xi * x[j] * self.b[i][j]
        return Fraction(total, self.den) % 2

    def eval_b(self, x, y):
        total = sum(xi * yj * self.b[i][j]
                    for i, xi in enumerate(x) for j, yj in enumerate(y))
        return Fraction(total, self.den) % 1


def _integer_core_failures(form):
    """Every element x, paired with a partner y further down the element
    list: q(x)*N and b(x, y)*N agree with the Fraction definitions, and
    2 b(x, y) = q(x + y) - q(x) - q(y) mod 2 holds at scale N."""
    n = form.N
    rational = _Rational(form)
    elems = list(form.iter_elements())
    out = []
    for k, x in enumerate(elems):
        y = elems[(7 * k + 3) % len(elems)]
        qn, bn = form.eval_qn(x), form.eval_bn(x, y)
        if (qn != rational.eval_q(x) * n
                or bn != rational.eval_b(x, y) * n):
            out.append((form.orders, x, y, "differs from Fraction"))
        if (2 * bn - form.eval_qn(form.add(x, y)) + qn
                + form.eval_qn(y)) % (2 * n):
            out.append((form.orders, x, y, "polarization"))
    return out


def _derived_forms(form, kappa):
    """Returns ([K-perp/K, K-perp/K (+) [1/2]], failures) for K = <kappa>.
    The failures compare the quotient's q and b with the Fraction values on
    its ambient reps, also with each rep shifted by kappa (any member of a
    coset may represent it), and the sum's q and b with those of its
    summands."""
    sq = subquotient(form, kappa)
    quot = sq.form
    rational = _Rational(form)
    bad = []
    for i, rep in enumerate(sq.reps):
        for x in (rep, form.add(rep, kappa)):
            if quot.q[i] != rational.eval_q(x):
                bad.append(("subquotient q", form.orders, kappa, i, x))
            for j, other in enumerate(sq.reps):
                if i != j and quot.b[i][j] != rational.eval_b(x, other):
                    bad.append(("subquotient b", form.orders, kappa, i, j,
                                x))
    half = cyclic_form(1, 2)
    total = quot.direct_sum(half)
    r = quot.rank
    if total.q != quot.q + half.q or any(
            total.b[i][j] != (quot.b[i][j] if i < r and j < r
                              else half.b[0][0] if i == j == r else 0)
            for i in range(r + 1) for j in range(r + 1)):
        bad.append(("direct sum", quot.orders))
    return [quot, total], bad


def test_integer_core_matches_fraction_definition():
    failures = []
    for item in corpus():
        failures += _integer_core_failures(item.form)
        derived, bad = _derived_forms(item.form, item.kappa)
        failures += bad
        for form in derived:
            failures += _integer_core_failures(form)
    assert failures == []


def test_orthogonal_complement_is_the_brute_annihilator():
    # For a random subgroup of every corpus form, generated by 0 to 3
    # random elements, K-perp must be exactly {x : b(x, h) = 0 for every
    # chosen generator h}, read off all elements of the form.
    rng = random.Random(SEED)
    checked = 0
    for idx, item in enumerate(corpus()):
        form = item.form
        elements = list(form.iter_elements())
        gens = rng.sample(elements, min(idx % 4, len(elements)))
        want = {x for x in elements
                if all(form.eval_b(x, h) == 0 for h in gens)}
        perp = form.orthogonal_complement(form.subgroup(gens))
        assert set(perp.elements()) == want, (idx, gens)
        checked += 1
    assert checked == len(corpus())


def _kperp_sweep(form, kappa):
    """K-perp of <kappa> as one congruence s . x = 0 mod m, m the order of
    kappa and s_i = m b(e_i, kappa), taken by _intmat.hnf_congruence, the
    sweep subquotient runs on each prime's congruence."""
    m = form.order_of(kappa)
    s = [v // (form.N // m) for v in form._pairing_row(kappa)]
    return hnf_congruence(s, m)


def test_kperp_sweep_is_the_hermite_basis_of_the_complement():
    # The K-perp of one congruence, by one gcd sweep, against the Hermite
    # form of fqf.orthogonal_complement, zero kernels included.
    zero = 0
    for item in corpus():
        form = item.form
        want = form.orthogonal_complement(form.subgroup([item.kappa]))
        assert _kperp_sweep(form, item.kappa) == want.lattice
        zero += not any(item.kappa)
    assert zero > 0


def test_is_even_2part_matches_the_2_torsion_enumeration():
    # q integral on each (o_i/2)*e_i against q integral on every element
    # of order <= 2, for every corpus form and its kernel subquotient.
    seen = set()
    for item in corpus():
        quot = subquotient(item.form, item.kappa).form
        for form in (item.form, quot):
            torsion = [x for x in form.iter_elements()
                       if not any(form.smul(2, x))]
            want = all(form.eval_q(x).denominator == 1 for x in torsion)
            assert form.is_even_2part() is want, form.display()
            seen.add(want)
    assert seen == {True, False}


# ------------------------------------------------------------- hypothesis

_BLOCK_MENU = (
    [u_block(k) for k in (1, 2, 3)]
    + [v_block(k) for k in (1, 2)]
    + [cyclic_form(m, n) for n in (2, 4, 8, 16)
       for m in range(1, 2 * n, 2)][:20]
    + [cyclic_form(m, n) for n in (3, 9, 5, 7)
       for m in range(2, 2 * n, 2) if math.gcd(m, n) == 1][:20]
)


@st.composite
def _form_with_kernel(draw):
    blocks = draw(st.lists(st.sampled_from(_BLOCK_MENU),
                           min_size=1, max_size=3))
    kept, total = [], 1
    for blk in blocks:
        if total * blk.order <= ORDER_CAP:
            kept.append(blk)
            total *= blk.order
    form = direct_sum_all(kept)
    iso = [x for x in form.iter_elements() if form.eval_q(x) == 0]
    kappa = draw(st.sampled_from(iso))  # includes the zero element
    return form, kappa


@settings(max_examples=60, deadline=None)
@given(_form_with_kernel())
def test_subquotient_size_and_valuations(data):
    form, kappa = data
    kernel = form.subgroup([kappa])
    sub = subquotient(form, kappa).form
    assert sub.order * kernel.order ** 2 == form.order
    for p in form.primes():
        df, ds = det_p(form, p), det_p(sub, p)
        vk = 0
        k = kernel.order
        while k % p == 0:
            k //= p
            vk += 1
        assert ds.valuation == df.valuation - 2 * vk
        assert sub.length_p(p) <= form.length_p(p)
        if p == 2:
            # a cyclic kernel drops the 2-adic length by 0 or exactly 2;
            # odd-p lengths may drop by 1 (kernel <3g> in [2a/9])
            assert form.length_p(2) - sub.length_p(2) in (0, 2)


@settings(max_examples=60, deadline=None)
@given(_form_with_kernel())
def test_equal_length_preserves_det_unit(data):
    form, kappa = data
    kernel = form.subgroup([kappa])
    sub = subquotient(form, kappa).form
    for p in form.primes():
        if sub.length_p(p) != form.length_p(p):
            continue
        df, ds = det_p(form, p), det_p(sub, p)
        assert ds.unit == df.unit or p == 2
        if p == 2:
            # graded comparison: units agree mod 8, or mod {1,5} when some
            # side is odd
            if df.even and ds.even:
                assert ds.unit == df.unit
            else:
                assert (ds.unit % 8 in (1, 5)) == (df.unit % 8 in (1, 5))


@settings(max_examples=60, deadline=None)
@given(_form_with_kernel())
def test_subquotient_presents_prime_power_pieces(data):
    # K-perp/K is presented one prime at a time, so every generator order
    # is a prime power (an invariant-factor chain would merge Z/2 + Z/3
    # into Z/6); the oracle proves the presentation by one walk of K-perp.
    form, kappa = data
    sq = subquotient(form, kappa)
    assert all(len(factorint(o)) == 1 for o in sq.form.orders)
    verify_subquotient_presentation(form, [kappa], sq)


@settings(max_examples=60, deadline=None)
@given(_form_with_kernel())
def test_kperp_sweep_on_block_combinations(data):
    form, kappa = data
    want = form.orthogonal_complement(form.subgroup([kappa]))
    assert _kperp_sweep(form, kappa) == want.lattice


@settings(max_examples=60, deadline=None)
@given(_form_with_kernel())
def test_integer_core_on_block_combinations(data):
    form, kappa = data
    failures = _integer_core_failures(form)
    derived, bad = _derived_forms(form, kappa)
    failures += bad
    for sub in derived:
        failures += _integer_core_failures(sub)
    assert failures == []
