"""Brute-force cross-checks: exhaustive automorphism groups, coset-built
subquotients, exact Gauss-sum signatures, and witness revalidation."""
import ast
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from realstrata import detector, isotropy, lattices, oracle
from realstrata.detector import (KernelCandidate, check_candidate, detect,
                                 kernel_candidates)
from realstrata.fqf import (FiniteQuadraticForm, cyclic_form,
                            direct_sum_all, trivial_form, u_block, v_block)
from realstrata.isotropy import subquotient
from realstrata.lattices import (DiscAutomorphism, RootSpec, disc_involutions,
                                 disc_root, polarized_disc)
from realstrata.nikulin import ambient_with_a_block, theta_vector
from realstrata.oracle import (ORACLE_CUTOFF, OracleMismatch,
                               OracleSizeError, brute_aut_group,
                               brute_involutions, brute_kernel_candidates,
                               brute_subquotient, gauss_sum_signature,
                               revalidate_witness,
                               verify_subquotient_presentation)

from _corpus import corpus

# ------------------------------------------------------------- Gauss sums


GAUSS_ANCHORS = [
    (cyclic_form(1, 2), 1),
    (cyclic_form(-1, 2), 7),
    (cyclic_form(1, 4), 1),
    (cyclic_form(3, 4), 3),
    (cyclic_form(-7, 8), 1),
    (cyclic_form(2, 3), 2),
    (cyclic_form(-2, 3), 6),
    (u_block(1), 0),
    (v_block(1), 4),
    (trivial_form(), 0),
]


def test_gauss_sum_anchors():
    for form, sigma in GAUSS_ANCHORS:
        assert gauss_sum_signature(form) == sigma, form.display()


def test_gauss_sum_of_root_discs_matches_minus_rank():
    cases = [("A", n) for n in range(1, 8)] + \
            [("D", n) for n in range(4, 8)] + \
            [("E", n) for n in (6, 7, 8)]
    for fam, n in cases:
        form = disc_root(fam, n)
        assert gauss_sum_signature(form) == (-n) % 8, f"{fam}{n}"


def test_gauss_sum_additivity():
    pairs = [(cyclic_form(1, 2), cyclic_form(2, 3)),
             (cyclic_form(-7, 8), v_block(1)),
             (disc_root("D", 7), disc_root("A", 2))]
    for a, b in pairs:
        total = gauss_sum_signature(a.direct_sum(b))
        assert total == (gauss_sum_signature(a)
                         + gauss_sum_signature(b)) % 8


# ----------------------------------------------------- brute automorphisms


def test_brute_aut_group_cyclic():
    assert len(brute_aut_group(cyclic_form(-7, 8))) == 2   # only +-1
    assert len(brute_aut_group(cyclic_form(1, 4))) == 2
    assert len(brute_aut_group(trivial_form())) == 1


def test_brute_involutions_are_involutions():
    # U(2): q-values (0, 0, 1) on the nonzero elements, so only the swap
    assert len(brute_involutions(u_block(1))) == 2
    # the D4 disc has q = 1 on all three nonzero elements: aut group S3,
    # whose involutions are the identity plus the three transpositions
    d4 = disc_root("D", 4)
    invs = brute_involutions(d4)
    assert len(invs) == 4
    assert len(brute_aut_group(d4)) == 6
    for auto in invs:
        assert auto.is_involution()


def test_brute_involutions_use_no_engine_involution_test(monkeypatch):
    # Criterion 7 checks the engine's involutions against these, and the
    # engine's involution test picks its fixed slot options: the oracle
    # must not share it.  Told that every block is an involution, the
    # engine would take the two D4 3-cycles too.
    monkeypatch.setattr(lattices, "_is_involution", lambda orders, block: True)
    assert len(brute_involutions(disc_root("D", 4))) == 4


def test_size_cutoff_raises():
    with pytest.raises(OracleSizeError):
        brute_subquotient(cyclic_form(1, 512), [], cutoff=256)
    with pytest.raises(OracleSizeError):
        brute_aut_group(u_block(3), cutoff=16)   # order 64


# ----------------------------------------- engine-vs-brute involution counts

# strata where every involution of the discriminant is symmetry-induced
EXPECT_EQUAL = {
    ("A1", 4): 2,
    ("A2", 4): 4,
    ("A2+A1", 4): 4,
    ("2*A2", 4): 12,
    ("D4", 4): 8,
    ("A4", 4): 4,
    ("E6", 4): 4,
    ("E7", 4): 2,
    ("A3", 2): 2,
}


def test_involution_concordance_equal_cases():
    for (spec, h2), count in EXPECT_EQUAL.items():
        pf = polarized_disc(RootSpec.parse(spec), h2)
        eng = {a.matrix for a in disc_involutions(pf)}
        brute = {a.matrix for a in brute_involutions(pf.form)}
        assert eng == brute, (spec, h2)
        assert len(eng) == count, (spec, h2)


def test_involution_concordance_strict_inclusions():
    # discs with exotic involutions not induced by any lattice symmetry the
    # engine models; the engine set must be a proper subset
    for (spec, h2), (n_eng, n_brute) in {("A3", 4): (4, 6),
                                         ("A5", 2): (2, 4)}.items():
        pf = polarized_disc(RootSpec.parse(spec), h2)
        eng = {a.matrix for a in disc_involutions(pf)}
        brute = {a.matrix for a in brute_involutions(pf.form)}
        assert eng < brute, (spec, h2)
        assert (len(eng), len(brute)) == (n_eng, n_brute), (spec, h2)


# ------------------------------------------------------------- subquotients


def test_brute_subquotient_trivial_kernel():
    form = u_block(2)        # U(4)
    bq = brute_subquotient(form, [])
    assert bq.order == form.order


def test_brute_subquotient_isotropic_line():
    form = u_block(2)        # U(4), kernel <2*u1>
    bq = brute_subquotient(form, [(2, 0)])
    assert bq.order == 4     # 16 / 2^2


def test_brute_subquotient_rejects_anisotropic_kernel():
    with pytest.raises(AssertionError):
        brute_subquotient(cyclic_form(1, 2), [(1,)])


def test_verify_subquotient_presentation_on_candidates():
    pf = polarized_disc(RootSpec.parse("A3"), 4)
    for a2, n in ((4, 1), (2, 2), (8, 2), (2, 1)):
        for cand in kernel_candidates(pf, a2, n):
            big = ambient_with_a_block(pf.form, cand.a2)
            theta = big.reduce(theta_vector(pf.form, cand.kappa, cand.n))
            assert verify_subquotient_presentation(
                big, [theta], check_candidate(pf, cand)[2])


def _trivial_quotient(form):
    """The engine's K-perp/K of form by the trivial kernel."""
    return subquotient(form, form.subgroup([]))


def test_presentation_rejects_swapped_cosets():
    # U(4) with trivial kernel: the cosets (2,1) and (1,2) both have q = 1,
    # so a to_coords that swaps them is injective and keeps q; only the
    # additivity check can tell it from the engine's map.
    form = u_block(2)
    x, y = (2, 1), (1, 2)
    assert form.eval_q(x) == form.eval_q(y)
    assert verify_subquotient_presentation(form, [], _trivial_quotient(form))
    sq = _trivial_quotient(form)
    plain = sq.to_coords
    swap = {x: plain(y), y: plain(x)}
    sq.to_coords = lambda v: swap[v] if v in swap else plain(v)
    with pytest.raises(OracleMismatch, match="not additive"):
        verify_subquotient_presentation(form, [], sq)


def _altered_presentation(form, reps, coords):
    """The engine's K-perp/K of form by the trivial kernel, made to report
    the given generator reps and to send the elements in coords to the
    given quotient coordinates."""
    sq = _trivial_quotient(form)
    plain = sq.to_coords
    sq.reps = list(reps)
    sq.to_coords = lambda v: coords[v] if v in coords else plain(v)
    return sq


def test_presentation_rejects_a_rep_of_too_high_order():
    # [1/2] (+) [1/4] with trivial kernel: (1, 1) has order 4 but stands
    # for the Z/2 generator.  It maps to that generator, so only the check
    # that 2*(1, 1) lies in K can tell.
    form = direct_sum_all([cyclic_form(1, 2), cyclic_form(1, 4)])
    assert _trivial_quotient(form).form.orders == (2, 4)
    assert verify_subquotient_presentation(form, [], _trivial_quotient(form))
    sq = _altered_presentation(form, [(1, 1), (0, 1)], {(1, 1): (1, 0)})
    with pytest.raises(OracleMismatch, match="times its invariant factor"):
        verify_subquotient_presentation(form, [], sq)


def test_presentation_rejects_reps_that_meet_one_coset_twice():
    # U(4) with trivial kernel: the reps (1, 0) and (2, 0) map to the two
    # generators, and 4*(2, 0) = 0, but 2*(2, 0) is the coset of (0, 0)
    # again, and q(2, 0) = 0 is the quotient's q at (0, 1).
    form = u_block(2)
    assert _trivial_quotient(form).form.q == (0, 0)
    sq = _altered_presentation(form, [(1, 0), (2, 0)], {(2, 0): (0, 1)})
    with pytest.raises(OracleMismatch, match="give one coset"):
        verify_subquotient_presentation(form, [], sq)


def test_presentation_rejects_wrong_invariant_factors():
    # [1/2] (+) [1/4] with trivial kernel, claimed to be Z/8 = [3/8]
    # generated by (1, 1): the same order, (1, 1) maps to the generator and
    # 8*(1, 1) = 0, so only the walk is left to catch it.  (1, 1) has order
    # 4, so 4*(1, 1) meets the coset of 0 again; and q is in (1/4)Z on the
    # whole group but 3/8 at the claimed generator, so q already differs at
    # the walk's first step.
    form = direct_sum_all([cyclic_form(1, 2), cyclic_form(1, 4)])
    z8 = cyclic_form(3, 8)
    assert z8.order == form.order
    coords = {(0, 0): (0,), (1, 1): (1,), (0, 2): (2,), (1, 3): (3,)}
    plain = _trivial_quotient(form)
    sq = isotropy.Subquotient(z8, [(1, 1)], plain.kperp, plain.kernel,
                              lambda v: coords[tuple(v)])
    with pytest.raises(OracleMismatch):
        verify_subquotient_presentation(form, [], sq)


def test_presentation_rejects_a_q_wrong_only_past_a_carry():
    # [1/2] (+) [1/4] with trivial kernel, claimed to carry b(e_0, e_1) =
    # 1/2: q' = q + c_0 c_1 mod 2, so q' differs from q only at (1, 1)
    # and (1, 3).  The walk meets (1, 1) right after the carry to (1, 0),
    # so it must carry q and the element through that step correctly.
    form = direct_sum_all([cyclic_form(1, 2), cyclic_form(1, 4)])
    plain = _trivial_quotient(form)
    claimed = FiniteQuadraticForm([2, 4], [Fraction(1, 2), Fraction(1, 4)],
                                  {(0, 1): Fraction(1, 2)})
    assert plain.form.orders == claimed.orders == (2, 4)
    differ = [c for c in claimed.iter_elements()
              if claimed.eval_q(c) != plain.form.eval_q(c)]
    assert differ == [(1, 1), (1, 3)]
    sq = isotropy.Subquotient(claimed, plain.reps, plain.kperp,
                              plain.kernel, plain.to_coords)
    with pytest.raises(OracleMismatch, match="q differs on a coset"):
        verify_subquotient_presentation(form, [], sq)


@pytest.mark.parametrize("spec", ["A1", "3*A1", "5*A1"])
def test_presentation_maps_each_coset_once(spec):
    # One to_coords call per generator and one per coset of K-perp/K.
    rep = detect(4, spec)
    assert rep.witness_revalidated is True
    pf = polarized_disc(RootSpec.parse(spec), 4)
    w = rep.witness
    big = ambient_with_a_block(pf.form, w["a2"])
    theta = big.reduce(theta_vector(pf.form, w["kappa"], w["n"]))
    sq = check_candidate(
        pf, KernelCandidate(w["a2"], w["n"], tuple(w["kappa"])))[2]
    plain = sq.to_coords
    calls = []
    sq.to_coords = lambda v: calls.append(v) or plain(v)
    verify_subquotient_presentation(big, [theta], sq)
    assert len(calls) == sq.form.order + sq.form.rank


def _count_builds(monkeypatch):
    """Count subquotient calls through every binding of it in realstrata,
    and check_candidate calls through the detector binding."""
    counts = {"subquotient": 0, "check_candidate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = counted("subquotient", isotropy.subquotient)
    for module in (isotropy, detector, oracle):
        if hasattr(module, "subquotient"):
            monkeypatch.setattr(module, "subquotient", build)
    monkeypatch.setattr(detector, "check_candidate",
                        counted("check_candidate", check_candidate))
    return counts


@pytest.mark.parametrize("spec", ["A1", "3*A1", "5*A1"])
def test_detect_builds_one_quotient_per_candidate(monkeypatch, spec):
    # The oracle revalidates the K-perp/K check_candidate built; it builds
    # none of its own.
    counts = _count_builds(monkeypatch)
    assert detect(4, spec).witness_revalidated is True
    assert counts["check_candidate"] > 0
    assert counts["subquotient"] == counts["check_candidate"]


def test_oracle_trace_check_builds_one_quotient_per_row(monkeypatch):
    # The golden sextic with the oracle on: one K-perp/K per decided orbit
    # in the search, then one per re-derived trace row, verified as built.
    counts = _count_builds(monkeypatch)
    rep = detect(2, "A7+A6+A5", oracle=True)
    assert (rep.verdict, rep.oracle_checked) == ("none_exists", "partial")
    assert counts["subquotient"] == 11


def test_brute_kernel_candidates_matches_engine_small():
    for spec, h2 in (("A1", 4), ("A3", 4), ("A1+A2", 4)):
        pf = polarized_disc(RootSpec.parse(spec), h2)
        for a2 in (2, 4, 8):
            for n in (1, 2):
                brute = brute_kernel_candidates(pf, a2, n)
                engine = sorted(c.kappa
                                for c in kernel_candidates(pf, a2, n))
                assert brute == engine, (spec, a2, n)


# -------------------------------------------------------------- revalidation


def test_revalidate_witness_full_chain():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    phi = DiscAutomorphism(pf.form, [[1, 0], [0, 1]])
    cand = KernelCandidate(2, 2, (0, 0))
    sq = check_candidate(pf, cand)[2]
    assert revalidate_witness(pf, cand, phi, sq) is True


def test_revalidate_witness_skipped_over_cutoff():
    # The skip comes before anything is read from phi or the quotient.
    pf = polarized_disc(RootSpec.parse("6*A1"), 4)   # order 256
    cand = KernelCandidate(32, 1, (0,) * pf.form.rank)
    assert revalidate_witness(pf, cand, None, None) == "skipped_cutoff"


def test_revalidate_witness_skips_before_building_the_ambient(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the glued group was built")

    monkeypatch.setattr(oracle, "ambient_with_a_block", unbuilt)
    pf = polarized_disc(RootSpec.parse("6*A1"), 4)
    cand = KernelCandidate(32, 1, (0,) * pf.form.rank)
    assert revalidate_witness(pf, cand, None, None) == "skipped_cutoff"


def test_revalidate_witness_rejects_wrong_phi():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    cand = KernelCandidate(4, 1, (1, 1))
    # identity does not negate kappa = (1,1) (order 4): must trip the checks
    phi = DiscAutomorphism(pf.form, [[1, 0], [0, 1]])
    sq = check_candidate(pf, cand)[2]
    with pytest.raises(AssertionError):
        revalidate_witness(pf, cand, phi, sq)


def test_revalidate_witness_rederives_the_isometry_itself():
    # On A1@4, phi = [[1, 0], [2, 1]] sends e_0 to e_0 + 2h: a homomorphism
    # and an involution that negates kappa = 0, but q(e_0 + 2h) = 1/2 is
    # not q(e_0) = 3/2.  Built with object.__new__, phi never passes the
    # engine's checks, so only the oracle's own q can refuse it.
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    cand = KernelCandidate(2, 2, (0, 0))
    sq = check_candidate(pf, cand)[2]
    phi = object.__new__(DiscAutomorphism)
    phi.form, phi.matrix = pf.form, ((1, 0), (2, 1))
    with pytest.raises(OracleMismatch, match="witness phi is not an isometry"):
        revalidate_witness(pf, cand, phi, sq)


def test_revalidate_witness_checks_run_under_optimize():
    # python -O strips assert statements; the oracle must still reject a
    # witness whose glue does not embed.
    script = textwrap.dedent("""
        from realstrata import oracle
        from realstrata.detector import KernelCandidate, check_candidate
        from realstrata.lattices import (DiscAutomorphism, RootSpec,
                                         polarized_disc)
        oracle.embeds_into_big_L = lambda *args: (False, "clause1")
        pf = polarized_disc(RootSpec.parse("A1"), 4)
        phi = DiscAutomorphism(pf.form, [[1, 0], [0, 1]])
        cand = KernelCandidate(2, 2, (0, 0))
        sq = check_candidate(pf, cand)[2]
        print("debug:", __debug__)
        try:
            oracle.revalidate_witness(pf, cand, phi, sq)
        except oracle.OracleMismatch as exc:
            print("mismatch:", exc)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug: False", "mismatch: witness glue does not embed"]


def _break_eval_qn(monkeypatch, orders, element):
    """Make the engine's integer q wrong by 1 (mod 2) on one element of
    forms with the given orders; b and every other element are untouched."""
    real = FiniteQuadraticForm.eval_qn

    def wrong_on_one(self, x):
        v = real(self, x)
        if self.orders == orders and tuple(x) == element:
            return (v + self.N) % (2 * self.N)
        return v

    monkeypatch.setattr(FiniteQuadraticForm, "eval_qn", wrong_on_one)


def test_oracle_catches_wrong_integer_q_in_revalidation(monkeypatch):
    # The A1@4 witness: K is trivial, so K-perp/K is the whole glued group.
    # The first generator rep gets a wrong q in the engine's quotient form;
    # the oracle, which evaluates q from form.q and form.b, must notice.
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    phi = DiscAutomorphism(pf.form, [[1, 0], [0, 1]])
    cand = KernelCandidate(2, 2, (0, 0))
    big = ambient_with_a_block(pf.form, cand.a2)
    theta = big.reduce(theta_vector(pf.form, cand.kappa, cand.n))
    rep = subquotient(big, big.subgroup([theta])).reps[0]
    _break_eval_qn(monkeypatch, big.orders, rep)
    sq = check_candidate(pf, cand)[2]
    with pytest.raises(OracleMismatch, match="q differs on a coset"):
        revalidate_witness(pf, cand, phi, sq)


def test_oracle_catches_a_consistent_wrong_integer_q(monkeypatch):
    # q'(x) = q(x) + x_0 mod 2 is another quadratic refinement of the same
    # b.  An engine evaluating q' on the A1@4 glued group builds a K-perp/K
    # that agrees with q' everywhere, so an oracle sharing the engine's
    # evaluator would agree too; the oracle reads form.q and form.b instead.
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    phi = DiscAutomorphism(pf.form, [[1, 0], [0, 1]])
    cand = KernelCandidate(2, 2, (0, 0))
    orders = ambient_with_a_block(pf.form, cand.a2).orders
    assert orders[0] == 2
    real = FiniteQuadraticForm.eval_qn

    def refined(self, x):
        v = real(self, x)
        if self.orders != orders:
            return v
        return (v + self.N * x[0]) % (2 * self.N)

    monkeypatch.setattr(FiniteQuadraticForm, "eval_qn", refined)
    sq = check_candidate(pf, cand)[2]
    with pytest.raises(OracleMismatch, match="q differs on a coset"):
        revalidate_witness(pf, cand, phi, sq)


def test_oracle_catches_wrong_integer_q_in_trace_check(monkeypatch):
    # The engine buckets kernel candidates by q*N; a wrong q on the witness
    # kappa drops it from the engine's list, and the brute sweep differs.
    rep = detect(4, "A1")
    assert rep.witness["kappa"] == [0, 0]
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    _break_eval_qn(monkeypatch, pf.form.orders, (0, 0))
    with pytest.raises(OracleMismatch, match="candidate lists differ"):
        oracle.cross_check_trace(pf, rep.trace, rep.witness)


def test_detect_mid_size_positive_revalidates():
    # glued group of order 1920, below ORACLE_CUTOFF: revalidated in full
    rep = detect(4, "2*A1+A3+A2+A4")
    assert rep.verdict == "witness_found"
    assert rep.witness_revalidated is True


def test_detect_reports_pass_revalidation():
    rep = detect(4, "D4")
    assert rep.verdict == "witness_found"
    assert rep.witness_revalidated is True


# ------------------------------------------------ independence and exactness


def test_oracle_reads_no_engine_evaluator_and_has_no_assert():
    # The oracle's q and b must not come from the engine's integer data or
    # evaluators, it must check the K-perp/K it is handed rather than build
    # one (or list K) through the engine, and its checks must survive
    # python -O.
    engine_only = {"Qn", "Bn", "_gram", "eval_qn", "eval_bn", "eval_q",
                   "eval_b", "_pairing_row", "subquotient", "subgroup"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    names |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & engine_only == set()
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def _fraction_q(form, x):
    """q(x) in [0, 2) as a plain Fraction sum over form.q and form.b."""
    qs, bs = form.q, form.b
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            total += xi * xi * qs[i]
            for j in range(i + 1, len(x)):
                if x[j]:
                    total += 2 * xi * x[j] * bs[i][j]
    return total % 2


def _fraction_b(form, x, y):
    """b(x, y) in [0, 1) as a plain Fraction sum over form.b."""
    bs = form.b
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * bs[i][j]
    return total % 1


def test_integer_q_and_b_match_fraction_sums_on_the_corpus():
    # q on every element of every corpus form; b on every element paired
    # with the element at the mirrored position of the list (b is
    # symmetric, so each pair is checked once).  The walk meets the same
    # elements in the same order, with the same q*d, and with the
    # from-scratch b*d against the kernel generator.
    bad = []
    for item in corpus():
        form = item.form
        g = oracle._scaled_gram(form)
        elems = list(form.iter_elements())
        walked = list(oracle._walk(form, g, [item.kappa]))
        assert [x for x, _q, _row in walked] == elems
        for k, ((x, walk_q, (walk_b,)), y) in enumerate(
                zip(walked, reversed(elems))):
            qd = oracle._qd(g, x)
            if Fraction(qd, g.d) != _fraction_q(form, x) or walk_q != qd:
                bad.append(("q", form.orders, x))
            if walk_b % g.d != oracle._bd(g, x, item.kappa):
                bad.append(("walk b", form.orders, x))
            if 2 * k < len(elems) and (Fraction(oracle._bd(g, x, y), g.d)
                                       != _fraction_b(form, x, y)):
                bad.append(("b", form.orders, x, y))
    assert bad == []


# ------------------------------------------------------------------ the walk

POSITIVE = ["A1", "2*A1", "A2", "A3", "D4", "A1+A2", "2*A2", "A4", "A3+A1",
            "D5", "E6", "3*A1", "4*A1", "5*A1"]


def _walk_mismatches(form, targets):
    """Elements where the walk's q*d, or its b*d against the targets,
    differs from the oracle's from-scratch _qd and _bd."""
    g = oracle._scaled_gram(form)
    return [x for x, q, row in oracle._walk(form, g, targets)
            if q != oracle._qd(g, x)
            or [v % g.d for v in row] != [oracle._bd(g, x, y)
                                          for y in targets]]


@pytest.mark.parametrize("spec", POSITIVE)
def test_walk_matches_from_scratch_values_on_each_witness(spec):
    # The glued group of each positive-revalidation witness, with b
    # against its generators and theta, and the witness's K-perp/K; and
    # the span of the quotient's reps, the presentation walk's sums.
    rep = detect(4, spec)
    pf = polarized_disc(RootSpec.parse(spec), 4)
    w = rep.witness
    big = ambient_with_a_block(pf.form, w["a2"])
    theta = big.reduce(theta_vector(pf.form, w["kappa"], w["n"]))
    sq = check_candidate(
        pf, KernelCandidate(w["a2"], w["n"], tuple(w["kappa"])))[2]
    assert _walk_mismatches(big, oracle._units(big.rank) + [theta]) == []
    assert _walk_mismatches(sq.form, oracle._units(sq.form.rank)) == []
    sums = [big.reduce(sum(c * gen[i] for c, gen in zip(cs, sq.reps))
                       for i in range(big.rank))
            for cs in sq.form.iter_elements()]
    assert list(oracle._span(big, sq.reps, sq.form.orders)) == sums


def test_scaled_gram_is_the_fraction_values_times_d():
    for item in corpus():
        g = oracle._scaled_gram(item.form)
        assert g.q == tuple(int(v * g.d) for v in item.form.q)
        assert g.b == tuple(tuple(int(v * g.d) for v in row)
                            for row in item.form.b)
