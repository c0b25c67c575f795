"""Isotropic kernels and subquotients K-perp/K (realstrata.isotropy), and
gluing-vector splitting and the structural case classification
(tests/_gluing.py)."""
from fractions import Fraction

import pytest

from realstrata.detector import kernel_candidates
from realstrata.fqf import cyclic_form, trivial_form, u_block
from realstrata.isotropy import subquotient
from realstrata.lattices import RootSpec, polarized_disc
from realstrata.nikulin import ambient_with_a_block, theta_vector
from realstrata.oracle import verify_subquotient_presentation

from _gluing import classify_gluing_case, is_isotropic, split_off_cyclic
from _gluing_table import INSTANCES, pair_form, run_instance

# -------------------------------------------------------------- is_isotropic


def test_is_isotropic_examples():
    u2 = u_block(1)
    assert is_isotropic(u2, u2.subgroup([(1, 0)])) is True
    half = cyclic_form(1, 2)
    assert is_isotropic(half, half.subgroup([(1,)])) is False
    # a valid kernel generator of a full gluing datum is isotropic
    pf = polarized_disc(RootSpec.parse("A7+A6+A3+A2"), 4)
    kappa = kernel_candidates(pf, 4, 1)[0]
    big = ambient_with_a_block(pf.form, 4)
    theta = big.reduce(theta_vector(pf.form, kappa, 1))
    assert is_isotropic(big, big.subgroup([theta])) is True


# --------------------------------------------------------------- subquotient


def _q_multiset(form):
    return sorted(form.eval_q(x) for x in form.iter_elements())


def test_subquotient_u2_collapses():
    u2 = u_block(1)
    sq = subquotient(u2, (1, 0))
    assert sq.form.order == 1
    assert sq.form.orders == ()


def test_subquotient_u4_gives_u2():
    u4 = u_block(2)
    sq = subquotient(u4, (2, 0))
    assert sq.form == u_block(1)
    # representatives pair correctly in the ambient form
    assert len(sq.reps) == 2
    assert u4.eval_b(sq.reps[0], sq.reps[1]) in (Fraction(1, 2),)


def test_subquotient_trivial_kernel_is_identity():
    g = cyclic_form(1, 2).direct_sum(cyclic_form(2, 3))
    sq = subquotient(g, g.zero())
    assert sq.form.order == g.order
    assert _q_multiset(sq.form) == _q_multiset(g)
    assert sq.form.is_even_2part() == g.is_even_2part()


def test_subquotient_rejects_non_isotropic():
    half = cyclic_form(1, 2)
    with pytest.raises(ValueError):
        subquotient(half, (1,))


@pytest.mark.parametrize("theta", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
                                   (6, 6)])
def test_subquotient_of_composite_orders_is_proved(theta):
    # [1/12] + [-1/12]: each coordinate has two primes, and K_2 and K_3
    # differ as theta runs over the multiples of (1, 1).
    form = cyclic_form(1, 12).direct_sum(cyclic_form(-1, 12))
    sq = subquotient(form, theta)
    assert sq.form.order * form.order_of(theta) ** 2 == 144
    assert all(o in (2, 3, 4) for o in sq.form.orders)
    verify_subquotient_presentation(form, [form.reduce(theta)], sq)


@pytest.mark.parametrize("theta", [(2,), (2, 0, 1)])
def test_subquotient_rejects_theta_of_the_wrong_length(theta):
    # Coordinatewise helpers zip theta with the orders, so a long theta
    # would be cut to (2, 0) and a short one would fail deep inside.
    with pytest.raises(ValueError, match="theta has .* coordinates"):
        subquotient(u_block(2), theta)


# ---------------------------------------------------------- split_off_cyclic


def test_split_u2_single_pair():
    u2 = u_block(1)
    dec = split_off_cyclic(u2, (1, 0))
    assert len(dec.blocks) == 1
    blk = dec.blocks[0]
    assert blk.kind == "pair" and blk.m == 1 and blk.r == 0 and blk.mu == 0
    assert dec.base_form.order == 1


def test_split_detached_cyclic():
    g = cyclic_form(-7, 8).direct_sum(cyclic_form(-3, 4))
    dec = split_off_cyclic(g, (1, 0))
    assert len(dec.blocks) == 1
    blk = dec.blocks[0]
    assert blk.kind == "cyclic" and blk.m == 3 and blk.r == 0
    assert blk.mu % 2 == 1
    assert dec.base_form.display() == "[-3/4]"


def test_split_two_step_chain():
    g = cyclic_form(1, 2).direct_sum(u_block(3))
    dec = split_off_cyclic(g, (1, 2, 0))
    assert [(b.kind, b.m, b.r) for b in dec.blocks] == \
        [("cyclic", 1, 0), ("pair", 2, 1)]
    assert dec.blocks[0].mu == 1
    # reconstruction: kappa = sum 2^{r_s} u_s
    acc = g.zero()
    for blk in dec.blocks:
        acc = g.add(acc, g.smul(1 << blk.r, blk.u))
    assert acc == g.reduce((1, 2, 0))


def test_split_rejects_zero():
    with pytest.raises(ValueError):
        split_off_cyclic(u_block(1), (0, 0))


# ------------------------------------------------------ case classification


def test_classify_dispatch_examples():
    # single two-generator block at m
    case = classify_gluing_case(pair_form(2, 2, 1), (1, 0))
    assert case.tag == "r0_single_pair" and case.m == 2
    # kappa = 2*u1 inside one odd cyclic block
    from realstrata.fqf import FiniteQuadraticForm
    c8 = FiniteQuadraticForm((8,), (Fraction(1, 8),), {})
    case = classify_gluing_case(c8, (2,))
    assert case.tag == "r1_single_cyclic" and case.m == 2
    # odd cyclic at m-1 plus pair at m+1
    g = FiniteQuadraticForm((2,), (Fraction(1, 2),), {}).direct_sum(
        pair_form(3, 2, 0))
    case = classify_gluing_case(g, (1, 2, 0))
    assert case.tag == "r0_cyclic_low1_pair_high1" and case.m == 2


def test_classify_no_2_part_returns_none():
    f = cyclic_form(1, 2).direct_sum(cyclic_form(2, 3))
    assert classify_gluing_case(f, (0, 1)) is None


def test_classify_inadmissible_square_raises():
    f = cyclic_form(1, 2).direct_sum(cyclic_form(2, 3))
    with pytest.raises(ValueError):
        classify_gluing_case(f, (1, 0))   # q = 1/2 but order 2 needs q = odd/1


def test_classify_checks_supplied_m():
    with pytest.raises(ValueError):
        classify_gluing_case(pair_form(1, 2, 1), (1, 0), m=3)
    case = classify_gluing_case(pair_form(1, 2, 1), (1, 0), m=1)
    assert case.tag == "r0_single_pair"


# ------------------------------------------------------------ table battery


@pytest.mark.parametrize(
    "inst", INSTANCES,
    ids=[f"{inst.tag}-{i}" for i, inst in enumerate(INSTANCES)])
def test_gluing_table_instance(inst):
    run_instance(inst)


def test_gluing_table_covers_every_case_five_times():
    counts = {}
    for inst in INSTANCES:
        counts[inst.tag] = counts.get(inst.tag, 0) + 1
    assert set(counts) == {
        "r0_single_pair", "r0_cyclic_low1_pair_high1",
        "r0_pair_low1_cyclic_high1", "r0_cyclic_low1_cyclic_deep",
        "r0_cyclic_low1_pair_deep", "r0_cyclic_low2_cyclic_high1",
        "r0_pair_low2_cyclic_high1", "r1_single_cyclic"}
    assert all(n >= 5 for n in counts.values())
