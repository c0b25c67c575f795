"""Finite quadratic forms: constructors, canonicalization, evaluation,
substructures, decomposition, and serialization."""
import ast
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realstrata import fqf
from realstrata.fqf import (FiniteQuadraticForm, cyclic_form, direct_sum_all,
                            factorint, trivial_form, u_block, v_block)

from _corpus import CORPUS_SIZE, corpus
from _fractions import canon_mod2, display_rep
from _gluing import homogeneous_decomposition, primary_component

# ------------------------------------------------------------ canonical reps


def test_canonical_representatives():
    assert canon_mod2(Fraction(-1, 2)) == Fraction(3, 2)
    assert canon_mod2(Fraction(9, 4)) == Fraction(1, 4)
    assert canon_mod2(Fraction(2)) == 0
    assert Fraction(-1, 4) % 1 == Fraction(3, 4)
    assert Fraction(5, 3) % 1 == Fraction(2, 3)
    # displayed representative lives in (-1, 1]
    assert display_rep(Fraction(3, 2)) == Fraction(-1, 2)
    assert display_rep(Fraction(9, 8)) == Fraction(-7, 8)
    assert display_rep(Fraction(1, 4)) == Fraction(1, 4)


def test_factorint():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(1) == {}
    # Powers of primes past trial division, whole and as a factor of a
    # power: found by the perfect-power test, not by rho.
    m61, m31 = 2 ** 61 - 1, 2 ** 31 - 1
    assert factorint(1031 ** 7) == {1031: 7}
    assert factorint(m31 ** 6 * m61 ** 6) == {m31: 6, m61: 6}
    assert factorint(2 * m31 * (2 ** 37 - 25)) == \
        {2: 1, m31: 1, 2 ** 37 - 25: 1}


# ------------------------------------------------------------- constructors


def test_cyclic_form_validation():
    with pytest.raises(ValueError):
        cyclic_form(1, 3)        # q*order odd: not an even-lattice disc
    with pytest.raises(ValueError):
        cyclic_form(2, 4)        # generator not of full order
    f = cyclic_form(-7, 8)
    assert f.orders == (8,)
    assert f.eval_q((1,)) == canon_mod2(Fraction(-7, 8))
    assert f.display() == "[-7/8]"


def test_block_displays():
    assert u_block(1).display() == "[0]* (+) [0]*"
    assert v_block(1).display() == "[1]* (+) [1]*"
    assert trivial_form().display() == "[0]"
    assert u_block(2).orders == (4, 4)
    assert v_block(2).eval_b((1, 0), (0, 1)) == Fraction(1, 4)


def test_direct_sum_and_order():
    g = u_block(1).direct_sum(cyclic_form(2, 3))
    assert g.orders == (2, 2, 3)
    assert g.order == 12
    assert g.exponent() == 6
    many = direct_sum_all([cyclic_form(1, 2), trivial_form(),
                           cyclic_form(-1, 2)])
    assert many.orders == (2, 2)


# ------------------------------------------------------- evaluation algebra


def test_polar_identity_and_linearity():
    g = u_block(1).direct_sum(v_block(2)).direct_sum(cyclic_form(2, 3))
    rng = random.Random(7)
    elems = [tuple(rng.randrange(o) for o in g.orders) for _ in range(25)]
    for x in elems:
        for y in elems[:8]:
            lhs = canon_mod2(g.eval_q(g.add(x, y)) - g.eval_q(x)
                             - g.eval_q(y))
            assert lhs == canon_mod2(2 * g.eval_b(x, y))
        assert g.eval_q(g.neg(x)) == g.eval_q(x)
        assert g.add(x, g.neg(x)) == g.zero()
        assert g.smul(3, x) == g.add(x, g.add(x, x))
    assert g.order_of(g.zero()) == 1


def test_primary_components_sum_to_element():
    g = u_block(1).direct_sum(cyclic_form(2, 3)).direct_sum(
        cyclic_form(-2, 5))
    x = (1, 1, 2, 3)
    parts = [primary_component(g, x, p) for p in (2, 3, 5)]
    acc = g.zero()
    for part in parts:
        acc = g.add(acc, part)
    assert acc == g.reduce(x)
    assert g.order_of(parts[0]) in (1, 2)
    assert g.order_of(parts[1]) in (1, 3)
    assert g.order_of(parts[2]) in (1, 5)


# ----------------------------------------------------------------- evenness


def test_is_even_2part_anchors():
    # even iff q is integer-valued on all elements of order <= 2
    assert cyclic_form(-1, 2).is_even_2part() is False
    assert cyclic_form(1, 2).is_even_2part() is False
    assert cyclic_form(1, 4).is_even_2part() is True    # q(2g) = 1, integer
    assert cyclic_form(3, 4).is_even_2part() is True
    assert cyclic_form(-7, 8).is_even_2part() is True
    assert u_block(1).is_even_2part() is True
    assert v_block(1).is_even_2part() is True
    assert trivial_form().is_even_2part() is True
    assert cyclic_form(2, 3).is_even_2part() is True    # no 2-part at all
    mixed = cyclic_form(1, 2).direct_sum(u_block(1))
    assert mixed.is_even_2part() is False


# --------------------------------------------------------------- subgroups


def test_subgroup_and_orthogonal_complement():
    g = u_block(1).direct_sum(cyclic_form(2, 3))
    s = g.subgroup([(1, 0, 0)])
    assert s.order == 2
    assert (1, 0, 0) in s.elements() and (0, 1, 0) not in s.elements()
    perp = g.orthogonal_complement(s)
    # |K| * |K-perp| = |F| for nondegenerate forms
    assert s.order * perp.order == g.order
    # u is isotropic so it lies in its own complement
    assert (1, 0, 0) in perp.elements()


def test_subgroup_as_form_roundtrip():
    g = u_block(1).direct_sum(cyclic_form(2, 3))
    odd = g.subgroup([(0, 0, 1)])
    perp = g.orthogonal_complement(odd)
    sub, gens = g.subgroup_as_form(perp)
    assert sub.order == 4
    assert sub.display() == "[0]* (+) [0]*"
    # generators embed back with matching q values
    for coords, amb in zip([(1, 0), (0, 1)], gens):
        assert sub.eval_q(coords) == g.eval_q(amb)


def test_subgroup_as_form_rejects_degenerate():
    g = u_block(1)
    perp = g.orthogonal_complement(g.subgroup([(1, 0)]))
    with pytest.raises(ValueError):
        g.subgroup_as_form(perp)      # radical <u> makes it degenerate


def test_nondegeneracy_enforced():
    with pytest.raises(ValueError):
        # b identically zero on a 2-group: radical is everything
        FiniteQuadraticForm((2, 2), (Fraction(0), Fraction(0)), {})


def _random_form_data(rng):
    """Valid integer data (orders, Qn, b, N) at the scale N = lcm(orders),
    degenerate or not: q(e_i) = k/o_i with o_i*k even, and
    b(e_i, e_j) = m/gcd(o_i, o_j)."""
    orders = [rng.choice((2, 3, 4, 6, 8, 9, 12))
              for _ in range(rng.randint(1, 4))]
    n = math.lcm(*orders)
    qn = []
    for o in orders:
        k = rng.randrange(2 * o)
        qn.append((k - k % 2 if o % 2 else k) * (n // o))
    b = {}
    for i, oi in enumerate(orders):
        for j in range(i + 1, len(orders)):
            g = math.gcd(oi, orders[j])
            b[(i, j)] = rng.randrange(g) * (n // g)
    return orders, qn, b, n


def test_nondegeneracy_check_matches_radical(monkeypatch):
    # Reference: the radical as the orthogonal complement of the whole
    # group, computed on the same data with the constructor check off.
    rng = random.Random(5150)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        orders, qn, b, n = _random_form_data(rng)
        try:
            FiniteQuadraticForm(orders, qn, b, scale=n)
            raised = False
        except ValueError as exc:
            assert "degenerate" in str(exc)
            raised = True
        with monkeypatch.context() as m:
            m.setattr(FiniteQuadraticForm, "_check_nondegenerate",
                      lambda self: None)
            unchecked = FiniteQuadraticForm(orders, qn, b, scale=n)
        full = unchecked.subgroup(
            [tuple(int(i == j) for j in range(len(orders)))
             for i in range(len(orders))])
        radical = unchecked.orthogonal_complement(full)
        assert raised == (radical.order != 1), (orders, qn, b)
        outcomes[raised] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _radical_order(monkeypatch, orders, qn, b, n):
    """|radical| of the data, read as the orthogonal complement of the
    whole group on a form built with the constructor's check off."""
    with monkeypatch.context() as m:
        m.setattr(FiniteQuadraticForm, "_check_nondegenerate",
                  lambda self: None)
        form = FiniteQuadraticForm(orders, qn, b, scale=n)
    full = form.subgroup([tuple(int(i == j) for j in range(len(orders)))
                          for i in range(len(orders))])
    return form.orthogonal_complement(full).order


def test_blockwise_nondegeneracy_matches_radical(monkeypatch):
    # Orthogonal sums of 2-4 random blocks of 1-3 generators, either all
    # nondegenerate or with exactly one degenerate block among them; the
    # constructor, which decides block by block, must agree with the
    # radical of the whole sum.
    rng = random.Random(8128)
    outcomes = {True: 0, False: 0}

    def block(degenerate):
        while True:
            data = _random_form_data(rng)
            if len(data[0]) <= 3 and (
                    _radical_order(monkeypatch, *data) != 1) == degenerate:
                return data

    for _ in range(300):
        k = rng.randint(2, 4)
        bad = rng.randrange(k) if rng.random() < 0.5 else None
        blocks = [block(t == bad) for t in range(k)]
        n = math.lcm(*(data[3] for data in blocks))
        orders, qn, b = [], [], {}
        for o, q, bb, m in blocks:
            base = len(orders)
            orders += o
            qn += [v * (n // m) for v in q]
            b.update({(base + i, base + j): v * (n // m)
                      for (i, j), v in bb.items()})
        degenerate = _radical_order(monkeypatch, orders, qn, b, n) != 1
        assert degenerate == (bad is not None), (orders, qn, b)
        try:
            FiniteQuadraticForm(orders, qn, b, scale=n)
            raised = False
        except ValueError as exc:
            assert "degenerate" in str(exc)
            raised = True
        assert raised == degenerate, (orders, qn, b)
        outcomes[raised] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _first_error_over_the_whole_matrix(orders, q_values, b_matrix):
    """The first validity message of the constructor's rule read over
    every entry of the r x r matrix, zeros included, or None."""
    r, n = len(orders), math.lcm(*orders)
    q = [Fraction(v) * n % (2 * n) for v in q_values]
    b = [[Fraction(0)] * r for _ in range(r)]
    for (i, j), v in b_matrix.items():
        b[i][j] = b[j][i] = Fraction(v) * n % n
    for i, o in enumerate(orders):
        if q[i].denominator != 1 or (o * q[i]) % n:
            return f"q[{i}] is not defined on Z/{o}"
        if (o * o * q[i]) % (2 * n):
            return f"q[{i}] violates o^2 q = 0 mod 2 on Z/{o}"
        for j in range(r):
            if i != j and (b[i][j].denominator != 1 or (o * b[i][j]) % n):
                return f"b[{i}][{j}] is not defined on Z/{o}"
    return None


def test_validity_checks_nonzero_entries_in_matrix_order():
    # The constructor checks only the nonzero b entries, yet its first
    # ValueError is the one a walk over the whole matrix meets first.
    rng = random.Random(2718)
    seen = set()
    for _ in range(2000):
        r = rng.randint(1, 4)
        orders = [rng.choice((2, 3, 4, 6, 8)) for _ in range(r)]
        q = [Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4, 8, 16)))
             for _ in range(r)]
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        rng.shuffle(pairs)
        b = {p: Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3, 4, 8)))
             for p in pairs[:rng.randint(0, len(pairs))]}
        want = _first_error_over_the_whole_matrix(orders, q, b)
        try:
            FiniteQuadraticForm(orders, q, b)
            got = None
        except ValueError as exc:
            got = None if "degenerate" in str(exc) else str(exc)
        assert got == want, (orders, q, b)
        seen.add(want.split(" ")[0][0] if want else None)
    assert seen == {"q", "b", None}


@pytest.mark.parametrize("orders,b,message", [
    ([4], {(0, 1): Fraction(1, 4)}, r"b key \(0, 1\) not 0 <= i < j < 1"),
    ([4, 4], {(-1, 0): Fraction(1, 4)}, r"b key \(-1, 0\) not"),
    ([4, 4], {(1, 0): Fraction(1, 4)}, r"b key \(1, 0\) not"),
    ([4, 4], {(0, 1): Fraction(1, 4), (1, 0): Fraction(3, 4)},
     r"b key \(1, 0\) not"),
    ([4, 4], {(0, 2): 0}, r"b key \(0, 2\) not"),
    ([4, 4], {(1, 1): Fraction(1, 4)}, "pass q for diagonal"),
], ids=["past_rank", "negative", "below_diagonal", "both_orders",
        "zero_past_rank", "diagonal"])
def test_b_keys_outside_the_upper_triangle_are_refused(orders, b, message):
    # Out of range, negative, below the diagonal, or given twice in both
    # orders: no key outside 0 <= i < j < rank is read, or silently won.
    with pytest.raises(ValueError, match=message):
        FiniteQuadraticForm(orders, [0] * len(orders), b)


def test_direct_sum_all_matches_pairwise_sums():
    parts = [cyclic_form(1, 2), cyclic_form(2, 9), u_block(2),
             cyclic_form(-7, 8), cyclic_form(2, 5)]
    whole = direct_sum_all(parts)
    assert whole.N == 360
    folded = trivial_form()
    for f in parts:
        # one rescaling per step: the last summand's Bn/Qn at its lcm
        n = math.lcm(folded.N, f.N)
        folded = FiniteQuadraticForm(
            folded.orders + f.orders,
            [v * (n // folded.N) for v in folded.Qn]
            + [v * (n // f.N) for v in f.Qn],
            {**{(i, j): folded.Bn[i][j] * (n // folded.N)
                for i in range(folded.rank)
                for j in range(i + 1, folded.rank)},
             **{(folded.rank + i, folded.rank + j): f.Bn[i][j] * (n // f.N)
                for i in range(f.rank) for j in range(i + 1, f.rank)}},
            scale=n)
    assert (whole.orders, whole.Qn, whole.Bn) == \
        (folded.orders, folded.Qn, folded.Bn)
    assert u_block(1).direct_sum(cyclic_form(2, 3)) == \
        direct_sum_all([u_block(1), cyclic_form(2, 3)])


def test_tracer_fqf_methods_exist():
    # perfbench/tracer.py wraps these methods by name, through
    # vars(cls)[method]; a missing one stops `perfbench/run.py --trace 1`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "FQF_METHODS"
                        for t in n.targets))
    methods = ast.literal_eval(node.value)
    assert methods
    for cls_name, names in methods.items():
        cls = getattr(fqf, cls_name)
        for name in names:
            assert name in vars(cls), f"{cls_name}.{name}"


# ---------------------------------------------- elements by order and q*N


def _cuts_by_definition(form):
    """Every c with b(e_i, e_j) = 0 for all i < c <= j, read pair by pair
    off the Fraction matrix b."""
    r = form.rank
    return tuple(c for c in range(r + 1)
                 if all(form.b[i][j] == 0
                        for i in range(c) for j in range(c, r)))


def test_orthogonal_cuts_anchors():
    # A pairing from the first generator to the last leaves no inner cut;
    # an orthogonal sum cuts between its blocks and nowhere inside u.
    far = FiniteQuadraticForm([2, 2, 2, 2], [0, 0, 0, 0],
                              {(0, 3): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    assert far.orthogonal_cuts == _cuts_by_definition(far) == (0, 4)
    summed = direct_sum_all([u_block(1), cyclic_form(1, 2), v_block(1)])
    assert summed.orthogonal_cuts == (0, 2, 3, 5)
    assert trivial_form().orthogonal_cuts == (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, CORPUS_SIZE - 1))
def test_orthogonal_cuts_are_the_cuts_no_pairing_crosses(idx):
    form = corpus()[idx].form
    assert form.orthogonal_cuts == _cuts_by_definition(form)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, CORPUS_SIZE - 1), st.data())
def test_elements_of_order_is_the_filter_of_every_element(idx, data):
    # For every order m dividing N: the q*N values that occur at order m,
    # two that do not, and one drawn unreduced mod 2N.
    form = corpus()[idx].form
    two_n = 2 * form.N
    want = {}
    for x in form.iter_elements():      # lexicographic
        want.setdefault((form.order_of(x), form.eval_qn(x)), []).append(x)
    for m in (d for d in range(1, form.N + 1) if form.N % d == 0):
        seen = sorted(t for order, t in want if order == m)
        unseen = [t for t in range(two_n) if t not in seen][:2]
        drawn = data.draw(st.integers(-2 * two_n, 2 * two_n))
        targets = seen + unseen + [drawn]
        assert form.elements_of_order(m, targets) == \
            [want.get((m, t % two_n), []) for t in targets], (form, m)


# ------------------------------------------------- homogeneous decomposition


def test_homogeneous_decomposition_reassembles():
    g = u_block(1).direct_sum(v_block(2)).direct_sum(cyclic_form(1, 2))
    blocks = homogeneous_decomposition(g)
    assert sum(len(b.gens) for b in blocks) == g.rank
    total = 1
    for b in blocks:
        for gen in b.gens:
            assert g.order_of(gen) == 1 << b.level
            total *= 1 << b.level
    assert total == g.order
    # generators across blocks are pairwise orthogonal
    all_gens = [(b.level, gen) for b in blocks for gen in b.gens]
    for i, (la, ga) in enumerate(all_gens):
        for lb, gb in all_gens[i + 1:]:
            if la != lb:
                assert g.eval_b(ga, gb) == 0


def test_invariant_checks_run_under_optimize():
    # python -O strips assert statements; Subgroup.elements must still
    # refuse an element count that differs from the subgroup's order.
    script = textwrap.dedent("""
        from realstrata.fqf import u_block
        sub = u_block(1).subgroup([(1, 0)])
        sub.order = 3
        print("debug:", __debug__)
        try:
            sub.elements()
        except AssertionError as exc:
            print("raised:", exc)
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug: False",
        "raised: subgroup element count differs from its order"]


# ------------------------------------------------------------- serialization


def test_json_dict_is_bit_exact():
    # Every q and b entry is the exact fraction as a string.
    g = u_block(1).direct_sum(cyclic_form(-7, 8)).direct_sum(
        cyclic_form(2, 3))
    d = g.to_json_dict()
    assert d["orders"] == [2, 2, 8, 3]
    assert all(isinstance(s, str) for s in d["q"])
    assert [Fraction(s) for s in d["q"]] == list(g.q)
    assert len(d["b"]) == g.rank and len(d["b"][0]) == g.rank
    assert [[Fraction(s) for s in row] for row in d["b"]] == \
        [list(row) for row in g.b]


# ------------------------------------------------------ hypothesis strategy


_POOL = [
    lambda: cyclic_form(1, 2), lambda: cyclic_form(-1, 2),
    lambda: cyclic_form(1, 4), lambda: cyclic_form(-3, 4),
    lambda: cyclic_form(-7, 8), lambda: u_block(1), lambda: v_block(1),
    lambda: u_block(2), lambda: cyclic_form(2, 3), lambda: cyclic_form(-2, 3),
    lambda: cyclic_form(2, 5), lambda: cyclic_form(-2, 9),
]


@st.composite
def small_forms(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    picks = draw(st.lists(st.integers(0, len(_POOL) - 1),
                          min_size=n, max_size=n))
    return direct_sum_all([_POOL[i]() for i in picks])


@settings(max_examples=80, deadline=None)
@given(small_forms(), st.data())
def test_form_axioms_random(form, data):
    xs = [tuple(data.draw(st.integers(0, o - 1)) for o in form.orders)
          for _ in range(3)]
    x, y, z = xs
    # q lands in [0, 2), b in [0, 1), both with denominators dividing orders
    q = form.eval_q(x)
    assert 0 <= q < 2
    bxy = form.eval_b(x, y)
    assert 0 <= bxy < 1
    assert bxy == form.eval_b(y, x)
    # bilinearity of b in the first slot
    assert form.eval_b(form.add(x, z), y) % 1 == \
        (form.eval_b(x, y) + form.eval_b(z, y)) % 1
    # polar identity
    assert canon_mod2(form.eval_q(form.add(x, y)) - form.eval_q(x)
                      - form.eval_q(y)) == canon_mod2(2 * bxy)
    # orders divide the exponent
    assert form.exponent() % form.order_of(x) == 0


@settings(max_examples=40, deadline=None)
@given(small_forms())
def test_decomposition_preserves_order_random(form):
    for p in sorted({p for o in form.orders for p in factorint(o)}):
        part, gens = form.p_part(p)
        claimed = 1
        for o in part.orders:
            claimed *= o
        expect = 1
        for o in form.orders:
            expect *= p ** factorint(o).get(p, 0)
        assert claimed == expect
        for coords, amb in zip(
                [tuple(1 if i == j else 0 for i in range(part.rank))
                 for j in range(part.rank)], gens):
            assert part.eval_q(coords) == form.eval_q(amb)
