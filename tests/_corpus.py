"""Deterministic randomized corpus of finite quadratic forms.

Shared between the property suite and the acceptance gate: ``corpus()``
returns (and caches) a fixed-seed list of forms of order <= 512, built
from prime-power cyclic blocks and the two even 2-adic rank-2 blocks,
each paired with a random cyclic isotropic kernel generator.

Every generator of every form has prime-power order, so the 2-primary
part is the restriction to the even-order coordinates; each item carries
that sub-form pre-built.
"""

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from realstrata.fqf import (FiniteQuadraticForm, cyclic_form, direct_sum_all,
                            u_block, v_block)

SEED = 937162211
ORDER_CAP = 512
CORPUS_SIZE = 1000


@dataclass
class CorpusItem:
    form: FiniteQuadraticForm
    kappa: Tuple[int, ...]        # kernel generator (may be the zero element)
    form2: FiniteQuadraticForm    # the 2-primary part as a standalone form
    two_indices: Tuple[int, ...]  # ambient indices of the 2-primary part


def _random_block(rng: random.Random) -> FiniteQuadraticForm:
    kind = rng.randrange(6)
    if kind == 0:
        return u_block(rng.choice((1, 2, 3)))
    if kind == 1:
        return v_block(rng.choice((1, 2)))
    if kind in (2, 3):
        n = 2 ** rng.choice((1, 1, 2, 2, 3, 4))
        return cyclic_form(rng.randrange(1, 2 * n, 2), n)
    p = rng.choice((3, 3, 5, 7))
    n = p ** (rng.choice((1, 2)) if p == 3 else 1)
    units = [m for m in range(2, 2 * n, 2) if math.gcd(m, n) == 1]
    return cyclic_form(rng.choice(units), n)


def _pick_kernel(rng: random.Random,
                 form: FiniteQuadraticForm) -> Tuple[int, ...]:
    # q(x) = 0 in Q/2Z makes <x> isotropic: q(kx) = k^2 q(x) and
    # b(jx, kx) = jk q(x) mod 1 vanish with it.
    iso = [x for x in form.iter_elements() if any(x) and form.eval_q(x) == 0]
    if not iso or rng.random() < 0.05:
        return form.zero()
    return rng.choice(iso)


def build_corpus(count: int = CORPUS_SIZE,
                 seed: int = SEED) -> List[CorpusItem]:
    rng = random.Random(seed)
    items: List[CorpusItem] = []
    while len(items) < count:
        blocks = [_random_block(rng) for _ in range(1 + rng.randrange(3))]
        kept = []
        total = 1
        for blk in blocks:
            if total * blk.order > ORDER_CAP:
                continue
            kept.append(blk)
            total *= blk.order
        form = direct_sum_all(kept)
        if form.rank == 0:
            continue
        form2 = direct_sum_all([b for b in kept if b.order % 2 == 0])
        two_idx = tuple(i for i, o in enumerate(form.orders) if o % 2 == 0)
        kappa = _pick_kernel(rng, form)
        items.append(CorpusItem(form, kappa, form2, two_idx))
    return items


_CACHE: dict = {}


def corpus() -> List[CorpusItem]:
    """The shared fixed-seed corpus, built once per process."""
    if "items" not in _CACHE:
        _CACHE["items"] = build_corpus()
    return _CACHE["items"]


# Strata whose polarized discriminants feed the oracle-equivalence checks
# (kept small enough for full brute-force enumeration).
ORACLE_STRATA: List[Tuple[str, int]] = [
    ("A1", 4), ("2*A1", 4), ("A2", 4), ("A1+A2", 4), ("A3", 4),
    ("2*A2", 4), ("A3+A1", 4), ("D4", 4), ("A4", 4), ("E6", 4),
    ("E7", 4), ("A1", 2), ("A2", 2), ("A3", 2), ("A5", 2),
]


def _vp(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def det_relation_report() -> dict:
    """Check the determinant/length relations between each corpus form and
    its kernel subquotient.  Memoized; returns counters plus a ``failures``
    list of (item index, description) pairs (empty on success).

    Relations checked per prime p dividing the form order, with K = <kappa>:
      * |K-perp/K| = |F| / |K|^2, and the det_p valuation drops by 2 v_p(|K|);
      * l_p(K-perp/K) <= l_p(F);
      * l_p equal        -> det_p units agree (graded square classes);
      * l_2 strictly less -> the drop is exactly 2 and det_2 is negated,
        and the first split block along the 2-part of kappa has r = 0.

    At odd p a cyclic kernel can change the parity of l_p (kernel <3g> in
    [2a/9] gives K-perp = K and l_3: 1 -> 0), so no det or parity claim is
    made when l_p strictly drops at odd p.
    """
    if "det_report" in _CACHE:
        return _CACHE["det_report"]
    from _gluing import is_isotropic, split_off_cyclic
    from realstrata.isotropy import subquotient
    from realstrata.nikulin import SquareClass, det_p

    counts = {"items": 0, "primes": 0, "length_equal": 0,
              "length_drop_2": 0, "nonzero_kernels": 0, "r1_checked": 0}
    failures: List[Tuple[int, str]] = []

    def fail(idx: int, msg: str) -> None:
        failures.append((idx, msg))

    for idx, item in enumerate(corpus()):
        form = item.form
        kernel = form.subgroup([item.kappa])
        if not is_isotropic(form, kernel):
            fail(idx, "chosen kernel is not isotropic")
            continue
        counts["items"] += 1
        if any(item.kappa):
            counts["nonzero_kernels"] += 1
        sub = subquotient(form, item.kappa).form
        if sub.order * kernel.order ** 2 != form.order:
            fail(idx, "size relation violated")
        for p in form.primes():
            counts["primes"] += 1
            df, ds = det_p(form, p), det_p(sub, p)
            vk = _vp(kernel.order, p)
            if ds.valuation != df.valuation - 2 * vk:
                fail(idx, f"det_{p} valuation off")
            lf, ls = form.length_p(p), sub.length_p(p)
            if ls > lf:
                fail(idx, f"l_{p} grew")
            expected = SquareClass(p, df.valuation - 2 * vk, df.unit, df.even)
            if ls == lf:
                counts["length_equal"] += 1
                if not ds.same_class(expected):
                    fail(idx, f"det_{p} unit changed at equal length")
            elif p == 2:
                counts["length_drop_2"] += 1
                if lf - ls != 2:
                    fail(idx, f"l_2 dropped by {lf - ls}, not 2")
                if not ds.same_class(expected.scaled_by_unit(-1)):
                    fail(idx, "det_2 not negated at dropped length")
        kappa2 = tuple(item.kappa[i] for i in item.two_indices)
        if any(kappa2) and sub.length_p(2) < form.length_p(2):
            counts["r1_checked"] += 1
            dec = split_off_cyclic(item.form2, kappa2)
            if dec.blocks[0].r != 0:
                fail(idx, "first split block has r != 0 despite length drop")

    report = {"counts": counts, "failures": failures}
    _CACHE["det_report"] = report
    return report


def oracle_agreement_report() -> dict:
    """Brute-force agreement checks, memoized.

    * every corpus subquotient presentation is proved by one walk of K-perp;
    * on each ORACLE_STRATA discriminant, symmetry-induced involutions are
      a subset of the brute involution list, and the kernel-candidate lists
      agree exactly for every admissible (a^2, n).
    """
    if "oracle_report" in _CACHE:
        return _CACHE["oracle_report"]
    from realstrata.detector import enumerate_a_squares, kernel_candidates
    from realstrata.isotropy import subquotient
    from realstrata.lattices import RootSpec, disc_involutions, polarized_disc
    from realstrata.oracle import (brute_involutions, brute_kernel_candidates,
                                   verify_subquotient_presentation)

    counts = {"subquotients": 0, "strata": 0, "candidate_pairs": 0,
              "involution_sets": 0}
    failures: List[Tuple[object, str]] = []

    for idx, item in enumerate(corpus()):
        try:
            form = item.form
            sq = subquotient(form, item.kappa)
            verify_subquotient_presentation(form, [item.kappa], sq)
            counts["subquotients"] += 1
        except AssertionError as exc:
            failures.append((idx, f"subquotient presentation: {exc}"))

    for spec_text, h2 in ORACLE_STRATA:
        key = (spec_text, h2)
        pf = polarized_disc(RootSpec.parse(spec_text), h2)
        counts["strata"] += 1
        engine = set(disc_involutions(pf))
        brute = set(brute_involutions(pf.form))
        counts["involution_sets"] += 1
        if not engine <= brute:
            failures.append((key, "engine involution not confirmed by brute"))
        for a2 in enumerate_a_squares(pf):
            for n in (1, 2):
                got = sorted(kernel_candidates(pf, a2, n))
                want = [tuple(k) for k in brute_kernel_candidates(pf, a2, n)]
                counts["candidate_pairs"] += 1
                if got != want:
                    failures.append(
                        (key, f"candidate mismatch at a2={a2} n={n}"))

    report = {"counts": counts, "failures": failures}
    _CACHE["oracle_report"] = report
    return report
