"""Isotropic subgroups, subquotients K-perp/K, and gluing-vector analysis.

The subquotient of a finite quadratic form F by an isotropic subgroup K is
K-perp/K with the induced quadratic form.  All constructions here are exact
and element-enumeration free on the main path (integer HNF/SNF lattice
arithmetic): each quotient generator is represented by the Smith
representative the presentation of K-perp/K yields, one per coset.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import _intmat
from .fqf import (Element, FiniteQuadraticForm, Subgroup,
                  homogeneous_decomposition, _smith_generators, _val)


def is_isotropic(form: FiniteQuadraticForm, sub: Subgroup) -> bool:
    """True when q vanishes identically on the subgroup (equivalently q is
    zero on its generators and b vanishes pairwise between them)."""
    gens = sub.gens
    for i, g in enumerate(gens):
        if form.eval_qn(g):
            return False
        for h in gens[i + 1:]:
            if form.eval_bn(g, h):
                return False
    return True


class Subquotient:
    """K-perp/K presented with invariant-factor generators.

    form:      the induced finite quadratic form on K-perp/K;
    reps:      ambient Smith representatives, one per generator's K-coset;
    kperp:     the subgroup K-perp of the ambient form;
    kernel:    K itself;
    to_coords: ambient element of K-perp -> quotient coordinates.
    """
    __slots__ = ("form", "reps", "kperp", "kernel", "to_coords")

    def __init__(self, form: FiniteQuadraticForm, reps: List[Element],
                 kperp: Subgroup, kernel: Subgroup,
                 to_coords: Callable[[Sequence[int]], Tuple[int, ...]]
                 ) -> None:
        self.form = form
        self.reps = reps
        self.kperp = kperp
        self.kernel = kernel
        self.to_coords = to_coords


def subquotient(form: FiniteQuadraticForm, kernel: Subgroup) -> Subquotient:
    """Compute K-perp/K for an isotropic subgroup K.

    Raises ValueError when K is not isotropic.  The result's generators are
    an invariant-factor chain, each represented by its Smith representative.
    The reps lie in K-perp and K is isotropic, so q(rep + k) = q(rep) and
    b(rep + k, .) = b(rep, .): the quotient form does not depend on which
    member of a coset represents it.
    """
    if not is_isotropic(form, kernel):
        raise ValueError("kernel is not isotropic")
    kperp = form.orthogonal_complement(kernel)
    pres = _smith_generators(form, kperp.lattice,
                             _intmat.transpose(kernel.lattice))
    expected = form.order // (kernel.order * kernel.order)
    got = 1
    for d in pres.orders:
        got *= d
    if got != expected:
        raise AssertionError("subquotient size mismatch")
    quot = form.restricted_form(pres.orders, pres.reps)
    return Subquotient(quot, pres.reps, kperp, kernel, pres.to_coords)


# ----------------------------------------------------- gluing-vector splits


class SplitBlock:
    """One block N_s split off along a gluing vector.

    kind:  "cyclic" (N_s = <u>) or "pair" (N_s = <u, v>);
    m:     the step's order exponent (kappa_s has order 2^m);
    r:     the step's divisibility depth (kappa_s = 2^r * u);
    level: m + r, the homogeneous level carrying u (and v);
    mu:    q(u) * 2^level as an odd/even integer mod 2^(level+1);
    nu:    q(v) * 2^level mod 2^(level+1) (pair blocks only).
    """
    __slots__ = ("kind", "m", "r", "level", "u", "mu", "v", "nu")

    def __init__(self, kind: str, m: int, r: int, level: int, u: Element,
                 mu: int, v: Optional[Element] = None,
                 nu: Optional[int] = None) -> None:
        self.kind = kind
        self.m = m
        self.r = r
        self.level = level
        self.u = u
        self.mu = mu
        self.v = v
        self.nu = nu

    @property
    def gens(self) -> List[Element]:
        return [self.u] if self.v is None else [self.u, self.v]


class SplitDecomposition:
    """Result of split_off_cyclic: kappa = sum of 2^{r_s} u_s with pairwise
    orthogonal blocks N_s, plus the orthogonal rest N_0."""
    __slots__ = ("form", "kappa", "blocks", "base_form", "base_gens")

    def __init__(self, form: FiniteQuadraticForm, kappa: Element,
                 blocks: List[SplitBlock], base_form: FiniteQuadraticForm,
                 base_gens: List[Element]) -> None:
        self.form = form
        self.kappa = kappa
        self.blocks = blocks
        self.base_form = base_form
        self.base_gens = base_gens


def split_off_cyclic(form: FiniteQuadraticForm, kappa: Sequence[int]
                     ) -> SplitDecomposition:
    """Split a 2-primary form along a nonzero vector kappa into at most a few
    rank-<=2 blocks N_1, N_2, ... (with kappa = sum 2^{r_s} u_s, u_s in N_s)
    and an orthogonal remainder N_0.

    Deterministic: the homogeneous decomposition is the lexicographic one and
    pair partners v_s are the lexicographically first valid layer elements.
    """
    kappa = form.reduce(kappa)
    if not any(kappa):
        raise ValueError("kappa must be nonzero")
    layers_blocks = homogeneous_decomposition(form)
    # family of generators grouped by level, ascending
    levels = sorted({blk.level for blk in layers_blocks})
    layer_gens = {lvl: [] for lvl in levels}
    for blk in layers_blocks:
        layer_gens[blk.level].extend(blk.gens)
    family: List[Tuple[int, Element]] = []
    for lvl in levels:
        family.extend((lvl, g) for g in layer_gens[lvl])
    coeffs = _intmat.solve_mod_orders([list(g) for _, g in family],
                                      list(form.orders), list(kappa))
    if coeffs is None:
        raise AssertionError("generator family must span the form")
    coeffs = [c % (1 << lvl) for c, (lvl, _) in zip(coeffs, family)]

    blocks: List[SplitBlock] = []
    while any(coeffs):
        active = [(t, c) for t, c in enumerate(coeffs) if c]
        r_s = min(_val(c, 2) for _, c in active)
        layer_val = {}
        for t, c in active:
            lvl = family[t][0]
            v = _val(c, 2)
            layer_val[lvl] = min(layer_val.get(lvl, v), v)
        n = max(lvl for lvl, v in layer_val.items() if v == r_s)
        m_s = n - r_s
        included = {lvl for lvl, v in layer_val.items() if lvl - v <= m_s}
        u = form.zero()
        for t, c in active:
            lvl, g = family[t]
            if lvl in included:
                u = form.add(u, form.smul(c >> r_s, g))
        if form.order_of(u) != 1 << n:
            raise AssertionError("split vector u has the wrong order")
        # q(u) * 2^n from q(u) * N, N = 2^L with L >= n.
        lam, rem = divmod(form.eval_qn(u), form.N >> n)
        if rem:
            raise AssertionError("q(u) is not in (1/2^n)Z")
        mu = lam % (1 << (n + 1))
        if mu % 2 == 1:
            blocks.append(SplitBlock("cyclic", m_s, r_s, n, u, mu))
        else:
            target = form.N >> n        # b(u, v) = 1/2^n at scale N
            v_el = None
            for v_cand in sorted(form.subgroup(layer_gens[n]).iter_elements()):
                if form.eval_bn(u, v_cand) == target:
                    v_el = v_cand
                    break
            if v_el is None:
                raise AssertionError(
                    "no pairing partner in homogeneous layer")
            nu = (form.eval_qn(v_el) // (form.N >> n)) % (1 << (n + 1))
            blocks.append(SplitBlock("pair", m_s, r_s, n, u, mu, v_el, nu))
        for t, c in enumerate(coeffs):
            if c and family[t][0] in included:
                coeffs[t] = 0

    # invariants of the sequence
    for a, b in zip(blocks, blocks[1:]):
        if not (a.m < b.m and a.r < b.r):
            raise AssertionError("split block levels do not increase")
    if (1 << blocks[-1].m) != form.order_of(kappa):
        raise AssertionError("last split block misses the order of kappa")
    recon = form.zero()
    for blk in blocks:
        recon = form.add(recon, form.smul(1 << blk.r, blk.u))
    if recon != kappa:
        raise AssertionError("split blocks do not sum to kappa")
    all_gens: List[Element] = []
    for blk in blocks:
        all_gens.extend(blk.gens)
    for i, blk_a in enumerate(blocks):
        for blk_b in blocks[i + 1:]:
            for g in blk_a.gens:
                for h in blk_b.gens:
                    if form.eval_bn(g, h):
                        raise AssertionError(
                            "split blocks must be pairwise orthogonal")
    comp = form.orthogonal_complement(form.subgroup(all_gens))
    base_form, base_gens = form.subgroup_as_form(comp)
    return SplitDecomposition(form, kappa, blocks, base_form, base_gens)


# ------------------------------------------------------- case classification


class GluingCase:
    """Classification of the 2-primary shape of a gluing vector."""
    __slots__ = ("tag", "m", "split", "form2", "kappa2", "embedding")

    def __init__(self, tag: str, m: int, split: SplitDecomposition,
                 form2: FiniteQuadraticForm, kappa2: Element,
                 embedding: List[Element]) -> None:
        self.tag = tag
        self.m = m
        self.split = split
        self.form2 = form2
        self.kappa2 = kappa2
        self.embedding = embedding


def classify_gluing_case(form: FiniteQuadraticForm, kappa: Sequence[int],
                         m: Optional[int] = None) -> Optional[GluingCase]:
    """Classify the 2-primary part of a gluing vector into one of the
    structural case tags, or None when the 2-part of kappa vanishes.

    The vector must satisfy the admissibility shape q(kappa_2) = xi/2^(m-1)
    with xi odd, where 2^m is the order of the 2-part; otherwise ValueError.
    When ``m`` is supplied it is checked against the order of the 2-part.
    """
    kappa = form.reduce(kappa)
    form2, gens2 = form.p_part(2)
    if form2.rank == 0:
        return None
    k2_amb = form.primary_component(kappa, 2)
    if not any(k2_amb):
        return None
    coords = _intmat.solve_mod_orders([list(g) for g in gens2],
                                      list(form.orders), list(k2_amb))
    if coords is None:
        raise AssertionError("the 2-part generators must span the 2-part")
    kappa2 = form2.reduce(coords)
    m_derived = _val(form2.order_of(kappa2), 2)
    if m is not None and m != m_derived:
        raise ValueError(
            "gluing vector's 2-part has order 2^%d, not 2^%d"
            % (m_derived, m))
    m = m_derived
    # q(kappa_2) = xi / 2^(m-1) with xi odd, read at the scale N of form2.
    xi, rem = divmod(form2.eval_qn(kappa2) << (m - 1), form2.N)
    if rem or xi % 2 != 1:
        raise ValueError(
            "gluing vector violates the odd-square admissibility shape")
    split = split_off_cyclic(form2, kappa2)
    blocks = split.blocks
    r1 = blocks[0].r
    n_blocks = len(blocks)
    tag: Optional[str] = None
    if r1 == 1:
        if n_blocks == 1 and blocks[0].kind == "cyclic" and blocks[0].m == m:
            tag = "r1_single_cyclic"
    elif r1 == 0:
        if n_blocks == 1:
            if blocks[0].kind == "pair" and blocks[0].m == m:
                tag = "r0_single_pair"
        elif n_blocks == 2:
            b1, b2 = blocks
            if b1.m == m - 1 and b2.r == 1 and b2.m == m:
                if b1.kind == "cyclic" and b2.kind == "pair":
                    tag = "r0_cyclic_low1_pair_high1"
                elif b1.kind == "pair" and b2.kind == "cyclic":
                    tag = "r0_pair_low1_cyclic_high1"
            elif b1.m == m - 1 and b2.r > 1 and b2.m == m:
                if b1.kind == "cyclic" and b2.kind == "cyclic":
                    tag = "r0_cyclic_low1_cyclic_deep"
                elif b1.kind == "cyclic" and b2.kind == "pair":
                    tag = "r0_cyclic_low1_pair_deep"
            elif b1.m <= m - 2 and b2.r == 1 and b2.m == m \
                    and b2.kind == "cyclic":
                if b1.kind == "cyclic":
                    tag = "r0_cyclic_low2_cyclic_high1"
                elif b1.kind == "pair":
                    tag = "r0_pair_low2_cyclic_high1"
    if tag is None:
        raise ValueError("gluing vector shape outside the classification")
    return GluingCase(tag, m, split, form2, kappa2, gens2)
