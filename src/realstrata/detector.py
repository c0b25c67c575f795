"""Decision engine: does an equisingular stratum contain a real member?

For a polarized discriminant pf (root spec + polarization square) the engine
searches over gluing data (a2, n, kappa) for an isotropic kernel
K = <kappa (+) n alpha> in disc (+) [1/a2] such that

  (a) the overlattice genus K-perp/K embeds into the even unimodular
      signature (3, 19) lattice with signature (2, rank_S), and
  (b) some symmetry-induced involution phi of the polarized discriminant
      satisfies phi(kappa) = -kappa and phi (+) (-1) induces the identity
      on K-perp/K.

A successful (a2, n, kappa, phi) is a witness; exhausting the search at
rank_S = 18 is conclusive nonexistence; at rank_S = 19 the decision reduces
to reflections of the rank-2 transcendental-side lattice T.
"""

from __future__ import annotations

import io
import json
import time
from functools import lru_cache
from typing import (Callable, Dict, List, NamedTuple, Optional, TextIO,
                    Tuple)

from . import __version__
from .fqf import Element, FiniteQuadraticForm, factorint
from .isotropy import Subquotient, subquotient
from .lattices import (Block, PolarizedForm, RootSpec, _first_involution,
                       _symmetry_table, checked_involution,
                       maximizing_has_skew, polarized_disc,
                       require_stratum_rank)
from .nikulin import (ambient_with_a_block, embeds_into_big_L, length_bound,
                      theta_vector)

SCOPE_NOTE = (
    "A witness certifies only that the polarized lattice extends to some "
    "abstract homological type admitting an involutive skew-automorphism; "
    "it does not identify which homological type carries it, nor certify "
    "any particular one.")

REASONS = ("no_kappa", "genus_empty", "no_involution_cond3")

VERDICTS = ("witness_found", "none_exists", "inconclusive", "needs_T_gram")

BASES = ("corlem1", "corlem2", "rankT2")


class KernelCandidate(NamedTuple):
    """One gluing datum: kernel order a2/n, generator kappa (+) n alpha."""
    a2: int
    n: int
    kappa: Element


def _factors_of_2n(pf: PolarizedForm) -> Dict[int, int]:
    """The factorization of 2N, N the exponent of pf, once per form: every
    order of a form built from pf (glued, or a K-perp/K) divides 2N."""
    if "2N" not in pf._cache:
        pf._cache["2N"] = factorint(2 * pf.form.N)
    return pf._cache["2N"]


def enumerate_a_squares(pf: PolarizedForm) -> List[int]:
    """Even divisors of twice the exponent of the polarized discriminant,
    ascending — the complete range of polarizing squares a^2.  Built from
    the factorization, so a huge h2 costs its divisors, not a scan."""
    divs = [1]
    for p, k in _factors_of_2n(pf).items():
        divs = [d * p ** i for d in divs for i in range(k + 1)]
    return sorted(d for d in divs if d % 2 == 0)


def _kernel_target(pf: PolarizedForm, a2: int, n: int) -> Optional[int]:
    """The q*N, mod 2N, of a kappa of the pair (a2, n): -n^2 N / a2, or
    None when n does not divide a2 or that is not an integer, since q*N of
    every element is one."""
    if a2 % n:
        return None
    target, rem = divmod(-n * n * pf.form.N, a2)
    return None if rem else target % (2 * pf.form.N)


def kernel_candidates(pf: PolarizedForm, a2: int, n: int) -> List[Element]:
    """All kappa with order a2/n and q(kappa) = -n^2/a2 mod 2, in
    lexicographic coordinate order: the tuples
    FiniteQuadraticForm.elements_of_order lists, in the list cached on pf,
    which callers read and never change (_search's trace rows hold these
    very tuples, and the oracle reads the same lists).  The walk asks an
    order m at (2m, 2), and at (m, 1) when m is even, so the first call
    for an order lists all of them, from one pair of halves."""
    target = _kernel_target(pf, a2, n)
    if target is None:
        return []
    m = a2 // n
    if ("order", m, target) not in pf._cache:
        pairs = {(a2, n), (2 * m, 2)} | ({(m, 1)} if m % 2 == 0 else set())
        targets = sorted({t for t in (_kernel_target(pf, *pair)
                                      for pair in pairs) if t is not None})
        for t, kappas in zip(targets, pf.form.elements_of_order(m, targets)):
            pf._cache["order", m, t] = kappas
    return pf._cache["order", m, target]


def check_candidate(pf: PolarizedForm, cand: KernelCandidate
                    ) -> Tuple[str, Optional[Block], Subquotient]:
    """Decide one candidate: the glued genus, then one involution question.

    K = <kappa (+) n alpha> and K-perp/K are built once, as the
    Subquotient sq that every return hands back, so the oracle proves the
    very presentation the decision read.  K-perp is not built on its own:
    theta = kappa (+) n alpha and sq.reps generate it.  Returns
    ("genus_empty", None, sq) when K-perp/K does not embed into the (3, 19)
    lattice with signature (2, rank_S); ("witness", phi, sq) for the first
    symmetry-induced involution, in sorted matrix order, with phi(kappa) =
    -kappa inducing the identity on K-perp/K; else ("no_involution_cond3",
    None, sq).

    Condition (2) alone, some phi with phi(kappa) = -kappa, always holds:
    -1 is a symmetry-induced involution (the checked blocks of every
    component hold -I mod its orders as a fixed block: A_n, D_odd, E6 and
    E7 have +-I, -I = I mod 2 on D_even, E8 owns no rows, and h has
    [[-1]]), and it negates every kappa.  So it is not asked on its own.
    It still rides in the one question asked, since phi (+) -1 preserves
    K only if phi(kappa) = -kappa: _first_involution takes the first phi,
    in sorted matrix order, that negates kappa and sends each of sq.reps
    where it must go, asking G's checked blocks on the slices of those
    elements, and places the slots of no other matching.  That phi, a
    reduced matrix whose j-th column is the image of the j-th generator,
    is the witness, checked again on the whole matrix by
    lattices.checked_involution.
    """
    form = pf.form
    big = pf._cache.get(("ambient", cand.a2))
    if big is None:
        big = pf._cache[("ambient", cand.a2)] = ambient_with_a_block(
            form, cand.a2)
    primes = _factors_of_2n(pf)
    sq = subquotient(big, theta_vector(form, cand.kappa, cand.n), primes)
    if not embeds_into_big_L(2, pf.rank_S, sq.form, primes)[0]:
        return "genus_empty", None, sq
    # phi (+) -1 preserves K only if phi(kappa) = -kappa, which is also
    # all that theta asks.  (phi (+) -1)(g) - g has alpha coordinate
    # -2 g_alpha; it lies in K = <kappa (+) n alpha> iff that is t*n mod a2
    # (a2 is even, so t = -2 g_alpha / n exists) and its disc part is
    # t*kappa.  So phi must send the disc part of each rep g to g + t*kappa.
    wanted = [(cand.kappa, form.neg(cand.kappa))]
    for g in sq.reps:
        t = -2 * g[-1] % cand.a2 // cand.n
        wanted.append((g, tuple((gi + t * ki) % o for gi, ki, o
                                in zip(g, cand.kappa, form.orders))))
    found = _first_involution(pf, wanted)
    if found is not None:
        return "witness", checked_involution(form, found), sq
    return "no_involution_cond3", None, sq


def _orbit_key(pf: PolarizedForm) -> Callable[[Element], tuple]:
    """pf's orbit key: a function of kappa that is the same for kappa and
    g*kappa, for every g in the symmetry group G, and different for kappas
    in different G-orbits: per class of equal components the sorted block
    minima read off the symmetry table, then min(h, -h) on the h
    coordinate (the table's last entry).  The table's class slices are
    read once, here, not once per kappa."""
    classes = [(cuts, minima)
               for cuts, _, minima in _symmetry_table(pf)[:-1]]
    h_order = pf.form.orders[-1]

    def key(kappa: Element) -> tuple:
        h = kappa[-1]
        return (tuple(tuple(sorted(minima[kappa[lo:hi]] for lo, hi in cuts))
                      for cuts, minima in classes),
                min(h, -h % h_order))

    return key


def _search(pf: PolarizedForm, trace: List[dict]
            ) -> Optional[Tuple[KernelCandidate, Block, Subquotient]]:
    """Walk the gluing data in engine order, appending one trace row per
    excluded candidate (or empty (a2, n) pair); return the first witness
    with the K-perp/K it was decided from.  A row holds its kappa as the
    tuple kernel_candidates listed, so no row holds a container of its
    own, and the cyclic GC can leave the rows untracked; JSON writes the
    tuple as it writes a list.  Each (a2, n) reads only its own
    candidates, listed in lexicographic order by the form's own
    FiniteQuadraticForm.elements_of_order, a meet in the middle at one of
    its orthogonal cuts, built once per order for both of its pairs; no
    q*N that no pair asks is listed.  A KernelCandidate is built only for
    a kappa that is decided.

    A pair (a2, n) is settled whole, every kappa a genus_empty row, when
    clause 1 of the embedding criterion fails on every K-perp/K it can
    give: when some prime p has l_p(disc (+) [1/a2]) > bound + 2 [p | m],
    with m = a2/n the order of K and bound = nikulin.length_bound(2,
    rank_S).  For p not dividing m, K_p = 0 and b(x, theta) = 0 on the
    p-part, so (K-perp/K)_p is the p-part of disc (+) [1/a2].  For any p,
    the group modulo K-perp is cyclic, and so is K, so l_p(K-perp/K) >=
    l_p(disc (+) [1/a2]) - 2.  The lengths are read off the orders, plus
    [p | a2]; no form is built for a settled pair, and it is never keyed.

    Only the first kappa of each orbit of the symmetry group G is decided;
    every later kappa of the orbit gets its row from that status.  G is
    generated by the diagram automorphisms of each component (their images
    on its discriminant: +-1, the spinor swap of D_even, S3 on D4), the
    permutations of equal components and the sign on h.  It is one table
    per form (lattices._symmetry_table), built before the walk: every
    block of G is checked there, once, as an isometry of its component's
    slice of pf.form, before any candidate is decided, and G is kept as
    those blocks.  The same table gives the orbit minima that _orbit_key
    names the orbits by and the blocks that the involution question is
    asked of, each slot option read off them in matrix order, none placed
    up front.  This is sound because, for every g in G:

    * g is an isometry of the polarized discriminant, so g (+) id sends
      K = <kappa (+) n alpha> to <g kappa (+) n alpha> with an isometric
      K-perp/K, and the genus verdict is the same;
    * the symmetry-induced involutions are closed under conjugation by G
      (a conjugated slot map is a slot map), and g (+) id commutes with
      id (+) -1.  So phi(kappa) = -kappa iff (g phi g^-1)(g kappa) =
      -g kappa, and phi (+) -1 is the identity on K-perp/K iff
      g phi g^-1 (+) -1 is the identity on its image under g (+) id.

    So status(g kappa) = status(kappa).  Nothing before a witnessed
    orbit's first kappa is a witness, so the witness (kappa, phi) is the
    one a kappa-by-kappa walk finds.
    """
    _symmetry_table(pf)     # checks pf.form and every block of G
    orbit_key = _orbit_key(pf)
    bound = length_bound(2, pf.rank_S)
    lengths = {p: pf.form.length_p(p) for p in _factors_of_2n(pf)}
    for a2 in enumerate_a_squares(pf):
        for n in (2, 1):
            kappas = kernel_candidates(pf, a2, n)
            if not kappas:
                trace.append({"a2": a2, "n": n, "kappa": None,
                              "reason": "no_kappa"})
            m = a2 // n
            if any(ell + (a2 % p == 0) > bound + 2 * (m % p == 0)
                   for p, ell in lengths.items()):
                trace += [{"a2": a2, "n": n, "kappa": kappa,
                           "reason": "genus_empty"} for kappa in kappas]
                continue
            decided: Dict[tuple, str] = {}
            for kappa in kappas:
                key = orbit_key(kappa)
                status = decided.get(key)
                if status is None:
                    cand = KernelCandidate(a2, n, kappa)
                    status, phi, sq = check_candidate(pf, cand)
                    if status == "witness":
                        return cand, phi, sq
                    decided[key] = status
                trace.append({"a2": a2, "n": n, "kappa": kappa,
                              "reason": status})
    return None


class DetectionReport:
    """One stratum's decision, as detect returns it.  Each trace row is a
    dict {a2, n, kappa, reason}, with kappa None or the tuple of ints that
    kernel_candidates listed, shared with pf's cache and never copied;
    to_json_dict, write_json and json.dumps write it as a list, so the
    JSON is that of a list."""
    __slots__ = ("model", "spec_text", "rank_S", "rank_T", "disc_display",
                 "disc_form", "tags", "verdict", "conclusiveness_basis",
                 "witness", "witness_revalidated", "trace", "wall_time_ms",
                 "generated_at", "oracle_checked", "version")

    def __init__(self, model: str, spec_text: str, rank_S: int, rank_T: int,
                 disc_display: str, disc_form: FiniteQuadraticForm,
                 tags: List[object], verdict: str,
                 conclusiveness_basis: Optional[str],
                 witness: Optional[dict],
                 witness_revalidated: Optional[object], trace: List[dict],
                 wall_time_ms: int, generated_at: str,
                 oracle_checked: object, version: str) -> None:
        self.model = model
        self.spec_text = spec_text
        self.rank_S = rank_S
        self.rank_T = rank_T
        self.disc_display = disc_display
        self.disc_form = disc_form
        self.tags = tags
        self.verdict = verdict
        self.conclusiveness_basis = conclusiveness_basis
        self.witness = witness
        self.witness_revalidated = witness_revalidated
        self.trace = trace
        self.wall_time_ms = wall_time_ms
        self.generated_at = generated_at
        self.oracle_checked = oracle_checked
        self.version = version

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "model": self.model,
            "spec": self.spec_text,
            "rank_S": self.rank_S,
            "rank_T": self.rank_T,
            "disc": {
                "display": self.disc_display,
                "form": self.disc_form.to_json_dict(),
                "tags": self.tags,
            },
            "verdict": self.verdict,
            "conclusiveness_basis": self.conclusiveness_basis,
            "scope_note": SCOPE_NOTE,
            "witness": self.witness,
            "witness_revalidated": self.witness_revalidated,
            "trace": self.trace,
            "oracle_checked": self.oracle_checked,
            "wall_time_ms": self.wall_time_ms,
            "generated_at": self.generated_at,
        }

    def write_json(self, fp: TextIO, doc: Optional[dict] = None,
                   opening: str = "{") -> dict:
        """Write to fp exactly the text of json.dumps(doc, sort_keys=True,
        indent=2), with opening in place of its opening brace, and return
        doc: to_json_dict() unless the caller passes the dict it built
        from it.  --json and to_json write the document as it is.  The
        cache builds doc itself, since its summary line, the opening it
        passes, counts the reasons in doc's trace before the first write;
        so it reads no return value.  The keys around the trace
        go through json.dumps; each trace row goes through the %-template
        of its a2, n, reason and kappa's width (_row_template), and the
        rows reach fp a chunk at a time, so a census-size report is never
        held as one text.  A row is {a2, n, kappa, reason} as _search
        writes it: a2 and n ints, kappa null or the tuple of ints
        kernel_candidates listed (json.dumps writes a tuple as a list),
        reason one of REASONS, which json.dumps writes as it is."""
        if doc is None:
            doc = self.to_json_dict()
        trace = doc["trace"]
        if not trace:
            fp.write(opening + json.dumps(doc, sort_keys=True, indent=2)[1:])
            return doc
        # Only top-level keys sit at indent 2, and json.dumps escapes the
        # newlines inside strings, so the split finds the trace key's line.
        head, tail = json.dumps({**doc, "trace": []}, sort_keys=True,
                                indent=2).split('\n  "trace": []')
        fp.write(opening + head[1:] + '\n  "trace": [')
        sep = ""
        for start in range(0, len(trace), _ROWS_PER_WRITE):
            fp.write(sep + _trace_rows_json(
                trace[start:start + _ROWS_PER_WRITE]))
            sep = ","
        fp.write("\n  ]" + tail)
        return doc

    def to_json(self) -> str:
        """The report's JSON document: write_json's text."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()


# Trace rows write_json formats before one write: a few hundred kB of text.
_ROWS_PER_WRITE = 2048


@lru_cache(maxsize=1024)
def _row_template(a2: int, n: int, reason: str, width: Optional[int]
                  ) -> str:
    """The %-template of one trace row with this a2, n and reason whose
    kappa has `width` entries (None: kappa is null), as json.dumps(...,
    sort_keys=True, indent=2) writes the row inside the report: the row at
    indent 4, its keys at 6, kappa's entries at 8.  a2, n and reason are
    written in; it takes kappa's entries alone, as %d.  Built once per
    (a2, n, reason, width)."""
    if width is None:
        kappa = "null"
    elif width:
        kappa = ("[\n        " + ",\n        ".join(["%d"] * width)
                 + "\n      ]")
    else:
        kappa = "[]"
    return ('\n    {\n      "a2": %d,\n      "kappa": ' % a2 + kappa
            + ',\n      "n": %d,\n      "reason": "%s"\n    }' % (n, reason))


def _trace_rows_json(rows: List[dict]) -> str:
    """Trace rows as write_json writes them, joined by ",".  Each run of
    rows that share a2, n, reason and kappa's width goes through one
    template (_row_template), applied as template % kappa: the row's own
    kappa tuple is the whole argument, so none is built per row.  The
    rows of a pair share a2 and n, and a pair settled by the length bound
    is one run of genus_empty rows."""
    texts: List[str] = []
    run = None
    for row in rows:
        kappa = row["kappa"]
        key = (row["a2"], row["n"], row["reason"],
               None if kappa is None else len(kappa))
        if key != run:
            run, template = key, _row_template(*key)
        texts.append(template if kappa is None else template % kappa)
    return ",".join(texts)


def model_name(h2: int) -> str:
    if h2 == 4:
        return "quartic"
    if h2 == 2:
        return "sextic"
    return f"h2={h2}"


def parse_model(text: str) -> int:
    # ASCII whitespace only: str.strip() would also take U+2003.
    text = text.strip(" \t\n\r\f\v").lower()
    if text == "quartic":
        return 4
    if text in ("sextic", "sextic-planar"):
        return 2
    if text.startswith("h2="):
        # ASCII digits only: int() would also take "4_0", "+4", " 4" and
        # the digits of other scripts.
        digits = text[3:]
        h2 = int(digits) if digits.isascii() and digits.isdigit() else 1
        if h2 < 2 or h2 % 2:
            raise ValueError("h2 must be a positive even integer")
        return h2
    raise ValueError(f"unknown model {text!r}")


def require_tgram_rank(spec: RootSpec, tgram) -> None:
    """Raise ValueError when a Gram matrix of T comes with a stratum whose
    rank_S is not 19: only the rank-19 dispatch reads it."""
    if tgram is not None and spec.rank != 19:
        raise ValueError("tgram applies only at rank_S = 19; this "
                         f"stratum has rank_S = {spec.rank}")


def detect(h2: int, spec: RootSpec | str, tgram=None,
           oracle: bool = False) -> DetectionReport:
    """Run the full decision pipeline for one stratum.

    h2: polarization square (4 = quartic surface in P^3, 2 = double plane
        branched over a sextic curve);
    spec: the ADE configuration;
    tgram: optional 2x2 Gram matrix of the transcendental-side lattice,
           required for conclusiveness at rank_S = 19 and refused (with
           ValueError) at any other rank, where nothing reads it;
    oracle: re-check decisions by brute force where group sizes permit.

    The report's trace rows hold each kappa as the tuple kernel_candidates
    listed (see DetectionReport); the JSON writes it as a list.
    """
    t0 = time.monotonic()
    if isinstance(spec, str):
        spec = RootSpec.parse(spec)
    require_stratum_rank(spec)
    require_tgram_rank(spec, tgram)
    pf = polarized_disc(spec, h2)
    rank_s = pf.rank_S

    trace: List[dict] = []
    witness: Optional[dict] = None
    witness_reval: Optional[object] = None
    verdict: str
    basis: Optional[str] = None
    oracle_checked: object = False

    if rank_s == 19:
        if tgram is None:
            verdict = "needs_T_gram"
        else:
            has = maximizing_has_skew(tgram, pf)
            verdict = "witness_found" if has else "none_exists"
            basis = "rankT2"
    else:
        found = _search(pf, trace)
        if found:
            cand, phi, sq = found
            witness = {"a2": cand.a2, "n": cand.n,
                       "kappa": list(cand.kappa),
                       "phi": [list(row) for row in phi]}
            verdict = "witness_found"
            basis = "corlem1"
            from . import oracle as oracle_mod
            witness_reval = oracle_mod.revalidate_witness(pf, cand, phi, sq)
        else:
            if rank_s == 18:
                verdict = "none_exists"
                basis = "corlem2"
            else:
                verdict = "inconclusive"
                basis = None

    if oracle and rank_s <= 18:
        from . import oracle as oracle_mod
        oracle_checked = oracle_mod.cross_check_trace(pf, trace, witness)

    wall_ms = int((time.monotonic() - t0) * 1000)
    return DetectionReport(
        model=model_name(h2),
        spec_text=spec.display_text(),
        rank_S=rank_s,
        rank_T=pf.rank_T,
        disc_display=pf.display(),
        disc_form=pf.form,
        tags=list(pf.tags),
        verdict=verdict,
        conclusiveness_basis=basis,
        witness=witness,
        witness_revalidated=witness_reval,
        trace=trace,
        wall_time_ms=wall_ms,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        oracle_checked=oracle_checked,
        version=__version__,
    )
