"""Anatomy of one detection run, stage by stage.

detect() asks: does the stratum of quartics with a D4+A2 singularity
configuration contain a real surface?  The pipeline it runs:

  1. enumerate the admissible polarizing squares a^2;
  2. for each (a^2, n), list kernel candidates kappa in the polarized
     discriminant with order a^2/n and q(kappa) = -n^2/a^2 mod 2Z;
  3. build K-perp/K once and test whether a lattice with that glued
     discriminant exists at all (p-adic genus conditions);
  4. look for a symmetry-induced involution phi with phi(kappa) = -kappa
     that induces the identity on K-perp/K; both conditions say where phi
     sends given elements, and only the phi meeting them are generated.

check_candidate runs stages 3 and 4 for one candidate and names the first
stage that excludes it; it also returns the K-perp/K it built, which is
what the oracle re-verifies for a witness.  An involution phi is its
reduced integer matrix, a tuple of rows whose j-th column is the image of
the j-th generator, row i read mod the i-th order.  That matrix is what
disc_involutions lists, what check_candidate returns, and what the report
writes as the witness's phi.

The first candidate passing all stages is a witness; it is then
re-verified by the brute-force oracle before being reported.

Run:  python3 demos/02_detect_walkthrough.py
"""
from realstrata.detector import (detect, enumerate_a_squares,
                                 kernel_candidates, check_candidate)
from realstrata.lattices import RootSpec, polarized_disc, disc_involutions


def main() -> None:
    pf = polarized_disc(RootSpec.parse("D4+A2"), 4)
    print("stratum: quartic D4+A2   disc:", pf.display())
    print()

    print("stage 1 - polarizing squares a^2 (even divisors of twice the")
    print("          discriminant exponent):", enumerate_a_squares(pf))
    print()

    phis = disc_involutions(pf)
    print(f"stage 4 pool - the polarized discriminant admits {len(phis)}"
          " involutive isometries")
    print()

    print("walking candidates in the engine's order (n = 2 before n = 1):")
    shown = 0
    for a2 in enumerate_a_squares(pf):
        for n in (2, 1):
            cands = kernel_candidates(pf, a2, n)
            if not cands or shown >= 4:
                continue
            shown += 1
            cand = cands[0]
            print(f"  a^2 = {a2}, n = {n}: {len(cands)} kernel candidate(s);"
                  f" first kappa = {list(cand.kappa)}")
            outcome, phi, sq = check_candidate(pf, cand)
            print(f"    stages 3-4: {outcome}   (K-perp/K has prime-power"
                  f" pieces {list(sq.form.orders)})")
            if phi is not None:
                print(f"    phi matrix rows: {[list(r) for r in phi]}")
    print()

    report = detect(4, "D4+A2")
    print("full run verdict:", report.verdict,
          f"(basis: {report.conclusiveness_basis})")
    w = report.witness
    print(f"witness: a2={w['a2']} n={w['n']} kappa={w['kappa']}")
    print("independently revalidated by the brute-force oracle:",
          report.witness_revalidated)
    # to_json is the text `realstrata detect --json` prints and the cache
    # stores (write_json streams the same text to a file).
    head = report.to_json().splitlines()[:3]
    print("report JSON begins:", " ".join(line.strip() for line in head))


if __name__ == "__main__":
    main()
