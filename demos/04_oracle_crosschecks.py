"""The brute-force oracle: independent, exhaustive, and in full agreement.

The fast engine reasons structurally (normal forms, p-adic invariants,
bucketed candidate lookups).  The oracle module recomputes the same answers
by literally walking the finite groups involved, so the two implementations
share no shortcuts.  This demo runs three such cross-checks on small strata.

Run:  python3 demos/04_oracle_crosschecks.py
"""
from realstrata.detector import detect, enumerate_a_squares, kernel_candidates
from realstrata.isotropy import subquotient
from realstrata.lattices import RootSpec, polarized_disc, disc_involutions
from realstrata.nikulin import ambient_with_a_block, theta_vector
from realstrata.oracle import (brute_involutions, brute_kernel_candidates,
                               verify_subquotient_presentation)


def main() -> None:
    pf = polarized_disc(RootSpec.parse("A1+A2"), 4)
    print("stratum: quartic A1+A2   disc:", pf.display())
    print()

    print("check 1 - kernel candidates, engine vs exhaustive group walk:")
    pairs = agreeing = 0
    for a2 in enumerate_a_squares(pf):
        for n in (1, 2):
            engine = sorted(kernel_candidates(pf, a2, n))
            brute = [tuple(k) for k in
                     brute_kernel_candidates(pf, a2, n, cutoff=10**6)]
            assert engine == brute, (a2, n)
            pairs += 1
            agreeing += len(engine)
    print(f"  identical candidate lists on all {pairs} (a^2, n) pairs"
          f" ({agreeing} candidates total)")
    print()

    print("check 2 - involutive isometries, engine vs enumerating every")
    print("          order-<=2 matrix that preserves q (both sides reduced")
    print("          integer matrices; the oracle's pass no engine check):")
    engine_set = set(disc_involutions(pf))
    brute_set = set(brute_involutions(pf.form))
    assert engine_set <= brute_set
    print(f"  engine found {len(engine_set)}, brute force confirms each one"
          f" (brute total {len(brute_set)})")
    print()

    print("check 3 - K-perp/K presentations of the glued kernels, proved by")
    print("          one walk of K-perp, spanned by theta and the reps (a")
    print("          candidate kappa becomes isotropic only after gluing the")
    print("          [1/a^2] block on):")
    checked = 0
    for a2 in enumerate_a_squares(pf):
        for n in (1, 2):
            for kappa in kernel_candidates(pf, a2, n):
                big = ambient_with_a_block(pf.form, a2)
                theta = big.reduce(theta_vector(pf.form, kappa, n))
                verify_subquotient_presentation(
                    big, [theta], subquotient(big, theta))
                checked += 1
    print(f"  {checked} glued-kernel presentations verified element by"
          " element of K-perp")
    print()

    report = detect(4, "A1+A2", oracle=True)
    print("detect(..., oracle=True) runs these checks inline:")
    print(f"  verdict: {report.verdict}  oracle_checked: {report.oracle_checked}"
          f"  witness_revalidated: {report.witness_revalidated}")


if __name__ == "__main__":
    main()
