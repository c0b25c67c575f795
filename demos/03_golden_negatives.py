"""Three strata that provably contain NO real representative.

For rank-18 configurations the search space is finite: every admissible
polarizing square a^2, every n, every kernel candidate.  When all of them
are excluded, the verdict none_exists is exhaustive (basis corlem2) and the
trace records one classified row per excluded kernel candidate (or a single
no_kappa row when a pair has no candidates at all):

  no_kappa             no kernel element of the right order and q-value
  genus_empty          no lattice with the glued discriminant exists
  no_involution_cond3  no involution with phi(kappa) = -kappa induces the
                       identity on K-perp/K (some phi negates kappa: -1 does)

Run:  python3 demos/03_golden_negatives.py
"""
import json
from collections import Counter

from realstrata.detector import detect


CASES = [
    (4, "D7+A6+A3+A2"),   # quartic, rank 18
    (4, "A7+A6+A3+A2"),   # quartic, rank 18
    (2, "A7+A6+A5"),      # sextic,  rank 18
]


def main() -> None:
    for h2, spec in CASES:
        report = detect(h2, spec)
        print(f"== {report.model} {spec} ==")
        print("disc:", report.disc_display)
        print(f"verdict: {report.verdict}  (basis: {report.conclusiveness_basis})")
        hist = Counter(row["reason"] for row in report.trace)
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(hist.items()))
        npairs = len({(row["a2"], row["n"]) for row in report.trace})
        print(f"trace: {len(report.trace)} rows over {npairs} (a^2, n) pairs,"
              f" all excluded: {pairs}")
        print("sample rows:")
        for row in report.trace[:3]:
            print("   ", json.dumps(row))
        print()
    print("Every pair of every stratum above is excluded, so none of these")
    print("singularity configurations is realized by a real surface.")


if __name__ == "__main__":
    main()
