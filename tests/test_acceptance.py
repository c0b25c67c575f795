"""Acceptance gate: nine criteria, one test — and one pass/fail line — each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdict lines (each test prints a PASS summary visible with ``-s``).
All comparisons are exact (Fraction arithmetic); the only tolerances are
the wall-clock budgets on the two decision criteria.
"""

from realstrata.detector import detect, enumerate_a_squares, kernel_candidates
from realstrata.lattices import RootSpec, polarized_disc
from realstrata.oracle import brute_kernel_candidates

from _corpus import corpus, det_relation_report, oracle_agreement_report
from _gluing_table import INSTANCES, run_instance

GOLDEN_D7 = "D7+A6+A3+A2"
GOLDEN_A7 = "A7+A6+A3+A2"
GOLDEN_SEXTIC = "A7+A6+A5"

# Frozen per-(a^2, n) failure-reason tables for the three golden strata.
REASONS_D7 = {
    (2, 1): {"no_kappa"}, (2, 2): {"genus_empty"},
    (4, 1): {"no_involution_cond3"}, (4, 2): {"genus_empty"},
    (6, 1): {"no_kappa"}, (6, 2): {"genus_empty"},
    (8, 1): {"no_kappa"}, (8, 2): {"no_involution_cond3"},
    (12, 1): {"no_kappa"}, (12, 2): {"no_kappa"},
    (14, 1): {"no_kappa"}, (14, 2): {"no_kappa"},
    (24, 1): {"no_kappa"}, (24, 2): {"no_involution_cond3"},
    (28, 1): {"no_kappa"}, (28, 2): {"no_kappa"},
    (42, 1): {"no_kappa"}, (42, 2): {"genus_empty"},
    (56, 1): {"no_kappa"}, (56, 2): {"no_kappa"},
    (84, 1): {"no_kappa"}, (84, 2): {"no_kappa"},
    (168, 1): {"no_kappa"}, (168, 2): {"no_involution_cond3"},
}

REASONS_A7 = {
    (2, 1): {"no_kappa"}, (2, 2): {"genus_empty"},
    (4, 1): {"no_involution_cond3"}, (4, 2): {"genus_empty"},
    (6, 1): {"no_kappa"}, (6, 2): {"genus_empty"},
    (8, 1): {"no_kappa"},
    (8, 2): {"no_involution_cond3", "genus_empty"},
    (12, 1): {"no_kappa"}, (12, 2): {"no_kappa"},
    (14, 1): {"no_kappa"}, (14, 2): {"no_kappa"},
    (16, 1): {"no_kappa"}, (16, 2): {"no_kappa"},
    (24, 1): {"no_involution_cond3"}, (24, 2): {"genus_empty"},
    (28, 1): {"no_kappa"}, (28, 2): {"no_kappa"},
    (42, 1): {"no_kappa"}, (42, 2): {"genus_empty"},
    (48, 1): {"no_kappa"}, (48, 2): {"no_kappa"},
    (56, 1): {"no_kappa"}, (56, 2): {"no_kappa"},
    (84, 1): {"no_kappa"}, (84, 2): {"no_kappa"},
    (112, 1): {"no_kappa"}, (112, 2): {"no_kappa"},
    (168, 1): {"no_involution_cond3"},
    (168, 2): {"no_involution_cond3", "genus_empty"},
    (336, 1): {"no_kappa"}, (336, 2): {"no_kappa"},
}

REASONS_SEXTIC = {
    (2, 1): {"no_kappa"}, (2, 2): {"genus_empty"},
    (4, 1): {"no_kappa"},
    (4, 2): {"no_involution_cond3", "genus_empty"},
    (6, 1): {"no_kappa"}, (6, 2): {"no_kappa"},
    (8, 1): {"no_kappa"}, (8, 2): {"no_involution_cond3"},
    (12, 1): {"no_kappa"},
    (12, 2): {"no_involution_cond3", "genus_empty"},
    (14, 1): {"no_kappa"}, (14, 2): {"no_kappa"},
    (16, 1): {"no_kappa"}, (16, 2): {"no_kappa"},
    (24, 1): {"no_kappa"}, (24, 2): {"no_kappa"},
    (28, 1): {"no_kappa"}, (28, 2): {"no_kappa"},
    (42, 1): {"no_kappa"}, (42, 2): {"no_kappa"},
    (48, 1): {"no_kappa"}, (48, 2): {"no_kappa"},
    (56, 1): {"no_kappa"}, (56, 2): {"no_kappa"},
    (84, 1): {"no_kappa"},
    (84, 2): {"no_involution_cond3", "genus_empty"},
    (112, 1): {"no_kappa"}, (112, 2): {"no_kappa"},
    (168, 1): {"no_kappa"}, (168, 2): {"no_kappa"},
    (336, 1): {"no_kappa"}, (336, 2): {"no_kappa"},
}

_REPORTS: dict = {}


def golden_report(spec_text: str, h2: int = 4):
    key = (spec_text, h2)
    if key not in _REPORTS:
        _REPORTS[key] = detect(h2, spec_text)
    return _REPORTS[key]


def reason_map(report) -> dict:
    out: dict = {}
    for row in report.trace:
        out.setdefault((row["a2"], row["n"]), set()).add(row["reason"])
    return out


def _all_pairs(pf):
    return [(a2, n) for a2 in enumerate_a_squares(pf) for n in (2, 1)]


# --------------------------------------------------------------- criteria


def test_criterion_1_golden_quartics_conclusively_negative():
    for spec_text in (GOLDEN_A7, GOLDEN_D7):
        rep = golden_report(spec_text)
        assert rep.verdict == "none_exists", spec_text
        assert rep.conclusiveness_basis == "corlem2", spec_text
        assert rep.wall_time_ms < 60_000, spec_text
        # exhaustive trace: every admissible (a^2, n) pair is accounted for,
        # and the candidate list of every pair matches brute force exactly
        pf = polarized_disc(RootSpec.parse(spec_text), 4)
        assert set(reason_map(rep)) == set(_all_pairs(pf))
        for a2, n in _all_pairs(pf):
            want = [tuple(k)
                    for k in brute_kernel_candidates(pf, a2, n,
                                                     cutoff=10 ** 6)]
            got = sorted(kernel_candidates(pf, a2, n))
            assert got == want, (spec_text, a2, n)
    print("ACCEPTANCE criterion 1: PASS — both quartic strata none_exists/"
          "corlem2 in < 60 s with brute-verified exhaustive traces")


def test_criterion_2_golden_sextic_conclusively_negative():
    rep = golden_report(GOLDEN_SEXTIC, h2=2)
    assert rep.verdict == "none_exists"
    assert rep.conclusiveness_basis == "corlem2"
    assert rep.rank_T == 3
    assert rep.wall_time_ms < 60_000
    print("ACCEPTANCE criterion 2: PASS — sextic stratum none_exists/corlem2"
          " at rank_T = 3 in < 60 s")


def test_criterion_3_discriminant_displays():
    expected = [
        (GOLDEN_D7, 4, "[1/4] (+) [-6/7] (+) [-3/4] (+) [-2/3] (+) [1/4]"),
        (GOLDEN_A7, 4, "[-7/8] (+) [-6/7] (+) [-3/4] (+) [-2/3] (+) [1/4]"),
        (GOLDEN_SEXTIC, 2, "[-7/8] (+) [-6/7] (+) [2/3] (+) [1/2] (+) [1/2]"),
    ]
    for spec_text, h2, display in expected:
        pf = polarized_disc(RootSpec.parse(spec_text), h2)
        assert pf.display() == display, spec_text
    print("ACCEPTANCE criterion 3: PASS — all three golden discriminants"
          " reproduced generator for generator")


def test_criterion_4_candidate_list_golden():
    pf = polarized_disc(RootSpec.parse(GOLDEN_D7), 4)
    got = set(kernel_candidates(pf, 4, 1))
    # +-1 on the three order-4 generators (first root component, the A3
    # component, and the polarization block), zero elsewhere
    want = {(s0, 0, s2, 0, s4)
            for s0 in (1, 3) for s2 in (1, 3) for s4 in (1, 3)}
    assert got == want
    assert len(got) == 8
    # the same eight kappas appear in the decision trace for that pair
    rep = golden_report(GOLDEN_D7)
    in_trace = {tuple(r["kappa"]) for r in rep.trace
                if r["a2"] == 4 and r["n"] == 1}
    assert in_trace == want
    print("ACCEPTANCE criterion 4: PASS — the eight sign-choice kappas at"
          " a2=4, n=1 match exactly")


def test_criterion_5_failure_reason_tables():
    for spec_text, h2, table in ((GOLDEN_D7, 4, REASONS_D7),
                                 (GOLDEN_A7, 4, REASONS_A7),
                                 (GOLDEN_SEXTIC, 2, REASONS_SEXTIC)):
        got = reason_map(golden_report(spec_text, h2))
        assert got == table, spec_text
    print("ACCEPTANCE criterion 5: PASS — per-a2 failure reasons match the"
          " frozen tables for all three golden strata")


def test_criterion_6_determinant_relation_properties():
    report = det_relation_report()
    assert report["failures"] == []
    counts = report["counts"]
    assert counts["items"] >= 1000
    assert counts["length_equal"] >= 100 and counts["length_drop_2"] >= 100
    print(f"ACCEPTANCE criterion 6: PASS — determinant/length relations exact"
          f" on {counts['items']} randomized forms"
          f" ({counts['length_equal']} equal-length,"
          f" {counts['length_drop_2']} dropped-length comparisons)")


def test_criterion_7_oracle_equivalence():
    report = oracle_agreement_report()
    assert report["failures"] == []
    counts = report["counts"]
    assert counts["subquotients"] == len(corpus())
    assert counts["candidate_pairs"] >= 100
    print(f"ACCEPTANCE criterion 7: PASS — 100% brute-force agreement:"
          f" {counts['subquotients']} subquotients,"
          f" {counts['candidate_pairs']} candidate lists,"
          f" {counts['involution_sets']} involution sets")


def test_criterion_8_witness_soundness():
    smoke = ["A1", "2*A1", "A2", "A3", "D4", "A1+A2", "2*A2", "A4",
             "A3+A1", "D5", "E6", "3*A1"]
    assert len(smoke) >= 10
    inconclusive = []
    for spec_text in smoke:
        rep = detect(4, spec_text)
        if rep.verdict == "inconclusive":
            inconclusive.append(spec_text)  # permitted, but logged
            continue
        assert rep.verdict == "witness_found", spec_text
        assert rep.witness_revalidated is True, spec_text
    assert len(smoke) - len(inconclusive) >= 1
    print(f"ACCEPTANCE criterion 8: PASS — "
          f"{len(smoke) - len(inconclusive)}/{len(smoke)} witnesses all"
          f" revalidated; inconclusive (logged): {inconclusive or 'none'}")


def test_criterion_9_gluing_table():
    per_case: dict = {}
    for inst in INSTANCES:
        run_instance(inst)
        per_case[inst.tag] = per_case.get(inst.tag, 0) + 1
    assert len(per_case) == 8
    assert all(count >= 5 for count in per_case.values()), per_case
    print(f"ACCEPTANCE criterion 9: PASS — {len(INSTANCES)} gluing instances"
          f" across {len(per_case)} cases, >= 5 each, all matching the"
          f" tabulated subquotients and evenness flags")
