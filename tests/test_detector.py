"""End-to-end decision engine: candidate enumeration, witness search,
verdicts, conclusiveness bases, and report shape."""
import hashlib
import io
import json
import math
import random
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import realstrata
from realstrata import _intmat, detector, fqf, lattices
from realstrata.detector import (BASES, REASONS, VERDICTS, KernelCandidate,
                                 check_candidate, detect, enumerate_a_squares,
                                 kernel_candidates, model_name, parse_model)
from realstrata.lattices import (RootSpec, _component_swap_isos,
                                 maximizing_has_skew, polarized_disc)
from realstrata.nikulin import ambient_with_a_block, theta_vector
from realstrata.oracle import OracleMismatch, brute_kernel_candidates

from test_acceptance import (GOLDEN_A7, GOLDEN_D7, GOLDEN_SEXTIC, REASONS_A7,
                             REASONS_SEXTIC, reason_map)
from test_lattices import SMOKE

# ------------------------------------------------------------ a-square range


def test_enumerate_a_squares_small():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    assert enumerate_a_squares(pf) == [2, 4, 8]


def test_enumerate_a_squares_golden_ranges():
    pf = polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    divs = enumerate_a_squares(pf)
    assert divs[0] == 2 and divs[-1] == 168
    assert all(d % 2 == 0 and 168 % d == 0 for d in divs)
    assert divs == sorted(divs)
    pf = polarized_disc(RootSpec.parse("A7+A6+A5"), 2)
    divs = enumerate_a_squares(pf)
    assert divs[-1] == 336 and 8 in divs and 84 in divs


@pytest.mark.parametrize("spec", ["A1", "A2", "A4+A2", "D5", "E7+A1"])
def test_enumerate_a_squares_matches_the_divisor_scan(spec):
    # The divisor list built from the factorization equals the scan over
    # every integer up to twice the exponent.  Every a2 is even, which
    # check_candidate's cond3 relies on: -2 g_alpha mod a2 is then a
    # multiple of n in {2, 1}.
    for h2 in range(2, 302, 2):
        pf = polarized_disc(RootSpec.parse(spec), h2)
        e = 2 * pf.form.exponent()
        scan = [d for d in range(2, e + 1) if e % d == 0 and d % 2 == 0]
        assert enumerate_a_squares(pf) == scan, (spec, h2)


# --------------------------------------------------------- kernel candidates


def test_kernel_candidates_frozen_a4_n1():
    pf = polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    got = sorted(c.kappa for c in kernel_candidates(pf, 4, 1))
    assert got == [(1, 0, 1, 0, 1), (1, 0, 1, 0, 3),
                   (1, 0, 3, 0, 1), (1, 0, 3, 0, 3),
                   (3, 0, 1, 0, 1), (3, 0, 1, 0, 3),
                   (3, 0, 3, 0, 1), (3, 0, 3, 0, 3)]
    assert all(c.a2 == 4 and c.n == 1 for c in kernel_candidates(pf, 4, 1))


def test_kernel_candidates_trivial_pair():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    cands = kernel_candidates(pf, 2, 2)
    assert [c.kappa for c in cands] == [(0, 0)]


def test_kernel_candidates_empty_when_no_order():
    pf = polarized_disc(RootSpec.parse("A7+A6+A5"), 2)
    assert kernel_candidates(pf, 8, 1) == []


def test_kernel_candidates_n_divides_a2():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    assert kernel_candidates(pf, 3, 2) == []


def test_kernel_candidates_closed_under_negation():
    for spec, h2 in (("A3", 4), ("D4+A2", 4), ("A7+A6+A5", 2)):
        pf = polarized_disc(RootSpec.parse(spec), h2)
        for a2 in enumerate_a_squares(pf):
            for n in (1, 2):
                kappas = {c.kappa for c in kernel_candidates(pf, a2, n)}
                assert {pf.form.neg(k) for k in kappas} == kappas


def _bucket_walk(pf, order):
    """The full walk the listing replaced: every element of exact order
    `order`, bucketed by q*N, each bucket in lexicographic order."""
    form = pf.form
    r, two_n = form.rank, 2 * form.N
    values = [[(v, o // math.gcd(v, o))
               for v in range(0, o, o // math.gcd(o, order))]
              for o in form.orders]
    reach = [1] * (r + 1)
    for i in reversed(range(r)):
        reach[i] = math.lcm(math.gcd(form.orders[i], order), reach[i + 1])
    buckets = {}

    def walk(x, x_order, qn):
        i = len(x)
        b_i = 2 * sum(a * b for a, b in zip(x, form.Bn[i]))
        for v, v_order in values[i]:
            lcm = math.lcm(x_order, v_order)
            if math.lcm(lcm, reach[i + 1]) != order:
                continue
            y, y_qn = x + (v,), (qn + v * (v * form.Qn[i] + b_i)) % two_n
            if i + 1 < r:
                walk(y, lcm, y_qn)
            else:
                buckets.setdefault(y_qn, []).append(y)

    walk((), 1, 0)
    return buckets


@pytest.mark.parametrize("spec,h2", [(GOLDEN_D7, 4), (GOLDEN_A7, 4),
                                     (GOLDEN_SEXTIC, 2), ("6*A1", 64),
                                     ("7*A1", 32), ("8*A1", 16)])
def test_kernel_candidates_equal_the_full_bucket_walk(spec, h2):
    # The golden and ladder strata: for every (a2, n), the same kappas in
    # the same order as the bucket the full walk files them under.
    pf = polarized_disc(RootSpec.parse(spec), h2)
    two_n = 2 * pf.form.N
    for a2 in enumerate_a_squares(pf):
        for n in (2, 1):
            target, rem = divmod(-n * n * pf.form.N, a2)
            want = ([] if a2 % n or rem else
                    _bucket_walk(pf, a2 // n).get(target % two_n, []))
            got = [c.kappa for c in kernel_candidates(pf, a2, n)]
            assert got == want, (spec, h2, a2, n)


_COMPONENTS = ["A1", "A2", "A3", "A5", "D4", "D5", "D6", "D8", "E6", "E7"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_COMPONENTS), min_size=1, max_size=3),
       st.sampled_from([2, 4, 6, 8]))
def test_kernel_candidates_equal_brute_force_on_block_combinations(
        comps, h2):
    # D4 and D8 are pair blocks whose two coordinates pair with each
    # other, so a cut inside one would break q(u + w) = q(u) + q(w); the
    # listing must cut at the form's orthogonal cuts only (D6's spinors
    # are orthogonal, so a cut between them is one).
    assume(sum(int(c[1:]) for c in comps) <= 19)     # the root rank
    pf = polarized_disc(RootSpec.parse("+".join(comps)), h2)
    cap = 1 << 14       # the brute sweep's glued group, |disc| * a2
    assume(pf.form.order * 2 * pf.form.N <= cap)
    for a2 in enumerate_a_squares(pf):
        for n in (2, 1):
            want = brute_kernel_candidates(pf, a2, n, cap)
            got = [c.kappa for c in kernel_candidates(pf, a2, n)]
            assert got == want, (comps, h2, a2, n)


# ------------------------------------------------------------- model parsing


def test_model_name_round_trip():
    assert model_name(4) == "quartic" and parse_model("quartic") == 4
    assert model_name(2) == "sextic" and parse_model("sextic") == 2
    assert parse_model("sextic-planar") == 2
    assert model_name(6) == "h2=6" and parse_model("h2=6") == 6
    assert parse_model(" QUARTIC ") == 4


def test_parse_model_errors():
    with pytest.raises(ValueError):
        parse_model("cubic")
    with pytest.raises(ValueError):
        parse_model("h2=5")
    with pytest.raises(ValueError):
        parse_model("h2=0")
    # ASCII whitespace is stripped, an em space is not.
    assert parse_model(" quartic ") == 4
    with pytest.raises(ValueError, match="unknown model"):
        parse_model("\u2003quartic")


# ------------------------------------------------------------------- detect


def test_detect_rejects_rank_over_19():
    with pytest.raises(ValueError):
        detect(4, "2*E8+A4")


def test_detect_witness_smokes():
    for spec in ("A1", "A2", ""):
        rep = detect(4, spec)
        assert rep.verdict == "witness_found"
        assert rep.conclusiveness_basis == "corlem1"
        w = rep.witness
        assert (w["a2"], w["n"]) == (2, 2)
        assert not any(w["kappa"])
        r = pf_rank = len(w["phi"])
        assert w["phi"] == [[1 if i == j else 0 for j in range(r)]
                            for i in range(pf_rank)]
        assert rep.witness_revalidated is True
        assert rep.trace == []
        assert rep.oracle_checked is False


def test_detect_sextic_witness():
    rep = detect(2, "A1")
    assert rep.verdict == "witness_found"
    assert rep.conclusiveness_basis == "corlem1"
    assert rep.model == "sextic"


def test_detect_oracle_full_agreement_small():
    for spec in ("A1", "A2", "A3", "A1+A2"):
        rep = detect(4, spec, oracle=True)
        assert rep.verdict == "witness_found"
        assert rep.oracle_checked is True


def test_detect_inconclusive_below_rank_18():
    rep = detect(4, "4*A1+E8+D5")
    assert rep.rank_S == 17
    assert rep.verdict == "inconclusive"
    assert rep.conclusiveness_basis is None
    assert rep.witness is None
    reasons = {row["reason"] for row in rep.trace}
    assert reasons == {"genus_empty", "no_kappa"}


def test_detect_rank19_needs_t_gram():
    rep = detect(4, "D7+A6+A3+A2+A1")
    assert rep.rank_S == 19
    assert rep.verdict == "needs_T_gram"
    assert rep.conclusiveness_basis is None
    assert rep.witness is None and rep.trace == []


def test_detect_rank19_with_t_gram():
    rep = detect(4, "2*E8+A2+A1", tgram=[[4, 0], [0, 6]])
    assert rep.verdict == "witness_found"
    assert rep.conclusiveness_basis == "rankT2"
    assert rep.witness is None      # decision by reflection, not gluing data


def test_detect_refuses_a_t_gram_below_rank_19():
    # Only the rank-19 dispatch reads T's Gram matrix.
    for spec in ("A18", "A1"):
        with pytest.raises(ValueError, match="only at rank_S = 19"):
            detect(4, spec, tgram=[[2, 1], [1, 10]])


def test_detect_rejects_rank_over_19_before_building_disc(monkeypatch):
    import realstrata.detector as detector

    def fail(*_args):
        raise AssertionError("polarized_disc must not run")

    monkeypatch.setattr(detector, "polarized_disc", fail)
    with pytest.raises(ValueError, match="exceeds 19"):
        detect(4, "300*A1")


def _next_prime(n):
    n += 1
    while not (n % 2 and fqf._is_prime(n)):
        n += 1
    return n


def test_detect_factors_a_large_h2_once(monkeypatch):
    # h2 = 2pq with p, q just above 2^37 and 2^38: rho takes a noticeable
    # fraction of a second to split pq.  Every order of a form built
    # inside one detect divides 2N, so 2N is the one number above 2^30
    # that gets factored; the genus clauses read their primes off it.
    p, q = _next_prime(1 << 37), _next_prime(1 << 38)
    real, large = fqf.factorint, []

    def counting(n):
        if n > 1 << 30:
            large.append(n)
        return real(n)

    monkeypatch.setattr(fqf, "factorint", counting)
    monkeypatch.setattr(detector, "factorint", counting)
    rep = detect(2 * p * q, "A2")
    assert rep.verdict == "witness_found"
    assert large == [2 * math.lcm(3, 2 * p * q)]     # 2N, A2's disc Z/3


def test_detect_takes_no_smith_form_over_z(monkeypatch):
    # K-perp/K is built prime by prime, the root discriminants are read off
    # closed forms, and the rank-19 dispatch reads disc T off T's dual
    # basis, so detect takes no Smith form over Z.
    callers = []
    real = _intmat.snf

    def counting(a):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(a)

    monkeypatch.setattr(_intmat, "snf", counting)
    detect(4, "D7+A6+A3+A2")
    assert detect(4, "2*E8+A2+A1", tgram=[[4, 0], [0, 6]]).verdict \
        == "witness_found"
    pf = polarized_disc(RootSpec.parse("A10+D9"), 2)
    assert maximizing_has_skew(((4, 0), (0, 22)), pf) is True
    assert callers == []


def test_detect_factors_once_above_trial_division(monkeypatch):
    # The K-perp/K pieces read their primes off the cached factorization
    # of 2N, so one detect factors one number above 2^10, 2N itself.
    h2 = 2 * 8191 * (2 ** 31 - 1)
    real, large = fqf.factorint, []

    def counting(n):
        if n > 1 << 10:
            large.append(n)
        return real(n)

    monkeypatch.setattr(fqf, "factorint", counting)
    monkeypatch.setattr(detector, "factorint", counting)
    detect(h2, "A2")
    assert large == [2 * math.lcm(3, h2)]


def test_check_candidate_statuses():
    pf = polarized_disc(RootSpec.parse("A1"), 4)
    status, phi, _sq = check_candidate(pf, KernelCandidate(2, 2, (0, 0)))
    assert status == "witness"
    assert lattices._is_inverse(pf.form.orders, phi, phi)


def test_theta_and_the_reps_generate_kperp():
    # cond3 asks phi only on theta (as the pair (kappa, -kappa)) and on the
    # K-perp/K reps, so together they must generate K-perp: the same
    # Hermite lattice as fqf.orthogonal_complement, on every candidate of
    # the golden strata and the smoke set.
    checked = 0
    for spec, h2 in ([(GOLDEN_D7, 4), (GOLDEN_A7, 4), (GOLDEN_SEXTIC, 2)]
                     + [(s, 4) for s in SMOKE]):
        pf = polarized_disc(RootSpec.parse(spec), h2)
        for a2 in enumerate_a_squares(pf):
            big = ambient_with_a_block(pf.form, a2)
            for n in (2, 1):
                for cand in kernel_candidates(pf, a2, n):
                    theta = big.reduce(theta_vector(pf.form, cand.kappa, n))
                    sq = check_candidate(pf, cand)[2]
                    want = big.orthogonal_complement(big.subgroup([theta]))
                    got = big.subgroup([theta] + sq.reps)
                    assert got.lattice == want.lattice, (spec, h2, cand)
                    checked += 1
    assert checked == 377


# ------------------------------------------------------------------- report


def test_vocabularies():
    assert REASONS == ("no_kappa", "genus_empty", "no_involution_cond3")
    # The README's reason sentence and demo 03's legend name exactly these.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    sentence = re.search(r"one of the reasons\s(.*?)\.\s", readme, re.S)
    assert tuple(re.findall(r"`(\w+)`", sentence.group(1))) == REASONS
    legend = (root / "demos" / "03_golden_negatives.py").read_text()
    assert tuple(re.findall(r"^  (\w+)  ", legend, re.M)) == REASONS
    assert set(VERDICTS) == {"witness_found", "none_exists", "inconclusive",
                             "needs_T_gram"}
    assert set(BASES) == {"corlem1", "corlem2", "rankT2"}
    schema = json.loads((Path(realstrata.__file__).parent
                         / "report_schema.json").read_text())
    props = schema["properties"]
    assert props["conclusiveness_basis"]["enum"] == [*BASES, None]


def test_report_json_matches_schema_keys():
    schema = json.loads((Path(realstrata.__file__).parent
                         / "report_schema.json").read_text())
    rep = detect(4, "A1")
    doc = rep.to_json_dict()
    assert set(doc) == set(schema["required"])
    assert doc["version"] == realstrata.__version__
    assert doc["model"] == "quartic"
    assert doc["spec"] == "A1"
    assert doc["rank_S"] == 1 and doc["rank_T"] == 20
    assert doc["disc"]["display"] == "[-1/2] (+) [1/4]"
    assert doc["disc"]["tags"] == [0, "h"]
    round_trip = json.loads(rep.to_json())
    assert round_trip == json.loads(json.dumps(doc))


def _json_dumps_text(rep) -> str:
    """The report's JSON as to_json wrote it before write_json: the
    reference for write_json's bytes."""
    return json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)


def _assert_same_text(got: str, want: str, label) -> None:
    """got == want, failing with the first difference: pytest's own diff
    of two texts of megabytes would take minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"{label}: first difference at {at}: "
                    f"{got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


def test_write_json_writes_the_bytes_of_json_dumps():
    # write_json formats trace rows itself and splices them between the
    # json.dumps text of the other keys; the bytes must be json.dumps's.
    # Strata: the golden three with and without the oracle, the smoke set
    # with 4*A1 and 5*A1, the multiplicity ladder, A18, A18+A1 with no T
    # (needs_T_gram) and 2*E8+A2+A1 with one, the empty stratum, 14*A1+A4 (57,479 rows, several
    # writes' worth) and every 7th ADE sum of rank 1-13.
    small = [s for rank in range(1, 14) for s in _ade_sums(rank)]
    assert len(small) == 842
    runs = ([(spec, h2, {"oracle": oracle})
             for spec, h2 in ((GOLDEN_D7, 4), (GOLDEN_A7, 4),
                              (GOLDEN_SEXTIC, 2))
             for oracle in (False, True)]
            + [(s, 4, {}) for s in SMOKE + ["4*A1", "5*A1"]]
            + [("6*A1", 64, {}), ("7*A1", 32, {}), ("8*A1", 16, {}),
               ("A18", 4, {}), ("A18+A1", 4, {}),
               ("2*E8+A2+A1", 4, {"tgram": ((4, 0), (0, 6))}),
               ("0", 4, {}), ("14*A1+A4", 4, {})]
            + [(s, 4, {}) for s in small[::7]])
    verdicts, reasons, null_kappa = set(), set(), False
    for spec, h2, kwargs in runs:
        rep = detect(h2, spec, **kwargs)
        want = _json_dumps_text(rep)
        buf = io.StringIO()
        assert rep.write_json(buf) == rep.to_json_dict(), (spec, h2)
        _assert_same_text(buf.getvalue(), want, (spec, h2, kwargs))
        _assert_same_text(rep.to_json(), want, (spec, h2, kwargs))
        verdicts.add(rep.verdict)
        reasons.update(row["reason"] for row in rep.trace)
        null_kappa |= any(row["kappa"] is None for row in rep.trace)
    assert verdicts == set(VERDICTS)
    assert reasons == set(REASONS) and null_kappa


def test_report_timestamp_is_utc_to_the_second():
    # The shape datetime.isoformat(timespec="seconds") gives a UTC time.
    stamp = detect(4, "A1").generated_at
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    when = datetime.fromisoformat(stamp)
    assert when.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=1)


def test_detect_matches_benchmark_reference_digests():
    # perfbench/reference.json freezes the decision content of every
    # stratum the benchmark runs.  The digest is taken as the benchmark
    # takes it: sha256 of verdict, basis, witness and trace, dumped with
    # sorted keys and compact separators.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["strata"]
    assert reference
    for name, want in reference.items():
        spec, h2 = name.rsplit("@", 1)
        doc = detect(int(h2), spec).to_json_dict()
        assert doc["verdict"] == want["verdict"], name
        assert _decision_digest(doc) == want["digest"], name


def _decision_digest(doc: dict) -> str:
    """sha256 of verdict, basis, witness and trace, dumped with sorted keys
    and compact separators, as perfbench/run.py takes it."""
    content = {k: doc[k] for k in
               ("verdict", "conclusiveness_basis", "witness", "trace")}
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of json.dumps(doc["disc"], sort_keys=True), which covers the
# display string, the form's q and b strings and the tags: every stratum of
# perfbench/reference.json, plus E8 and the empty spec, whose discriminant
# is the h block alone.
DISC_DIGESTS = {
    "2*A1+A1@4":
        "31118c1eac227bc873fa749998738d51"
        "88c45c5b6a86302b1581415329b0d408",
    "2*A1@4":
        "a4d5bab016bc7487255222db2132beee"
        "cf86c62306640194e16fdf2d683683a2",
    "2*A2@4":
        "1e718e2f7ace6633d07f844debba4aaa"
        "0c7c423830d6514c63ad211e832b3701",
    "3*A1@4":
        "31118c1eac227bc873fa749998738d51"
        "88c45c5b6a86302b1581415329b0d408",
    "4*A1@4":
        "07fe3eee4f04625ffdbc6524358a7539"
        "d401b3108abe5915508c01a2f2180ac3",
    "5*A1@4":
        "63971b0181434cf0d0beb56b68268d6e"
        "00b312cafc4d165708a7a5d211d0e7fc",
    "6*A1@64":
        "354cba967ec70a4629bd3833ade3695f"
        "1da6ff42126d657bfc0b83641acec282",
    "7*A1@32":
        "f9c726b8b09c3d1417c2f1479d852a5c"
        "b86f3e2fab463743b2057f5318faa80d",
    "8*A1@16":
        "4b5477fa9e5c599a7d389de5adf77155"
        "4e0d874f5150adff6778745281694e72",
    "A1+2*A1@4":
        "31118c1eac227bc873fa749998738d51"
        "88c45c5b6a86302b1581415329b0d408",
    "A1+A1+A1@4":
        "31118c1eac227bc873fa749998738d51"
        "88c45c5b6a86302b1581415329b0d408",
    "A1+A1@4":
        "a4d5bab016bc7487255222db2132beee"
        "cf86c62306640194e16fdf2d683683a2",
    "A1+A2@4":
        "c47f82a9789d449e8df5b2c293f41bd8"
        "0930baff1e5a14ca5b2b12e7f393e33e",
    "A1+A3@4":
        "3f7943f93491edfb439a0ce34ce4e874"
        "e12cf3fc9b6daffd5314508b7c5310d9",
    "A1@4":
        "436555c3146328ad565ff078b84e8f6a"
        "879108cfd4598e9332d0301e33c120ac",
    "A2+A1@4":
        "e97a4486e7c8b0cbbb833825cd94c4d0"
        "aa2d72971778a3a47c73a6f1e569a710",
    "A2+A2@4":
        "1e718e2f7ace6633d07f844debba4aaa"
        "0c7c423830d6514c63ad211e832b3701",
    "A2@4":
        "6536bc808546709fcd954fa4d6842ee7"
        "47b1acc9ddd882513c65cf48efa85438",
    "A3+A1@4":
        "10ce5a4cac6ead362752fd3ac6fb0cd2"
        "867762f4719c6024f2f01687ffd5ae77",
    "A3@4":
        "71de4b1c0a5d9a57005fc41510d659b8"
        "de76e2815857c9f2f08c2ab42a060c07",
    "A4@4":
        "d5137034dd90f6184b898f213e6d31ae"
        "627c5a6154393ce551137ae3d5743cbc",
    "A7+A6+A3+A2@4":
        "9a91a46f774fe9a48f8308b05a9a51b3"
        "47c91c10e6096a97be147d749da2392a",
    "A7+A6+A5@2":
        "9e2977c69e1fef3f1831c852d8e56aa0"
        "4a7cc2c4688bf2f4ba9fbe350f384fdf",
    "D4@4":
        "01d9ad8e3ba7538f99433ab60fd35760"
        "bd4aebafab8a45c24aa3c83fbe9584ba",
    "D5@4":
        "3f24a8693380ddb75e703af2a040f9d9"
        "739596062cc022009ff68b4d31c9ecf7",
    "D7+A6+A3+A2@4":
        "8d944eddcd3bd3334fb10c1c2bb53958"
        "8b5e7d7f74b571fe99e7d18da0583931",
    "E6@4":
        "ba6ef79ed84c6a20e7dc9ab83f92f811"
        "ca53e3aeb17b9ec2732c2618b31e5b33",
    "E8@4":
        "2ca82d779b4b7c2981f076ee45dbe7a9"
        "9ea7b74d7bbd8a1cfad419901509c314",
    "@4":
        "2ca82d779b4b7c2981f076ee45dbe7a9"
        "9ea7b74d7bbd8a1cfad419901509c314",
}


def test_detect_disc_blocks_are_unchanged():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["strata"]
    assert set(DISC_DIGESTS) == set(reference) | {"E8@4", "@4"}
    for name, want in DISC_DIGESTS.items():
        spec, h2 = name.rsplit("@", 1)
        doc = detect(int(h2), spec).to_json_dict()
        text = json.dumps(doc["disc"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


# Frozen before candidates were decided once per symmetry orbit.
BIG_TRACES = {
    "11*A1": ("inconclusive", 3107, "9964440a0832fc71f456f4b0e714dbed"
                                    "3d8d8fddf3502f5921b1c22fc90dd455"),
    "10*A1+D8": ("none_exists", 6211, "959a4516dad423cc7e38cef196d4640c"
                                      "764cdd0c25ba16206df5411d10d09bd5"),
    "7*A1+A7+D4": ("none_exists", 3651, "8145483a9217490850af834fbbfa98a8"
                                        "169a7e41670cea76c40681eb8c5e6655"),
}


@pytest.mark.parametrize("spec", sorted(BIG_TRACES))
def test_big_quartic_traces_are_unchanged(spec):
    verdict, rows, digest = BIG_TRACES[spec]
    doc = detect(4, spec).to_json_dict()
    assert (doc["verdict"], len(doc["trace"])) == (verdict, rows)
    assert _decision_digest(doc) == digest


def test_report_trace_rows_use_reason_vocabulary():
    rep = detect(4, "4*A1+E8+D5")
    for row in rep.trace:
        assert set(row) == {"a2", "n", "kappa", "reason"}
        assert row["reason"] in REASONS
        if row["reason"] == "no_kappa":
            assert row["kappa"] is None


def test_detect_builds_each_slot_option_once(monkeypatch):
    # 8*A1 @ 16: 8 fixed A1 slots and 28 swapped pairs with one option each
    # (+1 and -1 agree mod 2), and the h slot with +-1.  Each distinct
    # block is checked once, on its component's slice of rank 1: the A1
    # block, its own inverse, for fixed and swapped slots alike, and the
    # two h signs.  Each option is placed once from them; only the witness
    # is checked as a whole matrix.
    # Revalidation is skipped (the glued group exceeds the oracle cutoff),
    # so it builds none.  Materialising all 1,528 involutions would build
    # at least that many.
    built, placed = [], []
    real_check, real_slot = lattices._check_isometry, lattices._checked_slot

    def counting_check(form, matrix, lo=0):
        built.append(len(matrix))
        real_check(form, matrix, lo)

    def counting_slot(src, dst, blocks):
        options = real_slot(src, dst, blocks)
        placed.extend(options)
        return options

    monkeypatch.setattr(lattices, "_check_isometry", counting_check)
    monkeypatch.setattr(lattices, "_checked_slot", counting_slot)
    rep = detect(16, "8*A1")
    assert (rep.verdict, rep.witness_revalidated) == ("witness_found",
                                                     "skipped_cutoff")
    assert built == [1, 1, 1, 9]
    h = 8
    kinds = ["pair" if len(rows) == 2 else "h" if rows[0][0] == h
             else "fixed" for rows in placed]
    assert len(set(placed)) == len(placed)
    assert sorted(kinds) == ["fixed"] * 8 + ["h"] * 2 + ["pair"] * 28


# ------------------------------------------------------------ kappa orbits

ORBIT_STRATA = [(GOLDEN_D7, 4), (GOLDEN_A7, 4), (GOLDEN_SEXTIC, 2),
                ("3*D4", 4), ("2*D4+A3", 4), ("2*D6+A2", 4), ("2*E6+A3", 4),
                ("3*A3+D5", 4), ("2*A5+A4", 2), ("4*A2+D4", 4),
                ("2*A3+2*A2", 8), ("2*D5+A4", 4), ("2*E7+A2", 4),
                ("D8+2*A4", 4), ("3*A4", 6)]


def _symmetry_group_action(pf):
    """The symmetry group G as its parts: per class of equal components,
    their coordinate slices and the automorphism images of one of them
    (the swap list, which is the whole group).  Written here from the
    spec, independent of the engine's orbit key."""
    classes = {}
    for comp, cut in zip(pf.spec.components, pf.comp_slices):
        classes.setdefault(comp, []).append(cut)
    return [(cuts, _component_swap_isos(*comp, cuts[0][1] - cuts[0][0]))
            for comp, cuts in classes.items()]


def _act(pf, parts, moves, sign, kappa):
    """g*kappa for g given per class by (permutation, one automorphism per
    component) and a sign on h: the block of component c, moved by its
    automorphism, lands on component perm[c]."""
    orders = pf.form.orders
    out = list(kappa)
    for (cuts, _autos), (perm, mats) in zip(parts, moves):
        for c, (lo, hi) in enumerate(cuts):
            block = kappa[lo:hi]
            dst = cuts[perm[c]][0]
            for i, row in enumerate(mats[c]):
                out[dst + i] = sum(v * x for v, x in zip(row, block)) \
                    % orders[dst + i]
    out[-1] = sign * kappa[-1] % orders[-1]
    return tuple(out)


def _identity_moves(parts):
    # The first automorphism listed is the identity.
    return [(list(range(len(cuts))), [autos[0]] * len(cuts))
            for cuts, autos in parts]


def _random_move(rng, parts):
    moves = []
    for cuts, autos in parts:
        perm = list(range(len(cuts)))
        rng.shuffle(perm)
        moves.append((perm, [rng.choice(autos) for _ in cuts]))
    return moves, rng.choice((1, -1))


def _generators(parts):
    """Generators of G as (moves, sign): -1 on h, each automorphism on the
    first component of a class, and each adjacent swap within a class."""
    gens = [(_identity_moves(parts), -1)]
    for k, (cuts, autos) in enumerate(parts):
        for m in autos[1:]:
            moves = _identity_moves(parts)
            moves[k][1][0] = m
            gens.append((moves, 1))
        for c in range(len(cuts) - 1):
            moves = _identity_moves(parts)
            perm = moves[k][0]
            perm[c], perm[c + 1] = perm[c + 1], perm[c]
            gens.append((moves, 1))
    return gens


def test_status_is_constant_on_each_orbit_key():
    rng = random.Random(2026)
    for spec, h2 in ORBIT_STRATA:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        parts = _symmetry_group_action(pf)
        for a2 in enumerate_a_squares(pf):
            for n in (2, 1):
                cands = kernel_candidates(pf, a2, n)
                kappas = {c.kappa for c in cands}
                status = {}
                for cand in cands:
                    key = detector._orbit_key(pf, cand.kappa)
                    got, _phi, _sq = check_candidate(pf, cand)
                    assert status.setdefault(key, got) == got, \
                        (spec, h2, a2, n, cand.kappa)
                    for _ in range(3):
                        moved = _act(pf, parts, *_random_move(rng, parts),
                                     cand.kappa)
                        assert moved in kappas, (spec, cand.kappa, moved)
                        assert detector._orbit_key(pf, moved) == key


def test_equal_orbit_keys_mean_one_orbit():
    # On every form of order <= 512, the brute orbit closure under the
    # generators of G splits the group exactly as the orbit key does:
    # one key per orbit, and one orbit per key.
    checked = 0
    for spec, h2 in ORBIT_STRATA:
        pf = polarized_disc(RootSpec.parse(spec), h2)
        if pf.form.order > 512:
            continue
        checked += 1
        parts = _symmetry_group_action(pf)
        gens = _generators(parts)
        orbit_of = {}
        for start in sorted(pf.form.iter_elements()):
            if start in orbit_of:
                continue
            orbit_of[start] = start
            todo = [start]
            while todo:
                x = todo.pop()
                for y in (_act(pf, parts, *g, x) for g in gens):
                    if y not in orbit_of:
                        orbit_of[y] = start
                        todo.append(y)
        by_key, by_orbit = {}, {}
        for x, start in orbit_of.items():
            key = detector._orbit_key(pf, x)
            assert by_orbit.setdefault(start, key) == key, (spec, x)
            assert by_key.setdefault(key, start) == start, (spec, x)
    assert checked == 8


def test_an_unchecked_block_is_refused_before_any_candidate(monkeypatch):
    # No row of D6+A8+D4 @ 4 reaches cond3, so no involution question
    # ever reads A8's blocks; the orbit key does.  A non-isometry among
    # them (x -> 2x keeps no q on Z/9) must raise from the symmetry table
    # that detect builds before deciding any candidate.
    rep = detect(4, "D6+A8+D4")
    assert rep.verdict == "none_exists"
    assert "no_involution_cond3" not in {row["reason"] for row in rep.trace}
    real = lattices._component_swap_isos

    def with_a_bad_block(fam, n, k):
        blocks = real(fam, n, k)
        return blocks + [[[2]]] if (fam, n) == ("A", 8) else blocks

    decided = []
    monkeypatch.setattr(lattices, "_component_swap_isos", with_a_bad_block)
    monkeypatch.setattr(detector, "check_candidate",
                        lambda pf, cand: decided.append(cand))
    with pytest.raises(ValueError, match="map does not preserve q"):
        detect(4, "D6+A8+D4")
    assert decided == []


def test_golden_detect_decides_one_kappa_per_orbit(monkeypatch):
    # 103 + 167 + 17 candidates fall into 17 + 24 + 8 orbits.  Seven of
    # them are single-orbit pairs that the length bound settles before any
    # orbit is decided: (a2, n) = (2, 2), (6, 2) and (42, 2) on both golden
    # quartics and (2, 2) on the sextic.  The other 42 are decided.
    settled = {GOLDEN_D7: {(2, 2), (6, 2), (42, 2)},
               GOLDEN_A7: {(2, 2), (6, 2), (42, 2)},
               GOLDEN_SEXTIC: {(2, 2)}}
    calls = []

    def counting(pf, cand):
        calls.append(cand)
        return check_candidate(pf, cand)

    monkeypatch.setattr(detector, "check_candidate", counting)
    for spec, h2 in ORBIT_STRATA[:3]:
        start = len(calls)
        rep = detect(h2, spec)
        assert rep.verdict == "none_exists"
        assert not settled[spec] & {(c.a2, c.n) for c in calls[start:]}
        assert {(row["a2"], row["n"]) for row in rep.trace
                if row["reason"] == "genus_empty"} >= settled[spec]
    assert len(calls) == 42


def test_a_coarser_orbit_key_is_caught(monkeypatch):
    # One orbit per (a2, n) copies the first status to every row.  The
    # oracle re-derives each row kappa by kappa and must notice, as must
    # the frozen reason tables wherever a pair mixes two reasons.
    monkeypatch.setattr(detector, "_orbit_key", lambda pf, kappa: None)
    with pytest.raises(OracleMismatch, match="differs from trace row"):
        detect(2, GOLDEN_SEXTIC, oracle=True)
    for spec, h2, table in ((GOLDEN_A7, 4, REASONS_A7),
                            (GOLDEN_SEXTIC, 2, REASONS_SEXTIC)):
        assert reason_map(detect(h2, spec)) != table, spec


# ROADMAP D8: the none_exists rank-18 strata whose traces get past the
# genus step, 7 quartic and 12 sextic, each with its verdict and reason
# counts, read off the full traces before the length bound settled any
# (a2, n) pair.
D8_PAST_GENUS = [
    ("D7+A6+A3+A2", 4, "none_exists",
     {"genus_empty": 11, "no_involution_cond3": 92, "no_kappa": 16}),
    ("A7+A6+A3+A2", 4, "none_exists",
     {"genus_empty": 39, "no_involution_cond3": 128, "no_kappa": 22}),
    ("2*A6+2*A3", 4, "none_exists",
     {"genus_empty": 57, "no_involution_cond3": 192, "no_kappa": 5}),
    ("2*A6+D5+A1", 4, "none_exists",
     {"genus_empty": 41, "no_involution_cond3": 72, "no_kappa": 3}),
    ("2*A6+D6", 4, "none_exists",
     {"genus_empty": 21, "no_involution_cond3": 40, "no_kappa": 5}),
    ("2*A7+2*A2", 4, "none_exists",
     {"genus_empty": 65, "no_involution_cond3": 176, "no_kappa": 6}),
    ("3*A6", 4, "none_exists",
     {"genus_empty": 2, "no_involution_cond3": 224, "no_kappa": 7}),
    ("A7+A6+A5", 2, "none_exists",
     {"genus_empty": 8, "no_involution_cond3": 9, "no_kappa": 27}),
    ("E8+2*A5", 2, "none_exists",
     {"genus_empty": 6, "no_involution_cond3": 27, "no_kappa": 2}),
    ("2*A6+2*A3", 2, "none_exists",
     {"genus_empty": 41, "no_involution_cond3": 72, "no_kappa": 3}),
    ("2*A6+D5+A1", 2, "none_exists",
     {"genus_empty": 21, "no_involution_cond3": 40, "no_kappa": 5}),
    ("2*A6+D6", 2, "none_exists",
     {"genus_empty": 13, "no_involution_cond3": 48, "no_kappa": 2}),
    ("2*A7+A4", 2, "none_exists",
     {"genus_empty": 1, "no_involution_cond3": 28, "no_kappa": 12}),
    ("3*A6", 2, "none_exists",
     {"genus_empty": 1, "no_involution_cond3": 112, "no_kappa": 5}),
    ("A11+E6+A1", 2, "none_exists",
     {"genus_empty": 10, "no_involution_cond3": 13, "no_kappa": 4}),
    ("E7+E6+A5", 2, "none_exists",
     {"genus_empty": 6, "no_involution_cond3": 27, "no_kappa": 2}),
    ("A6+E6+A5+A1", 2, "none_exists",
     {"genus_empty": 18, "no_involution_cond3": 29, "no_kappa": 7}),
    ("A7+E7+A4", 2, "none_exists",
     {"genus_empty": 4, "no_involution_cond3": 5, "no_kappa": 12}),
    ("A7+E6+A5", 2, "none_exists",
     {"genus_empty": 20, "no_involution_cond3": 37, "no_kappa": 8}),
]


def test_d8_strata_past_the_genus_step_keep_their_reason_counts():
    assert len(D8_PAST_GENUS) == 19
    assert sum(h2 == 4 for _, h2, _, _ in D8_PAST_GENUS) == 7
    for spec, h2, verdict, counts in D8_PAST_GENUS:
        rep = detect(h2, spec)
        got = {}
        for row in rep.trace:
            got[row["reason"]] = got.get(row["reason"], 0) + 1
        assert (rep.verdict, got) == (verdict, counts), (spec, h2)


def _ade_sums(rank):
    """Every ADE sum of the given rank, in sorted canonical spelling."""
    comps = ([("A", n) for n in range(1, rank + 1)]
             + [("D", n) for n in range(4, rank + 1)]
             + [("E", n) for n in (6, 7, 8) if n <= rank])
    out = []

    def walk(i, left, acc):
        if left == 0:
            out.append(RootSpec(tuple(acc)).canonical_text())
        elif i < len(comps):
            for k in range(left // comps[i][1] + 1):
                walk(i + 1, left - k * comps[i][1], acc + [comps[i]] * k)

    walk(0, rank, [])
    return sorted(out)


def _length_settles(pf, a2, n):
    """The length bound read off the built form disc (+) [1/a2]: some
    prime p has l_p > 20 - rank_S + 2 [p | a2/n]."""
    big = ambient_with_a_block(pf.form, a2)
    return any(big.length_p(p) > 20 - pf.rank_S + 2 * ((a2 // n) % p == 0)
               for p in big.primes())


BOUND_STRATA = ([(GOLDEN_D7, 4), (GOLDEN_A7, 4), (GOLDEN_SEXTIC, 2),
                 ("11*A1", 4)]
                + [(s, 4) for s in ("A1", "2*A1", "A2", "A3", "D4", "A1+A2",
                                    "2*A2", "A4", "A3+A1", "D5", "E6",
                                    "3*A1")]
                + [(s, h2) for h2 in (4, 2) for s in _ade_sums(18)[::50]])


def test_length_bound_settles_only_genus_empty_pairs(monkeypatch):
    # Every pair the bound settles is genus_empty kappa by kappa: one
    # kappa per orbit decided by check_candidate, which builds K-perp/K.
    # detect decides no kappa of a settled pair and writes its rows as
    # genus_empty, in the order of its candidates; it decides some kappa
    # of every other pair it reaches, all of them without a witness.
    assert len(_ade_sums(18)) == 1599
    built, decided = [], []
    monkeypatch.setattr(detector, "polarized_disc",
                        lambda *args: built.append(polarized_disc(*args))
                        or built[-1])
    monkeypatch.setattr(detector, "check_candidate",
                        lambda pf, cand: decided.append((cand.a2, cand.n))
                        or check_candidate(pf, cand))
    settled_pairs = 0
    for spec, h2 in BOUND_STRATA:
        decided.clear()
        rep = detect(h2, spec)
        pf = built[-1]          # its candidate lists are cached on it
        rows = {}
        for row in rep.trace:
            rows.setdefault((row["a2"], row["n"]), []).append(row)
        open_pairs = set()
        for a2 in enumerate_a_squares(pf):
            for n in (2, 1):
                cands = kernel_candidates(pf, a2, n)
                if cands and not _length_settles(pf, a2, n):
                    open_pairs.add((a2, n))
                if not cands or (a2, n) in open_pairs:
                    continue
                settled_pairs += 1
                assert (a2, n) not in decided, (spec, h2, a2, n)
                orbits = {}
                for cand in cands:
                    orbits.setdefault(detector._orbit_key(pf, cand.kappa),
                                      cand)
                for cand in orbits.values():
                    assert check_candidate(pf, cand)[0] == "genus_empty", (
                        spec, h2, cand)
                want = [{"a2": a2, "n": n, "kappa": list(c.kappa),
                         "reason": "genus_empty"} for c in cands]
                assert rows.get((a2, n), []) in ([], want), (spec, h2, a2, n)
        assert set(decided) <= open_pairs, (spec, h2)
        if rep.witness is None:
            assert set(decided) == open_pairs, (spec, h2)
    assert settled_pairs > 0
