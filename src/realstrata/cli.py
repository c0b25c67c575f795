"""Command-line interface.

Subcommands:
  disc    -- print the polarized discriminant form of a stratum
  detect  -- decide whether the stratum has a real member (exit code
             encodes the verdict: 0 witness, 3 none, 4 inconclusive,
             2 needs a T Gram matrix or usage error)
  batch   -- run detect over a file of strata, one per line
  embed   -- evaluate the unimodular-embedding clauses for the stratum's
             glued forms at the stratum signature
  autos   -- list the symmetry-induced involutions of the discriminant,
             or, with --tgram, the full isometry group O(T) of a rank-2
             lattice with each element classified as rotation/reflection

A command whose reader closes stdout early (as `| head` does) exits 141,
the shell's code for a writer cut off by its pipe, with nothing on stderr.

The --json flag prints the full JSON document instead of a summary; give
it a path (--json out.json) to write the document to a file instead.
--json decides the stratum and streams the document out
(DetectionReport.write_json); it neither reads nor writes the cache.

Human detect and batch cache what they print under --cache-dir (or
$REALSTRATA_CACHE, default .realstrata-cache), one entry per canonical
stratum.  An entry's first line is its summary, the report with its trace
replaced by the count of each reason; the whole report follows, so the
file is one JSON object.  A miss writes the entry to a temporary file
beside it and renames it into place; a write or rename that fails leaves
no temporary file.  A hit reads the first line alone, up to a fixed bound,
and parses it once: it must keep report_schema.json's rules on what the
human output reads, with counts of known reasons in place of rows.  Human
detect serves only an entry written for its own spelling (the trace and
witness follow the spelling's generator order); batch, which prints the
verdict alone, takes any spelling's.  Anything else is a miss and is
overwritten.  batch factors h2 once before it reads a line, so an h2 it
cannot factor ends the run with one error; it then keeps one outcome (the
line it prints and the verdict it counts) per raw line and one verdict per
canonical stratum: a repeated raw line costs one lookup and one write, a
new spelling one parse, and only a new stratum is read or decided; a line
that does not parse reaches no cache.  Nothing is remembered from one run
to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import __version__
from .detector import (BASES, REASONS, VERDICTS, DetectionReport, detect,
                       model_name, parse_model, require_tgram_rank)
from .fqf import factorint
from .lattices import (PolarizedForm, RootSpec, binary_autos,
                       disc_involutions, polarized_disc, require_stratum_rank)
from .nikulin import embedding_clauses

EXIT_WITNESS = 0
EXIT_BATCH_ERRORS = 1
EXIT_USAGE = 2
EXIT_NONE = 3
EXIT_INCONCLUSIVE = 4
# A writer cut off by its pipe, as the shell reports one: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141

_VERDICT_EXIT = {
    "witness_found": EXIT_WITNESS,
    "none_exists": EXIT_NONE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "needs_T_gram": EXIT_USAGE,
}


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits with at most one leading '-': int()
    would also take '1_0', '+1' and the digits of other scripts."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def _parse_tgram(text: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    # ASCII whitespace only: str.strip() would also take U+2003.
    parts = [p.strip(" \t\n\r\f\v") for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "tgram must be three integers a,b,d for the Gram matrix "
            "[[a, b], [b, d]]")
    a, b, d = map(_ascii_int, parts)
    return ((a, b), (b, d))


def _emit_json(doc: str | DetectionReport, dest: str) -> None:
    """Writes doc, a JSON text or a report (which write_json streams, a
    chunk at a time), then a newline, to dest: '-' is stdout; anything
    else is a file path."""
    with nullcontext(sys.stdout) if dest == "-" else open(dest, "w") as out:
        if isinstance(doc, str):
            out.write(doc)
        else:
            doc.write_json(out)
        out.write("\n")


def _cache_dir(arg: Optional[str]) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("REALSTRATA_CACHE")
    if env:
        return Path(env)
    return Path(".realstrata-cache")


def _cache_key(h2: int, spec: RootSpec, tgram, oracle: bool) -> str:
    payload = json.dumps({
        "model": model_name(h2),
        "spec": spec.canonical_text(),
        "tgram": [list(r) for r in tgram] if tgram else None,
        "oracle": oracle,
        "version": __version__,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# The top-level keys of DetectionReport.to_json_dict, as report_schema.json
# requires them, each with the JSON types the schema allows it (exact
# types: a bool is not an integer here).
_REPORT_TYPES = {
    "version": (str,), "model": (str,), "spec": (str,),
    "rank_S": (int,), "rank_T": (int,), "disc": (dict,), "verdict": (str,),
    "conclusiveness_basis": (str, type(None)), "scope_note": (str,),
    "witness": (dict, type(None)),
    "witness_revalidated": (bool, str, type(None)), "trace": (list,),
    "oracle_checked": (bool, str), "wall_time_ms": (int,),
    "generated_at": (str,)}
_REPORT_KEYS = frozenset(_REPORT_TYPES)
_WITNESS_KEYS = frozenset(("a2", "n", "kappa", "phi"))


def _naturals(values: object) -> bool:
    """Whether values is a list of integers >= 0, a bool being none."""
    return type(values) is list and all(type(v) is int and v >= 0
                                        for v in values)


def _is_report(doc: object) -> bool:
    """Whether a parsed summary can be served as a report: an object with
    exactly a report's keys whose values keep report_schema.json's rules
    on what the human output reads: each key's types (exact: a bool is
    not an integer here), the bounds on rank_S, rank_T and wall_time_ms, a
    known verdict, basis, revalidation and oracle outcome, a disc whose
    display is a string, and a witness that is null or has a witness's
    keys and values.  The reader hands it the summary with an empty trace
    in place of the reason counts, which it checks itself.  Values are
    compared against tuples, so an unhashable one is refused, not raised
    on."""
    if not (isinstance(doc, dict) and doc.keys() == _REPORT_KEYS):
        return False
    for key, types in _REPORT_TYPES.items():
        if type(doc[key]) not in types:
            return False
    witness = doc["witness"]
    return (0 <= doc["rank_S"] <= 19 and 2 <= doc["rank_T"] <= 21
            and doc["wall_time_ms"] >= 0
            and doc["verdict"] in VERDICTS
            and doc["conclusiveness_basis"] in (*BASES, None)
            and doc["witness_revalidated"] in (True, "skipped_cutoff", None)
            and doc["oracle_checked"] in (True, False, "partial")
            and type(doc["disc"].get("display")) is str
            and (witness is None
                 or (witness.keys() == _WITNESS_KEYS
                     and type(witness["a2"]) is type(witness["n"]) is int
                     and witness["a2"] >= 2 and witness["n"] in (1, 2)
                     and _naturals(witness["kappa"])
                     and type(witness["phi"]) is list
                     and all(map(_naturals, witness["phi"])))))


# An entry's first line: this, its summary (json.dumps of the report with
# the reason counts as its trace, sorted keys, on one line) and ",\n".
_SUMMARY = '{"summary": '
# The most bytes a hit reads: far more than the longest summary (~3 kB).
_SUMMARY_BOUND = 1 << 16


def _read_entry(path: Path, spelling: Optional[str]
                ) -> Optional[Tuple[dict, dict]]:
    """The summary cached at path as (the report's dict, the count of each
    reason in its trace, which is the dict's "trace"), or None for an
    entry to rewrite.  Only the first line is read, up to _SUMMARY_BOUND
    bytes, and it is parsed once.  Given the spelling that detect prints,
    the entry serves only if its "spec" is that spelling, since its trace
    and witness follow the spelling's generator order; with spelling None
    (batch, which prints the verdict alone, and a verdict does not depend
    on the spelling) any spelling's entry serves."""
    with open(path, "rb") as fp:
        line = fp.readline(_SUMMARY_BOUND)
    if not (line.startswith(_SUMMARY.encode()) and line.endswith(b",\n")):
        return None
    try:
        doc = json.loads(line[len(_SUMMARY):-2])
    except (ValueError, RecursionError):   # RecursionError: too deep
        return None
    counts = doc.get("trace") if type(doc) is dict else None
    if not (type(counts) is dict
            and all(reason in REASONS and type(n) is int and n >= 1
                    for reason, n in counts.items())
            and _is_report({**doc, "trace": []})
            and spelling in (None, doc["spec"])):
        return None
    return doc, counts


def _cached_detect(h2: int, spec: RootSpec, tgram, oracle: bool,
                   cache_dir: Path, any_spelling: bool = False
                   ) -> Tuple[dict, dict]:
    """The report's dict and the count of each reason in its trace, via
    the cache.  A hit must carry this spelling unless any_spelling (batch
    prints the verdict alone)."""
    # Before the lookup: an entry an older version wrote under this key
    # must not be served.
    require_tgram_rank(spec, tgram)
    key = _cache_key(h2, spec, tgram, oracle)
    path = cache_dir / f"{key}.json"
    if path.is_file():
        # A truncated, corrupt or foreign entry is a miss: recompute and
        # overwrite it.
        hit = _read_entry(path,
                          None if any_spelling else spec.display_text())
        if hit:
            return hit
    report = detect(h2, spec, tgram=tgram, oracle=oracle)
    doc = report.to_json_dict()
    counts = Counter(map(itemgetter("reason"), doc["trace"]))
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Stream the entry beside its place, then rename: readers never see a
    # partial file, and no text of the whole entry is held.  A failed
    # write or rename leaves no temporary file behind.
    tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fp:
            report.write_json(fp, doc, _SUMMARY + json.dumps(
                {**doc, "trace": counts}, sort_keys=True) + ",")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return doc, counts


def _print_human(rep: dict, counts: dict) -> None:
    print(f"model: {rep['model']}  spec: {rep['spec'] or '(empty)'}  "
          f"rank_S: {rep['rank_S']}  rank_T: {rep['rank_T']}")
    print(f"disc: {rep['disc']['display']}")
    basis = rep["conclusiveness_basis"]
    print(f"verdict: {rep['verdict']}" +
          (f"  (basis: {basis})" if basis else ""))
    if rep["witness"]:
        w = rep["witness"]
        print(f"witness: a2={w['a2']} n={w['n']} kappa={w['kappa']} "
              f"phi={w['phi']} revalidated={rep['witness_revalidated']}")
    if counts:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"trace: {sum(counts.values())} rows ({summary})")
    if rep["oracle_checked"]:
        print(f"oracle_checked: {rep['oracle_checked']}")


def _stratum_disc(args) -> Tuple[int, PolarizedForm]:
    """(h2, polarized discriminant) of --model and --spec, with the rank
    check detect makes."""
    h2 = parse_model(args.model)
    spec = RootSpec.parse(args.spec)
    require_stratum_rank(spec)
    return h2, polarized_disc(spec, h2)


def cmd_disc(args) -> int:
    h2, pf = _stratum_disc(args)
    if args.json:
        _emit_json(json.dumps({
            "model": model_name(h2),
            "spec": pf.spec.display_text(),
            "rank_S": pf.rank_S,
            "rank_T": pf.rank_T,
            "display": pf.display(),
            "form": pf.form.to_json_dict(),
            "tags": list(pf.tags),
        }, sort_keys=True, indent=2), args.json)
    else:
        print(pf.display())
    return 0


def cmd_detect(args) -> int:
    h2 = parse_model(args.model)
    spec = RootSpec.parse(args.spec)
    if args.json:
        report = detect(h2, spec, tgram=args.tgram, oracle=args.oracle)
        _emit_json(report, args.json)
        verdict = report.verdict
    else:
        rep, counts = _cached_detect(h2, spec, args.tgram, args.oracle,
                                     _cache_dir(args.cache_dir))
        _print_human(rep, counts)
        verdict = rep["verdict"]
    code = _VERDICT_EXIT[verdict]
    if code == EXIT_USAGE:
        print("error: stratum has rank_S = 19; pass --tgram a,b,d with the "
              "Gram matrix of the rank-2 transcendental lattice",
              file=sys.stderr)
    return code


def cmd_batch(args) -> int:
    h2 = parse_model(args.model)
    # Each line factors 2N, N the lcm of h2 and its root exponents, which
    # add no prime above trial division's 2^10: so an h2 that factorint
    # cannot split fails every line alike, and ends the run here, once.
    factorint(h2)
    cache = _cache_dir(args.cache_dir)
    out, err = sys.stdout.write, sys.stderr.write
    # An outcome is (write, text, verdict): the stream and the text a line
    # prints and the verdict it counts, None for an error and "" for a
    # blank or comment-only line, which prints "".  Outcomes are kept by
    # raw line and verdicts by canonical stratum, for this run only: a
    # repeated raw line costs one lookup and one write, a new spelling of
    # a known stratum one parse, and only a new stratum is read from the
    # cache (its verdict alone) or decided.  A line that does not parse
    # reaches no cache.
    raw_outcomes: dict = {}
    verdicts: dict = {}
    # Lines end at "\n" only (read_text maps "\r\n" and "\r" to it), and
    # ASCII whitespace only is stripped: splitlines() would also end a
    # line at U+2028, and str.strip() would also take U+2003.
    lines = Path(args.file).read_text().split("\n")
    for raw in lines:
        outcome = raw_outcomes.get(raw)
        if outcome is None:
            line = raw.split("#", 1)[0].strip(" \t\n\r\f\v")
            if not line:
                outcome = (out, "", "")
            else:
                try:
                    spec = RootSpec.parse(line)
                    canon = spec.canonical_text()
                    if canon not in verdicts:
                        verdicts[canon] = _cached_detect(
                            h2, spec, None, args.oracle, cache,
                            any_spelling=True)[0]["verdict"]
                    verdict = verdicts[canon]
                    outcome = (out, f"{line}: {verdict}\n", verdict)
                except (ValueError, AssertionError, RuntimeError) as exc:
                    outcome = (err, f"{line}: error: {exc}\n", None)
            raw_outcomes[raw] = outcome
        outcome[0](outcome[1])
    counts: Counter = Counter()
    for raw, times in Counter(lines).items():
        counts[raw_outcomes[raw][2]] += times
    errors = counts.pop(None, 0)
    counts.pop("", None)
    total = sum(counts.values())
    print("  ".join([f"batch: {total} strata",
                     *(f"{k}={v}" for k, v in sorted(counts.items())),
                     *([f"errors={errors}"] if errors else [])]))
    return EXIT_BATCH_ERRORS if errors else 0


def cmd_embed(args) -> int:
    if min(args.sigma_plus or 0, args.sigma_minus or 0) < 0:
        raise ValueError("--sigma-plus and --sigma-minus must be "
                         "nonnegative")
    _h2, pf = _stratum_disc(args)
    sigma_plus = 2 if args.sigma_plus is None else args.sigma_plus
    sigma_minus = pf.rank_S if args.sigma_minus is None else args.sigma_minus
    clauses = embedding_clauses(sigma_plus, sigma_minus, pf.form)
    ok = all(clauses.values())
    if args.json:
        _emit_json(json.dumps({"sigma": [sigma_plus, sigma_minus],
                               "clauses": clauses, "embeds": ok},
                              sort_keys=True, indent=2), args.json)
    else:
        for name, value in sorted(clauses.items()):
            print(f"{name}: {'pass' if value else 'FAIL'}")
        print(f"embeds: {ok}")
    return 0 if ok else EXIT_NONE


def cmd_autos(args) -> int:
    # --spec and --model default to None here, so that a stratum given
    # beside --tgram, which lists O(T) and reads none, is refused.
    if args.tgram is not None:
        if args.spec is not None or args.model is not None:
            raise ValueError("autos --tgram lists O(T) and reads no "
                             "stratum; drop --spec and --model")
        elements = []
        for mat in binary_autos(args.tgram):
            det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            kind = "rotation" if det == 1 else "reflection"
            elements.append({"matrix": [list(r) for r in mat],
                             "det": det, "kind": kind})
        if args.json:
            _emit_json(json.dumps({"count": len(elements),
                                   "elements": elements},
                                  sort_keys=True, indent=2), args.json)
        else:
            print(f"{len(elements)} isometries")
            for e in elements:
                print(f"  {e['matrix']}  det={e['det']:+d}  {e['kind']}")
        return 0
    if args.model is None:
        args.model = "quartic"
    _h2, pf = _stratum_disc(args)
    autos = disc_involutions(pf)
    if args.json:
        _emit_json(json.dumps({
            "count": len(autos),
            "matrices": [[list(row) for row in a] for a in autos],
        }, sort_keys=True, indent=2), args.json)
    else:
        print(f"{len(autos)} involutions")
        for a in autos:
            print(" ", a)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realstrata",
        description="Decide whether an equisingular stratum of a polarized "
                    "K3 model with ADE singularities has a real member.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        p.add_argument("--model", default="quartic",
                       help="quartic, sextic, or h2=<even> (default quartic)")
        p.add_argument("--spec", default="" if not spec_required else None,
                       required=spec_required,
                       help="ADE configuration, e.g. 'D7+A6+A3+A2' or "
                            "'2*A1+A3'; empty string for no singularities")
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="print the full JSON instead of a summary, "
                            "or write it to PATH")

    p = sub.add_parser("disc", help="print the polarized discriminant form")
    common(p)
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("detect", help="decide the stratum")
    common(p)
    p.add_argument("--tgram", type=_parse_tgram, default=None,
                   metavar="a,b,d",
                   help="Gram matrix [[a,b],[b,d]] of the rank-2 "
                        "transcendental lattice (rank_S = 19 strata only)")
    p.add_argument("--oracle", action="store_true",
                   help="re-check every decision by brute force where "
                        "group sizes permit")
    p.add_argument("--cache-dir", default=None,
                   help="report cache directory, which --json does not use "
                        "(default $REALSTRATA_CACHE or .realstrata-cache)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("batch", help="detect every stratum listed in a file")
    p.add_argument("file", help="one spec per line; # starts a comment")
    p.add_argument("--model", default="quartic")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("embed",
                       help="evaluate the unimodular-embedding clauses")
    common(p)
    p.add_argument("--sigma-plus", type=_ascii_int, default=None)
    p.add_argument("--sigma-minus", type=_ascii_int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("autos",
                       help="list symmetry-induced involutions of the disc, "
                            "or O(T) of a rank-2 lattice via --tgram")
    common(p, spec_required=False)
    p.add_argument("--tgram", type=_parse_tgram, default=None,
                   metavar="a,b,d",
                   help="rank-2 Gram matrix [[a,b],[b,d]]; lists its full "
                        "isometry group instead of disc involutions")
    p.set_defaults(func=cmd_autos, model=None, spec=None)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: a caller of main
    that runs many commands in one process (the tests, a census script)
    builds it once."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does): that is no
        # failure of the run.  What is left in stdout's buffer goes to
        # devnull, so the interpreter's last flush is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, AssertionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
