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

The --json flag prints the full JSON document instead of a summary; give
it a path (--json out.json) to write the document to a file instead.

Reports are cached under --cache-dir (or $REALSTRATA_CACHE, default
.realstrata-cache): a cache hit returns the stored report byte for byte,
including its original timestamp.  An entry that does not parse (nested
too deeply included), or parses to something other than a report, counts
as a miss and is overwritten.  batch factors h2 once before it reads a
line, so an h2 it cannot factor ends the run with one error; it then
parses, keys and reads or decides each distinct line once per run and
prints its repeats from that one outcome; nothing is remembered from one
run to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import __version__
from .detector import (VERDICTS, detect, model_name, parse_model,
                       require_tgram_rank)
from .fqf import factorint
from .lattices import (PolarizedForm, RootSpec, binary_autos,
                       disc_involutions, polarized_disc, require_stratum_rank)
from .nikulin import embedding_clauses

EXIT_WITNESS = 0
EXIT_BATCH_ERRORS = 1
EXIT_USAGE = 2
EXIT_NONE = 3
EXIT_INCONCLUSIVE = 4

_VERDICT_EXIT = {
    "witness_found": EXIT_WITNESS,
    "none_exists": EXIT_NONE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "needs_T_gram": EXIT_USAGE,
}


def _parse_tgram(text: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "tgram must be three integers a,b,d for the Gram matrix "
            "[[a, b], [b, d]]")
    try:
        a, b, d = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return ((a, b), (b, d))


def _emit_json(text: str, dest: str) -> None:
    """dest '-' prints to stdout; anything else is a file path."""
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n")


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


def _is_report(doc: object) -> bool:
    """Whether a parsed cache entry can be served as a report: an object
    with exactly a report's keys, each holding a value of a type the
    schema allows, a known verdict, a disc whose display is a string, a
    witness that is null or has a witness's keys with integer a2 and n
    and array kappa and phi, and trace rows that are objects with a
    string reason.  These are the fields the human output reads.  Cheap
    enough for every hit: the schema is not read, and each trace row is
    looked at once."""
    if not (isinstance(doc, dict) and doc.keys() == _REPORT_KEYS):
        return False
    for key, types in _REPORT_TYPES.items():
        if type(doc[key]) not in types:
            return False
    witness, trace = doc["witness"], doc["trace"]
    return (doc["verdict"] in VERDICTS
            and type(doc["disc"].get("display")) is str
            and (witness is None
                 or (witness.keys() == _WITNESS_KEYS
                     and (type(witness["a2"]), type(witness["n"]),
                          type(witness["kappa"]), type(witness["phi"]))
                     == (int, int, list, list)))
            and (not trace      # a witness report usually has no rows
                 or all(type(row) is dict and type(row.get("reason")) is str
                        for row in trace)))


def _cached_detect(h2: int, spec_text: str, tgram, oracle: bool,
                   cache_dir: Path) -> Tuple[str, dict]:
    """Returns (report_json_text, report_dict), via the cache."""
    spec = RootSpec.parse(spec_text)
    # Before the lookup: an entry an older version wrote under this key
    # must not be served.
    require_tgram_rank(spec, tgram)
    key = _cache_key(h2, spec, tgram, oracle)
    path = cache_dir / f"{key}.json"
    if path.is_file():
        # A truncated, corrupt or foreign entry is a miss: recompute and
        # overwrite it.
        try:
            text = path.read_text()
            doc = json.loads(text)
        except (ValueError, RecursionError):   # RecursionError: too deep
            doc = None
        if _is_report(doc):
            return text, doc
    report = detect(h2, spec, tgram=tgram, oracle=oracle)
    text = report.to_json()
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Write beside the entry, then rename: readers never see a partial file.
    tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return text, report.to_json_dict()


def _print_human(rep: dict) -> None:
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
    if rep["trace"]:
        counts: dict = {}
        for row in rep["trace"]:
            counts[row["reason"]] = counts.get(row["reason"], 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"trace: {len(rep['trace'])} rows ({summary})")
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
    text, rep = _cached_detect(h2, args.spec, args.tgram, args.oracle,
                               _cache_dir(args.cache_dir))
    if args.json:
        _emit_json(text, args.json)
    else:
        _print_human(rep)
    code = _VERDICT_EXIT[rep["verdict"]]
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
    counts: dict = {}
    errors = 0
    # line -> (verdict, None) or (None, error message), for this run only:
    # a repeated line is printed from here, not parsed, keyed or read again.
    outcomes: dict = {}
    for raw in Path(args.file).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line not in outcomes:
            try:
                _text, rep = _cached_detect(h2, line, None, args.oracle,
                                            cache)
                outcomes[line] = (rep["verdict"], None)
            except (ValueError, AssertionError, RuntimeError) as exc:
                outcomes[line] = (None, str(exc))
        verdict, error = outcomes[line]
        if verdict is None:
            print(f"{line}: error: {error}", file=sys.stderr)
            errors += 1
            continue
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{line}: {verdict}")
    total = sum(counts.values())
    summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"batch: {total} strata  {summary}" +
          (f"  errors={errors}" if errors else ""))
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
    if args.tgram is not None:
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
    _h2, pf = _stratum_disc(args)
    autos = disc_involutions(pf)
    if args.json:
        _emit_json(json.dumps({
            "count": len(autos),
            "matrices": [[list(row) for row in a.matrix] for a in autos],
        }, sort_keys=True, indent=2), args.json)
    else:
        print(f"{len(autos)} involutions")
        for a in autos:
            print(" ", a.matrix)
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
                   help="report cache directory (default $REALSTRATA_CACHE "
                        "or .realstrata-cache)")
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
    p.add_argument("--sigma-plus", type=int, default=None)
    p.add_argument("--sigma-minus", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("autos",
                       help="list symmetry-induced involutions of the disc, "
                            "or O(T) of a rank-2 lattice via --tgram")
    common(p, spec_required=False)
    p.add_argument("--tgram", type=_parse_tgram, default=None,
                   metavar="a,b,d",
                   help="rank-2 Gram matrix [[a,b],[b,d]]; lists its full "
                        "isometry group instead of disc involutions")
    p.set_defaults(func=cmd_autos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AssertionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
