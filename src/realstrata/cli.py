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

Reports are cached under --cache-dir (or $REALSTRATA_CACHE, default
.realstrata-cache): a cache hit returns the stored report byte for byte,
including its original timestamp.  A miss streams the report into a
temporary file beside its entry (DetectionReport.write_json) and renames
it into place, so no text of a whole report is held; --json then copies
the entry out of that file.  A write or rename that fails leaves no
temporary file behind.  A hit reads and checks what its output prints,
in write_json's layout: the head up to the trace and the tail after it,
parsed as one report with no rows, for every output; batch, which prints
the verdict alone, reads no row and takes the entry of any spelling of
the stratum, while detect serves only an entry written for its own
spelling (the trace and witness follow the spelling's generator order),
matches the rows against the writer's row shape under the schema's rules
and counts their reasons, and --json then copies the entry.  An entry
written for another spelling, or in another layout
(compact, truncated, nested too deeply) or that breaks those rules is a
miss and is overwritten.  batch factors h2 once before it reads a line,
so an h2 it cannot factor ends the run with one error; it then keeps one
outcome (the line it prints and the verdict it counts) per raw line and
one verdict per canonical stratum: a repeated raw line costs one lookup
and one write, a new spelling one parse, and only a new stratum is read
or decided; a line that does not parse reaches no cache.  Nothing is
remembered from one run to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import sys
from collections import Counter
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence, TextIO, Tuple

from . import __version__
from .detector import (BASES, REASONS, VERDICTS, detect, model_name,
                       parse_model, require_tgram_rank, trace_rows_pattern)
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


def _copy_json(src: TextIO, dest: str) -> None:
    """Copies src's text, then a newline, to dest a chunk at a time: dest
    '-' is stdout; anything else is a file path."""
    if dest == "-":
        shutil.copyfileobj(src, sys.stdout)
        sys.stdout.write("\n")
        return
    with open(dest, "w") as out:
        shutil.copyfileobj(src, out)
        out.write("\n")


def _emit_json(text: str, dest: str) -> None:
    _copy_json(io.StringIO(text), dest)


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
    """Whether a parsed cache entry can be served as a report: an object
    with exactly a report's keys whose values keep report_schema.json's
    rules on what the human output reads: each key's types (exact: a bool
    is not an integer here), the bounds on rank_S, rank_T and
    wall_time_ms, a known verdict, basis, revalidation and oracle outcome,
    a disc whose display is a string, and a witness that is null or has a
    witness's keys and values.  The reader hands it the entry with its
    trace rows cut out; _rows_counted checks those.  Values are compared
    against tuples, so an unhashable one is refused, not raised on."""
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


# DetectionReport.write_json's layout: the trace is the only top-level
# list, and only top-level keys sit at indent 2, so its rows lie between
# the first _TRACE_OPEN and the last _TRACE_CLOSE of an entry.
_TRACE_OPEN = b'\n  "trace": ['
_TRACE_CLOSE = b'\n  ],\n  "verdict": '
# Where a whole row ends and the next begins.
_ROW_CUT = b"\n    },\n    {"
# Bytes read at a time: the whole entry of a small stratum, or the rows
# of one match (larger chunks match no faster).
_READ = 1 << 16


def _read_entry(path: Path, spelling: Optional[str],
                json_dest: Optional[str]) -> Optional[Tuple[dict, Counter]]:
    """The report cached at path as (its dict with no trace rows, the
    count of each reason in its rows), or None for an entry to rewrite.
    The entry is read as write_json lays it out: the head up to the trace
    key and, unless the trace is [], the tail from the last line that
    closes it; the two are parsed as one report with an empty trace.  Each
    marker is searched for in a window that grows until it is found, so a
    large disc or witness still hits, and an entry in no such layout
    (compact, truncated, nested too deeply) is None.  Given the spelling
    that a detect output prints, the entry serves only if its "spec" is
    that spelling, since its trace and witness follow the spelling's
    generator order; that is checked before any row is read, and then the
    rows are checked and counted, a chunk at a time (_rows_counted).
    With spelling None (batch, which prints the verdict alone, and a
    verdict does not depend on the spelling) any spelling's entry serves,
    no row is read and the counts are empty.  Given json_dest (as --json
    takes it, with a spelling), the entry's text is then copied there as
    it stands."""
    with open(path, "rb") as fp:
        head = bytearray()
        at = -1
        while at < 0:
            chunk = fp.read(_READ)
            if not chunk:
                return None
            seen = max(0, len(head) - len(_TRACE_OPEN) + 1)
            head += chunk
            at = head.find(_TRACE_OPEN, seen)
        start = end = at + len(_TRACE_OPEN)    # the rows, or "]" for none
        if len(head) == start:
            head += fp.read(1)
        if head[start:start + 1] == b"]":
            text = head + fp.read()
        else:
            size, width = os.fstat(fp.fileno()).st_size, _READ
            while True:
                first = max(start, size - width)
                fp.seek(first)
                tail = fp.read()
                end = first + tail.rfind(_TRACE_CLOSE)
                if end >= first or first == start:
                    break
                width *= 8
            if end <= start:            # no closing line, or no rows
                return None
            text = head[:at] + b'\n  "trace": []' + tail[end - first + 4:]
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError):   # RecursionError: too deep
            return None
        if not _is_report(doc) or spelling not in (None, doc["spec"]):
            return None
        counts = (_rows_counted(fp, start, end)
                  if spelling is not None and end > start else Counter())
        if counts is None:
            return None
        if json_dest:
            fp.seek(0)
            with io.TextIOWrapper(fp, encoding="utf-8", newline="") as src:
                _copy_json(src, json_dest)
        return doc, counts


def _rows_counted(fp, start: int, end: int) -> Optional[Counter]:
    """The count of each reason in the rows at [start, end) of fp, or None
    unless they fullmatch detector.trace_rows_pattern.  They are matched a
    chunk at a time, each cut after a whole row: one match over a census
    entry's rows takes three times as long."""
    pattern = trace_rows_pattern()
    counts: Counter = Counter()
    fp.seek(start)
    left, pending = end - start, b""
    while True:
        block = fp.read(min(left, _READ))
        if left and not block:
            return None
        left -= len(block)
        pending += block
        chunk = pending
        if left:
            cut = pending.rfind(_ROW_CUT) + 6
            if cut < 6:
                continue
            chunk, pending = pending[:cut], pending[cut + 1:]
        if not pattern.fullmatch(chunk):
            return None
        for reason in REASONS:
            found = chunk.count(b'"reason": "%s"' % reason.encode())
            if found:
                counts[reason] += found
        if not left:
            return counts


def _cached_detect(h2: int, spec: RootSpec, tgram, oracle: bool,
                   cache_dir: Path, json_dest: Optional[str] = None,
                   rows: bool = True) -> Tuple[dict, Counter]:
    """The report's dict and the count of each reason in its trace, via
    the cache; given json_dest (as --json takes it), also copies the
    entry's text there.  rows=False reads no trace row of a hit, counts
    none, and takes another spelling's entry: batch prints the verdict
    alone.  Otherwise a hit must carry this spelling (_read_entry)."""
    # Before the lookup: an entry an older version wrote under this key
    # must not be served.
    require_tgram_rank(spec, tgram)
    key = _cache_key(h2, spec, tgram, oracle)
    path = cache_dir / f"{key}.json"
    if path.is_file():
        # A truncated, corrupt or foreign entry is a miss: recompute and
        # overwrite it.
        hit = _read_entry(path, spec.display_text() if rows else None,
                          json_dest)
        if hit:
            return hit
    report = detect(h2, spec, tgram=tgram, oracle=oracle)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Stream the entry beside its place, then rename: readers never see a
    # partial file, and no text of the whole entry is held.  json_dest
    # copies from the file written, which is still open.  A failed write,
    # rename or copy leaves no temporary file behind.
    tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+") as fp:
            doc = report.write_json(fp)
            fp.flush()
            os.replace(tmp, path)
            if json_dest:
                fp.seek(0)
                _copy_json(fp, json_dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return doc, (Counter(map(itemgetter("reason"), doc["trace"])) if rows
                 else Counter())


def _print_human(rep: dict, counts: Counter) -> None:
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
    rep, counts = _cached_detect(h2, RootSpec.parse(args.spec), args.tgram,
                                 args.oracle, _cache_dir(args.cache_dir),
                                 args.json)
    if not args.json:
        _print_human(rep, counts)
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
                            rows=False)[0]["verdict"]
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
