"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes, stdout,
stderr, cache files, and JSON documents can all be asserted exactly; the
huge-h2 calls run in a subprocess so a hang fails on a timeout.
Every detect invocation points --cache-dir (or the environment fallback)
at a temporary directory so the repository is never polluted.
"""

import argparse
import errno
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import realstrata
from realstrata import cli
from realstrata.cli import (_REPORT_KEYS, _REPORT_TYPES, _is_report,
                            build_parser, main)
from realstrata.detector import DetectionReport, detect
from realstrata.lattices import RootSpec, polarized_disc

SCHEMA = json.loads(
    (Path(realstrata.__file__).parent / "report_schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------ usage errors


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == realstrata.__version__


def test_missing_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--spec" in err


def test_malformed_tgram_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--spec", "A1", "--tgram", "1,2"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "three integers" in err


def test_unknown_model_exits_2(capsys, tmp_path):
    # An em space is no whitespace around a model name.
    for model in ("cubic", "\u2003quartic"):
        code, out, err = run(capsys, "detect", "--model", model, "--spec",
                             "A1", "--cache-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: unknown model")


@pytest.mark.parametrize("model", ["h2=3", "h2=4_0", "h2=\u0664", "h2=abc",
                                   "h2=1e3", "h2=+4", "h2=0"])
def test_malformed_h2_exits_2_with_one_error_line(capsys, tmp_path, model):
    # ASCII digits only ("4_0" and the Arabic-Indic four are no h2), and
    # a non-integer gets the same one line as an odd h2.
    cache = ["--cache-dir", str(tmp_path)]
    for argv in (["detect", *cache], ["disc"]):
        code, out, err = run(capsys, *argv, "--model", model, "--spec", "A1")
        assert (code, out) == (2, "")
        assert err == "error: h2 must be a positive even integer\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["A\u0664+A1", "\u0662*A1", "A1_0",
                                  "A1 7", "1 8*A1", "A1\u2003+A2"])
def test_spec_digits_are_ascii_only(capsys, tmp_path, spec):
    # The Arabic-Indic digits four and two are no rank or multiplicity,
    # and digits on both sides of a space, or an em space, join no term.
    for argv in (["detect", "--cache-dir", str(tmp_path)], ["disc"]):
        code, out, err = run(capsys, *argv, "--spec", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse root-spec term ")
        assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_spec_takes_ascii_whitespace_around_operators(capsys, tmp_path):
    # The spelling is shown as it was cleaned: its bytes do not change.
    code, out, _ = run(capsys, "detect", "--spec", " 2 * A1 + A2 ", "--json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["spec"] == "2*A1+A2"


@pytest.mark.parametrize("argv", [
    ["detect", "--spec", "A18", "--tgram", "2,1,1_0"],
    ["detect", "--spec", "A18", "--tgram", "2, +1,\u0661\u0660"],
    ["detect", "--spec", "A18", "--tgram", "2,\u20031,10"],
    ["autos", "--tgram", "2,1,\u0662"],
    ["embed", "--spec", "A1", "--sigma-plus", "1_0"],
    ["embed", "--spec", "A1", "--sigma-minus", "+1"],
    ["embed", "--spec", "A1", "--sigma-minus", "\u0661"]])
def test_integer_options_take_ascii_digits_only(capsys, tmp_path, argv):
    # int() would read 1_0 as 10, +1 as 1 and the Arabic-Indic digits as
    # theirs; a tgram entry or a signature is ASCII digits with at most
    # one leading '-'.
    if argv[0] == "detect":
        argv += ["--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid integer" in err
    assert not any(tmp_path.iterdir())


def test_rank_over_19_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "detect", "--spec", "2*E8+A4",
                       "--cache-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("case", ["batch-file", "json-path", "cache-dir"])
def test_io_error_exits_2_with_one_line(capsys, tmp_path, case):
    # An I/O error is a usage error (exit 2), not a batch error (exit 1),
    # and it reads as one error line, not a traceback.
    missing = tmp_path / "missing"
    regular = tmp_path / "regular"
    regular.write_text("")
    argv = {
        "batch-file": ["batch", str(missing), "--cache-dir", str(tmp_path)],
        "json-path": ["disc", "--spec", "A1",
                      "--json", str(missing / "out.json")],
        "cache-dir": ["detect", "--spec", "A1", "--cache-dir", str(regular)],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["autos", "batch"])
def test_a_reader_that_closes_stdout_early_is_no_io_error(tmp_path, command):
    # A reader that stops reading (`| head -0`) is no I/O error (exit 2,
    # one error line): the run exits 141, 128 + SIGPIPE as the shell
    # reports a writer cut off by its pipe, with nothing on stderr.
    specs = tmp_path / "specs.txt"
    specs.write_text("A1\nA2\n")
    argv = {"autos": ["autos", "--tgram", "2,0,6"],
            "batch": ["batch", str(specs),
                      "--cache-dir", str(tmp_path / "cache")]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from realstrata.cli import main; sys.exit(main())",
             *argv], env=_src_env(), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("command", ["disc", "embed", "autos", "detect"])
def test_every_spec_subcommand_rejects_rank_over_19(capsys, tmp_path,
                                                    command):
    # A huge multiplicity is refused before the term is expanded.
    for spec in ("20*A1", "99999999999*A1"):
        argv = [command, "--spec", spec]
        if command == "detect":
            argv += ["--cache-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), spec
        assert err == "error: root rank exceeds 19; no such stratum\n", spec


# ---------------------------------------------------------------- disc


def test_disc_human_small(capsys):
    code, out, _ = run(capsys, "disc", "--spec", "A1")
    assert code == 0
    assert out == "[-1/2] (+) [1/4]\n"


def test_disc_human_matches_library(capsys):
    code, out, _ = run(capsys, "disc", "--spec", "D7+A6+A3+A2")
    assert code == 0
    pf = polarized_disc(RootSpec.parse("D7+A6+A3+A2"), 4)
    assert out == pf.display() + "\n"


def test_disc_json_document(capsys):
    code, out, _ = run(capsys, "disc", "--model", "sextic",
                       "--spec", "A7+A6+A5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"model", "spec", "rank_S", "rank_T", "display",
                        "form", "tags"}
    assert doc["model"] == "sextic"
    assert doc["rank_S"] == 18
    assert doc["rank_T"] == 3
    pf = polarized_disc(RootSpec.parse("A7+A6+A5"), 2)
    assert doc["display"] == pf.display()
    assert doc["tags"][-1] == "h"


# ------------------------------------------------------------- detect


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def _cli_in_a_subprocess(tmp_path, *argv):
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from realstrata.cli import main; sys.exit(main())",
         *argv, "--cache-dir", str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=5)


def _detect_a1_in_a_subprocess(tmp_path, h2):
    proc = _cli_in_a_subprocess(tmp_path, "detect", "--spec", "A1",
                                "--model", f"h2={h2}")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: witness_found" in proc.stdout


def test_detect_answers_a_huge_h2(tmp_path):
    # The a^2 range comes from factoring 2N, not from scanning up to it.
    _detect_a1_in_a_subprocess(tmp_path, 10 ** 20)


def test_detect_answers_an_h2_with_a_huge_prime_factor(tmp_path):
    # 2 * (10^18 + 3), the second factor a prime: trial division would
    # run to its square root, 10^9.
    _detect_a1_in_a_subprocess(tmp_path, 2 * (10 ** 18 + 3))


def test_detect_answers_an_h2_with_a_squared_huge_prime(tmp_path):
    # 2 * (2^61 - 1)^2: rho alone would need about 2^30 steps to split the
    # square; the perfect-power test reads it off at once.
    _detect_a1_in_a_subprocess(tmp_path, 2 * (2 ** 61 - 1) ** 2)


HARD_H2 = 2 * (2 ** 61 - 1) * (2 ** 89 - 1)   # two primes out of rho's reach


def test_detect_refuses_an_h2_it_cannot_factor(tmp_path):
    proc = _cli_in_a_subprocess(tmp_path, "detect", "--spec", "A1",
                                "--model", f"h2={HARD_H2}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: cannot factor \d+: .*\n", proc.stderr)
    assert not any(tmp_path.iterdir())


def test_batch_refuses_an_h2_it_cannot_factor_before_any_line(tmp_path):
    # The model is factored once, before the lines: one error and exit 2,
    # not one rho budget (about a second) and one error per distinct line.
    specs = tmp_path / "specs.txt"
    specs.write_text("".join(f"A{n}\n" for n in range(1, 9)) + "A1\n")
    cache = tmp_path / "cache"
    start = time.perf_counter()
    proc = _cli_in_a_subprocess(cache, "batch", str(specs),
                                "--model", f"h2={HARD_H2}")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: cannot factor \d+: .*\n", proc.stderr)
    assert elapsed < 4
    assert not cache.exists()


def test_detect_witness_human(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--spec", "A1",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert "verdict: witness_found  (basis: corlem1)" in out
    assert "witness: a2=2 n=2" in out
    assert "revalidated=True" in out


def test_detect_json_validates_against_schema(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--spec", "A1", "--json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    # the cache serves only entries with exactly these keys, each of a
    # type the schema allows
    assert doc.keys() == _REPORT_KEYS
    assert _is_report(doc)
    json_types = {"string": str, "integer": int, "boolean": bool,
                  "object": dict, "array": list, "null": type(None)}
    for key, prop in SCHEMA["properties"].items():
        allowed = prop["type"] if isinstance(prop["type"], list) \
            else [prop["type"]]
        assert set(_REPORT_TYPES[key]) == {json_types[t] for t in allowed}
    assert doc["verdict"] == "witness_found"
    assert doc["model"] == "quartic"
    # canonical serialization: sorted keys, two-space indent
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_detect_json_to_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "detect", "--spec", "A2",
                       "--json", str(dest),
                       "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert out == ""  # document went to the file, not stdout
    text = dest.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["verdict"] == "witness_found"
    jsonschema.validate(doc, SCHEMA)


def test_detect_inconclusive_exits_4(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--spec", "4*A1+E8+D5",
                       "--cache-dir", str(tmp_path))
    assert code == 4
    assert "verdict: inconclusive" in out
    assert "(basis:" not in out  # no conclusiveness basis to report
    assert "trace:" in out


def test_detect_none_exists_exits_3(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--model", "sextic",
                       "--spec", "A7+A6+A5", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "verdict: none_exists  (basis: corlem2)" in out


def test_detect_rank19_without_tgram_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "detect", "--spec", "D7+A6+A3+A2+A1",
                         "--cache-dir", str(tmp_path))
    assert code == 2
    assert "verdict: needs_T_gram" in out
    assert "--tgram" in err  # actionable hint on stderr


def test_detect_rank19_with_tgram(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--spec", "2*E8+A2+A1",
                       "--tgram", "4, 0, 6", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "verdict: witness_found  (basis: rankT2)" in out


@pytest.mark.parametrize("tgram, message", [
    ("3,0,3", "lattice must be even"),
    ("2,2,2", "Gram matrix must be positive definite")])
def test_detect_rank19_refuses_a_bad_tgram_with_its_own_error(
        capsys, tmp_path, tgram, message):
    # T is checked before its discriminant is compared with the stratum's.
    assert run(capsys, "detect", "--spec", "A18+A1", "--tgram", tgram,
               "--cache-dir", str(tmp_path)) == (2, "", f"error: {message}\n")


def test_detect_refuses_a_tgram_below_rank_19(capsys, tmp_path):
    # Below rank 19 nothing reads T's Gram matrix: it is refused, not
    # ignored, and keys no second cache entry.
    code, out, err = run(capsys, "detect", "--spec", "A18",
                         "--tgram", "2,1,10", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: tgram applies only at rank_S = 19; this "
                   "stratum has rank_S = 18\n")
    assert list(tmp_path.iterdir()) == []
    # An entry that a version reading no tgram wrote under its key is not
    # served either.
    tgram = ((2, 1), (1, 10))
    key = cli._cache_key(4, RootSpec.parse("A18"), tgram, False)
    run(capsys, "detect", "--spec", "A18", "--cache-dir", str(tmp_path / "0"))
    (entry,) = (tmp_path / "0").glob("*.json")
    (tmp_path / f"{key}.json").write_bytes(entry.read_bytes())
    assert run(capsys, "detect", "--spec", "A18", "--tgram", "2,1,10",
               "--cache-dir", str(tmp_path))[0] == 2


# -------------------------------------------------------------- caching


def _entry_of(cache):
    """The one cache entry in cache, and its first line."""
    (entry,) = cache.glob("*.json")
    return entry, entry.read_text().split("\n", 1)[0]


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    # A hit prints what the miss printed and leaves its entry as it is.
    # The entry is one JSON object: its first line is the summary, the
    # report with its trace replaced by the count of each reason, and the
    # report as write_json writes it follows that line.
    code1, out1, _ = run(capsys, "detect", "--spec", "D7+A6+A3+A2",
                         "--cache-dir", str(tmp_path))
    entry, _ = _entry_of(tmp_path)
    stored = entry.read_text()
    code2, out2, _ = run(capsys, "detect", "--spec", "D7+A6+A3+A2",
                         "--cache-dir", str(tmp_path))
    assert (code1, code2) == (3, 3)
    assert out2 == out1
    assert list(tmp_path.iterdir()) == [entry]
    assert entry.read_text() == stored
    report = json.loads(stored)
    summary = report.pop("summary")
    counts = Counter(row["reason"] for row in report["trace"])
    assert summary == {**report, "trace": counts}
    assert stored == ('{"summary": ' + json.dumps(summary, sort_keys=True)
                      + "," + json.dumps(report, sort_keys=True,
                                         indent=2)[1:])


def test_cache_key_uses_canonical_spec(capsys, tmp_path, monkeypatch):
    # Two spellings of one stratum share one entry, but each prints its
    # own report: the spec line, and the disc, trace and witness, which
    # follow the spelling's generator order (A11+A6+A1 finds
    # kappa=[0, 0, 0, 1, 1] after 5 rows, A1+A6+A11 kappa=[1, 0, 0, 0, 1]
    # after 7).  So each spelling's warm output is its own cold output, in
    # a cache that the other spelling wrote first: that entry is a miss for
    # detect and is rewritten, then served to a repeat.
    calls = []
    real_detect = cli.detect
    monkeypatch.setattr(cli, "detect", lambda *args, **kwargs: (
        calls.append(args) or real_detect(*args, **kwargs)))
    for spellings in (("A1+A3", "A3+A1"), ("A1+A6+A11", "A11+A6+A1")):
        cold = {spec: run(capsys, "detect", "--spec", spec,
                          "--cache-dir", str(tmp_path / spec))[1]
                for spec in spellings}
        assert cold[spellings[0]] != cold[spellings[1]]
        shared = tmp_path / f"shared-{spellings[0]}"
        del calls[:]
        for spec in spellings + spellings[::-1]:
            for _ in range(2):
                _, out, _ = run(capsys, "detect", "--spec", spec,
                                "--cache-dir", str(shared))
                assert out == cold[spec], spec
        # One miss per change of spelling, and one entry throughout.
        assert len(calls) == 3, spellings
        assert len(list(shared.glob("*.json"))) == 1


def test_cache_env_var_fallback(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("REALSTRATA_CACHE", str(cache))
    code, _, _ = run(capsys, "detect", "--spec", "A1")
    assert code == 0
    assert len(list(cache.glob("*.json"))) == 1


def test_cache_default_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REALSTRATA_CACHE", raising=False)
    code, _, _ = run(capsys, "detect", "--spec", "A1")
    assert code == 0
    assert len(list((tmp_path / ".realstrata-cache").glob("*.json"))) == 1


def test_cache_key_depends_on_tgram(capsys, tmp_path):
    run(capsys, "detect", "--spec", "2*E8+A2+A1", "--tgram", "4,0,6",
        "--cache-dir", str(tmp_path))
    run(capsys, "detect", "--spec", "2*E8+A2+A1",
        "--cache-dir", str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_key_depends_on_oracle(capsys, tmp_path):
    # Each flag reads its own entry: a warm run prints its own cold output.
    outputs = []
    for _ in ("cold", "warm"):
        outputs.append([run(capsys, "detect", "--spec", "A1", *oracle,
                            "--cache-dir", str(tmp_path))[1]
                        for oracle in ([], ["--oracle"])])
    assert outputs[0] == outputs[1]
    assert "oracle_checked" not in outputs[0][0]
    assert "oracle_checked: True\n" in outputs[0][1]
    entries = [json.loads(e.read_text()) for e in tmp_path.glob("*.json")]
    assert sorted(e["summary"]["oracle_checked"] for e in entries) == [
        False, True]


@pytest.mark.parametrize("dest", ["stdout", "path"])
def test_detect_json_leaves_the_cache_as_it_found_it(capsys, tmp_path,
                                                     monkeypatch, dest):
    # --json decides the stratum and streams the report out: it reads no
    # entry and writes none, so an empty cache stays empty and a warm one
    # keeps its bytes.  Its document, without the timestamps, is the
    # report of the entry that human detect writes.
    cache = tmp_path / "cache"
    out_file = tmp_path / "report.json"
    argv = ["detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache),
            "--json"] + ([str(out_file)] if dest == "path" else [])
    calls = []
    real_detect = cli.detect
    monkeypatch.setattr(cli, "detect", lambda *args, **kwargs: (
        calls.append(args) or real_detect(*args, **kwargs)))
    documents = []
    for warm in (False, True):
        if warm:
            run(capsys, "detect", "--spec", "D7+A6+A3+A2",
                "--cache-dir", str(cache))
        entries = {e: e.read_bytes() for e in cache.glob("*")}
        calls.clear()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (3, "")
        assert len(calls) == 1
        got = out if dest == "stdout" else out_file.read_text()
        assert out == ("" if dest == "path" else got)
        assert got == json.dumps(json.loads(got), sort_keys=True,
                                 indent=2) + "\n"
        assert {e: e.read_bytes() for e in cache.glob("*")} == entries
        assert cache.exists() == warm
        documents.append(_untimed(got))
    entry, _ = _entry_of(cache)
    report = _untimed(entry.read_text())
    del report["summary"]
    assert documents == [report, report]


def test_a_failed_cache_write_leaves_no_temporary_file(capsys, tmp_path,
                                                       monkeypatch):
    # The entry is streamed into a temporary file and renamed into place;
    # when the rename or the stream fails, the run exits 2 with one error
    # line and the temporary file is gone, so a rerun starts clean.
    cache = tmp_path / "cache"
    entry = cache / (cli._cache_key(4, RootSpec.parse("A1"), None, False)
                     + ".json")
    entry.mkdir(parents=True)       # the rename onto it fails
    code, out, err = run(capsys, "detect", "--spec", "A1",
                         "--cache-dir", str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err
    assert err.count("\n") == 1
    assert list(cache.iterdir()) == [entry]
    entry.rmdir()
    assert run(capsys, "detect", "--spec", "A1",
               "--cache-dir", str(cache))[0] == 0
    assert json.loads(entry.read_text())["verdict"] == "witness_found"

    class FullAfterOneWrite:
        def __init__(self, fp):
            self.fp, self.writes = fp, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fp.write(text)

    write_json = DetectionReport.write_json
    monkeypatch.setattr(DetectionReport, "write_json",
                        lambda rep, fp, *args: write_json(
                            rep, FullAfterOneWrite(fp), *args))
    cache = tmp_path / "full"
    argv = ["detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache)]
    assert run(capsys, *argv) == (
        2, "", "error: [Errno 28] No space left on device\n")
    assert list(cache.iterdir()) == []
    monkeypatch.undo()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "") and "verdict: none_exists" in out
    (entry,) = cache.iterdir()
    assert json.loads(entry.read_text())["verdict"] == "none_exists"


# Cache entries that are not a report: truncated JSON, then JSON that
# parses to something else.
NOT_A_REPORT = [None, "{}", "null", "[1]", '{"verdict": "witness_found"}']
# Entries with every report key but a value the schema does not allow, as
# replacements in the real summary; printing one used to crash detect, or
# print a basis, revalidation, oracle outcome or trace reason that the
# schema refuses.  The summary's trace is the count of each reason, so bad
# counts stand in for bad rows: a list, an unknown reason, a count that is
# not an integer >= 1.
MALFORMED_VALUES = [{"disc": None}, {"trace": 5}, {"witness": 3},
                    {"witness": {"a2": 2}}, {"rank_S": "1"}, {"rank_T": True},
                    {"disc": {"display": None}},
                    {"verdict": ["witness_found"]}, {"oracle_checked": None},
                    {"trace": []}, {"trace": [5]}, {"trace": {"a2": 2}},
                    {"trace": {"no_kappa": "5"}},
                    {"trace": {"no_kappa": True}},
                    {"trace": {"no_kappa": 1.0}},
                    {"trace": {"no_kappa": 0}}, {"trace": {"no_kappa": -1}},
                    {"trace": {"genus_empty": 3, "bogus": 1}},
                    {"witness": {"a2": 2, "n": 2, "kappa": 5, "phi": None}},
                    {"witness": {"a2": "2", "n": 2, "kappa": [0, 0],
                                 "phi": [[1, 0], [0, 1]]}},
                    {"witness_revalidated": False},
                    {"oracle_checked": "bogus"},
                    {"conclusiveness_basis": "nonsense"},
                    {"rank_S": -3}, {"rank_T": 22}, {"wall_time_ms": -1},
                    {"witness": {"a2": -5, "n": 2, "kappa": [0, 0],
                                 "phi": [[1, 0], [0, 1]]}},
                    {"witness": {"a2": 2, "n": 3, "kappa": [0, 0],
                                 "phi": [[1, 0], [0, 1]]}},
                    {"witness": {"a2": 2, "n": 2, "kappa": ["x"],
                                 "phi": [[1, 0], [0, 1]]}},
                    {"witness": {"a2": 2, "n": 2, "kappa": [0, 0],
                                 "phi": [["a"]]}},
                    {"witness": {"a2": 2, "n": 2, "kappa": [0, 0],
                                 "phi": [[-1]]}}]


def _untimed(text):
    """A report, or a cache entry, parsed without its timestamps: an
    entry's summary carries them too."""
    doc = json.loads(text)
    for part in (doc, doc.get("summary", {})):
        part.pop("wall_time_ms", None)
        part.pop("generated_at", None)
    return doc


OUTPUTS = ("batch", "detect")


def _output(capsys, cache, spec, which, model="quartic", tgram=()):
    """(exit code, stdout, stderr) of one of OUTPUTS on spec and model,
    against cache; tgram, as ("--tgram", "a,b,d"), goes to detect."""
    argv = ["--model", model, "--cache-dir", str(cache)]
    if which == "batch":
        listing = cache.parent / "listing.txt"
        listing.write_text(f"{spec}\n")
        return run(capsys, "batch", str(listing), *argv)
    return run(capsys, "detect", "--spec", spec, *tgram, *argv)


def _assert_each_output_refuses(capsys, tmp_path, spec, bad_entries):
    """For each (label, entry text): written over spec's cache entry, the
    entry is a miss for every output, which prints what a fresh run prints
    and rewrites the entry whole."""
    cache = tmp_path / "cache"
    fresh = {which: _output(capsys, cache, spec, which) for which in OUTPUTS}
    entry, _ = _entry_of(cache)
    report = _untimed(entry.read_text())
    for label, bad in bad_entries:
        for which in OUTPUTS:
            entry.write_text(bad)
            assert _output(capsys, cache, spec, which) == fresh[which], (
                label, which)
            assert _untimed(entry.read_text()) == report, (label, which)
            assert list(cache.iterdir()) == [entry], (label, which)


def test_truncated_cache_entry_is_a_miss(capsys, tmp_path):
    # NOT_A_REPORT and MALFORMED_VALUES, each as compact JSON on one line:
    # None stands for the first 40 characters of the real entry, a dict
    # for the real entry with those values replaced.  No line of these
    # opens with a summary and ends at its comma.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "A2", "--cache-dir", str(cache))
    real = _entry_of(cache)[0].read_text()
    _assert_each_output_refuses(
        capsys, tmp_path, "A2",
        [(content, real[:40] if content is None
          else json.dumps({**json.loads(real), **content})
          if isinstance(content, dict) else content)
         for content in NOT_A_REPORT + MALFORMED_VALUES])


def test_batch_treats_an_entry_that_is_not_a_report_as_a_miss(capsys,
                                                              tmp_path):
    listing = tmp_path / "strata.txt"
    listing.write_text("A1\nA2\n")
    cache = tmp_path / "cache"
    assert run(capsys, "batch", str(listing), "--cache-dir", str(cache))[0] \
        == 0
    for entry, content in zip(sorted(cache.glob("*.json")), NOT_A_REPORT[1:]):
        entry.write_text(content)
    code, out, err = run(capsys, "batch", str(listing),
                         "--cache-dir", str(cache))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["A1: witness_found", "A2: witness_found",
                                "batch: 2 strata  witness_found=2"]


def test_too_deeply_nested_entry_is_a_miss(capsys, tmp_path):
    # json.loads raises RecursionError, not ValueError, on the summary of
    # the second entry; the first has no summary line.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "A1", "--cache-dir", str(cache))
    rest = _entry_of(cache)[0].read_text().split("\n", 1)[1]
    nested = "[" * 20000 + "]" * 20000
    _assert_each_output_refuses(
        capsys, tmp_path, "A1",
        [("bare", "[" * 100000 + "]" * 100000),
         ("summary", '{"summary": ' + nested + ",\n" + rest)])


def test_entries_in_the_writers_layout_with_a_bad_value_are_misses(
        capsys, tmp_path):
    # NOT_A_REPORT and MALFORMED_VALUES again, each written as the
    # summary line that the writer writes (sorted keys, one line, then a
    # comma) before the real report: the reader parses that line alone.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "A2", "--cache-dir", str(cache))
    entry, line = _entry_of(cache)
    rest = entry.read_text()[len(line):]
    summary = json.loads(line[len('{"summary": '):-1])
    _assert_each_output_refuses(capsys, tmp_path, "A2", [
        (content, '{"summary": ' + json.dumps(
            {**summary, **content} if isinstance(content, dict)
            else json.loads(content), sort_keys=True) + "," + rest)
        for content in NOT_A_REPORT[1:] + MALFORMED_VALUES])


def test_a_row_the_schema_refuses_is_a_miss_where_rows_are_printed(
        capsys, tmp_path):
    # The summary counts the rows that human detect prints, one count per
    # reason: counts edited in place, in the writer's layout, to values
    # that no trace gives (an unknown reason, a count of 0, a count that
    # is not an integer, a reason's count dropped to give no rows) make a
    # miss for detect and for batch, which rewrite the entry.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache))
    entry, line = _entry_of(cache)
    assert '"trace": {"genus_empty": 11, "no_involution_cond3": 92, ' \
        '"no_kappa": 16}' in line
    text = entry.read_text()
    bad_entries = [
        (new, text.replace('"no_kappa": 16}', new, 1))
        for new in ('"no_kappa": 0}', '"no_kappa": 16.0}', '"no_kappa": -16}',
                    '"no_kappa": "16"}', '"no_kappa": true}',
                    '"no_kappa": 16, "bogus": 1}', '"no_kappa": [16]}',
                    '"no_kappa": null}', '"no_kappa": 16, "a2": 2}')]
    assert all(bad != text for _, bad in bad_entries)
    _assert_each_output_refuses(capsys, tmp_path, "D7+A6+A3+A2",
                                bad_entries)


def test_a_truncated_entry_is_a_miss_for_every_output(capsys, tmp_path):
    # Cut anywhere in its summary line, newline included: the line no
    # longer ends at the summary's comma and newline, or does not parse.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache))
    entry, line = _entry_of(cache)
    real = entry.read_text()
    cuts = sorted({*range(0, len(line) + 1, len(line) // 24),
                   len(line) - 1, len(line)})
    assert len(cuts) >= 25
    _assert_each_output_refuses(capsys, tmp_path, "D7+A6+A3+A2",
                                [(cut, real[:cut]) for cut in cuts])


def test_a_cut_after_the_summary_line_still_serves(capsys, tmp_path,
                                                   monkeypatch):
    # No reader reads past the first line, so an entry cut anywhere after
    # it still gives every output what the miss printed, and is left as
    # it is.
    cache = tmp_path / "cache"
    fresh = {which: _output(capsys, cache, "D7+A6+A3+A2", which)
             for which in OUTPUTS}
    entry, line = _entry_of(cache)
    real = entry.read_text()
    start = len(line) + 1
    cuts = sorted({*range(start, len(real), (len(real) - start) // 20),
                   len(real) - 1})

    def no_detect(*args, **kwargs):
        raise AssertionError("a hit must not decide")

    monkeypatch.setattr(cli, "detect", no_detect)
    for cut in cuts:
        for which in OUTPUTS:
            entry.write_text(real[:cut])
            assert _output(capsys, cache, "D7+A6+A3+A2", which) \
                == fresh[which], (cut, which)
            assert entry.read_text() == real[:cut]


def test_a_foreign_entry_is_read_only_up_to_the_bound(capsys, tmp_path,
                                                      monkeypatch):
    # 8 MB with no newline where the entry goes: every output reads at
    # most the bound (plus the one buffer that ends in it) from the file,
    # takes it for a miss and rewrites the entry.
    fetched = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            size = super().readinto(buffer)
            fetched.append(size or 0)
            return size

        def readall(self):
            data = super().readall()
            fetched.append(len(data))
            return data

    def counting_open(path, mode="r", *args, **kwargs):
        if mode == "rb":
            return io.BufferedReader(CountingFile(path))
        return open(path, mode, *args, **kwargs)

    foreign = "x" * (8 << 20)
    cache = tmp_path / "cache"
    fresh = {which: _output(capsys, cache, "A2", which) for which in OUTPUTS}
    entry, _ = _entry_of(cache)
    report = _untimed(entry.read_text())
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for which in OUTPUTS:
        entry.write_text(foreign)
        fetched.clear()
        assert _output(capsys, cache, "A2", which) == fresh[which], which
        assert 0 < sum(fetched) <= (cli._SUMMARY_BOUND
                                    + io.DEFAULT_BUFFER_SIZE), which
        assert _untimed(entry.read_text()) == report, which


def test_the_benchmark_reads_each_entry_as_a_whole_report(capsys, tmp_path):
    # perfbench/run.py's cli-batch gate reads the entries that batch
    # leaves: one file per canonical stratum, each one JSON object whose
    # report keys hold the whole report, trace rows included, of the
    # spelling that wrote it.  Dropping the rows, or keying entries by
    # spelling, must first move that gate.
    listing = tmp_path / "strata.txt"
    listing.write_text("A1+A1\n2*A1\nA3+A1\nA1+A3\n3*A1\nA1+2*A1\n"
                       "D7+A6+A3+A2\nA2+A3+A6+D7\nA1+A1\n")
    cache = tmp_path / "cache"
    assert run(capsys, "batch", str(listing), "--cache-dir", str(cache))[0] \
        == 0
    entries = [json.loads(e.read_text()) for e in sorted(cache.iterdir())]
    assert sorted(RootSpec.parse(e["spec"]).canonical_text()
                  for e in entries) == sorted(
        RootSpec.parse(spec).canonical_text()
        for spec in ("2*A1", "A3+A1", "3*A1", "D7+A6+A3+A2"))
    for entry in entries:
        assert isinstance(entry, dict)
        del entry["summary"]
        want = json.loads(detect(4, entry["spec"]).to_json())
        for doc in (entry, want):
            del doc["wall_time_ms"], doc["generated_at"]
        assert entry == want, entry["spec"]
        assert entry["trace"] or entry["verdict"] == "witness_found"


def _ade_sums(max_rank):
    """Every sum of A_n, D_n (n >= 4), E6, E7 and E8 of rank 1..max_rank,
    as a '+'-joined spelling, each multiset once."""
    parts = ([f"A{n}" for n in range(1, max_rank + 1)]
             + [f"D{n}" for n in range(4, max_rank + 1)] + ["E6", "E7", "E8"])
    sums = []

    def extend(first, left, chosen):
        if chosen:
            sums.append("+".join(chosen))
        for i in range(first, len(parts)):
            rank = int(parts[i][1:])
            if rank <= left:
                extend(i, left - rank, chosen + [parts[i]])

    extend(0, max_rank, [])
    return sums


def test_every_entry_the_writer_writes_hits(capsys, tmp_path, monkeypatch):
    # No perpetual miss: once an output has written a stratum's entry,
    # every output is served from it, so none reaches detect (patched to
    # raise), and each prints what it printed on the miss.
    from test_acceptance import GOLDEN_A7, GOLDEN_D7, GOLDEN_SEXTIC
    from test_lattices import SMOKE
    sums = _ade_sums(13)
    assert len(sums) == 842
    strata = ([(spec, "quartic", ()) for spec in SMOKE + sums[::7]
               + [GOLDEN_D7, GOLDEN_A7, "A18", "A18+A1", "0"]]
              + [(GOLDEN_SEXTIC, "sextic", ()),
                 ("2*E8+A2+A1", "quartic", ("--tgram", "4,0,6"))])
    cache = tmp_path / "cache"

    def every_output():
        # batch takes no --tgram.
        return [_output(capsys, cache, spec, which, model, tgram)
                for spec, model, tgram in strata for which in OUTPUTS
                if not (tgram and which == "batch")]

    first = every_output()
    assert len(list(cache.glob("*.json"))) == len({
        (RootSpec.parse(spec).canonical_text(), model, tgram)
        for spec, model, tgram in strata})

    def no_detect(*args, **kwargs):
        raise AssertionError("a hit must not decide")

    monkeypatch.setattr(cli, "detect", no_detect)
    entries = {e: e.read_bytes() for e in cache.glob("*.json")}
    assert every_output() == first
    assert {e: e.read_bytes() for e in cache.glob("*.json")} == entries


def test_a_batch_hit_reads_no_row_of_a_large_entry(capsys, tmp_path,
                                                  monkeypatch):
    # An entry of 10^5 rows, the golden report's rows repeated (a census
    # entry, without deciding one): a hit, for batch and for human detect,
    # parses the summary line alone, a few kB, with one json.loads, and
    # reads no row.
    report = detect(4, "D7+A6+A3+A2")
    report.trace = report.trace * (10 ** 5 // len(report.trace) + 1)
    counts = Counter(row["reason"] for row in report.trace)
    cache = tmp_path / "cache"
    monkeypatch.setattr(cli, "detect", lambda *args, **kwargs: report)
    fresh = {which: _output(capsys, cache, "D7+A6+A3+A2", which)
             for which in OUTPUTS}
    assert f"trace: {len(report.trace)} rows (" + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())) + ")\n" \
        in fresh["detect"][1]
    parsed = []
    loads = json.loads

    def measured_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return loads(text, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("not on a hit")

    monkeypatch.setattr(cli, "detect", refused)
    monkeypatch.setattr(cli.json, "loads", measured_loads)
    for which in OUTPUTS:
        parsed.clear()
        assert _output(capsys, cache, "D7+A6+A3+A2", which) == fresh[which]
        assert len(parsed) == 1 and parsed[0] < 4096, which


# ---------------------------------------------------- errors from the engine


def test_involution_cap_is_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr("realstrata.lattices._INVOLUTION_CAP", 0)
    code, out, err = run(capsys, "autos", "--spec", "4*A1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: involution enumeration exceeds")
    assert err.count("\n") == 1


def test_batch_records_involution_cap_and_goes_on(capsys, tmp_path):
    # detect never reaches the involution cap, so the error one line
    # raises (root rank 20) stands in for it.
    listing = tmp_path / "strata.txt"
    listing.write_text("20*A1\nD7+A6+A3+A2\n")
    code, out, err = run(capsys, "batch", str(listing),
                         "--cache-dir", str(tmp_path / "cache"))
    assert code == 1
    assert out.splitlines() == ["D7+A6+A3+A2: none_exists",
                                "batch: 1 strata  none_exists=1  "
                                "errors=1"]
    assert err == "20*A1: error: root rank exceeds 19; no such stratum\n"


def test_autos_over_the_cap_fails_before_building(capsys):
    # 16*A1 has far more than 2e6 symmetry-induced involutions; the cap is
    # counted before any matrix is built, so the error comes quickly.
    start = time.perf_counter()
    code, out, err = run(capsys, "autos", "--spec", "16*A1")
    assert time.perf_counter() - start < 3
    assert (code, out) == (2, "")
    assert err == ("error: involution enumeration exceeds the generation "
                   "cap\n")


# ---------------------------------------------------------------- batch


def test_batch_mixed_file(capsys, tmp_path):
    listing = tmp_path / "strata.txt"
    listing.write_text(
        "# leading comment\n"
        "A1\n"
        "A2   # trailing comment\n"
        "\n"
        "Q9\n"
        "A1+A2\n")
    code, out, err = run(capsys, "batch", str(listing),
                         "--cache-dir", str(tmp_path / "cache"))
    assert code == 1  # one unparseable line
    lines = out.splitlines()
    assert "A1: witness_found" in lines
    assert "A2: witness_found" in lines
    assert "A1+A2: witness_found" in lines
    assert lines[-1] == "batch: 3 strata  witness_found=3  errors=1"
    assert err.startswith("Q9: error:")


@pytest.mark.parametrize("line", ["\u2003A1\u2003", "A1\u2028A2",
                                  "A1\u2029A2", "A1\x85A2"])
def test_batch_lines_end_at_newline_and_strip_ascii_whitespace(
        capsys, tmp_path, line):
    # Like --spec: an em space around a stratum is no whitespace, and a
    # Unicode line or paragraph separator or NEL ends no line, so each
    # such line is one stratum that does not parse.
    listing = tmp_path / "strata.txt"
    listing.write_text(line + "\n")
    code, out, err = run(capsys, "batch", str(listing),
                         "--cache-dir", str(tmp_path / "cache"))
    assert code == 1
    assert out == "batch: 0 strata  errors=1\n"
    assert err.startswith(f"{line}: error: cannot parse root-spec term ")
    assert err.count("\n") == 1


def test_batch_clean_file_exits_0(capsys, tmp_path):
    listing = tmp_path / "strata.txt"
    listing.write_text("A1\nA2\n")
    code, out, _ = run(capsys, "batch", str(listing),
                       "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert out.splitlines()[-1] == "batch: 2 strata  witness_found=2"


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_batch_summary_of_no_strata_has_no_trailing_separator(
        capsys, tmp_path, text):
    # With no verdict counted the summary is the count alone: the parts
    # are joined only when they are there.
    listing = tmp_path / "strata.txt"
    listing.write_text(text)
    code, out, err = run(capsys, "batch", str(listing),
                         "--cache-dir", str(tmp_path / "cache"))
    assert (code, out, err) == (0, "batch: 0 strata\n", "")


def test_batch_exit_code_ignores_verdicts(capsys, tmp_path):
    # a none_exists verdict is a successful decision, not a failure
    listing = tmp_path / "strata.txt"
    listing.write_text("A7+A6+A5\n")
    code, out, _ = run(capsys, "batch", str(listing), "--model", "sextic",
                       "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert "A7+A6+A5: none_exists" in out


# Repeated spellings of one stratum, comments, blank lines, an empty
# stratum in two spellings and an unparseable line listed twice.
DUPLICATES = ("# duplicates, in several spellings\n"
              "3*A1\n"
              "A1+A1+A1\n"
              "A1+2*A1   # same stratum again\n"
              "\n"
              "Q9\n"
              "A2\n"
              "3*A1\n"
              "Q9\n"
              "none\n"
              "0\n"
              "A2  # again\n")
DUPLICATES_OUT = ("3*A1: witness_found\n"
                  "A1+A1+A1: witness_found\n"
                  "A1+2*A1: witness_found\n"
                  "A2: witness_found\n"
                  "3*A1: witness_found\n"
                  "none: witness_found\n"
                  "0: witness_found\n"
                  "A2: witness_found\n"
                  "batch: 8 strata  witness_found=8  errors=2\n")
DUPLICATES_ERR = "Q9: error: cannot parse root-spec term 'Q9'\n" * 2


def _counting_cache_reads(monkeypatch):
    """The canonical text of each stratum that reaches _cached_detect, in
    order, as a list that the patched function appends to."""
    seen = []
    inner = cli._cached_detect

    def counting(h2, spec, *rest, **options):
        seen.append(spec.canonical_text())
        return inner(h2, spec, *rest, **options)

    monkeypatch.setattr(cli, "_cached_detect", counting)
    return seen


def test_batch_decides_each_distinct_line_once(capsys, tmp_path,
                                               monkeypatch):
    # One read or decision per canonical stratum, cold and warm: the three
    # spellings of 3*A1 reach the cache once, as do the empty stratum's
    # "none" and "0", and Q9, which does not parse, never does.
    listing = tmp_path / "strata.txt"
    listing.write_text(DUPLICATES)
    cache = tmp_path / "cache"
    seen = _counting_cache_reads(monkeypatch)
    for _ in range(2):      # cold cache, then warm
        seen.clear()
        assert run(capsys, "batch", str(listing), "--cache-dir",
                   str(cache)) == (1, DUPLICATES_OUT, DUPLICATES_ERR)
        assert seen == ["3*A1", "A2", "0"]
        # one entry per canonical stratum: 3*A1, A2 and the empty one, "0"
        entries = [json.loads(e.read_text()) for e in cache.glob("*.json")]
        assert sorted(e["spec"] for e in entries) == ["0", "3*A1", "A2"]


def test_batch_remembers_lines_for_one_invocation_only(capsys, tmp_path):
    listing = tmp_path / "strata.txt"
    listing.write_text(DUPLICATES)
    cache = tmp_path / "cache"
    assert run(capsys, "batch", str(listing), "--cache-dir", str(cache)) \
        == (1, DUPLICATES_OUT, DUPLICATES_ERR)
    entries = sorted(cache.glob("*.json"))
    reports = [_untimed(e.read_text()) for e in entries]
    for entry, content in zip(entries, NOT_A_REPORT[1:]):
        entry.write_text(content)
    assert run(capsys, "batch", str(listing), "--cache-dir", str(cache)) \
        == (1, DUPLICATES_OUT, DUPLICATES_ERR)
    assert [_untimed(e.read_text()) for e in entries] == reports
    # The same line under another model is another stratum.
    listing.write_text("A7+A6+A5\nA7+A6+A5\n")
    for model in ("quartic", "sextic"):
        _, human, _ = run(capsys, "detect", "--model", model, "--spec",
                          "A7+A6+A5", "--cache-dir", str(tmp_path / model))
        verdict = re.search(r"^verdict: (\w+)", human, re.M).group(1)
        assert run(capsys, "batch", str(listing), "--model", model,
                   "--cache-dir", str(cache)) == (
            0, f"A7+A6+A5: {verdict}\n" * 2
            + f"batch: 2 strata  {verdict}=2\n", "")


# Raw spellings of one stratum, another stratum, an unparseable line
# twice, and blank and comment-only lines.
REPEATS = ("# raw spellings of one stratum, a bad line twice\n"
           "A1\n"
           "A1 \n"
           "A1  # note\n"
           "\tA1\n"
           "\n"
           "Q9\n"
           "   \n"
           "# a comment only\n"
           "A2\n"
           "Q9\n"
           "A1\n"
           "\tA1\n")
# Taken from the batch that printed each line as it read it.
REPEATS_OUT = "A1: witness_found\n" * 4 + "A2: witness_found\n" + (
    "A1: witness_found\n" * 2
    + "batch: 7 strata  witness_found=7  errors=2\n")
REPEATS_ERR = "Q9: error: cannot parse root-spec term 'Q9'\n" * 2


def test_batch_serves_raw_repeats_from_one_outcome(capsys, tmp_path,
                                                   monkeypatch):
    # A repeated raw line is neither parsed again nor looked up again:
    # each distinct raw line that is not blank or a comment is parsed
    # once, Q9 included, and only A1 and A2 reach the cache, once each.
    listing = tmp_path / "strata.txt"
    listing.write_text(REPEATS)
    cache = tmp_path / "cache"
    seen = _counting_cache_reads(monkeypatch)
    parsed = []
    parse = RootSpec.parse

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(RootSpec, "parse", counting_parse)
    for _ in range(2):      # cold cache, then warm
        seen.clear()
        parsed.clear()
        assert run(capsys, "batch", str(listing), "--cache-dir",
                   str(cache)) == (1, REPEATS_OUT, REPEATS_ERR)
        assert seen == ["A1", "A2"]
        assert parsed == ["A1", "A1", "A1", "A1", "Q9", "A2"]
        assert sorted(json.loads(e.read_text())["spec"]
                      for e in cache.iterdir()) == ["A1", "A2"]


# ---------------------------------------------------------------- embed


def test_embed_small_stratum_passes(capsys):
    code, out, _ = run(capsys, "embed", "--spec", "A1")
    assert code == 0
    assert "clause1: pass" in out
    assert "embeds: True" in out
    assert "FAIL" not in out


def test_embed_large_discriminant_fails(capsys):
    # rank 18 root part at the stratum signature: the discriminant needs
    # more generators than the complement has rank, so clause1 fails
    code, out, _ = run(capsys, "embed", "--spec", "D7+A6+A3+A2")
    assert code == 3
    assert "clause1: FAIL" in out
    assert "embeds: False" in out


def test_embed_json_with_signature_override(capsys):
    code, out, _ = run(capsys, "embed", "--spec", "A1",
                       "--sigma-plus", "1", "--sigma-minus", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == [1, 1]
    assert doc["embeds"] is True
    assert doc["clauses"]["clause1"] is True


@pytest.mark.parametrize("flag", ["--sigma-plus", "--sigma-minus"])
def test_embed_rejects_negative_signature(capsys, flag):
    code, out, err = run(capsys, "embed", "--spec", "A1", flag, "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------- autos


def test_autos_disc_default_spec(capsys):
    # empty configuration: only the polarization block survives
    code, out, _ = run(capsys, "autos")
    assert code == 0
    assert out.splitlines()[0] == "2 involutions"


def test_autos_disc_json(capsys):
    code, out, _ = run(capsys, "autos", "--spec", "A1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert len(doc["matrices"]) == 2
    for mat in doc["matrices"]:
        assert len(mat) == 2 and len(mat[0]) == 2


# sha256 of `autos --spec S` output, human then --json: every matrix line
# is pinned, on components with a D4 triality, swapped pairs (2*D4,
# 3*A2, 2*A3+2*A1), a spinor swap beside an A1 (D12+A1) and mixed
# classes (D4+D4+A2).
AUTOS_SHA256 = {
    "D4": (
        "a70caab9a14f5588b918d65e9f636b83f8599d06dc3897fef64b6db6130ea2c6",
        "9f11f01b0bc188dc5c4ab57d8077417e185c9b56534b2d4e602dc69ed0c8b13b"),
    "2*D4": (
        "4505bbb33b1a8595ef34065d5e00479de90063b8768a6507cf095426532c2f38",
        "063a5ad9b27374d1ba4d644c6a2feab0e6615185142cf86725d91a4337d9262a"),
    "D4+D4+A2": (
        "e500023651056252fec134088a132b2e99f2b4b22f81350bef9fdb38541fc4d7",
        "a24d3195b69c2e92e5ee19e9d6e22422952779df741a6a3b8bd0e7c237a24393"),
    "3*A2": (
        "45019f43b48210f213dbce07a828ca438da16f5d87fbe6d859599baf7acfe197",
        "4b062b1dcbef6030be6948189c157a9ee2582925aff5afcea4fafd416e296f77"),
    "D12+A1": (
        "fed2154c6b3423b706549984ef070bfd27119f9da5b11ceace4e557ed31bac89",
        "b0200bee06151662f1527327fc801be09e9737f3996a4a207da7db03b31727e1"),
    "2*A3+2*A1": (
        "7b5ebaee529794fae6fe19389aad8f7cca631f4426cad84184ad433351ebbef5",
        "28f125f5cfe2a56757c138b3b2cd619484c3f7939f764092b35299275b323a0c"),
}


@pytest.mark.parametrize("spec", sorted(AUTOS_SHA256))
def test_autos_output_bytes_are_pinned(capsys, spec):
    digests = []
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "autos", "--spec", spec, *extra)
        assert (code, err) == (0, ""), extra
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == AUTOS_SHA256[spec]


def test_autos_tgram_rectangular(capsys):
    code, out, _ = run(capsys, "autos", "--tgram", "2,0,6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 isometries"
    assert sum("rotation" in l for l in lines) == 2
    assert sum("reflection" in l for l in lines) == 2


def test_autos_tgram_hexagonal_json(capsys):
    code, out, _ = run(capsys, "autos", "--tgram", "2,1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 12
    dets = [e["det"] for e in doc["elements"]]
    assert dets.count(1) == 6 and dets.count(-1) == 6
    for e in doc["elements"]:
        assert e["kind"] == ("rotation" if e["det"] == 1 else "reflection")


def test_autos_tgram_of_an_unreduced_gram(capsys):
    # 2,11,62 and 2,1001,501002 are the hexagonal 2,1,2 in other bases:
    # O(T) is listed on the reduced Gram and written back in the basis as
    # given, so entries of any size answer at once.
    code, out, _ = run(capsys, "autos", "--tgram", "2,11,62")
    assert code == 0
    assert out.splitlines() == [
        "12 isometries",
        "  [[-6, -35], [1, 6]]  det=-1  reflection",
        "  [[-6, -31], [1, 5]]  det=+1  rotation",
        "  [[-5, -31], [1, 6]]  det=+1  rotation",
        "  [[-5, -24], [1, 5]]  det=-1  reflection",
        "  [[-1, -11], [0, 1]]  det=-1  reflection",
        "  [[-1, 0], [0, -1]]  det=+1  rotation",
        "  [[1, 0], [0, 1]]  det=+1  rotation",
        "  [[1, 11], [0, -1]]  det=-1  reflection",
        "  [[5, 24], [-1, -5]]  det=-1  reflection",
        "  [[5, 31], [-1, -6]]  det=+1  rotation",
        "  [[6, 31], [-1, -5]]  det=+1  rotation",
        "  [[6, 35], [-1, -6]]  det=-1  reflection"]
    code, out, _ = run(capsys, "autos", "--tgram", "2,1001,501002")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12 isometries"
    assert "  [[501, 251000], [-1, -501]]  det=-1  reflection" in lines


def test_detect_rank19_with_an_unreduced_tgram(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--spec", "E8+E8+A2+A1",
                       "--tgram", "4,1000,250006", "--cache-dir",
                       str(tmp_path))
    assert code == 0
    assert "verdict: witness_found  (basis: rankT2)" in out


@pytest.mark.parametrize("stratum", [["--spec", "D4", "--model", "sextic"],
                                     ["--spec", "D4"], ["--model", "quartic"],
                                     ["--spec", ""]])
def test_autos_tgram_refuses_a_stratum(capsys, stratum):
    # O(T) reads no stratum, so a --spec or --model beside --tgram would
    # be ignored; it is refused instead.
    code, out, err = run(capsys, "autos", *stratum, "--tgram", "2,1,2")
    assert (code, out) == (2, "")
    assert err == ("error: autos --tgram lists O(T) and reads no stratum; "
                   "drop --spec and --model\n")


def test_autos_model_alone_still_defaults_the_spec(capsys):
    assert run(capsys, "autos", "--model", "sextic") == \
        (0, "1 involutions\n  ((1,),)\n", "")
    assert run(capsys, "autos", "--spec", "A1")[1].startswith(
        "2 involutions\n")


def test_autos_tgram_rejects_odd_lattice(capsys):
    code, _, err = run(capsys, "autos", "--tgram", "1,0,2")
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------- README drift


def test_readme_cli_reference_options_are_known_to_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI reference", 1)[1].split("```")[1]
    options = {}
    for line in block.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "realstrata":
            command = words[1]
        options.setdefault(command, set()).update(
            re.findall(r"--[a-z][a-z0-9-]*", line))
    assert set(options) == {"disc", "detect", "batch", "embed", "autos"}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, used in options.items():
        known = subparsers.choices[command]._option_string_actions
        assert used <= set(known), (command, sorted(used - set(known)))


def test_readme_quick_start_output_is_exact(capsys, tmp_path):
    # Each "$ realstrata ..." line of the Quick start block runs through
    # main(); its stdout must equal the README lines under it, byte for byte.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines()[1:]:          # drop the "sh" tag line
        if line.startswith("$ realstrata "):
            examples.append((shlex.split(line[len("$ realstrata "):]), []))
        elif line:
            examples[-1][1].append(line)
    assert [argv[0] for argv, _ in examples] == ["disc", "detect", "detect"]
    codes = []
    for argv, expected in examples:
        if argv[0] == "detect":
            argv += ["--cache-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        codes.append(code)
        assert out == "".join(f"{line}\n" for line in expected), argv
    assert codes == [0, 0, 3]       # success, witness_found, none_exists
