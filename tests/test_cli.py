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
    (tmp_path / f"{key}.json").write_text(detect(4, "A18").to_json())
    assert run(capsys, "detect", "--spec", "A18", "--tgram", "2,1,10",
               "--cache-dir", str(tmp_path))[0] == 2


# -------------------------------------------------------------- caching


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    code1, out1, _ = run(capsys, "detect", "--spec", "A2", "--json",
                         "--cache-dir", str(tmp_path))
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    # the stored document is exactly what was printed
    assert files[0].read_text() + "\n" == out1

    code2, out2, _ = run(capsys, "detect", "--spec", "A2", "--json",
                         "--cache-dir", str(tmp_path))
    assert (code1, code2) == (0, 0)
    assert out2 == out1  # including generated_at: served from cache
    assert list(tmp_path.glob("*.json")) == files


def test_cache_key_uses_canonical_spec(capsys, tmp_path):
    _, out1, _ = run(capsys, "detect", "--spec", "A1+A3", "--json",
                     "--cache-dir", str(tmp_path))
    _, out2, _ = run(capsys, "detect", "--spec", "A3+A1", "--json",
                     "--cache-dir", str(tmp_path))
    # same canonical configuration -> same cache entry, byte for byte
    assert out1 == out2
    assert len(list(tmp_path.glob("*.json"))) == 1


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
    _, out1, _ = run(capsys, "detect", "--spec", "A1", "--json",
                     "--cache-dir", str(tmp_path))
    _, out2, _ = run(capsys, "detect", "--spec", "A1", "--json", "--oracle",
                     "--cache-dir", str(tmp_path))
    assert json.loads(out1)["oracle_checked"] is False
    assert json.loads(out2)["oracle_checked"] is True
    assert len(list(tmp_path.glob("*.json"))) == 2


@pytest.mark.parametrize("dest", ["stdout", "path"])
def test_detect_json_is_the_cache_entry_on_a_miss_and_a_hit(capsys, tmp_path,
                                                           dest):
    # A miss streams the report into the entry and copies the entry out;
    # a hit copies the stored entry.  Either way --json gives the entry's
    # bytes and a newline.
    cache = tmp_path / "cache"
    out_file = tmp_path / "report.json"
    argv = ["detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache),
            "--json"] + ([str(out_file)] if dest == "path" else [])
    for _ in ("miss", "hit"):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (3, "")
        (entry,) = cache.iterdir()
        got = out if dest == "stdout" else out_file.read_text()
        assert got == entry.read_text() + "\n"
        assert json.loads(got)["trace"]
        if dest == "path":
            assert out == ""


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
                        lambda rep, fp: write_json(rep, FullAfterOneWrite(fp)))
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
# replacements in the real entry; printing one used to crash detect, or
# print a basis, revalidation, oracle outcome or trace reason that the
# schema refuses.
MALFORMED_VALUES = [{"disc": None}, {"trace": 5}, {"witness": 3},
                    {"witness": {"a2": 2}}, {"rank_S": "1"}, {"rank_T": True},
                    {"disc": {"display": None}},
                    {"verdict": ["witness_found"]}, {"oracle_checked": None},
                    {"trace": [5]}, {"trace": [{"a2": 2}]},
                    {"trace": [{"reason": 5}]},
                    {"witness": {"a2": 2, "n": 2, "kappa": 5, "phi": None}},
                    {"witness": {"a2": "2", "n": 2, "kappa": [0, 0],
                                 "phi": [[1, 0], [0, 1]]}},
                    {"witness_revalidated": False},
                    {"oracle_checked": "bogus"},
                    {"conclusiveness_basis": "nonsense"},
                    {"trace": [{"a2": 2, "n": 2, "kappa": None,
                                "reason": "bogus"}]},
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
    doc = json.loads(text)
    del doc["wall_time_ms"], doc["generated_at"]
    return doc


def test_truncated_cache_entry_is_a_miss(capsys, tmp_path):
    # One loop, not a parametrization, so the test keeps its name; None
    # stands for the first 40 characters of the real entry, a dict for the
    # real entry with those values replaced.  The JSON output and the
    # human output are both checked against a fresh run.
    _, human, _ = run(capsys, "detect", "--spec", "A2",
                      "--cache-dir", str(tmp_path / "fresh"))
    for i, content in enumerate(NOT_A_REPORT + MALFORMED_VALUES):
        cache = tmp_path / str(i)
        code1, out1, _ = run(capsys, "detect", "--spec", "A2", "--json",
                             "--cache-dir", str(cache))
        (entry,) = cache.glob("*.json")
        real = entry.read_text()
        bad = (real[:40] if content is None
               else json.dumps({**json.loads(real), **content})
               if isinstance(content, dict) else content)
        entry.write_text(bad)
        code2, out2, err2 = run(capsys, "detect", "--spec", "A2", "--json",
                                "--cache-dir", str(cache))
        assert (code1, code2, err2) == (0, 0, ""), content
        assert json.loads(out2)["verdict"] == json.loads(out1)["verdict"]
        assert _untimed(out2) == _untimed(out1), content
        # the entry was rewritten whole, and no temporary file is left
        # behind
        assert entry.read_text() + "\n" == out2, content
        assert list(cache.iterdir()) == [entry], content
        entry.write_text(bad)
        assert run(capsys, "detect", "--spec", "A2", "--cache-dir",
                   str(cache)) == (0, human, ""), content


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
    # json.loads raises RecursionError, not ValueError, on this entry.
    nested = "[" * 100000 + "]" * 100000
    listing = tmp_path / "strata.txt"
    listing.write_text("A1\n")
    cache = tmp_path / "cache"
    code, fresh, _ = run(capsys, "detect", "--spec", "A1", "--json",
                         "--cache-dir", str(cache))
    assert code == 0
    (entry,) = cache.glob("*.json")
    entry.write_text(nested)
    code, out, err = run(capsys, "detect", "--spec", "A1", "--json",
                         "--cache-dir", str(cache))
    assert (code, err) == (0, "")
    assert _untimed(out) == _untimed(fresh)
    assert entry.read_text() + "\n" == out
    assert list(cache.iterdir()) == [entry]
    entry.write_text(nested)
    assert run(capsys, "batch", str(listing), "--cache-dir", str(cache)) \
        == (0, "A1: witness_found\nbatch: 1 strata  witness_found=1\n", "")
    assert _untimed(entry.read_text()) == _untimed(fresh)
    assert list(cache.iterdir()) == [entry]


OUTPUTS = ("batch", "detect", "--json")


def _output(capsys, cache, spec, which, model="quartic", tgram=()):
    """(exit code, stdout, stderr) of one of OUTPUTS on spec and model,
    against cache; tgram, as ("--tgram", "a,b,d"), goes to detect."""
    argv = ["--model", model, "--cache-dir", str(cache)]
    if which == "batch":
        listing = cache.parent / "listing.txt"
        listing.write_text(f"{spec}\n")
        return run(capsys, "batch", str(listing), *argv)
    return run(capsys, "detect", "--spec", spec, *tgram, *argv,
               *(["--json"] if which == "--json" else []))


def _assert_each_output_refuses(capsys, tmp_path, spec, bad_entries):
    """For each (label, entry text, whether batch reads what was changed):
    written over spec's cache entry, the entry is a miss for every output
    that reads it, which prints what a fresh run prints and rewrites the
    entry whole; batch, where it reads nothing changed, prints the verdict
    and leaves the entry as it is."""
    cache = tmp_path / "cache"
    fresh = {which: _output(capsys, cache, spec, which) for which in OUTPUTS}
    (entry,) = cache.glob("*.json")
    report = _untimed(entry.read_text())
    for label, bad, batch_reads_it in bad_entries:
        for which in OUTPUTS:
            entry.write_text(bad)
            got = _output(capsys, cache, spec, which)
            if which == "batch" and not batch_reads_it:
                assert got == fresh[which], label
                assert entry.read_text() == bad, label
                continue
            assert got[0] == fresh[which][0], (label, which)
            if which == "--json":
                assert _untimed(got[1]) == report, label
                assert entry.read_text() + "\n" == got[1], label
            else:
                assert got == fresh[which], (label, which)
                assert _untimed(entry.read_text()) == report, label
            assert list(cache.iterdir()) == [entry], label


def test_entries_in_the_writers_layout_with_a_bad_value_are_misses(
        capsys, tmp_path):
    # NOT_A_REPORT and MALFORMED_VALUES again, each written as the writer
    # lays an entry out (sorted keys, indent 2), which the reader parses
    # head and tail of.  A changed trace that is still a list is in the
    # rows, which batch does not read: batch prints the verdict and leaves
    # the entry; detect and --json refuse it.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "A2", "--cache-dir", str(cache))
    (entry,) = cache.glob("*.json")
    real = json.loads(entry.read_text())
    bad_entries = []
    for content in NOT_A_REPORT[1:] + MALFORMED_VALUES:
        doc = ({**real, **content} if isinstance(content, dict)
               else json.loads(content))
        rows_only = (isinstance(content, dict) and list(content) == ["trace"]
                     and isinstance(content["trace"], list))
        bad_entries.append((content, json.dumps(doc, sort_keys=True,
                                                indent=2), not rows_only))
    _assert_each_output_refuses(capsys, tmp_path, "A2", bad_entries)


def test_a_row_the_schema_refuses_is_a_miss_where_rows_are_printed(
        capsys, tmp_path):
    # One row edited in place, in the writer's layout, to values that
    # report_schema.json refuses: detect counts the rows and --json prints
    # them, so both refuse the entry and rewrite it; batch prints only the
    # verdict, reads no row, and leaves the entry as it is.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache))
    (entry,) = cache.glob("*.json")
    real = json.loads(entry.read_text())
    bad_entries = []
    for change in ({"a2": -1, "n": 7, "kappa": ["x"]}, {"a2": 1},
                   {"a2": True}, {"n": 0}, {"n": 7}, {"kappa": [-1]},
                   {"kappa": [1.5]}, {"kappa": 3}, {"reason": "bogus"},
                   {"extra": 1}):
        doc = json.loads(json.dumps(real))
        doc["trace"][5].update(change)
        bad_entries.append((change, json.dumps(doc, sort_keys=True,
                                               indent=2), False))
    _assert_each_output_refuses(capsys, tmp_path, "D7+A6+A3+A2",
                                bad_entries)


def test_a_truncated_entry_is_a_miss_for_every_output(capsys, tmp_path):
    # Cut in the head, in the rows, in the tail, and one byte short, and
    # with every row cut out.
    cache = tmp_path / "first"
    run(capsys, "detect", "--spec", "D7+A6+A3+A2", "--cache-dir", str(cache))
    (entry,) = cache.glob("*.json")
    real = entry.read_text()
    rows_from = real.index('\n  "trace": [') + len('\n  "trace": [')
    rows_to = real.rindex('\n  ],\n  "verdict": ')
    cuts = sorted({*range(0, rows_from + 1, rows_from // 12),
                   *range(rows_from, rows_to + 1, (rows_to - rows_from) // 14),
                   *range(rows_to, len(real), (len(real) - rows_to) // 12),
                   rows_from - 1, rows_to + 4, len(real) - 1})
    assert len(cuts) >= 40
    # With its rows cut out, the trace still parses, as an empty list that
    # the writer would have written as "[]": no entry it writes.
    _assert_each_output_refuses(
        capsys, tmp_path, "D7+A6+A3+A2",
        [(cut, real[:cut], True) for cut in cuts]
        + [("no rows", real[:rows_from] + real[rows_to:], True)])


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
    # entry, without deciding one): batch parses only the head and tail
    # around the rows, a few kB, and matches no row; detect counts every
    # row, and --json copies the entry.
    report = detect(4, "D7+A6+A3+A2")
    report.trace = report.trace * (10 ** 5 // len(report.trace) + 1)
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = cache / (cli._cache_key(4, RootSpec.parse("D7+A6+A3+A2"), None,
                                    False) + ".json")
    with open(entry, "w") as fp:
        report.write_json(fp)
    parsed = []
    loads = json.loads

    def measured_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return loads(text, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("not on a batch hit")

    monkeypatch.setattr(cli, "detect", refused)
    monkeypatch.setattr(cli.json, "loads", measured_loads)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "trace_rows_pattern", refused)
        assert _output(capsys, cache, "D7+A6+A3+A2", "batch") == (
            0, "D7+A6+A3+A2: none_exists\n"
               "batch: 1 strata  none_exists=1\n", "")
    assert len(parsed) == 1 and parsed[0] < 4096
    code, out, err = _output(capsys, cache, "D7+A6+A3+A2", "detect")
    counts = Counter(row["reason"] for row in report.trace)
    assert (code, err) == (3, "")
    assert f"trace: {len(report.trace)} rows (" + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())) + ")\n" in out
    assert _output(capsys, cache, "D7+A6+A3+A2", "--json") == (
        3, entry.read_text() + "\n", "")
    assert len(parsed) == 3 and max(parsed) < 4096


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
    assert out == "batch: 0 strata    errors=1\n"
    assert err.startswith(f"{line}: error: cannot parse root-spec term ")
    assert err.count("\n") == 1


def test_batch_clean_file_exits_0(capsys, tmp_path):
    listing = tmp_path / "strata.txt"
    listing.write_text("A1\nA2\n")
    code, out, _ = run(capsys, "batch", str(listing),
                       "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert out.splitlines()[-1] == "batch: 2 strata  witness_found=2"


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
