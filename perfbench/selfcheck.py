#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. The metric names and units printed with ``--trace 0`` and ``--trace 1``
   are exactly those ``BENCHMARK.json`` declares, on a detect workload and
   on the cli workload.
2. A deliberately wrong reference digest is reported as a failure: the run
   says ``"correct": false`` with ``failed`` > 0 and exits with status 1.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Exits 0 when all checks pass.  Takes about half a minute.
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_names(workload: str, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit status {proc.returncode}"]
    got = {k: v["unit"] for k, v in result_of(proc.stdout)["metrics"].items()}
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    if got != want:
        return [f"{workload} trace {trace}: printed "
                f"{sorted(set(got.items()) ^ set(want.items()))} "
                f"differ from BENCHMARK.json"]
    return []


def check_wrong_digest() -> list:
    reference = run.load_reference()
    k = run.key(*run.GOLDEN[2][:2])
    reference[k] = dict(reference[k], digest="0" * 64)
    out = io.StringIO()
    args = argparse.Namespace(workload="golden-negatives", seed=7,
                              seconds=1.0, trace=0)
    with redirect_stdout(out):
        status = run.run_one(args, reference)
    res = result_of(out.getvalue())
    if status != 1 or res["correct"] or res["failed"] < 1:
        return [f"wrong digest for {k} passed: status {status}, {res}"]
    return []


def check_bare_directory() -> list:
    run.OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "golden-negatives", "--seed",
                               "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: status {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for workload in ("golden-negatives", "cli-batch"):
        for trace in (0, 1):
            problems += check_names(workload, trace)
    problems += check_wrong_digest()
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
