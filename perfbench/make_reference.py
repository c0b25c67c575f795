#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the verdict and decision-content
digest of every stratum the benchmark runs, computed by the current code.

    python3 perfbench/make_reference.py

Run it only on a commit whose verdicts are known good; the benchmark counts
every later difference as a failure.
"""

import json
import sys

from run import (BENCH_DIR, GOLDEN, LADDER, POSITIVE, ROOT, SPELLINGS,
                 digest, key)

sys.path.insert(0, str(ROOT / "src"))
from realstrata.detector import detect  # noqa: E402


def main() -> int:
    strata = [(s, h) for s, h, _ in GOLDEN] + POSITIVE + LADDER
    strata += [(sp, 4) for sps in SPELLINGS.values() for sp in sps]
    out = {}
    for spec, h2 in strata:
        rep = detect(h2, spec).to_json_dict()
        out[key(spec, h2)] = {"verdict": rep["verdict"],
                              "digest": digest(rep)}
        print(f"{key(spec, h2)}: {rep['verdict']}", flush=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps({"strata": out}, indent=1, sort_keys=True)
                    + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
