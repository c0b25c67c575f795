#!/usr/bin/env python3
"""Time-to-verdict benchmark for realstrata.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times the public entry points ``realstrata.detector.detect`` and
``realstrata.cli.main`` on one seeded workload, checks every verdict against
``perfbench/reference.json`` and the frozen golden reason tables in
``tests/test_acceptance.py``, prints a human-readable report, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` half the time goes to untraced passes and half to passes
under the span recorder (``perfbench/tracer.py``); the metrics are the
per-layer ones, and the difference in pass time is the tracing overhead.
``--workload all`` runs every workload in turn, each in its own process.

Every time reported is scaled to a reference host speed: a fixed speed probe
(``perfbench/calibrate.py``) runs between the measured calls and, with
``--trace 0``, from a timer during them.  Each call's time, less the probes
run during it, is multiplied by the probe's reference time over the mean of
the probes around and during it.  The raw wall times are printed beside the
scaled ones.

The load is one process making one call at a time (a closed loop with one
client); ``detect`` and ``batch`` run with their default of one thread.
Everything the run writes goes under ``.perfbench/`` in the checkout and the
report cache directory is deleted before exit.  Exit status: 0 when every
verdict matched, 1 on any mismatch or escaped exception, 2 when the checkout
has no ``src/realstrata`` to measure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
from calibrate import Clock  # noqa: E402
from tracer import LAYERS, Tracer, summarize, write_spans  # noqa: E402

# ------------------------------------------------------------------ inputs

# (spec, h2, name of the frozen reason table in tests/test_acceptance.py)
GOLDEN = [("D7+A6+A3+A2", 4, "REASONS_D7"),
          ("A7+A6+A3+A2", 4, "REASONS_A7"),
          ("A7+A6+A5", 2, "REASONS_SEXTIC")]

# Acceptance criterion 8's smoke set, all at h2 = 4.
SMOKE = ["A1", "2*A1", "A2", "A3", "D4", "A1+A2", "2*A2", "A4", "A3+A1",
         "D5", "E6", "3*A1"]

# 2*A1+A3+A2+A4 is left out: its witness revalidation alone takes minutes.
POSITIVE = [(s, 4) for s in SMOKE + ["4*A1", "5*A1"]]

# The glued group stays just above the oracle cutoff while the multiplicity
# rises, so involution enumeration dominates and revalidation is skipped.
# 9*A1 at h2 = 8 is left out: its 7 s alone would leave two or three passes
# per run, too few for a steady median on a shared machine.
LADDER = [("6*A1", 64), ("7*A1", 32), ("8*A1", 16)]

# Spellings of each smoke spec that canonicalize to the same cache key:
# permuted components, and k*X as a multiple and as a repeated sum.
SPELLINGS = {
    "A1": ["A1"], "2*A1": ["2*A1", "A1+A1"], "A2": ["A2"], "A3": ["A3"],
    "D4": ["D4"], "A1+A2": ["A1+A2", "A2+A1"], "2*A2": ["2*A2", "A2+A2"],
    "A4": ["A4"], "A3+A1": ["A3+A1", "A1+A3"], "D5": ["D5"], "E6": ["E6"],
    "3*A1": ["3*A1", "A1+A1+A1", "2*A1+A1", "A1+2*A1"],
}

CLI_LINES = 2000         # lines in the generated batch file
SETUP_MIN = 9            # timed package imports per run, at the least

SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); "
              "t = time.perf_counter(); "
              "import realstrata, realstrata.cli, realstrata.oracle; "
              "print(time.perf_counter() - t)")

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s",
             "strata_per_s.cold": "1/s", "strata_per_s.warm": "1/s",
             "peak_rss_mb": "MB"}


class CheckoutError(Exception):
    """The checkout lacks what the benchmark measures."""


# --------------------------------------------------------------- reference

def key(spec: str, h2: int) -> str:
    return f"{spec}@{h2}"


def digest(report: dict) -> str:
    """sha256 of a report's decision content: verdict, basis, witness and
    trace rows.  Timings, timestamps and the revalidation outcome are left
    out; the outcome is checked on its own per workload."""
    content = {k: report[k] for k in
               ("verdict", "conclusiveness_basis", "witness", "trace")}
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> Dict[str, dict]:
    return json.loads((BENCH_DIR / "reference.json").read_text())["strata"]


def load_reason_tables() -> Dict[str, dict]:
    """The frozen REASONS_* tables, read from the acceptance test source
    without importing it."""
    path = ROOT / "tests" / "test_acceptance.py"
    if not path.is_file():
        raise CheckoutError(f"{path.relative_to(ROOT)} is missing")
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.startswith("REASONS_")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def reason_map(trace: Sequence[dict]) -> dict:
    out: dict = {}
    for row in trace:
        out.setdefault((row["a2"], row["n"]), set()).add(row["reason"])
    return out


class Checker:
    """Compares each report with the reference; collects problems."""

    def __init__(self, reference: Dict[str, dict], reasons: Dict[str, dict],
                 require_revalidated: bool) -> None:
        self.reference = reference
        self.reasons = reasons
        self.require_revalidated = require_revalidated
        self.problems: List[str] = []
        self.witnesses = 0
        self.revalidated = 0

    def fail(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, k: str, report: dict,
              table: Optional[str] = None) -> bool:
        ok = True
        ref = self.reference.get(k)
        if ref is None or digest(report) != ref["digest"]:
            self.fail(f"{k}: decision content differs from the reference")
            ok = False
        if table is not None and reason_map(report["trace"]) != \
                self.reasons.get(table):
            self.fail(f"{k}: trace reasons differ from {table}")
            ok = False
        if report["witness"] is not None:
            self.witnesses += 1
            self.revalidated += report["witness_revalidated"] is True
            if (self.require_revalidated
                    and report["witness_revalidated"] is not True):
                self.fail(f"{k}: witness_revalidated is "
                          f"{report['witness_revalidated']!r}")
                ok = False
        return ok


# ----------------------------------------------------------------- workloads

class Part(NamedTuple):
    """One timed stretch of a pass: raw and scaled wall and CPU seconds
    (sums over its calls) and the range of spans recorded meanwhile."""
    label: str
    wall: float
    cpu: float
    ref_wall: float
    ref_cpu: float
    spans: Tuple[int, int]


def timed(label: str, tracer: Optional[Tracer], clock: Clock,
          fns: Sequence[Callable]):
    """Runs each of ``fns`` under ``clock``; returns (their Part, their
    results)."""
    lo = len(tracer.spans) if tracer else 0
    timings, results = [], []
    for fn in fns:
        timing, result = clock.call(fn)
        timings.append(timing)
        results.append(result)
    hi = len(tracer.spans) if tracer else 0
    wall, cpu, ref_wall, ref_cpu = (sum(t[i] for t in timings)
                                    for i in range(4))
    return Part(label, wall, cpu, ref_wall, ref_cpu, (lo, hi)), results


class Workload:
    """One seeded set of inputs.  ``run_pass`` does one full pass, checks
    its outputs after the timed parts, and returns (parts, failed), where
    ``failed`` counts against the pass's ``attempted``."""

    name = ""
    strata = 0       # strata per call sequence (a detect pass, a batch file)
    attempted = 0    # checked outcomes per pass
    checker: Checker

    def run_pass(self, tracer: Optional[Tracer], clock: Clock
                 ) -> Tuple[List[Part], int]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class DetectWorkload(Workload):
    def __init__(self, name: str, items, seed: int, checker: Checker,
                 detect: Callable) -> None:
        self.name = name
        self.items = list(items)       # (spec, h2, reason table or None)
        self.strata = self.attempted = len(self.items)
        self.rng = random.Random(seed)
        self.checker = checker
        self.detect = detect

    def run_pass(self, tracer, clock):
        order = list(self.items)
        self.rng.shuffle(order)

        def call(spec: str, h2: int):
            if tracer is not None:
                tracer.stratum = key(spec, h2)
            try:
                return self.detect(h2, spec)
            except Exception as exc:   # counted as a failed stratum
                return exc

        part, results = timed(
            "pass", tracer, clock,
            [functools.partial(call, spec, h2) for spec, h2, _ in order])
        failed = 0
        for (spec, h2, table), rep in zip(order, results):
            if isinstance(rep, Exception):
                self.checker.fail(f"{key(spec, h2)}: {type(rep).__name__}: "
                                  f"{rep}")
                failed += 1
            elif not self.checker.check(key(spec, h2), rep.to_json_dict(),
                                        table):
                failed += 1
        return [part], failed


class CliWorkload(Workload):
    """``cli.main(["batch", FILE, "--cache-dir", TMP])`` twice over one
    file: first with an empty cache, then with the cache it filled."""

    def __init__(self, seed: int, checker: Checker, cli) -> None:
        self.name = "cli-batch"
        self.cli = cli
        self.checker = checker
        rng = random.Random(seed)
        specs = list(SPELLINGS)
        lines = [rng.choice(SPELLINGS[s]) for s in specs]
        while len(lines) < CLI_LINES:
            lines.append(rng.choice(SPELLINGS[rng.choice(specs)]))
        rng.shuffle(lines)
        self.lines = lines
        self.strata = len(lines)
        self.attempted = 2 * len(lines)
        self.canonical = {sp: s for s, sps in SPELLINGS.items() for sp in sps}
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-batch-", dir=OUT_DIR))
        self.file = self.tmp / "strata.txt"
        self.file.write_text("\n".join(lines) + "\n")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _batch(self, cache: Path, tracer, label: str):
        if tracer is not None:
            tracer.stratum = f"batch:{label}"
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                status = self.cli.main(["batch", str(self.file),
                                        "--cache-dir", str(cache)])
            except (Exception, SystemExit) as exc:
                status = exc
        return status, out.getvalue()

    def run_pass(self, tracer, clock):
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        try:
            cold, (cold_out,) = timed(
                "cold", tracer, clock,
                [lambda: self._batch(cache, tracer, "cold")])
            entries = [json.loads(p.read_text())
                       for p in sorted(cache.glob("*.json"))]
            warm, (warm_out,) = timed(
                "warm", tracer, clock,
                [lambda: self._batch(cache, tracer, "warm")])
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        failed = (self._check_output("cold", *cold_out)
                  + self._check_output("warm", *warm_out))
        if cold_out[1] != warm_out[1]:
            self.checker.fail("batch: warm output differs from cold output")
            failed += 1
        served = {self.canonical.get(rep.get("spec")) for rep in entries}
        if len(entries) != len(SPELLINGS) or served != set(SPELLINGS):
            self.checker.fail(f"batch: {len(entries)} cache entries for "
                              f"{len(SPELLINGS)} canonical strata")
            failed += 1
        for rep in entries:
            if not self.checker.check(key(rep.get("spec"), 4), rep):
                failed += 1
        return [cold, warm], min(failed, self.attempted)

    def _check_output(self, label: str, status, stdout: str) -> int:
        if status != 0:
            self.checker.fail(f"batch {label}: exit status {status!r}")
            return self.strata
        got = stdout.splitlines()
        failed = 0
        for i, line in enumerate(self.lines):
            want = self.checker.reference[key(line, 4)]["verdict"]
            if i >= len(got) or got[i] != f"{line}: {want}":
                self.checker.fail(f"batch {label} line {i + 1}: "
                                  f"{got[i] if i < len(got) else 'missing'}")
                failed += 1
        if len(got) != self.strata + 1 or \
                not got[-1].startswith(f"batch: {self.strata} strata"):
            self.checker.fail(f"batch {label}: bad summary line")
            failed = max(failed, 1)
        return failed


# name -> (strata with their reason tables, witnesses must be revalidated)
DETECT_WORKLOADS = {
    "golden-negatives": (GOLDEN, False),
    "positive-revalidation": ([(s, h, None) for s, h in POSITIVE], True),
    "multiplicity-ladder": ([(s, h, None) for s, h in LADDER], False),
}
WORKLOAD_NAMES = (*DETECT_WORKLOADS, "cli-batch")


def make_workload(name: str, seed: int, reference, reasons) -> Workload:
    if name == "cli-batch":
        return CliWorkload(seed, Checker(reference, reasons, True),
                           importlib.import_module("realstrata.cli"))
    detector = importlib.import_module("realstrata.detector")
    # Looked up at each call, so the traced run reaches the wrapped detect.
    detect = lambda h2, spec: detector.detect(h2, spec)  # noqa: E731
    items, revalidated = DETECT_WORKLOADS[name]
    return DetectWorkload(name, items, seed,
                          Checker(reference, reasons, revalidated), detect)


# ---------------------------------------------------------------- measuring

class Sample(NamedTuple):
    """One pass: its parts, and the outcome counts the tracer recorded
    during it.  ``wall`` is raw; ``ref_wall`` and ``ref_cpu`` are scaled."""
    parts: List[Part]
    counts: dict

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.parts)

    @property
    def ref_wall(self) -> float:
        return sum(p.ref_wall for p in self.parts)

    @property
    def ref_cpu(self) -> float:
        return sum(p.ref_cpu for p in self.parts)

    @property
    def spans(self) -> Tuple[int, int]:
        return self.parts[0].spans[0], self.parts[-1].spans[1]


def run_passes(wl: Workload, budget: float, tracer: Optional[Tracer],
               clock: Clock, stats: dict,
               between: Callable[[], None] = lambda: None) -> List[Sample]:
    """Passes until the next would end past ``budget`` seconds (at least
    one), calling ``between`` before each."""
    samples: List[Sample] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        between()
        if tracer is not None:
            tracer.counts.clear()
        parts, failed = wl.run_pass(tracer, clock)
        stats["attempted"] += wl.attempted
        stats["failed"] += failed
        samples.append(Sample(parts, dict(tracer.counts) if tracer else {}))
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget:
            return samples


def import_seconds() -> float:
    """Wall time to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckoutError("importing realstrata failed:\n" +
                            proc.stderr.strip())
    return float(proc.stdout)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: Sequence[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (needs 11 samples, n={n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s (n={n})"


def end_to_end(wl: Workload, samples: List[Sample],
               setup: List[float]) -> dict:
    """The end-to-end metrics from scaled times: ``setup`` holds scaled
    import seconds."""
    walls = [s.ref_wall for s in samples]
    if isinstance(wl, CliWorkload):
        cold = statistics.median(s.parts[0].ref_wall for s in samples)
        warm = statistics.median(s.parts[1].ref_wall for s in samples)
    else:
        # detect keeps no state between calls: every pass is both cold and
        # warm.
        cold = warm = statistics.median(walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(s.ref_cpu for s in samples),
        "strata_per_s.cold": wl.strata / cold,
        "strata_per_s.warm": wl.strata / warm,
        "peak_rss_mb": rss_kb / 1024,
    }


def layer_self(summ: Dict[str, Tuple[float, int]]) -> Dict[str, float]:
    """Self seconds per layer: the sum over the layer's span names."""
    out = {name: 0.0 for name in LAYERS.values()}
    for name, (sec, _) in summ.items():
        out[name.split(".", 1)[0]] += sec
    return out


def inclusive(spans, lo: int, hi: int, name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans[lo:hi]
               if n == name)


def per_layer(wl: Workload, tracer: Tracer, traced: List[Sample],
              untraced: List[Sample], probes: List[float]
              ) -> Tuple[dict, Dict[str, dict]]:
    """Per-layer metrics, each the median over the traced passes, and the
    median layer self-time shares of each part of a pass (the whole pass,
    or the cold and warm cli-batch invocations)."""
    per_pass = []
    shares: Dict[str, List[Dict[str, float]]] = {}
    for s in traced:
        summ = summarize(tracer.spans, *s.spans)
        self_s = lambda n: summ.get(n, (0.0, 0))[0]  # noqa: E731
        calls = lambda n: summ.get(n, (0.0, 0))[1]   # noqa: E731
        layer = layer_self(summ)
        for part in s.parts:
            own = layer_self(summarize(tracer.spans, *part.spans))
            shares.setdefault(part.label, []).append(
                {n: sec / part.wall for n, sec in own.items()})
        c = s.counts
        m = {
            "lattices.polarized_disc.self_s":
                self_s("lattices.polarized_disc"),
            "lattices.disc_involutions.self_s":
                self_s("lattices.disc_involutions"),
            "lattices.involutions": c.get("lattices.involutions", 0),
            "detector.detect.self_s": self_s("detector.detect"),
            "detector.kernel_candidates.self_s":
                self_s("detector.kernel_candidates"),
            "detector.candidates": c.get("detector.candidates", 0),
            "detector.check_candidate.self_s":
                self_s("detector.check_candidate"),
            "detector.check_candidate.calls":
                calls("detector.check_candidate"),
            "nikulin.genus_tilde_nonempty.self_s":
                self_s("nikulin.genus_tilde_nonempty"),
            "nikulin.genus_tilde_nonempty.calls":
                calls("nikulin.genus_tilde_nonempty"),
            "nikulin.genus_pass_ratio":
                c.get("nikulin.genus_true", 0)
                / max(1, calls("nikulin.genus_tilde_nonempty")),
            "nikulin.embeds_into_big_L.self_s":
                self_s("nikulin.embeds_into_big_L"),
            "nikulin.ambient_with_a_block.calls":
                calls("nikulin.ambient_with_a_block"),
            "isotropy.subquotient.self_s": self_s("isotropy.subquotient"),
            "isotropy.subquotient.calls": calls("isotropy.subquotient"),
            "fqf.forms_built": calls("fqf.form_init"),
            "fqf.form_init.self_s": self_s("fqf.form_init"),
        }
        for fn in ("snf", "hnf_columns", "kernel_basis", "hnf_solve",
                   "fraction_solve"):
            m[f"intmat.{fn}.self_s"] = self_s(f"intmat.{fn}")
            m[f"intmat.{fn}.calls"] = calls(f"intmat.{fn}")
        if isinstance(wl, CliWorkload):
            # A batch line that does not reach detect was served from the
            # cache.
            lines = wl.attempted
            misses = calls("detector.detect")
            outside_detect = (
                inclusive(tracer.spans, *s.spans, "cli.main")
                - inclusive(tracer.spans, *s.spans, "detector.detect"))
        else:
            lines = misses = 0
            outside_detect = 0.0
        m.update({
            "oracle.revalidate_witness.self_s":
                self_s("oracle.revalidate_witness"),
            "oracle.verify_subquotient_presentation.self_s":
                self_s("oracle.verify_subquotient_presentation"),
            "oracle.brute_subquotient.self_s":
                self_s("oracle.brute_subquotient"),
            "oracle.revalidated": c.get("oracle.revalidated", 0),
            "oracle.skipped_cutoff": c.get("oracle.skipped_cutoff", 0),
            "cli.main.self_s": outside_detect,
            "cli.cache_hits": lines - misses,
            "cli.cache_misses": misses,
            "cli.cache_hit_ratio": (lines - misses) / max(1, lines),
        })
        m.update({f"layer.{n}.self_s": sec for n, sec in layer.items()})
        per_pass.append(m)
    metrics = {k: statistics.median_low(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["revalidated_share"] = (wl.checker.revalidated
                                    / max(1, wl.checker.witnesses))
    # Scaled times, so that a change in host speed between the two halves
    # does not read as overhead.
    base = statistics.median(s.ref_wall for s in untraced)
    traced_wall = statistics.median(s.ref_wall for s in traced)
    metrics["trace.overhead_s"] = traced_wall - base
    metrics["trace.overhead_share"] = traced_wall / base - 1
    metrics["pass_wall_s"] = statistics.median(s.wall for s in untraced)
    metrics["calibration.probe_s"] = statistics.median(probes)
    tables = {label: {n: statistics.median(r[n] for r in rows)
                      for n in LAYERS.values()}
              for label, rows in shares.items()}
    return metrics, tables


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ report

def print_e2e(wl: Workload, samples: List[Sample], metrics: dict,
              stats: dict, clock: Clock, raw_setup: List[float]) -> None:
    walls = [s.ref_wall for s in samples]
    q1, q3 = quartiles(walls)
    raw = [s.wall for s in samples]
    r1, r3 = quartiles(raw)
    print(f"  {'setup_s':<20}{metrics['setup_s']:.4f} s  "
          f"(raw {statistics.median(raw_setup):.4f} s)")
    print(f"  {'pass_s':<20}{metrics['pass_s']:.4f} s  (q1 {q1:.4f}, "
          f"q3 {q3:.4f}, {tail(walls)}, passes={len(walls)})")
    print(f"  {'pass raw wall':<20}{statistics.median(raw):.4f} s  "
          f"(q1 {r1:.4f}, q3 {r3:.4f})")
    print(f"  {'speed probe':<20}{statistics.median(clock.probes):.4f} s  "
          f"(reference {calibrate.REF_S} s, {len(clock.probes)} probes)")
    print(f"  {'pass_cpu_s':<20}{metrics['pass_cpu_s']:.4f} s")
    print(f"  {'strata_per_s.cold':<20}{metrics['strata_per_s.cold']:.3f} 1/s")
    print(f"  {'strata_per_s.warm':<20}{metrics['strata_per_s.warm']:.3f} 1/s")
    share = stats["failed"] / stats["attempted"]
    print(f"  {'failed_share':<20}{share:.4f} ratio "
          f"({stats['failed']}/{stats['attempted']})")
    c = wl.checker
    share = c.revalidated / c.witnesses if c.witnesses else 0.0
    print(f"  {'revalidated_share':<20}{share:.4f} ratio "
          f"({c.revalidated}/{c.witnesses} witnesses)")
    print(f"  {'peak_rss_mb':<20}{metrics['peak_rss_mb']:.1f} MB")


def print_layers(metrics: dict, tables: Dict[str, dict]) -> None:
    for label, table in tables.items():
        row = "  ".join(f"{n} {100 * v:.1f}%" for n, v in
                        sorted(table.items(), key=lambda kv: -kv[1]))
        print(f"  layer share of {label}: {row}")
    for name, value in metrics.items():
        print(f"  {name:<48}{value:.6g} {per_layer_unit(name)}")


def run_one(args, reference: Optional[Dict[str, dict]] = None) -> int:
    """Measure one workload; ``reference`` overrides reference.json."""
    if not (ROOT / "src" / "realstrata" / "__init__.py").is_file():
        raise CheckoutError("src/realstrata is missing from the checkout")
    if reference is None:
        reference = load_reference()
    reasons = load_reason_tables()
    import_seconds()   # warm-up: may write bytecode caches; not counted
    sys.path.insert(0, str(ROOT / "src"))
    import realstrata
    if Path(realstrata.__file__).resolve().parent != \
            (ROOT / "src" / "realstrata").resolve():
        raise CheckoutError(f"imported realstrata from {realstrata.__file__}")
    importlib.import_module("realstrata.cli")
    importlib.import_module("realstrata.oracle")

    wl = make_workload(args.workload, args.seed, reference, reasons)
    stats = {"attempted": 0, "failed": 0}
    # Probes during a call would count as self time of a traced span.
    clock = Clock(sample=not args.trace)
    try:
        print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
              f"checked/pass {wl.attempted}")
        if args.trace:
            half = args.seconds / 2
            untraced = run_passes(wl, half, None, clock, stats)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, half, tracer, clock, stats)
            finally:
                tracer.restore()
            metrics, tables = per_layer(wl, tracer, traced, untraced,
                                        clock.probes)
            units = {k: per_layer_unit(k) for k in metrics}
            print(f"  passes: {len(untraced)} untraced, {len(traced)} "
                  f"traced, {len(tracer.spans) // len(traced)} spans each")
            print_layers(metrics, tables)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{wl.name}.tsv"
            write_spans(tracer.spans, path)
            print(f"  spans: {len(tracer.spans)} written to "
                  f"{path.relative_to(ROOT)}")
        else:
            # Imports are timed between passes, so a burst of load from
            # elsewhere on the machine hits only a few of them.
            setup: List[float] = []       # scaled import seconds
            raw_setup: List[float] = []

            def time_import() -> None:
                timing, seconds = clock.call(import_seconds, sample=False)
                setup.append(seconds * timing.scale)
                raw_setup.append(seconds)

            samples = run_passes(wl, args.seconds, None, clock, stats,
                                 time_import)
            while len(setup) < SETUP_MIN:
                time_import()
            metrics = end_to_end(wl, samples, setup)
            units = E2E_UNITS
            print_e2e(wl, samples, metrics, stats, clock, raw_setup)
    finally:
        wl.close()
    for problem in wl.checker.problems:
        print(f"  MISMATCH {problem}")
    correct = stats["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
