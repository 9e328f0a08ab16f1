"""Whole-audit benchmark for cellgauge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's workbook from the seed (see ``workloads.py``) and
audits it in fresh child processes, one at a time (a closed loop with one
client), through ``cellgauge.cli.main(["analyze", FILE, "--out", OUT])``
with ``src/`` of this checkout on ``PYTHONPATH``. Each audit is checked: the
child must not raise or time out, ``main`` must return the workload's
expected exit code, the report must meet the generator's invariants, and
its sha256 must repeat across audits of one seed and equal the digest
recorded in ``digests.json`` for the default seed.

``--trace 0`` times audits for S seconds and reports the end-to-end metrics:
``setup_s`` (fresh interpreter until ``import cellgauge`` returns, median of
two import-only children per audit plus every audit child), ``audit_s`` (the
``main`` call, median), ``peak_rss_mb`` and ``ok_share`` (audits that passed
every check over audits attempted; failures are the JSON's ``failed``).

The host is shared and its speed drifts by tens of percent over minutes, so
both timings are scaled to a nominal host speed: a fixed pure-Python probe
runs in this process just before and after each child, and the child's
times are multiplied by ``PROBE_NOMINAL_S`` over the probes' mean. This
process and its children are pinned to one CPU so that the probe measures
the CPU the audit ran on. The unscaled audit times and the factors are
printed in the summary.

``--trace 1`` alternates untraced and traced audits for S seconds, and also
audits the default seed once against its recorded digest. It reports the
per-layer metrics of ``spans.py`` (medians over the traced audits) and the
tracing overhead, and writes every span to ``.perfbench-work/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary. Without ``src/cellgauge`` beside this directory the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

AUDIT_TIMEOUT_S = 60
MIN_AUDITS = 3        # per untraced run, however long each audit takes
IMPORT_SAMPLES = 2    # import-only children before each untraced audit, for setup_s
BIGINT = 2 ** 62      # total_paths at or above this leaves int64's safe range
PROBE_NOMINAL_S = 0.03  # probe time at the host speed that timings are scaled to


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python dict workload.

    The probe shares no code with cellgauge, so its time moves only with the
    speed the shared host gives this CPU at the moment.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            table = {}
            for i in range(60_000):
                table[(i, i & 7)] = i
            total = 0
            for key in table:
                total += table[key]
        return time.perf_counter() - start
    finally:
        gc.enable()


# Per-layer metric -> span name whose self time it reports.
SELF_MS = {
    "report.analyze_self_ms": "analyze",
    "report.pipeline_self_ms": "analyze_workbook",
    "report.emit_ms": "emit_report",
    "workbook.load_ms": "load_workbook",
    "formula.parse_ms": "parse_formula",
    "workbook.resolve_ms": "_resolve_all",
    "graph.build_ms": "build_graph",
    "graph.cascade_ms": "cascade_stats",
    "metrics.cell_ms": "formula_metrics",
    "metrics.range_linkage_ms": "check_range_linkage",
    "metrics.modular_ms": "modular_metrics",
    "conditionals.find_ms": "find_conditionals",
    "conditionals.complexity_ms": "all_complexities",
    "reliability.ms": "cascade_reliability",
}
# Per-layer metric -> span name whose call count it reports.
CALLS = {
    "formula.parse_calls": "parse_formula",
    "graph.cascade_calls": "cascade_stats",
    "metrics.cell_calls": "formula_metrics",
    "reliability.calls": "cascade_reliability",
}
# Per-layer metric -> counter read by the tracer from return values.
COUNTERS = {
    "workbook.arcs": "arcs",
    "workbook.range_arcs": "range_arcs",
    "graph.nodes": "nodes",
    "graph.edges": "edges",
    "graph.materialized": "materialized",
    "graph.cascade_members": "cascade_members",
    "metrics.range_findings": "range_findings",
    "conditionals.constructs": "constructs",
    "conditionals.finals": "finals",
}


class Audits:
    """Spawns audit children and checks each report against its workload."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.recorded = json.loads((HERE / "digests.json").read_text())
        self.workloads: dict = {}  # (workload, seed) -> Workload
        self.digests: dict = {}    # (workload, seed) -> first report digest
        self.attempted = 0
        self.failures: list = []
        self.setup_s: list = []
        self._n = 0

    def write_workbook(self, name: str, seed: int) -> Path:
        self.workloads[(name, seed)] = GENERATORS[name](seed)
        text = json.dumps(self.workloads[(name, seed)].doc)
        if (seed == DEFAULT_SEED and hashlib.sha256(text.encode()).hexdigest()
                != self.recorded["input_sha256"][name]):
            sys.exit(f"error: the {name} generator no longer gives the recorded "
                     "default-seed workbook")
        path = self.workdir / f"{name}-{seed}.json"
        path.write_text(text)
        return path

    def _spawn(self, args: list):
        """Run child.py; return (result dict or None, error text or None)."""
        self._n += 1
        result_path = self.workdir / f"result-{self._n}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        before = probe()
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path), *args],
                cwd=ROOT, env=env, capture_output=True, timeout=AUDIT_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {AUDIT_TIMEOUT_S} s"
        after = probe()
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            return None, f"child exited {proc.returncode}: {' | '.join(tail)}"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        module = Path(result["module"]).resolve()
        if SRC.resolve() not in module.parents:
            sys.exit(f"error: imported cellgauge from {module}, not from {SRC}")
        result["host_factor"] = PROBE_NOMINAL_S / ((before + after) / 2)
        self.setup_s.append((result["imported"] - start) * result["host_factor"])
        return result, None

    def measure_import(self) -> None:
        result, error = self._spawn([])
        if error:
            sys.exit(f"error: import-only child failed: {error}")

    def audit(self, name: str, seed: int, workbook: Path, traced: bool = False):
        """One checked audit; returns the child's result plus the report facts."""
        workload = self.workloads[(name, seed)]
        self.attempted += 1
        report_path = self.workdir / f"report-{seed}.json"
        args = [str(workbook), str(report_path)] + (["--trace"] if traced else [])
        result, error = self._spawn(args)
        errors = [error] if error else []
        if result is not None:
            if "error" in result:
                errors.append("raised " + result["error"].strip().splitlines()[-1])
            elif result["exit"] != workload.expected_exit:
                errors.append(f"exit code {result['exit']}, want {workload.expected_exit}")
            else:
                try:
                    payload = report_path.read_bytes()
                    report = json.loads(payload)
                    errors += workload.check(report)
                    result["report_warnings"] = len(report["warnings"])
                    result["bigint_terminals"] = sum(
                        1 for c in report["cascades"] or [] if c["total_paths"] >= BIGINT)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors.append(f"unreadable report: {exc!r}")
                else:
                    result["report_bytes"] = len(payload)
                    digest = hashlib.sha256(payload).hexdigest()
                    if digest != self.digests.setdefault((name, seed), digest):
                        errors.append("report digest differs between audits of one seed")
                    if seed == DEFAULT_SEED and digest != self.recorded["report_sha256"][name]:
                        errors.append(f"report digest {digest[:12]} differs from the "
                                      "digest recorded for the default seed")
            report_path.unlink(missing_ok=True)
        if errors:
            self.failures.append(f"{name} seed {seed}: " + "; ".join(errors))
            return None
        return result


def summary(label: str, values: list) -> None:
    """Print quartiles, and the highest percentile above the median that has
    at least ten samples beyond it (none below 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"{label:22s} n={n:<3d}"
    if n >= 2:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
        text += f" q1/median/q3 {q1:.4f}/{q2:.4f}/{q3:.4f}"
    elif n == 1:
        text += f" value {ordered[0]:.4f}"
    k = n - 11
    if k >= n // 2 and k >= 0:
        text += f"  p{100 * (k + 1) / n:.0f} {ordered[k]:.4f}"
    print(text)


def timed_loop(seconds: float, kinds: list, run_one) -> None:
    """Run ``run_one(kind)`` cycling through ``kinds`` for ``seconds``.

    A next audit starts only if the median wall time of the audits so far
    says it ends within the window; at least ``len(kinds)`` audits run, and
    at least MIN_AUDITS when there is one kind.
    """
    start = time.monotonic()
    walls: list = []
    minimum = max(len(kinds), MIN_AUDITS if len(kinds) == 1 else 0)
    i = 0
    while i < minimum or time.monotonic() - start + statistics.median(walls) <= seconds:
        began = time.monotonic()
        run_one(kinds[i % len(kinds)])
        walls.append(time.monotonic() - began)
        i += 1


def layer_metrics(result: dict) -> dict:
    times, counters = result["times"], result["counters"]
    out = {m: times.get(span, {}).get("self_ms", 0.0) for m, span in SELF_MS.items()}
    out.update({m: times.get(span, {}).get("calls", 0) for m, span in CALLS.items()})
    out.update({m: counters.get(key, 0) for m, key in COUNTERS.items()})
    walks = out["graph.cascade_calls"] * out["graph.nodes"]
    out["graph.closure_share"] = out["graph.cascade_members"] / walks if walks else 0.0
    out["graph.bigint_terminals"] = result["bigint_terminals"]
    out["report.bytes"] = result["report_bytes"]
    out["report.warnings"] = result["report_warnings"]
    return out


def run_untraced(name: str, seed: int, seconds: int, audits: Audits, workbook: Path):
    passed: list = []

    def run_one(_kind):
        for _ in range(IMPORT_SAMPLES):
            audits.measure_import()
        result = audits.audit(name, seed, workbook)
        if result is not None:
            passed.append(result)

    timed_loop(seconds, [None], run_one)
    audit_s = [r["audit_s"] * r["host_factor"] for r in passed]
    rss_mb = [r["peak_rss_kb"] / 1024 for r in passed]
    ok = len(passed) / audits.attempted
    summary("audit_s", audit_s)
    summary("audit_s unscaled", [r["audit_s"] for r in passed])
    summary("host_factor", [r["host_factor"] for r in passed])
    summary("setup_s", audits.setup_s)
    summary("peak_rss_mb", rss_mb)
    print(f"{'fail_share':22s} {1 - ok:.4f} ({audits.attempted - len(passed)} "
          f"of {audits.attempted} audits failed)")
    return {
        "setup_s": (statistics.median(audits.setup_s), "s"),
        "audit_s": (statistics.median(audit_s) if audit_s else float(AUDIT_TIMEOUT_S), "s"),
        "peak_rss_mb": (statistics.median(rss_mb) if rss_mb else 0.0, "MB"),
        "ok_share": (ok, "ratio"),
    }


def run_traced(name: str, seed: int, seconds: int, audits: Audits, workbook: Path):
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if seed != DEFAULT_SEED:
        audits.audit(name, DEFAULT_SEED, audits.write_workbook(name, DEFAULT_SEED))
    plain: list = []
    traced: list = []

    def run_one(kind):
        result = audits.audit(name, seed, workbook, traced=kind)
        if result is not None:
            (traced if kind else plain).append(result)

    timed_loop(seconds, [False, True], run_one)
    absent = sorted({n for r in traced for n in r["absent"]})
    spans_path = WORK / f"spans-{name}-{seed}.json"
    spans_path.write_text(json.dumps([r["spans"] for r in traced]))
    print(f"spans of {len(traced)} traced audit(s) written to {spans_path.relative_to(ROOT)}")
    if absent:
        print(f"absent spans (reported as 0): {', '.join(absent)}")
    if not traced:
        return {m: (0.0, unit) for m, unit in units.items()}
    layers = [layer_metrics(r) for r in traced]
    out = {m: (statistics.median_low(l[m] for l in layers), units[m]) for m in layers[0]}
    traced_s = statistics.median(r["audit_s"] * r["host_factor"] for r in traced)
    plain_s = (statistics.median(r["audit_s"] * r["host_factor"] for r in plain)
               if plain else traced_s)
    out["trace.overhead_pct"] = (100 * (traced_s / plain_s - 1), "%")
    report_dominant(name, out, statistics.median(r["audit_s"] for r in traced))
    return out


def report_dominant(name: str, metrics: dict, audit_s: float) -> None:
    """Print each layer's share of the traced audit and the expected dominant."""
    ms = {m: v for m, (v, unit) in metrics.items() if unit == "ms"}
    ranked = sorted(ms, key=ms.get, reverse=True)
    shares = ", ".join(f"{m} {100 * ms[m] / 1e3 / audit_s:.0f}%" for m in ranked[:4])
    print(f"largest layers of {audit_s:.2f} s traced audit: {shares}")
    provenance = json.loads((HERE / "provenance.json").read_text())
    expected = provenance["workloads"][name]["dominant"]
    verdict = "matches" if ranked[0] in expected else "MISMATCH"
    print(f"dominant layer {ranked[0]} {verdict} the expected {' or '.join(expected)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cellgauge" / "__init__.py").is_file():
        print(f"error: no cellgauge sources at {SRC}", file=sys.stderr)
        return 2
    # One CPU for the probe, this process and every child it starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        audits = Audits(workdir)
        workbook = audits.write_workbook(args.workload, args.seed)
        audits.measure_import()  # compiles bytecode in a fresh checkout
        audits.setup_s.clear()
        run = run_traced if args.trace else run_untraced
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        metrics = run(args.workload, args.seed, args.seconds, audits, workbook)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in audits.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not audits.failures,
        "attempted": audits.attempted,
        "failed": len(audits.failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
