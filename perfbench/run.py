#!/usr/bin/env python3
"""Benchmark of the borderapolar package, driven from outside through its
public API and its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
workload is a fixed cycle of seeded items run as a closed loop, one item in
flight.  A run repeats the cycle round(S / nominal cycle time) times (at least
once), so it lasts about S seconds at the commit that defined the benchmark,
and every run of a workload does the same items whatever the speed of the
code under test.  Every item is checked (verdict, failing stage, round-trip
identities; golden digests at the default seed).  The last line of output is
one JSON object with the end-to-end metrics (--trace 0), or with the per-layer
metrics of an outside-in traced run in which every item runs once untraced and
once traced (--trace 1); the line before it gives the run's context.

Item times are speed-scaled (see reference.py): a fixed reference computation
is timed in the process that runs the item, just before and just after it, and
the item's wall time is multiplied by reference.NOMINAL_S over the mean of the
two.  The raw wall times are summarized in the context line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import workloads as wl
from tracer import Tracer, empty_summary, layer_metrics, merge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("check-cli", "transport-roundtrip", "apolarity-scan", "check-modp")
DEFAULT_SEED = 1
MODULUS = 2147483647
ITEM_LIMIT_S = 35.0   # an item running longer is killed and counted as failed
HARD_STOP_S = 100.0   # no new item starts after this, so a run ends within 180 s
SETUP_REPEATS = 9
TAIL_BEYOND = 10      # the tail latency has this many items above it
# Seconds one untraced cycle takes at the commit that defined the benchmark.
NOMINAL_CYCLE_S = {"check-cli": 29.0, "check-modp": 29.0,
                   "transport-roundtrip": 7.5, "apolarity-scan": 3.2}


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an in-process item that overran its limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BORDERAPOLAR_")}
    env["PYTHONPATH"] = SRC
    return env


# -- items ------------------------------------------------------------------------

class CliRunner:
    """One fresh `borderapolar check` process per item, run by cli_child.py.

    run() returns (wall seconds, reference seconds, digest, error); the
    reference is timed inside the child, and its cost is not in the wall time."""

    def __init__(self, workdir: str):
        self.env = child_env()
        self.summary_path = os.path.join(workdir, "summary.json")
        self.summary = empty_summary()

    def run(self, item, traced: bool = False):
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), repr(time.time()),
               self.summary_path if traced else "-", "--"] + item.argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=ITEM_LIMIT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, reference.NOMINAL_S, None, "timed out"
        latency = time.perf_counter() - t0
        last = proc.stderr.rstrip().rpartition("\n")[2].split()
        if last[:1] != ["perfbench-reference"]:
            return latency, reference.NOMINAL_S, None, f"exit {proc.returncode}: {proc.stderr[-300:]}"
        before, after, cost = (float(x) for x in last[1:])
        digest, error = wl.judge_check(item, proc.returncode, proc.stdout)
        if traced and error is None:
            with open(self.summary_path, encoding="utf-8") as fh:
                merge(self.summary, json.load(fh))
        return latency - cost, (before + after) / 2, digest, error


class InProcessRunner:
    """Library calls in this process, each item under a SIGALRM time limit.

    run() returns (wall seconds, reference seconds, digest, error); the
    reference is timed between consecutive items, so each timing serves the
    item before it and the item after it."""

    def __init__(self, call, judge):
        import borderapolar

        self.bz = borderapolar
        self.call = call
        self.judge = judge
        self.tracer = Tracer()
        self.last_reference = reference.seconds()
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, item, traced: bool = False):
        latency, digest, error = self._run(item, traced)
        before, self.last_reference = self.last_reference, reference.seconds()
        return latency, (before + self.last_reference) / 2, digest, error

    def _run(self, item, traced: bool):
        if traced:
            self.tracer.install()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        t0 = time.perf_counter()
        try:
            out = self.call(item, self.bz)
            latency = time.perf_counter() - t0
        except ItemTimeout:
            return time.perf_counter() - t0, None, "timed out"
        except Exception as exc:  # an item that raises is a failed item
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                self.tracer.uninstall()
        digest, error = self.judge(item, out)
        return latency, digest, error

    @property
    def summary(self):
        return self.tracer.summary()


def make_items(workload: str, seed: int, workdir: str) -> list:
    if workload in ("check-cli", "check-modp"):
        modulus = MODULUS if workload == "check-modp" else None
        return wl.check_items(seed, workdir, modulus)
    if workload == "transport-roundtrip":
        return wl.transport_items(seed)
    return wl.scan_items(seed)


def make_runner(workload: str, workdir: str):
    if workload in ("check-cli", "check-modp"):
        return CliRunner(workdir)
    if workload == "transport-roundtrip":
        from borderapolar.transfer import ideal_digest

        return InProcessRunner(wl.run_transport,
                               lambda item, out: wl.judge_transport(item, out, ideal_digest))
    return InProcessRunner(wl.run_scan, wl.judge_scan)


# -- phases -----------------------------------------------------------------------

# A fresh interpreter that imports the package, timing the reference before and after.
IMPORT_PROBE = ("import time, reference; t0 = time.perf_counter(); a = reference.seconds(); "
                "t1 = time.perf_counter(); import borderapolar.cli; t2 = time.perf_counter(); "
                "b = reference.seconds(); print(a, b, t1 - t0 + time.perf_counter() - t2)")


def setup(workload: str, seed: int, workdir: str):
    """Generate the inputs, then import the package in a fresh interpreter,
    SETUP_REPEATS times; returns the items, the median set-up time and the
    median import time, both scaled by the reference timed in that interpreter."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + HERE
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = make_items(workload, seed, workdir)
        t1 = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               check=True, timeout=60, capture_output=True, text=True)
        t2 = time.perf_counter()
        before, after, cost = (float(x) for x in probe.stdout.split())
        ref = (before + after) / 2
        totals.append(reference.scaled(t2 - t0 - cost, ref))
        imports.append(reference.scaled(t2 - t1 - cost, ref))
    return items, statistics.median(totals), statistics.median(imports)


def closed_loop(items, step, cycles: int) -> list:
    """`cycles` passes over items, one item in flight; returns (index, result)
    pairs in run order."""
    records = []
    start = time.perf_counter()
    for _ in range(cycles):
        for index, item in enumerate(items):
            if time.perf_counter() - start > HARD_STOP_S:
                return records
            records.append((index, step(item)))
    return records


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def check_golden(records, golden) -> list:
    """Errors per record: the item's own check, then the golden digest."""
    errors = []
    for index, (_, _, digest, error, _) in records:
        if error is None and golden is not None:
            want = golden[index] if index < len(golden) else None
            if digest != want:
                error = f"digest {digest} differs from golden {want}"
        errors.append(error)
    return errors


def end_to_end(records, setup_s: float, in_process: bool) -> dict:
    """Throughput from each item's median time over the cycles; latency
    percentiles over every item run."""
    lat = sorted(rec[0] for _, rec in records)
    n = len(lat)
    per_item = {}
    for index, rec in records:
        per_item.setdefault(index, []).append(rec[0])
    cycle_s = sum(statistics.median(v) for v in per_item.values())
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return {
        "items_per_s": {"value": len(per_item) / cycle_s, "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "item_tail_s": {"value": lat[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else lat[-1],
                        "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def run(args, workdir: str):
    items, setup_s, import_s = setup(args.workload, args.seed, workdir)
    runner = make_runner(args.workload, workdir)
    in_process = isinstance(runner, InProcessRunner)
    if in_process:
        # caches fill before timing: one untimed item of every shape
        seen = set()
        for item in items:
            if item.label not in seen:
                seen.add(item.label)
                runner.run(item)
    def measure(item, traced=False):
        latency, ref, digest, error = runner.run(item, traced)
        return reference.scaled(latency, ref), latency, digest, error, ref

    golden = None if args.write_golden else load_golden(args.workload, args.seed)
    cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    if args.trace:
        pairs = closed_loop(items, lambda it: (measure(it), measure(it, traced=True)), cycles)
        records = [(i, a) for i, (a, _) in pairs]
        errors = check_golden(records, golden)
        for k, (_, (a, b)) in enumerate(pairs):
            if errors[k] is None and b[2] != a[2]:
                errors[k] = b[3] or f"traced digest {b[2]} differs from untraced {a[2]}"
        overhead = sum(b[0] for _, (_, b) in pairs) / sum(a[0] for _, (a, _) in pairs) - 1
        summary = runner.summary
        startup = import_s if in_process else summary["cli"].get("startup_s", 0.0) / len(pairs)
        metrics = layer_metrics(per_cycle(summary, len(pairs) / len(items)), len(items),
                                overhead, startup, wl.src_lines(ROOT))
    else:
        records = closed_loop(items, measure, cycles)
        errors = check_golden(records, golden)
        metrics = end_to_end(records, setup_s, in_process)
        if args.write_golden and not any(errors):
            write_golden(args.workload, [rec[2] for _, rec in records[:len(items)]])
    failed = sum(1 for e in errors if e is not None)
    for (index, _), error in zip(records, errors):
        if error is not None:
            print(f"FAILED {items[index].label}: {error}", file=sys.stderr)
    n = len(records)
    raw = sorted(rec[1] for _, rec in records)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": n, "cycles": n / len(items), "items_per_cycle": len(items),
        "failed_frac": failed / n,
        "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 1) if n > TAIL_BEYOND else 100.0,
        "raw_items_per_s": n / sum(raw), "raw_item_p50_s": statistics.median(raw),
        "reference_ms": 1000 * statistics.median(rec[4] for _, rec in records),
        "nproc": os.cpu_count(), "python": platform.python_version(),
    }
    print(json.dumps(context))
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def per_cycle(summary: dict, cycles: float) -> dict:
    """Totals of one traced cycle: sums divided by the cycle count, maxima kept."""
    out = dict(summary)
    out["names"] = {k: tuple(v / cycles for v in vals) for k, vals in summary["names"].items()}
    out["elim"] = {k: (v if k.startswith("max_") else v / cycles)
                   for k, v in summary["elim"].items()}
    out["stages"] = {k: v / cycles for k, v in summary["stages"].items()}
    out["cache"] = {k: (h / cycles, m / cycles) for k, (h, m) in summary["cache"].items()}
    for key in ("kernel_elims", "spans", "errors"):
        out[key] = summary[key] / cycles
    return out


def write_golden(workload: str, digests: list):
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data["seed"] = DEFAULT_SEED
    data[workload] = digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record the digests of one clean cycle at seed {DEFAULT_SEED}")
    args = ap.parse_args()
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"golden digests are recorded untraced at seed {DEFAULT_SEED}")
    if not os.path.isfile(os.path.join(SRC, "borderapolar", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
