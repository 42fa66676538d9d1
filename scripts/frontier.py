#!/usr/bin/env python3
"""Frontier sweep of the certificate pipeline over the paper's range n <= d + 1.

Each (n, d) runs in its own child process, under an address-space cap of
RSS_MB megabytes (which bounds the resident set from above) set with
`resource.setrlimit` in the child; the parent stops a child that overruns the
wall budget.  The child draws r = n very general points with integer
coordinates in [-5, 5] (seed 1), builds F = sum of the d-th powers of their
linear forms with `sum_of_powers_tensor`, and runs point_ideal -> upsilon ->
comon_certificate at bound d + 1, reading the verdict only, so neither F nor
the ideal is digested.  It reports the time of each stage (building F is one),
the number of eliminations, the peak RSS after each stage (`ru_maxrss`, which
only grows, so each stage's rise is the difference), the largest Segre piece
(from closed-form dimensions; it is never built) and the verdict.

    python scripts/frontier.py --out BENCH_frontier.json
    python scripts/frontier.py --shapes 3,3 4,3 --wall 2
"""

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time

SHAPES = ((3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (7, 6), (8, 7), (9, 8))
RSS_MB = 2048


def run_instance(n: int, d: int) -> dict:
    """The pipeline on one instance, in this process."""
    from borderapolar import linalg
    from borderapolar.grading import dim_piece, veronese_ring
    from borderapolar.ideals import point_ideal, very_general_points
    from borderapolar.selftest import sum_of_powers_tensor
    from borderapolar.transfer import comon_certificate, upsilon

    eliminations = [0]
    real = linalg.rref_with_pivots

    def counted(m):
        eliminations[0] += 1
        return real(m)

    linalg.rref_with_pivots = counted
    bound = d + 1
    zs = very_general_points(veronese_ring(n), n, bound, random.Random(1), coord_bound=5)
    rss = {"start": peak_rss_mb()}
    t0 = time.perf_counter()
    f = sum_of_powers_tensor(n, d, zs.points)
    t1 = time.perf_counter()
    rss["tensor"] = peak_rss_mb()
    ideal = point_ideal(zs, bound)
    t2 = time.perf_counter()
    rss["point_ideal"] = peak_rss_mb()
    lifted = upsilon(ideal, d, bound)
    t3 = time.perf_counter()
    rss["upsilon"] = peak_rss_mb()
    cert = comon_certificate(f, n, lifted)
    t4 = time.perf_counter()
    rss["certificate"] = peak_rss_mb()
    u = max(lifted.degrees(), key=lambda v: dim_piece(lifted.ring, v))
    return {
        "verdict": "pass" if cert.verdict else "fail",
        "failure": cert.failure,
        "seconds": {"tensor": t1 - t0, "point_ideal": t2 - t1, "upsilon": t3 - t2,
                    "certificate": t4 - t3, "upsilon_and_certificate": t4 - t2},
        "eliminations": eliminations[0],
        "largest_piece": {"degree": list(u), "dim_ambient": dim_piece(lifted.ring, u),
                          "dim": lifted.piece_dim(u)},
        "rss_mb_after": rss,
        "peak_rss_mb": rss["certificate"],
    }


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(n: int, d: int):
    cap = RSS_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        out = {"status": "ok", **run_instance(n, d)}
    except MemoryError:
        out = {"status": "out of memory"}
    print(json.dumps(out))


def measure(n: int, d: int, wall: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(n), str(d)]
    head = {"n": n, "d": d, "r": n, "bound": d + 1}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=wall)
    except subprocess.TimeoutExpired:
        return {**head, "status": "over the wall budget"}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {**head, "status": f"error: {tail[0]}"}
    return {**head, **json.loads(proc.stdout), "child_wall_s": elapsed}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--shapes", nargs="+", default=[f"{n},{d}" for n, d in SHAPES],
                    help="instances as n,d (default: %(default)s)")
    ap.add_argument("--wall", type=float, default=60.0, help="wall seconds per instance")
    ap.add_argument("--out", help="write the results here as JSON")
    ap.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return
    rows = []
    for shape in args.shapes:
        n, d = (int(x) for x in shape.split(","))
        row = measure(n, d, args.wall)
        rows.append(row)
        secs = row.get("seconds")
        print(f"({n}, {d}, {n}) pow: {row['status']}, verdict {row.get('verdict')}, "
              + ("" if secs is None else f"F {secs['tensor']:.3f} s, upsilon + certificate "
                                         f"{secs['upsilon_and_certificate']:.3f} s, ")
              + f"peak RSS {row.get('peak_rss_mb', 0):.0f} MB")
    certified = [(r["n"], r["d"]) for r in rows
                 if r["status"] == "ok" and r["verdict"] == "pass"]
    headline = max(certified, default=None)
    if args.out:
        result = {"pipeline": "sum_of_powers_tensor -> point_ideal -> upsilon -> "
                              "comon_certificate at bound d + 1, r = n very general points "
                              "(seed 1, coordinates in [-5, 5]), verdict only",
                  "budget": {"wall_s": args.wall, "rss_mb": RSS_MB},
                  "machine": {"python": platform.python_version(),
                              "platform": platform.platform(), "cpus": os.cpu_count()},
                  "instances": rows, "headline": headline}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(f"largest certified within {args.wall:g} s and {RSS_MB} MB: {headline}")


if __name__ == "__main__":
    main()
