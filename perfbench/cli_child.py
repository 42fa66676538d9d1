"""Run the borderapolar command line in a fresh process, timed for the benchmark.

    python3 perfbench/cli_child.py SPAWN_TIME SUMMARY|- -- CLI ARGS...

This does what `python -m borderapolar.cli CLI ARGS...` does, between two
timings of the reference computation (see reference.py).  The last line on
stderr reads `perfbench-reference BEFORE AFTER COST`, where COST is the time
the two timings took.  SPAWN_TIME is the parent's time.time() just before it
started this process.  When SUMMARY is a path, the CLI runs under the
outside-in tracer, and the trace summary is written to that path, with the
start-up time (spawn to package imported) added.  The exit code is the CLI's.
"""

import time

ENTERED = time.time()

import sys  # noqa: E402

import reference  # noqa: E402


def main() -> int:
    spawned, summary_path = float(sys.argv[1]), sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    before = reference.seconds()
    t1 = time.perf_counter()
    import borderapolar.cli as cli

    startup_s = ENTERED - spawned + time.perf_counter() - t1
    tracer = None
    if summary_path != "-":
        from tracer import Tracer, dump

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            summary = tracer.summary()
            summary["cli"] = {"startup_s": startup_s}
            dump(summary, summary_path)
    sys.stdout.flush()
    t2 = time.perf_counter()
    after = reference.seconds()
    cost = t1 - t0 + time.perf_counter() - t2
    print(f"perfbench-reference {before!r} {after!r} {cost!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
