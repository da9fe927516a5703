#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the library sources, the scalar references and the
benchmark program) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans are written to <build>/trace/<workload>-seed<N>.json.

If the program dies (a library panic aborts the process), the run still
ends with a result line: correct false, and the op in flight counted as
failed. Exits non-zero without a result when the build fails.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The SpMM inputs of sparse-kernels: the repository's corpus/.
CORPUS = os.path.join(os.path.dirname(HERE), "corpus")
WORKLOADS = ("serve-mix", "sparse-kernels")
# A run must end within 180 s; this leaves room to report a timeout.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the program; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout)
            log(f"perfbench: {' '.join(cmd)} failed "
                f"(exit {done.returncode})")
            return False
    return True


def crash_result(stderr_text, why):
    """Result line for a program that died mid-run: completed passes'
    ops count as attempted, plus the op in flight, which failed."""
    attempted = failed = 0
    for ops, bad in re.findall(r"^pass \d+.*?, (\d+) ops, (\d+) failed$",
                               stderr_text, re.M):
        attempted += int(ops)
        failed += int(bad)
    log(f"perfbench: program {why}; reporting the run as failed")
    return ('{"correct": false, "attempted": %d, "failed": %d, '
            '"metrics": {}}' % (attempted + 1, failed + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--corpus", CORPUS]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        stderr = err.stderr or ""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        sys.stderr.write(stderr)
        print(crash_result(stderr, f"exceeded {RUN_TIMEOUT_S} s"))
        return 0
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n") if done.stdout else []
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        print(crash_result(done.stderr, f"exited with {done.returncode}"))
        return 0
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
