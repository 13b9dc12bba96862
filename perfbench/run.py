#!/usr/bin/env python3
"""Builds and runs the SURGEON++ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The first run configures and builds
a Release tree of the libraries under src/ plus the perfbench program
(into $CARGO_TARGET_DIR, default .bench_build); later runs only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the program's JSON result. Options other than the four above (--fault-seed,
--scale, --check-offset) are passed to the program unchanged. A traced run
writes its spans to <build dir>/spans/<workload>.json.

The exit code is the program's: 0 only when every correctness check passed.
"""
import argparse
import ctypes
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# One measured run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def fixed_layout():
    """Turns off address-space randomisation for perfbench, so every run
    gets the same memory layout and layout luck does not move the timings.
    Best effort: where the call is refused the run goes on randomised."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace] + extra
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-file", os.path.join(spans, args.workload + ".json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench ran past {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
