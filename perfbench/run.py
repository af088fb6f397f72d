#!/usr/bin/env python3
"""Builds and runs the sitstats end-to-end benchmark.

    python3 perfbench/run.py --workload build_sweep|build_exact|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Compiles perfbench/ (which builds the library from src/) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary from the repository root. Build output goes to stderr;
the last line of stdout is the run's JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run length BENCHMARK.json gives.
DEFAULT_SECONDS = 30
# Set-up, checks and the work after the measured loop take well under this;
# a run longer than --seconds plus this is presumed hung and is killed.
SETUP_ALLOWANCE_S = 140


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exit so the finally below reaps the binary.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.selftest:
        command = [binary, "--selftest"]
    else:
        if not args.workload:
            parser.error("--workload is required")
        work_dir = os.path.relpath(
            os.path.join(out_dir, f"run-{os.getpid()}"), ROOT)
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", work_dir]
    # Paths are relative to the repository root so the server's socket path
    # stays short wherever the checkout lives.
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=args.seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
