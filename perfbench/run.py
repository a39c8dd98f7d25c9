#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds the C++ benchmark from source (a no-op when already built) and runs
one workload:

    python3 perfbench/run.py --workload table_grids --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; traces and scratch files go to <build dir>/work. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
benchmark's: 0 when every op passed its check, non-zero otherwise.

    python3 perfbench/run.py --self-test

runs every workload briefly with one reference value corrupted and
exits 0 only if each such run reports a failed op and exits non-zero.
README.md in this directory documents workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table_grids", "fleet_small_cells", "daemon_cache_mix",
             "proof_machinery")
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the binary path or None."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(cmake_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def run_workload(exe, workload, seed, seconds, trace, corrupt=False):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", HERE, "--work-dir", os.path.join(build_dir(), "work")]
    if corrupt:
        cmd.append("--corrupt-reference")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return 1, ""
    return proc.returncode, out


def self_test(exe):
    """Every workload must fail its check when a reference is corrupted."""
    ok = True
    for workload in WORKLOADS:
        code, out = run_workload(exe, workload, 1, 1, 0, corrupt=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        fired = (code != 0 and result.get("failed", 0) > 0
                 and result.get("correct") is False)
        log("self-test %-18s exit=%d failed=%s -> %s" %
            (workload, code, result.get("failed"),
             "ok" if fired else "CHECK DID NOT FIRE"))
        ok = ok and fired
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        log("build failed")
        return 2
    if args.self_test:
        return self_test(exe)
    code, out = run_workload(exe, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
