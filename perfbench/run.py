#!/usr/bin/env python3
"""Serving benchmark entry point: build, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library through the repository's
own CMake configuration plus the benchmark (perfbench/CMakeLists.txt) into
.bench_build/perfbench, then runs one workload in a child process and
relays its output; the last stdout line is the JSON result.

The child always runs with these settings, whatever the caller's
environment holds, so that no shell variable changes the figures (any
other OMP_*, GOMP_* or MALLOC_* variable is removed):
  OMP_NUM_THREADS = 1: on a shared host a wider team waits at every
    barrier for whichever thread a co-tenant preempted, which made repeated
    runs far noisier (see README.md);
  MALLOC_MMAP_THRESHOLD_ = 128 KiB: a fixed threshold keeps glibc from
    raising it after the first large free, so large buffers are always
    returned and peak RSS reflects live allocations rather than how the
    heap happened to fragment.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("classify_varlen", "chat_prefix", "multitenant_decode")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, jobs):
    env = dict(os.environ, CMAKE_BUILD_PARALLEL_LEVEL=str(jobs))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_serve"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing "
             "next to perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cpus = len(os.sched_getaffinity(0))
    build(root, build_dir, min(cpus, 4))

    # Drop every OpenMP and allocator knob the caller may have set, then
    # set the two the benchmark fixes.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "MALLOC_"))}
    env["OMP_NUM_THREADS"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    cmd = [os.path.join(build_dir, "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE)
    sys.stdout.write(child.stdout.decode())
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
