#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness (perfbench/CMakeLists.txt) compiles the program's libraries
from src/ in a Release build under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs mbird_perfbench. Its standard output is
passed through unchanged, so the last line is the result object. Build
output goes to standard error. With --trace 1 the span trace is written to
<build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TYPE = "Release"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(root, build_dir, targets):
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness's own tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need, 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_root, "perfbench")

    if args.self_test:
        build(root, build_dir, ["perfbench_selftest"])
        work = os.path.join(build_dir, "selftest-work")
        rc = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                             work]).returncode
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(rc)

    build(root, build_dir, ["mbird_perfbench"])
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "mbird_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, root),
           "--trace-out", os.path.join(traces, "%s-%d.json" % (args.workload,
                                                                args.seed)),
           "--commit", source_id(root), "--build-type", BUILD_TYPE]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
