#!/usr/bin/env python3
"""Builds the overlay benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload chain4-1k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
and its output to stderr, so the last line on stdout is the benchmark's
JSON result. Spans of a traced run (--trace 1) are written to
<build>/spans/<workload>-seed<seed>.jsonl. Exit status: the benchmark's
(0 ok, 1 wrong output), 2 for usage or build errors, 3 on a timeout.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its status."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no iOverlay sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if run_quiet(configure) != 0:
        # A cache left by a checkout at another path: start afresh once.
        shutil.rmtree(out, ignore_errors=True)
        if run_quiet(configure) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs]) != 0:
        fail(f"building {target} failed")
    return os.path.join(out, target)


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s", 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        sys.exit(run([build("perfbench_tests")]))
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([
        binary, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", a.trace,
        "--trace-out", os.path.join(spans, f"{a.workload}-seed{a.seed}.jsonl"),
        "--commit", git_commit(), "--source-digest", source_digest(),
    ]))


if __name__ == "__main__":
    main()
