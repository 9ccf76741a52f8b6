#!/usr/bin/env python3
"""Build and run the lottery benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the archgym library it links) from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
lottery_bench with the given arguments; any extra argument (such as
--configs N) is passed through. The last line of standard output is the
benchmark's JSON result. --selftest builds and runs the decorator
transparency test instead. Build output goes to standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("run.py: no src/ beside perfbench/, nothing to build\n")
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs,
           "--target", "lottery_bench", "transparency_test"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    """sha256 over src/ (paths and bytes): identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    out = build_dir()
    if not build(out):
        sys.stderr.write("run.py: build failed\n")
        return 2
    if argv == ["--selftest"]:
        test = [os.path.join(out, "transparency_test"),
                "--work-dir", os.path.join(out, "test")]
        return subprocess.run(test).returncode
    cmd = [os.path.join(out, "lottery_bench"), *argv,
           "--work-dir", os.path.join(out, "work"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
