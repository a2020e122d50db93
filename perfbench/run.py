#!/usr/bin/env python3
"""Builds and runs the palmtrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the palmtrace libraries it links) under .bench_build/,
or under $CARGO_TARGET_DIR when that is set; later runs only check the
build is current. Each run works in a fresh temporary directory under
the build directory, which is removed when the run ends. The last line
of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Environment that changes what palmtrace runs: cleared for every run.
CLEARED_ENV = ("PT_EXEC_MODE", "PT_JOBS", "PT_LOG_LEVEL", "PT_CRASH_AFTER_ITEMS")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark. Returns the binary."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: palmtrace sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    tmp_root = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        return subprocess.run([binary] + argv, cwd=workdir, env=env).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
