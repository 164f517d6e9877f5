#!/usr/bin/env python3
"""The F2PM benchmark command.

    python3 perfbench/run.py --workload <serve_linear|serve_gbdt|train_pipeline>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (which builds the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The last line of standard
output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_linear", "serve_gbdt", "train_pipeline")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when the checkout is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return "git:" + subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once, then (re)builds; the log goes to a file so that
    standard output stays the benchmark's own."""
    # The compiler's temporary files stay inside the checkout too.
    temp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(temp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=temp_dir)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                return log_path
        step = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                          env=env).returncode:
            return log_path
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no F2PM source tree (src/) next to {HERE}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    broken_log = build(build_dir)
    if broken_log:
        with open(broken_log) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"build failed, log in {broken_log}", code=1)

    command = [os.path.join(build_dir, "f2pm_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    sys.stdout.flush()
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", code=1)
    sys.stdout.write(child.stdout)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("the benchmark printed no result line", code=1)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
