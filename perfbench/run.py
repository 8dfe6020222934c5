#!/usr/bin/env python3
"""Build and run the repository benchmark; see README.md beside this file.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source in a release-profile build
directory (.bench_build) at the repository root, then runs it with
--nproc set to the number of CPUs this process may use, which is also
the number of worker domains; the job count is not a parameter. The
last line of standard output is the result object; build output goes
to standard error. Exits non-zero, without a result line, when the build
fails, the run times out, or a correctness gate fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NEEDED = ["dune-project", "lib", "examples/serve", "verdicts/baseline-full.json"]


def source_digest():
    """SHA-256 over the library and CLI sources: names the program
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout, env, stdout):
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main(argv):
    if "--nproc" in argv or "--jobs" in argv:
        print("perfbench: the job count is the CPU count and cannot be set",
              file=sys.stderr)
        return 2
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a repository checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env, sys.stderr,
    )
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code
    args = list(argv) + ["--nproc", str(len(os.sched_getaffinity(0)))]
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    sys.stdout.flush()
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    return run([exe] + args, RUN_TIMEOUT_S, env, None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
