#!/usr/bin/env python3
"""Build the locmap benchmark from source and run one workload.

    python3 perfbench/run.py --workload simulate|map|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a locmap source tree. The script builds the
`locmap` executable and the benchmark with dune, then runs the
benchmark, whose last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, printing no
result, when the tree holds no locmap sources or anything fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH = "perfbench/perfbench.exe"
LOCMAP = "bin/locmap_cli.exe"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """A revision id for the run record: the git commit when there is
    one, else a digest of the library and executable sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["simulate", "map", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail("run from the root of a locmap source tree (%s missing)" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH, "./" + LOCMAP],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join("_build", "default", BENCH),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--locmap", os.path.join("_build", "default", LOCMAP),
        "--out", os.path.join("perfbench", "out"),
        "--reference", os.path.join("perfbench", "reference.txt"),
        "--commit", source_id(),
    ]
    # Its own process group, so a timeout also stops the server it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with status %d" % proc.returncode)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
