#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload bulk|online|stream --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune, then runs it with a fresh, empty scratch directory (TMPDIR and the
JIT cache) under .bench_build/ in the checkout, and passes its output and
exit code through.  It exits 2 without printing a result when the
checkout does not hold the program's sources.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))
            and os.path.isfile(os.path.join(root, "perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project, lib/ and perfbench/ are needed)\n")
        return 2
    scratch = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = scratch
    # Keep dune's shared build cache (in the home directory) out of it.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", root, "-j", "2",
         "./perfbench/main.exe"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
