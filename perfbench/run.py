#!/usr/bin/env python3
"""Build kpt and the end-to-end benchmark runner from source, then run it.

Run from the root of a kpt checkout:

    python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --all --seed 1 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py compare A.json ... -- B.json ...

Build output goes to standard error, so the runner's last line of standard
output stays its JSON result.  Every argument is passed on to the runner
(perfbench/e2e.ml); see perfbench/README.md.
"""

import os
import subprocess
import sys

KPT = os.path.join("_build", "default", "bin", "kpt.exe")
RUNNER = os.path.join("_build", "default", "perfbench", "e2e.exe")


def main(args):
    if not all(os.path.exists(p) for p in ("dune-project", "bin", "lib")):
        sys.stderr.write("run.py: run this from the root of a kpt checkout "
                         "(dune-project, bin/ and lib/ are missing here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/kpt.exe", "./perfbench/e2e.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    if args[:1] != ["compare"]:
        args = ["--kpt", KPT] + args
    return subprocess.run([RUNNER] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
