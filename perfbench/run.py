#!/usr/bin/env python3
"""Build the PACOR benchmark from source and run it.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The last line of standard output is the result object. Build output goes
to standard error; traces and journals to .perfbench-out/.
"""
import os
import subprocess
import sys

TARGETS = ["./perfbench/bench.exe", "./bin/pacor_cli.exe"]


def main():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of a PACOR source checkout (missing: %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([bench] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
