#!/usr/bin/env python3
"""Campaign benchmark of the automode program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the automode package from source (release profile), builds the
harness in perfbench/harness against it, runs the harness's own tests,
then runs one workload in one process and passes its output through: the
last line of standard output is the JSON result.  Workloads, metrics and
their bounds are listed in BENCHMARK.json; what each workload exercises
is described in perfbench/harness/stream.ml.

Audit files (per-job raw and calibrated timings, the Chrome trace and the
layer table of a traced run) are written to perfbench/_out/<workload>-<seed>/.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

HARNESS = os.path.join("perfbench", "harness")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(dune, env):
    steps = [
        [dune, "build", "--root", ".", "--profile", "release", "@install"],
        [dune, "build", "--root", HARNESS, "--profile", "release",
         "./main.exe", "@runtest"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir(HARNESS)):
        fail("run from the root of an automode checkout "
             "(dune-project, lib/ and %s/ not found)" % HARNESS)
    env = dict(os.environ)
    dune = shutil.which("dune")
    if dune is None:
        # Not on PATH: look in the active or an installed opam switch,
        # whose bin directory also holds the compilers dune calls.
        switches = [env.get("OPAM_SWITCH_PREFIX", "")]
        switches += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
        bins = [os.path.join(s, "bin") for s in switches if s]
        bins = [b for b in bins if os.path.isfile(os.path.join(b, "dune"))]
        if not bins:
            fail("dune not found on PATH or in an opam switch")
        env["PATH"] = os.pathsep.join([bins[0], env.get("PATH", "")])
        dune = os.path.join(bins[0], "dune")

    env["DUNE_CACHE"] = "disabled"
    installed = os.path.join(root, "_build", "install", "default", "lib")
    env["OCAMLPATH"] = os.pathsep.join(
        p for p in [installed, env.get("OCAMLPATH", "")] if p)
    build(dune, env)

    tag = "%s-%d" % (args.workload, args.seed)
    cmd = [
        os.path.join(HARNESS, "_build", "default", "main.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join("perfbench", "_out", tag),
        "--work", os.path.join("perfbench", "_work", tag),
    ]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
