#!/usr/bin/env python3
"""Build and run the transactional-collections benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv_hot --seed 1 --seconds 10 --trace 0

Builds perfbench/src/txbench.exe with dune (in the checkout's own _build
directory, with the shared dune cache off), runs it for one workload and
passes its report through.  The last line of standard output is the
benchmark's JSON result.  Exits non-zero without a result when the
sources are missing, the build fails, the run fails or times out, or the
result line is malformed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "src", "txbench.exe")
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over the library and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in ("lib", os.path.join("perfbench", "src")):
        for d, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def find_dune():
    """dune on PATH, else from the active opam switch, else from the first
    opam switch that has one."""
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    opam_root = os.path.expanduser("~/.opam")
    if os.path.isdir(opam_root):
        prefixes += [os.path.join(opam_root, d) for d in sorted(os.listdir(opam_root))]
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    return None


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "src", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail(2, f"{need} not found: run from the root of a full source checkout")
    dune = find_dune()
    if dune is None:
        fail(2, "dune not found on PATH or in an opam switch")

    # The compilers live next to dune in an opam switch.
    env = dict(os.environ, DUNE_CACHE="disabled",
               PATH=os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", ""))
    t0 = time.monotonic()
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", "--display", "quiet", "./" + EXE],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    if build.returncode != 0:
        fail(3, "build failed")
    built_in = time.monotonic() - t0

    # Runtime_events ring files of the traced run stay inside the checkout.
    events = os.path.join(root, "_build", "perfbench-events")
    os.makedirs(events, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events
    cmd = [os.path.join(root, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--git-rev", git_rev(root),
           "--src-digest", source_digest(root)]
    print(f"perfbench: built in {built_in:.1f} s", file=sys.stderr)
    try:
        run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_LIMIT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(run.returncode, "benchmark run failed")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(run.stdout)
        fail(5, "malformed result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
