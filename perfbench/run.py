#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/main.exe from
source (dune, release profile, build tree .bench_build/), runs one workload,
echoes the program's per-metric lines, and ends with one JSON line holding
exactly the metric set BENCHMARK.json defines for the mode: its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1. A per-layer
metric the workload does not exercise reads 0 (the layer is idle there).

The full result, with every metric measured and the run's provenance (git
revision when the checkout is a git work tree, a digest of the sources,
core count, OCaml version, build profile, seed), is also written to
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RESULTS = os.path.join(BUILD_DIR, "perfbench", "results")
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "perfbench"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./perfbench/main.exe"]
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if rc != 0:
        fail("build failed (exit %d)" % rc)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths.append(top)
        for d, subdirs, files in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if not s.startswith((".", "_")))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(".git"):
        return "none (not a git work tree)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    t0 = time.monotonic()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A SIGTERM to this script ends the benchmark program with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program failed (exit %d)" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line")

    measured = raw["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif args.trace:
            value = 0  # the workload leaves this layer idle
        else:
            fail("workload %s did not measure %s" % (args.workload, m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    provenance = {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "ocaml": raw["ocaml"],
        "profile": PROFILE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - t0,
    }
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"provenance": provenance, "measured": measured, "result": result}, f,
                  indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance: " + " ".join("%s=%s" % kv for kv in provenance.items()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
