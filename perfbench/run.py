#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload campaign-planned --seed 1 \\
        --seconds 30 --trace 0

The workloads, and why each exists, are described at the top of
perfbench/bench.ml.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The exit code is 0 only when the build succeeded, every correctness
gate held and the metrics are exactly the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

# BENCHMARK.json names two of these; bench.ml's header says why.
WORKLOADS = ["campaign-planned", "campaign-cluster", "serve-steady", "serve-microboot"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# A run must end within 180 s; leave room to stop the workload cleanly.
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    # Own process group, so a timeout also stops the campaign-cluster
    # worker processes.
    proc = subprocess.Popen(
        [EXE, args.workload, str(args.seed), str(args.seconds), str(args.trace)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload did not finish within %d s" % TIMEOUT_S)
    lines = out.splitlines()
    # Everything but the result line is the human-readable report.
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the workload printed no result (exit code %d)" % proc.returncode)
    got = set(result["metrics"])
    want = declared_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print(lines[-1], flush=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
