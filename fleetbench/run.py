#!/usr/bin/env python3
"""Builds and runs the fleet benchmark from the root of a nextmaint checkout.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the nextmaint libraries and the `fleetbench` driver from source into
.bench_build/fleetbench (Release, no sanitizers), runs one workload and
prints its notes followed by one JSON result line, the last line of stdout.
Extra flags (--smoke, --expected FILE, --record-fingerprints) are passed to
the driver. Exits non-zero without a result when the sources are missing,
the build fails, the run fails or overruns, or the result does not carry
exactly the metrics BENCHMARK.json declares. See fleetbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "fleetbench")
WORK_DIR = os.path.join(".bench_build", "run")
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_batch", "refresh_stream", "fleet_restore")


def fail(message):
    print("fleetbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; the build log goes to a file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "fleetbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "fleetbench",
                      "-j", "4"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "fleetbench")


def provenance():
    """HEAD, net src/ lines and a digest of src/ (the checkout may not be a
    git repository, so the digest identifies the code either way)."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        head = "none"
    lines = 0
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(directory, name)
            with open(path, "rb") as source:
                data = source.read()
            lines += data.count(b"\n")
            digest.update(path.encode() + b"\0" + data)
    return "head=%s src_lines=%d src_sha256=%s nproc=%d" % (
        head, lines, digest.hexdigest()[:16], os.cpu_count() or 0)


def declared_metrics(trace):
    with open("BENCHMARK.json") as spec:
        bench = json.load(spec)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "serve", "daemon.h"),
                   os.path.join("fleetbench", "CMakeLists.txt"),
                   "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the root of a full nextmaint checkout "
                 "(missing %s)" % needed)

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR] + extra
    start = time.monotonic()
    # Own session, so a timeout stops everything the driver started.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail("%s overran %d s" % (args.workload, RUN_TIMEOUT_S))

    lines = output.rstrip("\n").split("\n")
    notes, last = lines[:-1], lines[-1] if lines else ""
    if notes:
        print("\n".join(notes))
    print("provenance: " + provenance())
    print("run: %.1f s" % (time.monotonic() - start))
    if process.returncode != 0:
        fail("driver exited with %d" % process.returncode)
    try:
        result = json.loads(last)
    except ValueError:
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    want = declared_metrics(args.trace == "1")
    if set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
