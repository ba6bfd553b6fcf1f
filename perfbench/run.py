#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/ (an optimized build
of src/ plus the benchmark binary) into .bench_build/perfbench, runs the
named workload for S seconds of measurement and checks its outputs. The
last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The lines before it give the run's
metadata and the workload's own figures (fleet_req_per_s, serve_p99_us,
kcca_mre, ...) by name and unit.

Workloads are listed in BENCHMARK.json. Correctness: the binary checks
its outputs (replays at other thread counts, traced against untraced
passes, bit-exact audits of served answers, an empty run cache in the
timed set-up); this script also compares the digest of the deterministic
outputs with perfbench/expected.json when that file holds one for the
seed; the digest of every run is in its metadata line.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("fleet-burst", "fleet-steady", "serve-refit", "static-ml")
# The widest pool any workload uses: the fleet execution pass and the
# CollectAll pool. Serve runs 3 clients and 1 writer.
MAX_THREADS = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def non_negative_int(text):
    if not text.isdigit() or not text.isascii():
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %r" % text)
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if not 1 <= value <= 3600:
        raise argparse.ArgumentTypeError("must be in [1, 3600], got %r" % text)
    return value


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and kills the whole group if it
    outlives the timeout, so no compiler or worker is left behind."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (os.path.basename(cmd[0]),
                                                 timeout))
    return proc.returncode, out


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD_DIR, "-j", str(threads())]]
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.insert(0, configure)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            code, _ = run(cmd, max(1, deadline - time.monotonic()),
                          stdout=sys.stderr)
            if code != 0:
                fail("build failed: " + " ".join(cmd))


def threads():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def source_digest():
    """sha256 over the program and benchmark sources, for run metadata
    where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under %s/src" % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(EXPECTED) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the benchmark definition: %s" % e)

    build()
    trace = args.trace == "1"
    code, out = run([BINARY, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", args.trace, "--threads", str(threads())],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        fail("benchmark binary exited with %d" % code)
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no report")

    failures = list(report["failures"])
    want = expected.get(args.workload, {}).get(str(args.seed))
    if want is not None and want != report["digest"]:
        failures.append("digest %s differs from the expected %s"
                        % (report["digest"], want))

    source = report["layers"] if trace else report["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if not isinstance(source.get(m["name"]), (int, float)):
            fail("the binary did not report %s" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print(json.dumps({
        "run": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": trace,
            "build_type": report["build_type"],
            "compiler": report["compiler"], "nproc": os.cpu_count(),
            "threads": report["threads"], "commit": commit(),
            "source_sha256": source_digest(),
            "passes": report["passes"],
            "traced_passes": report["traced_passes"],
            "pass_s_all": report["pass_s_all"],
            "setup_s_all": report["setup_s_all"],
            "digest": report["digest"],
            "digest_checked": want is not None,
        },
        "figures": report["figures"],
        "ops": report["ops"], "ops_failed": report["ops_failed"],
        "failures": failures,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["ops"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
