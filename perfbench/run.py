#!/usr/bin/env python3
"""Builds and runs the GC+ benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Run from the repository root. The engine and the benchmark are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is the JSON result; the lines before it
are the human-readable report. Exits non-zero on a wrong answer, a failed
call, a stage-accounting violation or a counter-digest mismatch.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-read", "churn", "verify-heavy")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                return None, log_path
        cmd = ["cmake", "--build", out, "--target", "gcp_perfbench", "-j", "4"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            return None, log_path
    return os.path.join(out, "gcp_perfbench"), log_path


def file_hash(path):
    """The first 16 hex digits of a file's SHA-256."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_digest(runs, workload, seed, record, problems):
    """Fails when two runs of one build, seed and input report different
    counters. Another build may count differently by design."""
    digest = record.get("counter_digest")
    if not digest:
        return
    path = os.path.join(runs, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = "%s:%d:%s:%s" % (workload, seed, record["fingerprint"],
                           record["build"])
    if key in known and known[key] != digest:
        problems.append("counter digest %s differs from an earlier run's %s"
                        % (digest, known[key]))
        return
    known[key] = digest
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    binary, log_path = build(out)
    if binary is None:
        sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-20:]))
        return 1
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", runs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: no result (exit %d)\n" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    record = result.pop("record")
    record["build"] = file_hash(binary)
    problems = []
    check_digest(runs, args.workload, args.seed, record, problems)
    for problem in problems:
        print("PROBLEM " + problem)
    correct = result["correct"] and not problems and proc.returncode == 0

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, correct=correct,
                  metrics={k: v["value"] for k, v in result["metrics"].items()})
    with open(os.path.join(runs, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("fingerprint %s (runs with another fingerprint are not comparable)"
          % record["fingerprint"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
