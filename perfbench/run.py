#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload agg --seed 1 --seconds 10 --trace 0

Builds the engine, fdb_server and the perfbench binary from this checkout
into .bench_build/ (a Release build; the first run of a checkout compiles
everything), hands the binary the workload from perfbench/workloads.json,
and relays its report. The last line printed is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Optional, for the smoke test: --scale N overrides the workload's scale.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run may take up to 3x --seconds (a segment runs on until it has its
# minimum of reads) plus set-up, the oracle and the checks.
RUN_SETUP_ALLOWANCE_S = 90


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed:\n" + tail)
    return os.path.join(BUILD, "perfbench")


def write_spec(name, workload, scale):
    """Flattens one workload of workloads.json into the binary's format."""
    def field(s):
        if "\t" in s or "\n" in s:
            fail("tab or newline in workload text: " + s)
        return s
    lines = ["\t".join(["workload", name, workload["mode"], str(scale),
                        str(workload["clients"]),
                        str(workload["setup_reps"]),
                        ",".join(workload["views"])])]
    for c in workload["classes"]:
        if c["kind"] != "read":
            text, oracle = c["view"], ""
        else:
            text, oracle = c["sql"], c["oracle_sql"]
        lines.append("\t".join(["class", field(c["name"]), c["kind"],
                                str(c["weight"]), field(text),
                                field(oracle)]))
    path = os.path.join(BUILD, "spec-%s.tsv" % name)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def check_landing(workload, lines):
    """Prints where each percentile landed against workloads.json's claim.

    Where a percentile lands depends on timing, so a miss is reported in
    the output, not counted as a failure.
    """
    records = [l[len("record "):] for l in lines if l.startswith("record ")]
    if not records:
        return
    record = json.loads(records[-1])
    for metric, declared in workload["percentiles"].items():
        got = record.get(metric + "_class")
        if got is None:
            continue
        verdict = "as declared" if got in declared else "NOT as declared"
        print("landing %s: %s (declared: %s): %s"
              % (metric, got, ", ".join(declared), verdict))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", type=int)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no engine sources next to perfbench/; nothing to build")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    workload = workloads[args.workload]

    binary = build()
    spec = write_spec(args.workload, workload, args.scale or workload["scale"])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec", spec, "--out", os.path.join(BUILD, "results"),
           "--commit", git_commit()]
    # Own process group, so a timeout can stop the binary and anything it
    # started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout_s = RUN_SETUP_ALLOWANCE_S + 4 * args.seconds
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out after %d s" % timeout_s)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("perfbench exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or with the wrong unit" % m["name"])
        metrics[m["name"]] = got
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    check_landing(workload, lines[:-1])
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
