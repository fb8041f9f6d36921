#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload briefly, at scale 1.

    python3 perfbench/smoke_test.py

Runs each workload of workloads.json untraced and traced for one second
at scale 1 through run.py and checks that
  - every end-to-end (untraced) and per-layer (traced) metric of
    BENCHMARK.json is printed, with its unit;
  - the oracle matched on every read class, and the durability check
    (served) or the visibility check (in process) lost no insert;
  - no statement failed (failed_frac = 0);
  - BENCHMARK.json and workloads.json list the same workloads, and the
    layer table of workloads.json has every per-layer metric.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    workloads = spec["workloads"]

    check([w["name"] for w in bench["workloads"]] == list(workloads),
          "BENCHMARK.json and workloads.json list different workloads")
    table = {row["metric"] for row in spec["layers"]}
    for m in bench["per_layer"]:
        check(m["name"] in table, "%s is missing from the layer table"
              % m["name"])

    for name, w in workloads.items():
        reads = [c["name"] for c in w["classes"] if c["kind"] == "read"]
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--scale", "1"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
            label = "%s --trace %d" % (name, trace)
            check(p.returncode == 0, "%s exited %d:\n%s%s"
                  % (label, p.returncode, p.stdout[-3000:], p.stderr[-3000:]))
            lines = p.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            out = "\n".join(lines[:-1])
            want = bench["per_layer" if trace else "end_to_end"]
            check(set(result["metrics"]) == {m["name"] for m in want},
                  "%s printed another metric set" % label)
            for m in want:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"],
                      "%s: %s has unit %s" % (label, m["name"], got["unit"]))
                check(re.search(r"^metric %s\s" % re.escape(m["name"]), out,
                                re.M) is not None,
                      "%s: %s missing from the report" % (label, m["name"]))
            for c in reads:
                check(re.search(r"^oracle %s\s.*: match$" % re.escape(c), out,
                                re.M) is not None,
                      "%s: oracle did not match on %s" % (label, c))
            check_lines = re.findall(r"^(?:durability|visibility): .*$", out,
                                     re.M)
            if w["mode"] == "served" or not trace:
                check(check_lines, "%s: no durability or visibility check"
                      % label)
            for line in check_lines:
                check(re.search(r"\b0 of \d+ acknowledged", line) is not None,
                      "%s: acknowledged inserts lost: %s" % (label, line))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  "%s: %d of %d statements failed" % (
                      label, result["failed"], result["attempted"]))
            check(re.search(r"^failed_frac 0 ", out, re.M) is not None,
                  "%s: failed_frac is not 0" % label)
            print("ok   %s (%d statements)" % (label, result["attempted"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
