#!/usr/bin/env python3
"""Self-test of the benchmark's output contract, on tiny runs.

For every workload in BENCHMARK.json it runs the benchmark command once
untraced and once traced (`--seconds 2`) and checks that:

* the command exits 0 and its last stdout line is the result object with
  exactly the keys correct, attempted, failed and metrics;
* the run is correct, attempted >= 1 and failed == 0;
* the untraced run reports exactly the end_to_end metrics, the traced run
  exactly the per_layer metrics, each a finite number with the declared
  unit;
* the traced run wrote its span file, which parses as Chrome trace-event
  JSON with at least one span carrying id, parent and req.

Run from the repository root:  python3 e2ebench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

SEED = 7
SECONDS = "2"


def run(cmd, workload, trace):
    args = cmd + ["--workload", workload, "--seed", str(SEED),
                  "--seconds", SECONDS, "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(where, got, declared):
    want = {m["name"]: m["unit"] for m in declared}
    errors = []
    if set(got) != set(want):
        errors.append(f"missing {sorted(set(want) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')!r}, declared {want[name]!r}")
    for e in errors:
        print(f"FAIL {where}: {e}")
    return not errors


def main():
    bench = json.load(open("BENCHMARK.json"))
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(bench["command"], name, trace)
            where = f"{name} trace={trace}"
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                print(f"FAIL {where}: result keys {sorted(r)}")
                ok = False
            if not (r["correct"] is True and r["attempted"] >= 1 and r["failed"] == 0):
                print(f"FAIL {where}: correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']}")
                ok = False
            ok &= check_metrics(where, r["metrics"], declared)
        path = os.path.join(".bench_out", f"trace-{name}-{SEED}.json")
        try:
            spans = json.load(open(path))["traceEvents"]
            if not spans or not {"id", "parent", "req"} <= set(spans[0]["args"]):
                raise ValueError("no spans with id/parent/req")
        except (OSError, ValueError, KeyError) as e:
            print(f"FAIL {name}: span file {path}: {e}")
            ok = False
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
