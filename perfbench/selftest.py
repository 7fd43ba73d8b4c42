#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root; it takes several minutes, so it is not
part of `dune runtest`. For each workload BENCHMARK.json names it makes two
end-to-end runs and two traced runs at one seed, each as long as
BENCHMARK.json's run_seconds, and fails unless

  - every run is correct and prints every metric BENCHMARK.json names,
    with BENCHMARK.json's unit;
  - both runs report identical swaps and depth, and serve-mix identical
    reply bytes;
  - both traced runs report identical route.*, score.*, dag.*, qasm.*,
    stream.* and cache.* counts (every per-layer metric that is not a time).
"""

import json
import subprocess
import sys

SEED = 2019
SAME_E2E = ("swaps", "depth")
SAME_TRACE_PREFIXES = ("route.", "score.", "dag.", "qasm.", "stream.", "cache.")
TIME_UNITS = ("s", "ms")


def run(workload, seed, seconds, trace):
    out = subprocess.run(["python3", "perfbench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            runs = [run(w, SEED, spec["run_seconds"], trace) for _ in range(2)]
            for report, result in runs:
                if not result["correct"] or result["failed"]:
                    problems.append(f"{w} trace={trace}: incorrect: {report['failures']}")
                for m in names:
                    got = result["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{w} trace={trace}: {m['name']} printed as {got}")
            (r1, a), (r2, b) = runs
            if trace == 0:
                same = list(SAME_E2E)
                if w == "serve-mix" and r1["detail"]["reply_digest"] != r2["detail"]["reply_digest"]:
                    problems.append(f"{w}: serve replies differ between runs")
            else:
                same = [m["name"] for m in names if m["name"].startswith(SAME_TRACE_PREFIXES)
                        and m["unit"] not in TIME_UNITS]
            for n in same:
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]:
                    problems.append(f"{w} trace={trace}: {n} differs: "
                                    f"{a['metrics'][n]['value']} vs {b['metrics'][n]['value']}")
            print(f"{w} trace={trace}: checked {len(same)} repeatable values", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
