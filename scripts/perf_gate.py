#!/usr/bin/env python3
"""Compare perfbench runs of a base and a head checkout (`make perf-gate`).

    python3 scripts/perf_gate.py BENCHMARK.json RESULTS

RESULTS holds one line per perfbench run: "<side> <workload> <result>",
where side is base or head and result is the JSON line perfbench printed
last. Per workload and side, each end-to-end metric takes its best value
over the side's runs: a shared host's drift only ever makes a run worse.
The gate fails when a run is incorrect, when head fails a larger share
of its operations than base, or when an end-to-end metric of head is
worse than base's by more than the metric's bound. Metric names,
directions and bounds all come from BENCHMARK.json.
"""

import json
import sys


def main(spec_path, results_path):
    with open(spec_path) as f:
        spec = json.load(f)
    runs = {}
    with open(results_path) as f:
        for line in f:
            side, workload, result = line.split(" ", 2)
            runs.setdefault((workload, side), []).append(json.loads(result))

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base, head = runs.get((workload, "base")), runs.get((workload, "head"))
        if not base or not head:
            problems.append(f"{workload}: missing base or head runs")
            continue
        for side, rs in (("base", base), ("head", head)):
            if not all(r["correct"] for r in rs):
                problems.append(f"{workload}: a {side} run is incorrect")
        share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for side, rs in (("base", base), ("head", head))}
        if share["head"] > share["base"]:
            problems.append(f"{workload}: head failed {share['head']:.2%} of operations, base {share['base']:.2%}")
        print(f"{workload}: best of {len(base)} base and {len(head)} head runs")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pick = min if lower else max
            b = pick(r["metrics"][name]["value"] for r in base)
            h = pick(r["metrics"][name]["value"] for r in head)
            worse = (h - b if lower else b - h) / b
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            print(f"  {name:<18} base {b:<12.4g} head {h:<12.4g} worse by {worse:+7.1%} (bound {m['bound']:.0%}) {verdict}")
            if worse > m["bound"]:
                problems.append(f"{workload}: {name} worse by {worse:.1%}, bound {m['bound']:.0%}")

    for p in problems:
        print(f"perf-gate: FAIL: {p}")
    if not problems:
        print("perf-gate: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
