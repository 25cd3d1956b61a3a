#!/usr/bin/env python3
"""Compares two sets of host-benchmark result files.

    python3 bench/host/compare.py A/ B/

A and B are directories of result files written by bench/host/run.sh (one
JSON file per workload per run; *.trace.json files are skipped). For every
workload and metric it prints each set's median and quartiles and B's
change against A:

  * end-to-end metrics (untraced runs) are judged against their bound in
    BENCHMARK.json: B worse than A by more than the bound is a REGRESSION,
    better by more than the bound is `improved`. When either set's own
    spread (interquartile range over median) exceeds the bound the row is
    `unresolved`, unless every B run beats every A run;
  * per-layer host times (traced runs) have no bound and are shown only;
  * counts and modeled metrics must be identical between any two runs of
    the same workload, seed and scale, in either set.

Exit status: 0 when nothing regressed and every count matched, 1 otherwise,
2 on usage errors.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        if "workload" in run and "metrics" in run:
            runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values_of(runs, workload, metric, traced):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["traced"] == traced
            and metric in r["metrics"]]


def judge(a, b, bound, lower_is_better):
    """Verdict of B against A for one bounded metric."""
    worse = (lambda x, y: x > y) if lower_is_better else (lambda x, y: x < y)
    if spread(a) > bound or spread(b) > bound:
        if all(worse(x, y) for x in a for y in b):
            return "improved"
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if lower_is_better:
        change = -change
    if change < -bound:
        return "REGRESSION"
    if change > bound:
        return "improved"
    return "ok"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def identity_failures(runs):
    """Counts or modeled metrics that differ between runs of one
    (workload, seed, scale)."""
    seen = {}
    for r in runs:
        for name, m in r["metrics"].items():
            if m["kind"] == "layer_exact":
                key = (r["workload"], r["seed"], r["scale"], name)
                seen.setdefault(key, set()).add(m["value"])
    return {k: v for k, v in seen.items() if len(v) > 1}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in bench["end_to_end"] + bench["per_layer"]}
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    if not runs_a or not runs_b:
        print("compare.py: no result files in one of the sets", file=sys.stderr)
        return 2

    failed = False
    diffs = identity_failures(runs_a + runs_b)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        counts = [(sum(r["workload"] == workload and not r["traced"]
                       for r in runs),
                   sum(r["workload"] == workload and r["traced"]
                       for r in runs))
                  for runs in (runs_a, runs_b)]
        if not sum(counts[0]) or not sum(counts[1]):
            continue
        print(f"\n== {workload} (runs untraced + traced: "
              f"A {counts[0][0]} + {counts[0][1]}, "
              f"B {counts[1][0]} + {counts[1][1]})")
        print(f"{'metric':30} {'unit':10} {'A median [q1, q3]':34} "
              f"{'B median [q1, q3]':34} {'change':>8}  verdict")
        names = []
        for r in runs_a + runs_b:
            if r["workload"] == workload:
                names += [n for n in r["metrics"] if n not in names]
        for name in names:
            first = next(r["metrics"][name] for r in runs_a + runs_b
                         if r["workload"] == workload and name in r["metrics"])
            kind, unit = first["kind"], first["unit"]
            traced = kind == "layer_host"
            a = values_of(runs_a, workload, name, traced)
            b = values_of(runs_b, workload, name, traced)
            if kind == "layer_exact":
                a = a or values_of(runs_a, workload, name, True)
                b = b or values_of(runs_b, workload, name, True)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "-"
            if kind == "end_to_end" and name in bounds:
                bound = bounds[name]["bound"]
                verdict = judge(a, b, bound, lower.get(name, True))
                verdict += f" (bound {bound:.0%})"
                failed |= verdict.startswith("REGRESSION")
            elif kind == "layer_exact":
                bad = [k for k in diffs if k[0] == workload and k[3] == name]
                verdict = "DIFFERS" if bad else "identical"
                failed |= bool(bad)
            else:
                verdict = "-"
            print(f"{name:30} {unit:10} {fmt(a):34} {fmt(b):34} "
                  f"{change:>8}  {verdict}")

    for (workload, seed, scale, name), vals in sorted(diffs.items()):
        print(f"DIFFERS: {workload} seed {seed} scale {scale} {name}: "
              f"{sorted(vals)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
