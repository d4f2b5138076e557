#!/usr/bin/env bash
# Runs one benchmark workload in two trees, in alternated order, and prints
# the end-to-end metrics of every run, each side's median and quartiles, and
# the pairs each side won per metric:
#
#   ci/bench-pairs.sh TREE_A TREE_B WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# TREE_A is the baseline (say, a clone of the parent commit) and TREE_B the
# change; defaults are 10 pairs of 28 s runs on seed 1. Pair i runs A first
# when i is even and B first when i is odd. Each run is
# `python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0` from inside its tree, so each tree measures its own src/ and
# writes only its own .perfbench-out/. A side wins a pair on a metric when it
# is strictly better by that metric's direction in BENCHMARK.json; ties
# count for neither.
set -euo pipefail
a=$(cd "${1:?usage: ci/bench-pairs.sh TREE_A TREE_B WORKLOAD [PAIRS] [SECONDS] [SEED]}" && pwd)
b=$(cd "${2:?missing TREE_B}" && pwd)
workload=${3:?missing WORKLOAD}
pairs=${4:-10}
seconds=${5:-28}
seed=${6:-1}

run() {   # the result JSON, the last line of one run
    (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
}

results=""
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
    for side in $order; do
        if [ "$side" = A ]; then tree=$a; else tree=$b; fi
        results+="$i $side $(run "$tree")"$'\n'
    done
done

python3 - "$a/BENCHMARK.json" "$workload" "$a" "$b" "$results" <<'PY'
import json, statistics, sys

bench_json, workload, tree_a, tree_b, lines = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench_json))["end_to_end"]}
runs = {}    # (pair, side) -> result
for line in lines.splitlines():
    pair, side, result = line.split(" ", 2)
    runs[int(pair), side] = json.loads(result)
pairs = sorted({p for p, _ in runs})
print(f"workload {workload}, {len(pairs)} pairs, A = {tree_a}, B = {tree_b}")
print("pair side failed/attempted " + " ".join(better))
for p in pairs:
    for side in ("A", "B"):
        r = runs[p, side]
        values = " ".join(f"{r['metrics'][name]['value']:.6g}" for name in better)
        print(f"{p:4d} {side:4s} {r['failed']}/{r['attempted']} {values}")
print("metric: side median [q1, q3]; pairs won by A, by B")
for name, direction in better.items():
    sides = {s: [runs[p, s]["metrics"][name]["value"] for p in pairs] for s in ("A", "B")}
    stats = []
    for s, xs in sides.items():
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        stats.append(f"{s} {statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]")
    sign = 1 if direction == "higher" else -1
    won = [sum(1 for x, y in zip(sides[s], sides[o]) if sign * (x - y) > 0)
           for s, o in (("A", "B"), ("B", "A"))]
    print(f"{name}: " + "; ".join(stats) + f"; won A {won[0]}, B {won[1]}")
PY
