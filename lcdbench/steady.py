"""Steadiness of the benchmark: one workload run N times, one run at a time.

    python3 lcdbench/steady.py --workload estimate_warm --runs 10 --first-seed 1 --label a
    python3 lcdbench/steady.py --report lcdbench/raw/steady/a-estimate_warm.json
    python3 lcdbench/steady.py --compare lcdbench/raw/steady/a-estimate_warm.json \\
                                         lcdbench/raw/steady/b-estimate_warm.json

The first form runs `run.py` with seeds first-seed .. first-seed+N-1 and
the run length from BENCHMARK.json, then prints for each end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound, plus the failed
share of every run. The set is saved under lcdbench/raw/steady/, and
`--report` prints the same table again from the saved file.

`--compare` compares two saved sets: the shift of each median, as a
share of the first median in the metric's worse direction, against the
bound, and whether the failed shares are identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "raw", "steady")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def run_set(workload, runs, first_seed, label, seconds):
    results = []
    for seed in range(first_seed, first_seed + runs):
        res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=900)
        if res.returncode != 0:
            sys.exit(f"seed {seed}: exit {res.returncode}\n{res.stdout[-2000:]}{res.stderr[-2000:]}")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
              + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}", flush=True)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{label}-{workload}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "label": label, "seconds": seconds, "results": results}, fh, indent=1)
    return path


def report(path, spec):
    with open(path) as fh:
        data = json.load(fh)
    results = data["results"]
    print(f"{data['workload']} set {data['label']}: {len(results)} runs, seeds "
          f"{results[0]['seed']}..{results[-1]['seed']}, {data['seconds']} s each")
    print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3, sp = spread(vals)
        print(f"  {m['name']:<12} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {sp:>8.4f} {m['bound']:>6.3f} "
              f"{sp / m['bound']:>12.3f}")
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
    exact = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {', '.join(shares)} ({'identical' if len(exact) == 1 else 'DIFFERENT'})"
          f"; all correct: {all(r['correct'] for r in results)}")


def compare(path_a, path_b, spec):
    sets = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sets.append(json.load(fh))
    a, b = sets
    print(f"{a['workload']}: set {a['label']} vs set {b['label']}")
    for m in spec["end_to_end"]:
        ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a["results"])
        mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b["results"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        print(f"  {m['name']:<12} {ma:>11.5g} {mb:>11.5g} worse by {worse:>+8.4f} bound {m['bound']:.3f} "
              f"{'ok' if worse <= m['bound'] else 'EXCEEDED'}")
    fa = {r["failed"] / r["attempted"] for r in a["results"]}
    fb = {r["failed"] / r["attempted"] for r in b["results"]}
    print(f"  failed shares: {sorted(fa)} vs {sorted(fb)} ({'identical' if fa == fb and len(fa) == 1 else 'DIFFERENT'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="set")
    parser.add_argument("--report", metavar="SET_JSON", help="print the table of a saved set")
    parser.add_argument("--compare", nargs=2, metavar="SET_JSON")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
    elif args.report:
        report(args.report, spec)
    else:
        if not args.workload:
            parser.error("--workload is required to run a set")
        path = run_set(args.workload, args.runs, args.first_seed, args.label, spec["run_seconds"])
        report(path, spec)


if __name__ == "__main__":
    main()
