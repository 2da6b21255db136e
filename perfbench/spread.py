"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --first-seed 101 --out A.json
    python3 perfbench/spread.py --compare A.json B.json

Each of ROUNDS rounds runs every workload of BENCHMARK.json once through
``run.py`` with the round's seed, rotating the workload order from round to
round so that a slow host period lands on all of them.  For each workload and metric it prints the
median and the quartile spread (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json, and the same for the plain wall-clock medians of the
provenance line, which have no bound.  ``--compare`` prints how far the second set's medians sit
from the first's, as a share of the first, in the worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10  # seeds first_seed .. first_seed + ROUNDS - 1


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def collect(first_seed, workloads, seconds):
    values = {w: {} for w in workloads}
    for r in range(ROUNDS):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(first_seed + r), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            prov, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect result %s" % (w, first_seed + r, result))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, v in prov["raw_medians"].items():
                values[w].setdefault(name, []).append(v)
            print("round %d %s %s" % (r, w, {k: round(v["value"], 4)
                                             for k, v in result["metrics"].items()}),
                  flush=True)
    return values


def summary(values, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name not in bounds:  # wall-clock figures, for comparison
                print("%-11s %-16s median %-12.6g spread %.4f" % (w, name, med, spread))
                continue
            print("%-11s %-16s median %-12.6g spread %.4f  bound %.2f  %s" % (
                w, name, med, spread, bounds[name],
                "ok" if spread < bounds[name] / 3 else "WIDE"))


def compare(a, b, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in a:
        for name in (n for n in a[w] if n in better):
            m1, m2 = statistics.median(a[w][name]), statistics.median(b[w][name])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            print("%-11s %-16s %-12.6g -> %-12.6g worse by %+.4f  bound %.2f  %s" % (
                w, name, m1, m2, worse, bounds[name],
                "ok" if worse <= bounds[name] else "OVER"))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--compare", nargs=2, default=None)
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        compare(a, b, spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    values = collect(args.first_seed, names, spec["run_seconds"])
    if args.out:
        Path(args.out).write_text(json.dumps(values))
    summary(values, spec)


if __name__ == "__main__":
    main()
