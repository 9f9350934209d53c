#!/usr/bin/env python3
"""Steadiness evidence for the hybench benchmark.

Run from the repository root.

  python3 hybench/steady.py runs --workload sim_spec --seeds 1-10 --out hybench/evidence/x.json
      Runs the benchmark command from BENCHMARK.json once per seed and
      records every end-to-end metric with its median, quartiles and
      spread (quartile distance as a share of the median, as
      statistics.quantiles(values, n=4) gives the quartiles).

      With --series DIR, the first three runs also write their
      per-operation series to DIR/<workload>-<seed>.txt.

  python3 hybench/steady.py compare FIRST.json SECOND.json
      Compares two run sets of one workload: each metric's medians, how
      much worse the second is than the first as a share of the first
      (by the metric's direction in BENCHMARK.json), and the bound.

  python3 hybench/steady.py candidates FILE...
      Reads per-operation series written by `--series` (one file per run)
      and shows, for each candidate per-run statistic, its value in every
      run relative to the median and its quartile spread across runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
    }


def runs(args):
    bench = json.load(open("BENCHMARK.json"))
    results = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or bench["run_seconds"]), "--trace", "0",
        ]
        if args.series and len(results) < 3:
            cmd += ["--series", f"{args.series}/{args.workload}-{seed}.txt"]
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        wall = time.time() - t0
        last = json.loads(out.stdout.strip().splitlines()[-1])
        row = {"seed": seed, "started": t0, "wall_s": wall, "correct": last["correct"],
               "attempted": last["attempted"], "failed": last["failed"],
               "metrics": {k: v["value"] for k, v in last["metrics"].items()}}
        results.append(row)
        print(json.dumps(row), flush=True)
    names = list(results[0]["metrics"])
    summary = {n: spread([r["metrics"][n] for r in results]) for n in names}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for n, s in summary.items():
        s["bound"] = bounds.get(n)
        print(f"{n:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}  bound {s['bound']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": results, "summary": summary}, f, indent=1)


def compare(args):
    bench = json.load(open("BENCHMARK.json"))
    first, second = (json.load(open(p)) for p in (args.first, args.second))
    print(f"{first['workload']}: {args.first} vs {args.second}")
    for m in bench["end_to_end"]:
        a = first["summary"][m["name"]]
        b = second["summary"][m["name"]]
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if m["better"] == "lower" else -change
        print(f"  {m['name']:16s} {a['median']:.6g} -> {b['median']:.6g}  worse by {worse:+.4f}"
              f"  spreads {a['spread']:.4f} / {b['spread']:.4f}  bound {m['bound']}")


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def pooled(by_kind, q):
    """Pooled low quantile of slowdowns against each kind's median."""
    medians = [statistics.median(t) for t in by_kind]
    slow = [t / m for times, m in zip(by_kind, medians) for t in times]
    return quantile(slow, q) * sum(medians)


def best_window(rows, kinds, width):
    """Fastest `width`-second window's summed per-kind medians."""
    best = float("inf")
    for i in range(int(rows[-1][0] // width) + 1):
        times = [[c for t, k, c in rows if k == kind and i * width <= t < (i + 1) * width]
                 for kind in range(kinds)]
        if all(times):
            best = min(best, sum(statistics.median(t) for t in times))
    return best


def candidates(args):
    runs = []
    for path in args.files:
        rows = []
        for line in open(path):
            t, kind, secs = line.split()[:3]
            rows.append((float(t), int(kind), float(secs)))
        runs.append(rows)
    kinds = max(k for _, k, _ in runs[0]) + 1
    by_kind = [[[c for _, k, c in rows if k == kind] for kind in range(kinds)] for rows in runs]
    cands = [("total / total", lambda r, b: sum(map(sum, b)) / len(r) * kinds)]
    for q in (0.0, 0.05, 0.1, 0.5):
        cands.append((f"per-kind p{int(q * 100):02d}",
                      lambda r, b, q=q: sum(quantile(t, q) for t in b)))
    for q in (0.0, 0.05):
        cands.append((f"pooled p{int(q * 100):02d}", lambda r, b, q=q: pooled(b, q)))
    for w in (0.5, 2.0):
        cands.append((f"best {w} s window", lambda r, b, w=w: best_window(r, kinds, w)))
    for name, stat in cands:
        vals = [stat(r, b) for r, b in zip(runs, by_kind)]
        s = spread(vals)
        rel = " ".join(f"{v / s['median']:.3f}" for v in vals)
        print(f"{name:20s} spread {s['spread']:.3f}  runs {rel}")


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=seeds_arg, required=True)
    r.add_argument("--seconds", type=int)
    r.add_argument("--out")
    r.add_argument("--series")
    m = sub.add_parser("compare")
    m.add_argument("first")
    m.add_argument("second")
    c = sub.add_parser("candidates")
    c.add_argument("files", nargs="+")
    args = p.parse_args()
    {"runs": runs, "compare": compare, "candidates": candidates}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
