"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads analyze,scan] \
        [--out bench/results/<name>.json]

For every end-to-end metric in ``BENCHMARK.json`` this prints the median of
the per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  A spread above the bound (``setup_s`` excepted) means
two sets of runs of the same code could disagree by more than the bound;
the benchmark aims to keep every spread below a third of it.  ``--out``
records the environment, every run's values and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    record = {"seeds": seeds, "run_seconds": spec["run_seconds"], "trace": args.trace,
              "env": None, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            result, env = run_once(spec, w, seed, args.trace)
            record["env"] = record["env"] or env
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            ok &= result["correct"]
        summary = {}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            summary[name] = summarise(values) if len(values) >= 2 else None
        record["workloads"][w] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if s is None:
                continue
            bound = bounds[name]
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if s["spread"] < bound / 3 else
                           "within bound" if s["spread"] <= bound else "TOO WIDE")
                ok &= s["spread"] <= bound
            print(f"  {w:10s} {name:16s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={bound} {verdict}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
