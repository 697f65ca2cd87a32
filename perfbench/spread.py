"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 55 [--out FILE] WORKLOAD...

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
reports for each metric the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  With ``--out``
it also writes every run's result line and the spreads as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            wall = time.monotonic() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        names = runs[0]["metrics"]
        spreads = {k: spread([r["metrics"][k]["value"] for r in runs]) for k in names}
        record["workloads"][workload] = {"spreads": spreads, "runs": runs}
        for k, s in spreads.items():
            within = s["iqr_over_median"] <= bounds[k] / 3
            ok &= within or k == "setup_s"
            print(f"{workload:<14} {k:<14} median {s['median']:10.4f}  iqr/median "
                  f"{s['iqr_over_median']:.3f}  bound/3 {bounds[k] / 3:.3f}"
                  f"{'' if within else '  WIDE'}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
