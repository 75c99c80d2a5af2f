"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload check,exact --seeds 1-10

Runs ``perfbench/run.py`` once per seed and workload, one run at a time;
with several workloads it runs every workload for one seed before the
next seed, so that a spell of faster or slower machine speed falls on a
few runs of each workload rather than on most runs of one.  It prints
for each workload and end-to-end metric its median and the distance
between its first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the bound in BENCHMARK.json.
It also prints each run's elapsed time and the share of failed
operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, type=lambda t: t.split(","),
                        help="one workload, or several separated by commas")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[tuple[str, str], list[float]] = {}
    for seed in args.seeds:
        for workload in args.workload:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"elapsed={elapsed:.1f}s "
                  + " ".join(f"{n}={m['value']:.4f}"
                             for n, m in result["metrics"].items()),
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, name), vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "n/a"
        print(f"{workload} {name}: median {median:.4f} "
              f"iqr/median {spread} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
