"""Summarise the benchmark of a checkout into one BENCH_<n>.json file.

    python3 scripts/bench_summary.py --out BENCH_22.json --seeds 1 2 3 4 5

For every workload in BENCHMARK.json, runs ``perfbench/run.py`` once per
seed (``--trace 0``) and once traced (``--trace 1``, the first seed), each
in a fresh process from the root of the checkout given by ``--root`` (by
default the one holding this script).  The file holds, per workload, the
median and quartiles over the seeds of every end-to-end metric, the run
count and failed operations, and the traced counts (the per-layer metrics
whose unit is ``count``).  It also records the checkout's git sha, whether
its tree had uncommitted changes, and the sha256 of its package sources
that ``perfbench/run.py`` reports, so a summary of a working tree can be
matched to the commit that holds the same sources.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]


def run_bench(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run; returns (environment, result)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    *_, env_line, result_line = done.stdout.strip().splitlines()
    return json.loads(env_line)["environment"], json.loads(result_line)


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method) of the runs, with the
    runs themselves; one run is its own quartiles."""
    q1, median, q3 = values * 3 if len(values) == 1 else statistics.quantiles(
        values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def summarise(root: Path, seeds: list[int], seconds: float) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    workloads = {}
    sources = set()
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            env, result = run_bench(root, workload, seed, seconds, trace=0)
            sources.add(env["source_sha256"])
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  f"{result['metrics']['wall_s']['value']:.3f} s",
                  file=sys.stderr)
        env, traced = run_bench(root, workload, seeds[0], seconds, trace=1)
        sources.add(env["source_sha256"])
        summary = {m["name"]: spread([r["metrics"][m["name"]]["value"]
                                      for r in runs])
                   for m in spec["end_to_end"]}
        summary["correct"] = all(r["correct"] for r in runs + [traced])
        summary["failed"] = sum(r["failed"] for r in runs)
        summary["attempted"] = sum(r["attempted"] for r in runs)
        summary["traced"] = {name: traced["metrics"][name]["value"]
                             for name in counts}
        workloads[workload] = summary
    if len(sources) != 1:
        raise RuntimeError("the package sources changed during the runs")
    return {"git_sha": git(root, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(git(root, "status", "--porcelain")),
            "source_sha256": sources.pop(),
            "seeds": seeds, "seconds": seconds, "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="the checkout to measure")
    args = parser.parse_args()
    summary = summarise(args.root.resolve(), args.seeds, args.seconds)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
