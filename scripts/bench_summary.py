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

    python3 scripts/bench_summary.py --parent ../parent --pairs 10 \
        --workload search exact --seeds 41 42 43 44 45 46 47 48 49 50

compares this checkout with the parent checkout in DIR instead: for each
named workload in turn it runs N pairs of untraced ``perfbench/run.py``
runs, one run on each side per pair, alternating which side goes first,
so that a drift in the machine's load falls on both sides alike.  Pair i
takes seed ``seeds[i % len(seeds)]``.  For every end-to-end metric it
prints each side's median and quartiles and the number of pairs the
change wins (ties count for neither side), and whether that shows a
gain: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's quartile distance.  It ends with one
row per workload: each metric's medians and their relative change, so
that a check for regressions on every workload is one command.
``--out`` then writes the records as JSON, keyed by workload.
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


def compare(parent: Path, change: Path, workload: str, pairs: int,
            seeds: list[int], seconds: float) -> dict:
    """N interleaved parent/change pairs of one workload (see the module
    docstring)."""
    sides = {"parent": parent, "change": change}
    results: dict[str, list[dict]] = {side: [] for side in sides}
    envs: dict[str, set[tuple]] = {side: set() for side in sides}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            env, result = run_bench(sides[side], workload, seed, seconds, 0)
            envs[side].add((env["git_sha"], env["source_sha256"]))
            results[side].append(result)
        print(f"pair {i + 1}/{pairs} seed {seed}: wall_s parent "
              f"{results['parent'][-1]['metrics']['wall_s']['value']:.4f} s, "
              f"change {results['change'][-1]['metrics']['wall_s']['value']:.4f} s",
              file=sys.stderr)
    if any(len(shas) != 1 for shas in envs.values()):
        raise RuntimeError("the package sources changed during the runs")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0
                   for p, c in zip(values["parent"], values["change"]))
        record = {side: spread(vals) for side, vals in values.items()}
        parent_iqr = record["parent"]["q3"] - record["parent"]["q1"]
        gain = sign * (record["parent"]["median"] - record["change"]["median"])
        record.update(unit=metric["unit"], better=metric["better"],
                      change_wins=wins,
                      gain_shown=wins >= 0.9 * pairs and gain > parent_iqr)
        metrics[name] = record
    return {"workload": workload, "pairs": pairs, "seconds": seconds,
            "seeds": [seeds[i % len(seeds)] for i in range(pairs)],
            **{side: {**dict(zip(("git_sha", "source_sha256"),
                                 envs[side].pop())),
                      "correct": all(r["correct"] for r in results[side]),
                      "failed": sum(r["failed"] for r in results[side]),
                      "attempted": sum(r["attempted"] for r in results[side])}
               for side in sides},
            "metrics": metrics}


def print_comparison(record: dict) -> None:
    print(f"{record['workload']}: {record['pairs']} pairs of "
          f"{record['seconds']:g} s runs, seeds {record['seeds']}")
    for side in ("parent", "change"):
        info = record[side]
        print(f"  {side}: sources {info['source_sha256'][:12]}, git "
              f"{(info['git_sha'] or 'none')[:10]}, correct {info['correct']}, "
              f"failed {info['failed']} of {info['attempted']}")
    for name, m in record["metrics"].items():
        cells = [f"{side} {m[side]['median']:.4g} "
                 f"[{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]"
                 for side in ("parent", "change")]
        print(f"  {name} ({m['unit']}, {m['better']} is better): "
              f"{'; '.join(cells)}; change wins {m['change_wins']} of "
              f"{record['pairs']}; gain shown: {m['gain_shown']}")


def comparison_row(record: dict) -> str:
    """One line for a workload: each end-to-end metric's parent and change
    medians, the relative change and the change's wins."""
    cells = []
    for name, m in record["metrics"].items():
        parent, change = m["parent"]["median"], m["change"]["median"]
        rel = f"{(change - parent) / parent:+.1%}" if parent else "n/a"
        cells.append(f"{name} {parent:.4g} -> {change:.4g} ({rel}, "
                     f"{m['change_wins']}/{record['pairs']})")
    return f"{record['workload']}: " + "; ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        help="the JSON file to write; required without --parent")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="the checkout to measure")
    parser.add_argument("--parent", type=Path,
                        help="a checkout of the parent commit to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+",
                        help="the workloads to compare, one after another")
    args = parser.parse_args()
    if args.parent is None:
        if args.out is None:
            parser.error("--out is required without --parent")
        summary = summarise(args.root.resolve(), args.seeds, args.seconds)
    else:
        if args.workload is None or args.pairs < 1:
            parser.error("--parent needs --workload and --pairs of at least 1")
        summary = {}
        for workload in args.workload:
            summary[workload] = compare(args.parent.resolve(), args.root.resolve(),
                                        workload, args.pairs, args.seeds, args.seconds)
            print_comparison(summary[workload])
        for record in summary.values():
            print(comparison_row(record))
        if args.out is None:
            return 0
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
