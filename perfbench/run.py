"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The run sets up hppcheck (median of several fresh processes
for ``setup_s``), then runs whole rounds of the workload's operations
until ``--seconds`` have passed, checking every output.  A traced run
does one untraced round and then one traced round.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details, and a
record of the run's environment, go to ``perfbench/results/``.
"""

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 7

# one fresh interpreter's set-up: import every module the CLI imports, build
# the catalog, load the shipped certificate store; prints its own time
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hppcheck.cli
from hppcheck import catalog, certificate
catalog.catalog()
certificate.load_store(certificate.shipped_store_dir())
print(time.perf_counter() - t0)
"""

_MODULES = ("polynomial", "rayleigh", "matroid", "catalog", "certificate",
            "checker", "sos_search", "sampler")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# counts that depend only on the code, never on the seed or the clock
_REPEATING = ("checker.report_nodes", "sos_search.iterations", "sampler.points")


def measure_setup() -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def import_library():
    sys.path.insert(0, str(SRC))
    import importlib
    import hppcheck.cli  # noqa: F401  (the CLI's imports, as set-up times them)
    modules = {name: importlib.import_module(f"hppcheck.{name}") for name in _MODULES}
    where = Path(modules["polynomial"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"hppcheck imported from {where}, not from {SRC}")
    return modules


def source_digest() -> str:
    """sha256 over the package sources and data, standing in for a commit
    id where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hppcheck").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(digest: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    return {"git_sha": sha, "source_sha256": digest,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.nodes: list[int] = []
        self.report_bytes = 0


def untimed(tracer, fn, *args):
    """Run an operation's set-up or output check; a traced pass drops the
    spans it records, which are not the operation's work."""
    mark = len(tracer.spans) if tracer else 0
    result = fn(*args)
    if tracer:
        del tracer.spans[mark:]
    return result


def examine(op, out, tally: Tally, traced: bool) -> int:
    """Check one output; returns its report's node count.  A traced pass
    also sizes the report as check-hpp --format structured writes it."""
    problem = op.check(out)
    if problem:
        tally.problems.append(f"{op.name}: {problem}")
    report = op.report(out)
    if report is None:
        return 0
    if traced:
        tally.report_bytes += len(json.dumps(report.to_dict(), indent=2))
    return workloads.report_nodes(report)


def run_round(ops, tally: Tally, times: dict, tracer=None) -> float:
    """One pass over every operation; returns the summed operation time."""
    total = 0.0
    nodes = 0
    tally.report_bytes = 0
    for op in ops:
        untimed(tracer, op.prepare)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - start
            tally.failed += 1
            tally.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            nodes += untimed(tracer, examine, op, out, tally, tracer is not None)
        times.setdefault(op.name, []).append(elapsed)
        total += elapsed
    tally.nodes.append(nodes)
    return total


def check_repeats(workload_name: str, digest: str, counts: dict) -> list[str]:
    """Counts that must repeat exactly: compare with every earlier run of
    the same source in this checkout, and record them for later runs."""
    path = RESULTS / "counts.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload_name}@{digest}"
    problems = []
    earlier = record.get(key, {})
    for name, value in counts.items():
        if name in earlier and earlier[name] != value:
            problems.append(f"{name} is {value}, an earlier run of the same "
                            f"source counted {earlier[name]}")
        earlier.setdefault(name, value)
    record[key] = earlier
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hppcheck" / "__init__.py").is_file():
        print(f"error: no hppcheck sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    setup_times = [] if args.trace else [measure_setup() for _ in range(SETUP_SAMPLES)]
    modules = import_library()
    digest = source_digest()
    RESULTS.mkdir(exist_ok=True)
    lib = workloads.Library(modules)
    lib.setup()
    rng = random.Random(args.seed)
    ops = workloads.WORKLOADS[args.workload](lib, rng)
    tally = Tally()
    tally.problems += [f"oracle self-test: {p}" for p in workloads.self_test(lib, rng)]
    times: dict[str, list[float]] = {}

    started = time.perf_counter()
    run_round(ops, tally, times)
    # another round only when it should end within --seconds, at the mean
    # round length so far: a run's length stays near --seconds, and a round
    # longer than half of it runs once
    while not args.trace:
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(tally.nodes) > args.seconds:
            break
        run_round(ops, tally, times)
    rounds = len(tally.nodes)
    # per operation, the median over the run's rounds; summed over operations
    wall_s = sum(statistics.median(t) for t in times.values())

    if args.trace:
        # the untraced round above gives the overhead's base; the traced
        # round repeats the set-up pieces, then the same operations
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            modules["catalog"]._cache.clear()
            modules["catalog"].catalog()
            cert = modules["certificate"]
            cert.load_store(cert.shipped_store_dir())
            traced_wall = run_round(ops, tally, {}, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
        metrics["checker.report_nodes"] = tally.nodes[-1]
        metrics["checker.report_kb"] = tally.report_bytes / 1024
        metrics["trace.overhead_s"] = traced_wall - wall_s
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {"wall_s": wall_s,
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END

    if len(set(tally.nodes)) > 1:
        tally.problems.append(f"checker.report_nodes differs between rounds: {tally.nodes}")
    repeat_counts = {"checker.report_nodes": tally.nodes[0]}
    if args.trace:
        repeat_counts.update({k: metrics[k] for k in _REPEATING})
    repeat_problems = check_repeats(args.workload, digest, repeat_counts)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "environment": environment(digest),
              "setup_samples_s": setup_times, "operation_s": times,
              "failures": tally.failures, "problems": tally.problems + repeat_problems,
              "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"environment": detail["environment"], "rounds": rounds,
                      "failures": tally.failures}))
    for problem in tally.problems + repeat_problems:
        print(f"problem: {problem}", file=sys.stderr)
    if repeat_problems:
        print("error: a count that must repeat exactly did not", file=sys.stderr)
        return 3

    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
