"""The paired mode of scripts/bench_summary.py, with the benchmark runs
replaced by fixed results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_summary", ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_runs(monkeypatch, module, wall):
    """Replace `run_bench`: side s's i-th run reads wall[s][i] seconds,
    and every other metric 1.0.  Returns the (side, seed) of each call."""
    calls = []

    def run_bench(root, workload, seed, seconds, trace):
        side = "parent" if root.name == "parent" else "change"
        value = wall[side][sum(s == side for s, _ in calls)]
        calls.append((side, seed))
        metrics = {"wall_s": value, "setup_s": 1.0, "peak_rss_mb": 1.0}
        return ({"git_sha": None, "source_sha256": side},
                {"correct": True, "failed": 0, "attempted": 3,
                 "metrics": {k: {"value": v} for k, v in metrics.items()}})

    monkeypatch.setattr(module, "run_bench", run_bench)
    return calls


def test_pairs_alternate_and_count_wins(monkeypatch):
    module = _load()
    wall = {"parent": [1.0, 1.1, 0.9, 1.0], "change": [0.5, 1.1, 0.6, 1.2]}
    calls = _fake_runs(monkeypatch, module, wall)
    record = module.compare(Path("parent"), ROOT, "search", 4, [7, 8, 9], 1.0)
    assert calls == [("parent", 7), ("change", 7), ("change", 8),
                     ("parent", 8), ("parent", 9), ("change", 9),
                     ("change", 7), ("parent", 7)]
    assert record["seeds"] == [7, 8, 9, 7]
    wall_s = record["metrics"]["wall_s"]
    # a tie counts for neither side
    assert wall_s["change_wins"] == 2
    assert wall_s["parent"]["runs"] == wall["parent"]
    assert wall_s["parent"]["median"] == pytest.approx(1.0)
    assert not wall_s["gain_shown"]
    assert record["metrics"]["setup_s"]["change_wins"] == 0
    assert record["parent"]["attempted"] == 12 and record["change"]["correct"]


PARENT = [0.9, 0.9, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.1, 1.1]


@pytest.mark.parametrize("change,shown", [
    # nine wins in ten, medians 0.4 apart, parent quartiles 0.15 apart
    ([0.6] * 9 + [1.5], True),
    # eight wins in ten
    ([0.6] * 8 + [1.5, 1.5], False),
    # ten wins, but the medians differ by less than the quartile distance
    ([p - 0.01 for p in PARENT], False),
])
def test_gain_rule(monkeypatch, change, shown):
    module = _load()
    _fake_runs(monkeypatch, module, {"parent": PARENT, "change": change})
    record = module.compare(Path("parent"), ROOT, "search", 10, [1], 1.0)
    wall_s = record["metrics"]["wall_s"]
    assert wall_s["parent"]["q3"] - wall_s["parent"]["q1"] == pytest.approx(0.15)
    assert wall_s["gain_shown"] is shown


def test_several_workloads_one_row_each(monkeypatch, capsys, tmp_path):
    module = _load()
    calls = []

    def run_bench(root, workload, seed, seconds, trace):
        side = "parent" if root.name == "parent" else "change"
        calls.append((workload, side))
        wall = {"parent": 1.0, "change": 0.8 if workload == "exact" else 1.0}[side]
        metrics = {"wall_s": wall, "setup_s": 1.0, "peak_rss_mb": 1.0}
        return ({"git_sha": None, "source_sha256": side},
                {"correct": True, "failed": 0, "attempted": 3,
                 "metrics": {k: {"value": v} for k, v in metrics.items()}})

    monkeypatch.setattr(module, "run_bench", run_bench)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr("sys.argv", [
        "bench_summary.py", "--parent", str(tmp_path / "parent"), "--pairs", "3",
        "--workload", "check", "exact", "--seeds", "5", "--out", str(out)])
    assert module.main() == 0
    # each workload's pairs run in turn, alternating the side that goes first
    alternating = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(w, side) for w in ("check", "exact") for side in alternating]
    rows = capsys.readouterr().out.splitlines()[-2:]
    assert rows[0].startswith("check: wall_s 1 -> 1 (+0.0%, 0/3)")
    assert rows[1].startswith("exact: wall_s 1 -> 0.8 (-20.0%, 3/3)")
    assert "setup_s 1 -> 1 (+0.0%, 0/3)" in rows[1]
    records = json.loads(out.read_text())
    assert list(records) == ["check", "exact"]
    assert records["exact"]["metrics"]["wall_s"]["change_wins"] == 3
