"""Spans recorded from outside the program, and the per-layer metrics.

`Tracer.install` replaces public functions of hppcheck with wrappers.  A
name imported with ``from ... import`` is replaced where it is looked up
(for example ``checker.rayleigh_diff_multiaffine`` as well as
``rayleigh.rayleigh_diff_multiaffine``).  Each wrapper appends one span
``(name, start, end, parent, outcome)`` to a list in memory; `write`
saves the list when the run ends.  `layer_metrics` turns the spans into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# span name -> metric group; a group's calls and time count only the spans
# that have no ancestor in the same group, so recursion and one wrapped
# function calling another of its group are not counted twice
GROUPS = {
    "Matroid.canonical_key": "matroid.canonical_key",
    "Matroid.is_isomorphic": "matroid.iso",
    "Matroid.delete": "matroid.minor",
    "Matroid.contract": "matroid.minor",
    "Matroid.basis_polynomial": "matroid.basis_polynomial",
    "StrongRayleighChecker.check": "checker.check",
    "replay_report": "checker.replay",
    "Polynomial.__mul__": "polynomial.mul",
    "Polynomial.eval_rational": "polynomial.eval_rational",
    "rayleigh_diff": "rayleigh.diff",
    "rayleigh_diff_multiaffine": "rayleigh.diff",
    "quad_decompose": "rayleigh.disc",
    "discriminant": "rayleigh.disc",
    "discriminant_symmetric_form": "rayleigh.disc",
    "load_store": "certificate.load",
    "verify": "certificate.verify",
    "search_certificate": "sos_search.search_certificate",
    "search": "sos_search.search",
    "jacobi_eigh": "sos_search.eigh",
    "rationalize_and_verify": "sos_search.round",
    "ldlt_psd": "sos_search.ldlt",
    "falsify": "sampler.falsify",
    "catalog": "catalog.build",
}

# metric name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "matroid.canonical_key_calls": ("count", "lower"),
    "matroid.canonical_key_s": ("s", "lower"),
    "matroid.iso_calls": ("count", "lower"),
    "matroid.iso_s": ("s", "lower"),
    "matroid.iso_hit_ratio": ("ratio", "higher"),
    "matroid.minor_calls": ("count", "lower"),
    "matroid.minor_s": ("s", "lower"),
    "matroid.basis_polynomial_s": ("s", "lower"),
    "checker.self_s": ("s", "lower"),
    "checker.replay_s": ("s", "lower"),
    "checker.report_nodes": ("count", "lower"),
    "checker.report_kb": ("KB", "lower"),
    "polynomial.mul_calls": ("count", "lower"),
    "polynomial.mul_s": ("s", "lower"),
    "polynomial.eval_rational_calls": ("count", "lower"),
    "polynomial.eval_rational_s": ("s", "lower"),
    "rayleigh.diff_calls": ("count", "lower"),
    "rayleigh.diff_s": ("s", "lower"),
    "rayleigh.disc_calls": ("count", "lower"),
    "rayleigh.disc_s": ("s", "lower"),
    "certificate.load_s": ("s", "lower"),
    "certificate.verify_calls": ("count", "lower"),
    "certificate.verify_s": ("s", "lower"),
    "sos_search.iterations": ("count", "lower"),
    "sos_search.eigh_s": ("s", "lower"),
    "sos_search.ms_per_iteration": ("ms", "lower"),
    "sos_search.project_s": ("s", "lower"),
    "sos_search.round_calls": ("count", "lower"),
    "sos_search.round_s": ("s", "lower"),
    "sos_search.round_success_ratio": ("ratio", "higher"),
    "sos_search.ldlt_calls": ("count", "lower"),
    "sos_search.ldlt_s": ("s", "lower"),
    "sos_search.face_s": ("s", "lower"),
    "sampler.falsify_s": ("s", "lower"),
    "sampler.points": ("count", "lower"),
    "sampler.points_per_s": ("1/s", "higher"),
    "catalog.build_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _found(result) -> bool:
    return result is not None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, outcome=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.
        outcome(result) -> bool, when given, is stored with the span."""
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                None if outcome is None else bool(outcome(result)))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, counter: str, weight) -> None:
        """Replace owner.attr by a wrapper that only adds weight(*args) to a
        counter (used where a span per call would cost more than the call)."""
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += weight(*args)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, modules) -> None:
        """Wrap the public functions of every measured layer."""
        m = modules
        matroid = m["matroid"].Matroid
        self.wrap(matroid, "canonical_key", "Matroid.canonical_key")
        self.wrap(matroid, "is_isomorphic", "Matroid.is_isomorphic", outcome=_found)
        self.wrap(matroid, "delete", "Matroid.delete")
        self.wrap(matroid, "contract", "Matroid.contract")
        self.wrap(matroid, "basis_polynomial", "Matroid.basis_polynomial")
        self.wrap(m["checker"].StrongRayleighChecker, "check",
                  "StrongRayleighChecker.check")
        self.wrap(m["checker"], "replay_report", "replay_report")
        polynomial = m["polynomial"].Polynomial
        self.wrap(polynomial, "__mul__", "Polynomial.__mul__")
        self.wrap(polynomial, "eval_rational", "Polynomial.eval_rational")
        for mod in ("rayleigh", "sampler"):
            self.wrap(m[mod], "rayleigh_diff", "rayleigh_diff")
        for mod in ("rayleigh", "checker", "sampler"):
            self.wrap(m[mod], "rayleigh_diff_multiaffine", "rayleigh_diff_multiaffine")
        for fn in ("quad_decompose", "discriminant", "discriminant_symmetric_form"):
            self.wrap(m["rayleigh"], fn, fn)
        self.wrap(m["certificate"], "load_store", "load_store")
        for mod in ("certificate", "checker", "sos_search"):
            self.wrap(m[mod], "verify", "verify", outcome=bool)
        sos = m["sos_search"]
        self.wrap(sos, "search_certificate", "search_certificate", outcome=_found)
        self.wrap(sos, "search", "search", outcome=_found)
        self.wrap(sos, "jacobi_eigh", "jacobi_eigh")
        self.wrap(sos, "rationalize_and_verify", "rationalize_and_verify",
                  outcome=_found)
        self.wrap(sos, "ldlt_psd", "ldlt_psd", outcome=_found)
        self.wrap(m["sampler"], "falsify", "falsify", outcome=_found)
        # the sampler's float screening: one point per row of eval_many and
        # one per descent end point checked by eval_one
        compiled = m["sampler"]._CompiledPoly
        self.count(compiled, "eval_many", "sampler.points",
                   lambda self_, points: points.shape[0])
        self.count(compiled, "eval_one", "sampler.points", lambda self_, point: 1)
        self.wrap(m["catalog"], "catalog", "catalog")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1),
                 parent, hit] for n, a, b, parent, hit in self.spans]
        path.write_text(json.dumps({"names": names, "time_unit": "us",
                                    "columns": ["name", "start", "end",
                                                "parent", "outcome"],
                                    "spans": rows}))


def layer_metrics(spans: list, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer calls, time, self time and ratios from the spans."""
    group_of = [GROUPS[s[0]] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    hits: dict[str, int] = defaultdict(int)
    every: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, hit) in enumerate(spans):
        group = group_of[i]
        every[group] += 1
        own[group] += (end - start) - child_time[i]
        if hit:
            hits[group] += 1
        ancestor = parent
        while ancestor >= 0 and group_of[ancestor] != group:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            calls[group] += 1
            total[group] += end - start

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    iterations = every["sos_search.eigh"]
    falsify_s = total["sampler.falsify"]
    points = counts.get("sampler.points", 0)
    return {
        "matroid.canonical_key_calls": calls["matroid.canonical_key"],
        "matroid.canonical_key_s": total["matroid.canonical_key"],
        "matroid.iso_calls": calls["matroid.iso"],
        "matroid.iso_s": total["matroid.iso"],
        "matroid.iso_hit_ratio": ratio(hits["matroid.iso"], every["matroid.iso"]),
        "matroid.minor_calls": calls["matroid.minor"],
        "matroid.minor_s": total["matroid.minor"],
        "matroid.basis_polynomial_s": total["matroid.basis_polynomial"],
        "checker.self_s": own["checker.check"],
        "checker.replay_s": total["checker.replay"],
        "polynomial.mul_calls": calls["polynomial.mul"],
        "polynomial.mul_s": total["polynomial.mul"],
        "polynomial.eval_rational_calls": calls["polynomial.eval_rational"],
        "polynomial.eval_rational_s": total["polynomial.eval_rational"],
        "rayleigh.diff_calls": calls["rayleigh.diff"],
        "rayleigh.diff_s": total["rayleigh.diff"],
        "rayleigh.disc_calls": calls["rayleigh.disc"],
        "rayleigh.disc_s": total["rayleigh.disc"],
        "certificate.load_s": total["certificate.load"],
        "certificate.verify_calls": calls["certificate.verify"],
        "certificate.verify_s": total["certificate.verify"],
        "sos_search.iterations": iterations,
        "sos_search.eigh_s": total["sos_search.eigh"],
        "sos_search.ms_per_iteration": ratio(total["sos_search.search"] * 1e3,
                                             iterations),
        "sos_search.project_s": own["sos_search.search"],
        "sos_search.round_calls": calls["sos_search.round"],
        "sos_search.round_s": total["sos_search.round"],
        "sos_search.round_success_ratio": ratio(hits["sos_search.round"],
                                                every["sos_search.round"]),
        "sos_search.ldlt_calls": calls["sos_search.ldlt"],
        "sos_search.ldlt_s": total["sos_search.ldlt"],
        "sos_search.face_s": own["sos_search.search_certificate"],
        "sampler.falsify_s": falsify_s,
        "sampler.points": points,
        "sampler.points_per_s": ratio(points, falsify_s),
        "catalog.build_s": total["catalog.build"],
    }
