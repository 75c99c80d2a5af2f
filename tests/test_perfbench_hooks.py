"""The traced benchmark run (perfbench/tracing.py) wraps package names from
outside.  Installing its hooks here makes a refactor that removes one of
those names fail in the test suite, not in the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("polynomial", "rayleigh", "matroid", "catalog", "certificate",
           "checker", "sos_search", "sampler")


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"hppcheck.{name}")
               for name in MODULES}
    return tracing, modules


def test_trace_hooks_install_and_uninstall():
    tracing, modules = _load()
    Matroid = modules["matroid"].Matroid
    original = Matroid.__dict__["canonical_key"]
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        assert Matroid.__dict__["canonical_key"] is not original
    finally:
        tracer.uninstall()
    assert Matroid.__dict__["canonical_key"] is original


def test_traced_sampler_point_count(monkeypatch):
    # every pair screens `trials` rows with eval_many and checks each
    # descent end point with eval_one; the descent's own steps are not counted
    tracing, modules = _load()
    sampler = modules["sampler"]
    Z = modules["catalog"].uniform(2, 3).basis_polynomial()
    trials, restarts = 5000, 7
    monkeypatch.setattr(sampler, "RESTARTS", restarts)
    monkeypatch.setattr(sampler, "STEPS", 40)
    config = sampler.SampleConfig(mode=sampler.STRONG_RAYLEIGH, trials=trials)
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        assert sampler.falsify(Z, config) is None
    finally:
        tracer.uninstall()
    pairs = 3
    assert tracer.counts["sampler.points"] == pairs * (trials + restarts)


def test_traced_search_factors_each_face_once():
    # W3p's (1, 2) target certifies on its zero face, which pins H; V8's
    # leaves H free, fails there, and certifies on the face of its float
    # iterate's near-null eigenvectors.  Each face is rounded and factored
    # once, so there is one ldlt_psd span per face
    tracing, modules = _load()
    for name, faces in (("W3p", 1), ("V8", 2)):
        Z = modules["catalog"].resolve_name(name).basis_polynomial()
        target = modules["rayleigh"].rayleigh_diff_multiaffine(Z, 1, 2)
        tracer = tracing.Tracer()
        try:
            tracer.install(modules)
            assert modules["sos_search"].search_certificate(target) is not None
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        assert names.count("rationalize_and_verify") == faces, name
        assert names.count("ldlt_psd") == faces, name
        assert ("search" in names) == (faces > 1), name
