"""The traced benchmark run (perfbench/tracing.py) wraps package names from
outside.  Installing its hooks here makes a refactor that removes one of
those names fail in the test suite, not in the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("polynomial", "rayleigh", "matroid", "catalog", "certificate",
           "checker", "sos_search", "sampler")


def test_trace_hooks_install_and_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"hppcheck.{name}")
               for name in MODULES}
    Matroid = modules["matroid"].Matroid
    original = Matroid.__dict__["canonical_key"]
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        assert Matroid.__dict__["canonical_key"] is not original
    finally:
        tracer.uninstall()
    assert Matroid.__dict__["canonical_key"] is original
