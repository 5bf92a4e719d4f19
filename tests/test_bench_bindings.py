"""The benchmark harness under perfbench/ binds hmg internals by name.

Its span tracer swaps module attributes such as `hmg.sim.rk4_step_maps` at
run time; a binding that no longer resolves would only fail in a traced
benchmark run. This guard fails in the ordinary suite instead.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks, generators, spans, workloads  # noqa: F401
    for module, attr, *_ in spans.TIMED + spans.COUNTED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
