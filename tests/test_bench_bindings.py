"""The benchmark harness under perfbench/ binds hmg internals by name.

Its span tracer swaps module attributes such as `hmg.sim.rk4_step_maps` at
run time; a binding that no longer resolves, or a timed function whose
arguments its span attributes no longer read, would only fail in a traced
benchmark run. These guards fail in the ordinary suite instead.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks, generators, spans, workloads  # noqa: F401
    for module, attr, *_ in spans.TIMED + spans.COUNTED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_simulate_records_span_attributes(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import hmg.cli

    text = (REPO / "configs" / "table1.cfg").read_text()
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text.replace("horizon = 40", "horizon = 3")
                   .replace("e4 = 20.0 ac 6e3", ""))
    out_dir = tmp_path / "out"
    with spans.Tracer().installed() as tracer:
        code = hmg.cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    attrs = {name: a for name, *_, a in tracer.spans}
    assert attrs["sim.run"] == {"steps": 30_000}
    assert attrs["sim.write_trace_csv"] == {
        "rows": 301, "bytes": (out_dir / "trace.csv").stat().st_size}


def test_traced_sweep_records_nodal_span_attributes(monkeypatch, tmp_path):
    # `scale_retries` indexes gecm.FREQ_SCALE_CANDIDATES with the solution's
    # freq_scale; only a traced run reads either name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    sweep = workloads.Sweep(REPO, tmp_path)
    sweep.prepare(1)
    with spans.Tracer().installed() as tracer:
        result = sweep.op(0)
    nodal = [a for name, *_, a in tracer.spans if name == "gecm.solve_nodal"]
    assert nodal == [{"scale_retries": 0}] * 2  # cross-check and analysis
    assert sweep.check(0, result)["nodal_residual_max"] <= 1e-12
