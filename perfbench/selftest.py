"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It checks that the generators are deterministic and round-trip through the
config format, that tracing returns every wrapped call's result unchanged,
that each output check rejects a deliberately corrupted output, and that
the metric names match BENCHMARK.json. Inputs are shortened versions of the
workloads' inputs, so it takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generators  # noqa: E402
import hmg.gecm  # noqa: E402
import hmg.sim  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from hmg.config import parse_config, serialize_config  # noqa: E402
from hmg.lti import tf_scale  # noqa: E402
from spans import COUNTED, TIMED, Tracer  # noqa: E402

WORK = ROOT / ".perfbench_tmp" / "selftest"


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def same(a, b) -> bool:
    """Exact equality through dataclasses, containers and numpy arrays."""
    if is_dataclass(a) and type(a) is type(b):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and type(a) is type(b):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def short(loaded, horizon_s):
    """The same input cut to a shorter horizon (the cross-check needs 11 s)."""
    return replace(loaded, config=replace(loaded.config, horizon_s=horizon_s),
                   events=tuple(e for e in loaded.events if e.time_s < horizon_s))


def test_generators_deterministic_and_round_trip():
    assert generators.admissible_pool(7, 4) == generators.admissible_pool(7, 4)
    assert generators.admissible_pool(7, 4) != generators.admissible_pool(8, 4)
    assert generators.dense_events_text(7) == generators.dense_events_text(7)
    assert generators.dense_events_text(7) != generators.dense_events_text(8)
    dense = generators.dense_events_run(7)
    assert len(dense.events) == 40
    assert dense.scenario().events == dense.events      # sorted, in horizon
    for loaded in generators.admissible_pool(7, 4) + [dense]:
        assert parse_config(serialize_config(loaded)) == loaded
    # the schedule the checks use matches the program's own load profile
    trace = hmg.sim.run(short(dense, 3.0).scenario(), dense.config)
    want = generators.expected_total_load(short(dense, 3.0))
    assert np.allclose(trace.total_load_w(), want, rtol=0.0, atol=1e-6)


def test_tracing_returns_results_unchanged():
    saved = {(m, a): getattr(m, a) for m, a, *_ in TIMED + COUNTED}
    pool = [short(r, 12.0) for r in generators.admissible_pool(3, 2)]
    sweep = workloads.Sweep(ROOT, WORK)
    sweep.pool = pool
    plain = sweep.op(0)
    tracer = Tracer()
    with tracer.installed():
        traced = tracer.op(0, sweep.op, 0, True)
    assert same(plain, traced)
    sweep.check(0, traced)
    names = {s[0] for s in tracer.spans}
    assert {"op", "sim.run", "gecm.bode_export"} <= names, names
    assert all(getattr(m, a) is f for (m, a), f in saved.items())
    assert not same(sweep.op(0), sweep.op(1))

    # CLI: subprocess, in-process and traced in-process outputs are identical
    cli = workloads.SimulateWorkload(ROOT, WORK)
    cli.loaded = pool[0]
    cli.config_path = lambda: WORK / "short.cfg"
    cli.config_path().write_text(serialize_config(cli.loaded))
    cli.check(0, cli.op(0))
    cli.check(1, cli.op(1, True))
    tracer = Tracer()
    with tracer.installed():
        cli.check(2, tracer.op(2, cli.op, 2, True))
    assert {"cli.main", "sim.run", "sim.write_trace_csv"} <= {s[0] for s in tracer.spans}
    return cli


def test_checks_reject_corrupted_outputs(cli):
    assert rejects(checks.check_rates, (1.06, 1.0, 1.0), (1.0, 1.0, 1.0))
    assert not rejects(checks.check_rates, (1.04, 1.0, 1.0), (1.0, 1.0, 1.0))
    assert rejects(checks.check_residual, 2e-6)
    assert rejects(checks.check_exit, 3, "diverged")
    assert rejects(checks.check_same_digest, "a", "b")
    # a child that outlives its timeout is killed and reaped
    code, _ = workloads.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], {}, ROOT,
        None, None, timeout=0.5)
    assert code != 0, code

    # cross-check against a deliberately wrong circuit model
    loaded = short(generators.admissible_pool(4, 1)[0], 12.0)
    cfg = loaded.config
    wrong = replace(cfg, ds=replace(cfg.ds, y_h=2.0 * cfg.ds.y_h))
    scenario = loaded.scenario()
    assert not rejects(checks.check_xcheck, hmg.sim.compare_with_gecm(scenario, cfg))
    assert rejects(checks.check_xcheck,
                   hmg.sim.compare_with_gecm(scenario, cfg, gecm_config=wrong))

    trace = hmg.sim.run(scenario, cfg)
    p_out = np.stack([trace.p_oac_w, trace.p_odc_w, trace.p_ods_w], axis=1)
    load = generators.expected_total_load(loaded)
    checks.check_balance(p_out, load, cfg.p_gmax_w)
    p_out[len(p_out) // 2, 1] += 1.0
    assert rejects(checks.check_balance, p_out, load, cfg.p_gmax_w)

    # trace.csv: wrong header, a missing row, a power value off by 1 W
    text = (cli.out / "trace.csv").read_text()
    load = generators.expected_total_load(cli.loaded)
    p_g = cli.loaded.config.p_gmax_w
    checks.check_trace_csv(text, load, p_g)
    assert rejects(checks.check_trace_csv, text.replace("p_odc_w", "p_dc_w"), load, p_g)
    lines = text.splitlines(keepends=True)
    assert rejects(checks.check_trace_csv, "".join(lines[:-1]), load, p_g)
    row = lines[len(lines) // 2].split(",")
    row[4] = f"{float(row[4]) + 1.0:.6g}"
    lines[len(lines) // 2] = ",".join(row)
    assert rejects(checks.check_trace_csv, "".join(lines), load, p_g)

    # metrics.json with a first-event rate 10% off the prediction
    shutil.rmtree(WORK / "t1", ignore_errors=True)
    shutil.copytree(cli.out, WORK / "t1")
    metrics_path = WORK / "t1" / "metrics.json"
    rates = hmg.gecm.predict_rates(cli.loaded.config.specs,
                                   cli.loaded.first_step_w())
    checks.check_simulate_outputs(WORK / "t1", cli.loaded, rates)
    metrics = json.loads(metrics_path.read_text())
    metrics["rocof_hz_per_s"] *= 1.1
    metrics_path.write_text(json.dumps(metrics))
    assert rejects(checks.check_simulate_outputs, WORK / "t1", cli.loaded, rates)
    assert checks.output_digest(WORK / "t1") != checks.output_digest(cli.out)

    # circuit analysis: initial rate of an ideal TF, Bode rows
    analysis = workloads.analyze(loaded)
    workloads.check_analysis(loaded, analysis)
    specs = loaded.config.specs
    ideal = dict(analysis[4])
    ideal["dc"] = tf_scale(ideal["dc"], 1.0 + 1e-8)
    assert rejects(checks.check_ideal_rates, ideal, specs)
    bode = [list(r) for r in analysis[5][0]]
    bode[10][1] = float("nan")
    assert rejects(checks.check_bode, bode)
    assert rejects(checks.check_bode, analysis[5][0][:-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    sweep = workloads.Sweep(ROOT, WORK)
    sweep.pool = [short(generators.admissible_pool(5, 1)[0], 12.0)]
    with tracer.installed():
        tracer.op(0, sweep.op, 0, True)
    walls = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "op"}
    emitted = set(bench.layer_metrics(tracer, walls))
    emitted |= set(bench.RUN_LEVEL) | {f"acc.{k}" for k in bench.ACC_KEYS}
    assert emitted == {m["name"] for m in spec["per_layer"]}, \
        emitted ^ {m["name"] for m in spec["per_layer"]}
    assert bench.tail([float(i) for i in range(bench.MIN_OPS)]) == (10.0, 100.0 * 11 / 21)
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_generators_deterministic_and_round_trip()
        cli = test_tracing_returns_results_unchanged()
        test_checks_reject_corrupted_outputs(cli)
        test_metric_names_match_benchmark_json()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
