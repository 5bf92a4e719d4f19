"""The benchmark workloads: what one operation does and how it is checked.

All are closed loop with one caller: the next operation starts when the
previous one has returned. `table1` and `dense_events` run `hmg simulate`
as a subprocess, as a user does; `sweep` is a library loop in the
benchmark process. Under tracing every operation runs in the benchmark
process, because a span cannot cross a subprocess.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks
import generators
import hmg.cli
from hmg import gecm, lti, sim
from hmg.config import load_config

CLI_TIMEOUT_S = 120.0
POOL_SWEEP = 48      # more configs than a run completes operations


def cli_env(root: Path) -> dict:
    """Environment that makes a child interpreter import hmg from `root`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("HMG_LOG", None)
    return env


def run_child(argv: list[str], env: dict, cwd: Path, stdout, stderr,
              timeout: float = CLI_TIMEOUT_S) -> tuple[int, str]:
    """Run a child to completion; returns its exit code and standard output.

    The child is waited for with a blocking wait and killed by a timer
    after `timeout` seconds. `subprocess.run(timeout=...)` instead polls
    with sleeps of up to 50 ms, which rounds every timed child up to that
    grid. The child is stopped and reaped on every path out.
    """
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout,
                            stderr=stderr, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return proc.returncode, out or ""


def first_group_loads(loaded) -> tuple[float, float, float]:
    """Loads stepped at the first event time, per subgrid (ac, dc, ds)."""
    t0 = loaded.events[0].time_s
    loads = [0.0, 0.0, 0.0]
    for e in loaded.events:
        if e.time_s == t0:
            loads[generators.KINDS.index(e.kind)] += e.delta_w
    return tuple(loads)


class SimulateWorkload:
    """`hmg simulate --config <file> --out <dir>`, repeated on one input.

    Every run's trace.csv and metrics.json must be byte-identical to the
    first run's; the first is checked in full.
    """

    cli = True
    check_rates = False

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.out = workdir / "out"
        self.env = cli_env(root)
        self.reference = None
        self.acc = {}

    def config_path(self) -> Path:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        return ["simulate", "--config", str(self.config_path()),
                "--out", str(self.out)]

    def op(self, i: int, in_process=False):
        shutil.rmtree(self.out, ignore_errors=True)
        if not in_process:
            with open(self.workdir / "stderr.txt", "w+") as err:
                code, _ = run_child(
                    [sys.executable, "-c",
                     "import sys; from hmg.cli import main; sys.exit(main())",
                     *self.argv()],
                    self.env, self.root, subprocess.DEVNULL, err)
                err.seek(0)
                return code, err.read()
        with contextlib.redirect_stdout(io.StringIO()):
            return hmg.cli.main(self.argv()), ""

    def check(self, i: int, result) -> dict:
        code, stderr = result
        checks.check_exit(code, stderr)
        digest = checks.output_digest(self.out)
        if self.reference is None:
            predicted = None
            if self.check_rates:
                predicted = gecm.predict_rates(self.loaded.config.specs,
                                               self.loaded.first_step_w())
            self.acc = checks.check_simulate_outputs(self.out, self.loaded,
                                                     predicted)
            self.reference = digest
        checks.check_same_digest(digest, self.reference)
        return self.acc


class Table1(SimulateWorkload):
    """The shipped benchmark config; the seed does not change it."""

    check_rates = True

    def config_path(self) -> Path:
        return self.root / "configs" / "table1.cfg"

    def prepare(self, seed: int) -> None:
        self.loaded = load_config(self.config_path())


class DenseEvents(SimulateWorkload):
    """A seeded 5 s config with 40 load steps and every step recorded."""

    def config_path(self) -> Path:
        return self.workdir / "dense_events.cfg"

    def prepare(self, seed: int) -> None:
        self.loaded = generators.dense_events_run(seed)
        self.config_path().write_text(generators.dense_events_text(seed))


class Sweep:
    """Design study on one seeded config per operation.

    Simulate, measure, predict and cross-check; then the circuit analysis a
    design study reads off the same config: nodal solve for the first step
    group, the closed forms, the ideal pooled deviation TFs and the restored
    frequency response, each exported on the default Bode grid.
    """

    cli = False

    def __init__(self, root: Path, workdir: Path):
        self.pool = []

    def prepare(self, seed: int) -> None:
        self.pool = generators.admissible_pool(seed, POOL_SWEEP)

    def op(self, i: int, in_process=True):
        loaded = self.pool[i % len(self.pool)]
        cfg = loaded.config
        scenario = loaded.scenario()
        trace = sim.run(scenario, cfg)
        metrics = sim.measure(trace, loaded.events[0].time_s,
                              require_settled=False)
        predicted = gecm.predict_rates(cfg.specs, loaded.first_step_w())
        report = sim.compare_with_gecm(scenario, cfg)
        return loaded, trace, metrics, predicted, report, analyze(loaded)

    def check(self, i: int, result) -> dict:
        loaded, trace, m, predicted, report, analysis = result
        p_out = np.stack([trace.p_oac_w, trace.p_odc_w, trace.p_ods_w], axis=1)
        return {
            # reported, not checked: the 5% rate tolerance is certified on
            # the benchmark system only, and a step put mostly on a small
            # subgrid measures above it (cross-check and balance still hold)
            "rate_rel_err_max": checks.rate_error(
                (m.rocof_hz_s, m.rocov_dc_v_s, m.rocov_ds_v_s), predicted),
            "xcheck_rms_worst": checks.check_xcheck(report),
            "nodal_residual_max": max(checks.check_residual(report.residual),
                                      check_analysis(loaded, analysis)),
            "power_balance_max_w": checks.check_balance(
                p_out, generators.expected_total_load(loaded),
                loaded.config.p_gmax_w),
        }


def analyze(loaded):
    """Circuit analysis of one config, with no time-domain simulation."""
    cfg = loaded.config
    specs = cfg.specs
    cspec = cfg.concatenator_spec()
    loads = first_group_loads(loaded)
    sol = gecm.solve_nodal(gecm.build_gecm(*specs, cfg.ilc, cspec, loads))
    h_g = gecm.global_inertia(specs)
    rates = gecm.predict_rates(specs, sum(loads))
    shares = gecm.predict_steady_shares(specs, sum(loads))
    ideal = {k: gecm.ideal_global_deviation_tf(specs, cspec, k)
             for k in generators.KINDS}
    dev = lti.tf_series(sol.delta_f_pu, lti.tf([1.0], [0.0, 1.0]))
    f_closed = lti.tf_scale(
        gecm.restored_absolute_tf(dev, specs[0], restoration=True),
        specs[0].x_max)
    grid = gecm.default_bode_grid()
    bodes = [gecm.bode_export(f, grid) for f in (*ideal.values(), f_closed)]
    return sol, h_g, rates, shares, ideal, bodes


def check_analysis(loaded, analysis) -> float:
    """Checks one config's circuit analysis; returns its nodal residual."""
    sol, h_g, rates, shares, ideal, bodes = analysis
    specs = loaded.config.specs
    for rows in bodes:
        checks.check_bode(rows)
    total = sum(first_group_loads(loaded))
    if abs(sum(shares) - total) > 1e-9 * total:
        raise checks.CheckFailed(f"steady shares sum to {sum(shares)}, not {total}")
    if abs(h_g - checks.global_inertia(specs)) > 1e-12 * h_g:
        raise checks.CheckFailed(f"global inertia {h_g}")
    pu_rate = total / loaded.config.p_gmax_w / (2.0 * h_g)
    for got, spec in zip(rates, specs):
        if abs(got - pu_rate * spec.x_max) > 1e-12 * abs(got):
            raise checks.CheckFailed(f"{spec.kind} predicted rate {got}")
    checks.check_ideal_rates(ideal, specs)
    return checks.check_residual(sol.residual)


WORKLOADS = {
    "table1": Table1,
    "dense_events": DenseEvents,
    "sweep": Sweep,
}
