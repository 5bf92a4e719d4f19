"""Command-line front end: simulate, predict, bode, design.

Every command reads the sectioned key-value configuration named by
--config. Outputs are deterministic: identical configurations produce
byte-identical CSV files. Diagnostics go to standard error, controlled by
HMG_LOG (error|info|debug); reports go to standard output with six
significant digits.

Exit codes: 0 success, 1 informational (design-report bound violation),
2 configuration/usage error (including an unmeasurable scenario, a trace
too large to hold, any circuit-model, subgrid, converter or
transfer-function error, and an output path that cannot be written),
3 numerical divergence (including an unstable one-step map and a nodal
solve that fails its residual gate).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, LoadedRun, load_config
from .gecm import (
    GecmError,
    SingularSystem,
    bode_export,
    build_gecm,
    default_bode_grid,
    global_inertia,
    ideal_global_deviation_tf,
    objective1_only_ratio,
    predict_rates,
    predict_steady_shares,
    restored_absolute_tf,
    solve_nodal,
)
from .ilc import IlcError, concatenator_tf, design_omegas, min_cutoff
from .lti import LtiError, tf, tf_scale, tf_series
from .sim import (
    NotSettled,
    NumericalDivergence,
    SimError,
    measure,
    run,
    write_trace_csv,
)
from .subgrid import KINDS, SubgridError, build_open_loop_tf

log = logging.getLogger("hmg")

BODE_TARGETS = (
    "N_ac0", "N_ac1", "N_dc0", "N_dc1", "N_ds0", "N_ds1",
    "T_ac", "T_dc", "T_ds", "f_closed",
)

EXIT_OK = 0
EXIT_INFO = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("HMG_LOG", ""),
                                         logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="hmg: %(levelname)s: %(message)s")


def _create(path):
    """Open an output file for writing, making its missing directories; a
    file in the way is left to `open`, whose error names the path."""
    if not Path(path).parent.exists():
        Path(path).parent.mkdir(parents=True)
    return open(path, "w")


def _metrics_pairs(m, settled: bool) -> list[tuple[str, float | bool]]:
    return [
        ("rocof_hz_per_s", m.rocof_hz_s),
        ("rocov_dc_v_per_s", m.rocov_dc_v_s),
        ("rocov_ds_v_per_s", m.rocov_ds_v_s),
        ("nadir_f_hz", m.nadir_f_hz),
        ("nadir_vdc_v", m.nadir_vdc_v),
        ("nadir_vds_v", m.nadir_vds_v),
        ("steady_f_hz", m.steady_f_hz),
        ("steady_vdc_v", m.steady_vdc_v),
        ("steady_vds_v", m.steady_vds_v),
        ("steady_share_ac_w", m.steady_shares_w[0]),
        ("steady_share_dc_w", m.steady_shares_w[1]),
        ("steady_share_ds_w", m.steady_shares_w[2]),
        ("share_error", m.share_error),
        ("settled", settled),
    ]


def cmd_simulate(args) -> int:
    loaded = load_config(args.config)
    scenario = loaded.scenario()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("running %s events over %s s at step %s s",
             len(scenario.events), scenario.horizon_s, scenario.step_s)
    trace = run(scenario, loaded.config)
    write_trace_csv(trace, out_dir / "trace.csv")
    event_time = scenario.events[0].time_s if scenario.events else 0.0
    settled = True
    try:
        m = measure(trace, event_time)
    except NotSettled as exc:
        log.warning("steady-state window not settled: %s", exc)
        settled = False
        m = measure(trace, event_time, require_settled=False)
    pairs = _metrics_pairs(m, settled)
    with open(out_dir / "metrics.txt", "w") as fh:
        for key, value in pairs:
            text = str(value).lower() if isinstance(value, bool) else _fmt(value)
            fh.write(f"{key}: {text}\n")
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump({k: v for k, v in pairs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", out_dir / "trace.csv")
    print(f"trace: {out_dir / 'trace.csv'}")
    print(f"metrics: {out_dir / 'metrics.txt'}")
    for key, value in pairs[:3]:
        print(f"{key}: {_fmt(value)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    loaded = load_config(args.config)
    cfg = loaded.config
    specs = cfg.specs
    h_g = global_inertia(specs)
    step_w = loaded.first_step_w()
    total_load_w = sum(loaded.initial_loads_w) + loaded.total_event_step_w()
    rocof, rocov_dc, rocov_ds = predict_rates(specs, step_w)
    shares = predict_steady_shares(specs, total_load_w)
    ratio = objective1_only_ratio(specs)
    rows = [
        ("global_inertia_h_g", h_g, "s"),
        ("load_step_first", step_w, "W"),
        ("load_total_final", total_load_w, "W"),
        ("rocof", rocof, "Hz/s"),
        ("rocov_dc", rocov_dc, "V/s"),
        ("rocov_ds", rocov_ds, "V/s"),
        ("steady_share_ac", shares[0], "W"),
        ("steady_share_dc", shares[1], "W"),
        ("steady_share_ds", shares[2], "W"),
        ("objective1_ratio_ac", ratio[0], "1"),
        ("objective1_ratio_dc", ratio[1], "1"),
        ("objective1_ratio_ds", ratio[2], "1"),
    ]
    for name, value, unit in rows:
        print(f"{name}: {_fmt(value)} {unit}")
    if args.out:
        with _create(args.out) as fh:
            fh.write("name,value,unit\n")
            for name, value, unit in rows:
                fh.write(f"{name},{_fmt(value)},{unit}\n")
        log.info("wrote %s", args.out)
    return EXIT_OK


def _bode_tf(loaded: LoadedRun, target: str):
    cfg = loaded.config
    specs = cfg.specs
    by_kind = dict(zip(KINDS, specs))
    if target.startswith("T_"):
        return concatenator_tf(cfg.concatenator_spec(), target[2:])
    if target.endswith("0"):
        return build_open_loop_tf(by_kind[target[2:-1]])
    ilc, used = cfg.coupling(loaded.toggles)
    if target.endswith("1"):
        return ideal_global_deviation_tf(specs, used, target[2:-1])
    # f_closed: absolute AC frequency in Hz for the first load-step group
    sys_ = build_gecm(*specs, ilc, used, loaded.scenario().first_group_w())
    sol = solve_nodal(sys_)
    dev = tf_series(sol.delta_f_pu, tf([1.0], [0.0, 1.0]))
    x_abs = restored_absolute_tf(dev, specs[0],
                                 restoration=loaded.toggles.restoration_enabled)
    return tf_scale(x_abs, specs[0].x_max)


def cmd_bode(args) -> int:
    loaded = load_config(args.config)
    f = _bode_tf(loaded, args.target)
    rows = bode_export(f, default_bode_grid())
    out = Path(args.out)
    with _create(out) as fh:
        fh.write("omega_rad_s,mag_db,phase_deg\n")
        for w, mag, phase in rows:
            fh.write(f"{w:.6g},{mag:.6g},{phase:.6g}\n")
    log.info("wrote %s", out)
    print(f"bode: {out}")
    return EXIT_OK


def cmd_design(args) -> int:
    loaded = load_config(args.config, check_cutoff=False)
    cfg = loaded.config
    cspec = design_omegas(cfg.omega_0, *cfg.specs)
    bound = min_cutoff(cfg.ilc.sampling_period, cfg.ilc.safety_factor_m)
    print(f"droop_ac: {_fmt(cfg.ac.droop_r)} 1")
    print(f"droop_dc: {_fmt(cfg.dc.droop_r)} 1")
    print(f"y_l: {_fmt(cfg.ds.y_l)} 1")
    print(f"omega_ac: {_fmt(cspec.omega_ac)} rad/s")
    print(f"omega_dc: {_fmt(cspec.omega_dc)} rad/s")
    print(f"omega_ds: {_fmt(cspec.omega_ds)} rad/s")
    print(f"omega_0_min: {_fmt(bound)} rad/s")
    print(f"omega_0: {_fmt(cfg.omega_0)} rad/s")
    ok = cfg.cutoff_bound_ok()
    print(f"omega_0_ok: {'true' if ok else 'false'}")
    if not ok:
        log.warning("configured omega_0 %.6g rad/s is below the resolution "
                    "bound %.6g rad/s", cfg.omega_0, bound)
        return EXIT_INFO
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hmg",
        description="Hybrid AC/DC/storage microgrid simulator and analyzer",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    pred = sub.add_parser("predict", help="closed-form rates and shares")
    pred.add_argument("--config", required=True)
    pred.add_argument("--out", help="optional CSV of the predictions")
    pred.set_defaults(func=cmd_predict)

    bode = sub.add_parser("bode", help="frequency response CSV")
    bode.add_argument("target", choices=BODE_TARGETS)
    bode.add_argument("--config", required=True)
    bode.add_argument("--out", required=True, help="output CSV path")
    bode.set_defaults(func=cmd_bode)

    des = sub.add_parser("design", help="droop and concatenator design report")
    des.add_argument("--config", required=True)
    des.set_defaults(func=cmd_design)
    return p


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NumericalDivergence, SingularSystem) as exc:
        log.error("%s", exc)
        return EXIT_DIVERGED
    except (ConfigError, SimError, GecmError, LtiError, SubgridError,
            IlcError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # an output path that cannot be written
        log.error("cannot write %s: %s", exc.filename, exc.strerror)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
