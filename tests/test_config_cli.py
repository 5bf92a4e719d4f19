import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hmg.cli import main
from hmg.config import (
    ConfigError,
    Toggles,
    parse_config,
    reference_config,
    reference_run,
    serialize_config,
)
from hmg.ilc import IlcSpec, min_cutoff

REPO = Path(__file__).resolve().parents[1]
TABLE1 = REPO / "configs" / "table1.cfg"

OPTIONAL_KEYS = (
    "droop", "y_l", "k_p", "k_i", "omega_0", "k_tp1", "k_ti1", "k_tp2",
    "k_ti2", "sampling_period", "safety_factor", "step", "horizon",
    "output_every", "initial_load_ac", "initial_load_dc", "initial_load_ds",
    "concatenator", "restoration", "ilc",
)


def _minimal(text):
    """The file with every optional key deleted."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split("=")[0].strip() not in OPTIONAL_KEYS)


def _variant(text):
    """Non-default toggles, non-zero initial loads and no [events]."""
    for old, new in (("concatenator = true", "concatenator = false"),
                     ("ilc = true", "ilc = false"),
                     ("initial_load_ac = 0", "initial_load_ac = 4e3"),
                     ("initial_load_ds = 0", "initial_load_ds = 2.5e3")):
        assert old in text
        text = text.replace(old, new)
    return text[:text.index("[events]")]


@pytest.fixture
def table1_text():
    return TABLE1.read_text()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_reference_file(table1_text):
    run = parse_config(table1_text)
    cfg = run.config
    assert cfg.ac.droop_r == pytest.approx(2.0 / 49.0, rel=1e-12)
    assert cfg.ds.y_l == pytest.approx(35.5, rel=1e-12)
    assert cfg.omega_0 == pytest.approx(1e-3 * math.pi, rel=1e-12)
    assert len(run.events) == 4
    assert run.events[0].kind == "dc" and run.events[0].delta_w == 14e3
    assert run.toggles.restoration_enabled


def test_parse_matches_reference_constructor(table1_text):
    from dataclasses import replace

    got = parse_config(table1_text).config
    want = reference_run().config
    # the file's decimal omega_0 and pi*1e-3 differ in the last ulp
    assert got.omega_0 == pytest.approx(want.omega_0, rel=1e-15)
    assert replace(got, omega_0=want.omega_0) == want


def test_missing_key_names_offender(table1_text):
    broken = table1_text.replace("y_h = 7.5", "")
    with pytest.raises(ConfigError, match=r"ds\.y_h"):
        parse_config(broken)


def test_unknown_key_names_offender(table1_text):
    broken = table1_text.replace("y_h = 7.5", "y_h = 7.5\nwobble = 3")
    with pytest.raises(ConfigError, match=r"ds\.wobble"):
        parse_config(broken)


def test_unknown_section_rejected(table1_text):
    with pytest.raises(ConfigError, match=r"\[pv\]"):
        parse_config(table1_text + "\n[pv]\nsize = 2\n")


def test_bad_number_and_bool(table1_text):
    with pytest.raises(ConfigError, match="inertia"):
        parse_config(table1_text.replace("inertia = 2", "inertia = two"))
    with pytest.raises(ConfigError, match="restoration"):
        parse_config(table1_text.replace("restoration = true",
                                         "restoration = yes"))


@pytest.mark.parametrize("old, new, key", [
    ("step = 1e-4", "step = nan", "sim.step"),
    ("p_max = 20e3        # W", "p_max = inf        # W", "ac.p_max"),
    ("inertia = 3", "inertia = -inf", "dc.inertia"),
    ("e1 = 1.0 dc 14e3", "e1 = nan dc 14e3", "events.e1"),
    ("e2 = 1.0 ac 12e3", "e2 = 1.0 ac inf", "events.e2"),
])
def test_non_finite_numbers_rejected(tmp_path, table1_text, caplog, old, new,
                                     key):
    text = table1_text.replace(old, new, 1)
    assert text != table1_text
    with pytest.raises(ConfigError, match=rf"{key}: expected a finite number"):
        parse_config(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["predict", "--config", str(path)]) == 2
    assert key in caplog.text


def test_zero_horizon_rejected(table1_text):
    with pytest.raises(ConfigError, match=r"sim\.horizon must exceed sim\.step"):
        parse_config(table1_text.replace("horizon = 40", "horizon = 0"))


@pytest.mark.parametrize("old, new, message", [
    ("step = 1e-4", "step = 0", "sim.step must be > 0"),
    ("horizon = 40", "horizon = 1e-4", "sim.horizon must exceed sim.step"),
    ("output_every = 100", "output_every = 0", "sim.output_every must be >= 1"),
], ids=["step", "horizon", "output_every"])
def test_cli_run_settings_exit2_naming_the_key(tmp_path, table1_text, caplog,
                                               old, new, message):
    path = tmp_path / "bad.cfg"
    path.write_text(table1_text.replace(old, new))
    assert main(["predict", "--config", str(path)]) == 2
    assert message in caplog.text


def test_output_every_one_records_every_step(tmp_path, table1_text, capsys):
    text = table1_text.replace("output_every = 100", "output_every = 1")
    assert parse_config(text).scenario().output_every == 1
    path = tmp_path / "cfg.txt"
    path.write_text(text.replace("horizon = 40", "horizon = 1.5")
                    .replace("e4 = 20.0 ac 6e3", ""))
    out_dir = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    t = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1, usecols=0)
    assert len(t) == 15_001
    assert np.diff(t) == pytest.approx(np.full(15_000, 1e-4), rel=1e-6)


def test_malformed_line_reports_position(table1_text):
    broken = table1_text.replace("inertia = 2", "inertia")
    with pytest.raises(ConfigError, match="line"):
        parse_config(broken)


def test_negative_droop_design_rejected(table1_text):
    with pytest.raises(ConfigError, match="x_max - D"):
        parse_config(table1_text.replace("damping = 1", "damping = 26", 1))


def test_zero_cutoff_rejected():
    with pytest.raises(ConfigError, match=r"ilc\.omega_0 must be > 0"):
        reference_config(omega_0=0.0)


def test_cutoff_at_the_bound_accepted():
    bound = min_cutoff(50e-6, 1.3)
    assert bound == 3.0994415283203125e-3
    cfg = reference_config(omega_0=bound)  # validates
    assert cfg.cutoff_bound_ok()


def test_cutoff_bound_enforced(table1_text):
    low = table1_text.replace("omega_0 = 3.141592653589793e-3",
                              "omega_0 = 1e-6")
    with pytest.raises(ConfigError, match="resolution bound"):
        parse_config(low)
    run = parse_config(low, check_cutoff=False)
    assert not run.config.cutoff_bound_ok()


@pytest.mark.parametrize("variant", [lambda text: text, _minimal, _variant],
                         ids=["table1", "minimal", "variant"])
def test_round_trip(table1_text, variant):
    run = parse_config(variant(table1_text))
    again = parse_config(serialize_config(run))
    assert again.config == run.config
    assert again.events == run.events
    assert again.toggles == run.toggles
    assert again.initial_loads_w == run.initial_loads_w


def test_minimal_file_takes_defaults(table1_text):
    from dataclasses import replace

    run = parse_config(_minimal(table1_text))
    cfg = run.config
    want = reference_run().config
    assert cfg.omega_0 == pytest.approx(want.omega_0, rel=1e-15)
    assert replace(cfg, omega_0=want.omega_0) == want
    assert run.toggles == Toggles(concatenator_enabled=True,
                                  restoration_enabled=True, ilc_enabled=True)
    assert run.initial_loads_w == (0.0, 0.0, 0.0)
    assert [(s.k_p, s.k_i) for s in cfg.specs] == [(0.005, 0.05)] * 3
    assert cfg.ilc == IlcSpec(k_tp1=4000.0, k_ti1=400e3, k_tp2=4000.0,
                              k_ti2=400e3, sampling_period=50e-6,
                              safety_factor_m=1.3)
    assert (cfg.step_s, cfg.horizon_s, cfg.output_every) == (1e-4, 40.0, 100)
    variant = parse_config(_variant(table1_text))
    assert variant.toggles == Toggles(concatenator_enabled=False,
                                      restoration_enabled=True,
                                      ilc_enabled=False)
    assert variant.initial_loads_w == (4e3, 0.0, 2.5e3)
    assert variant.events == ()


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _short_config(tmp_path, table1_text, horizon="8", extra=()):
    text = table1_text.replace("horizon = 40", f"horizon = {horizon}")
    text = text.replace("e4 = 20.0 ac 6e3", "")
    for old, new in extra:
        text = text.replace(old, new)
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return path


def test_cli_predict_reference(capsys):
    code = main(["predict", "--config", str(TABLE1)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"global_inertia_h_g: {12.5/3:.6g} s" in out
    assert "rocof: 3.672 Hz/s" in out
    assert "rocov_dc: 27.36 V/s" in out
    assert "steady_share_ac: 14000 W" in out
    assert "objective1_ratio_dc: 38 1" in out


def test_cli_predict_csv(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    code = main(["predict", "--config", str(TABLE1), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,unit"
    assert any(line.startswith("rocof,3.672,Hz/s") for line in lines)


def test_cli_predict_creates_missing_out_dirs(tmp_path, capsys):
    # as bode does, predict makes the directories its CSV goes into
    out = tmp_path / "new" / "sub" / "x.csv"
    code = main(["predict", "--config", str(TABLE1), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text().splitlines()[0] == "name,value,unit"


def test_cli_simulate_writes_artifacts(tmp_path, table1_text, capsys):
    cfg = _short_config(tmp_path, table1_text)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("t_s,f_hz,vdc_v")
    metrics = (out_dir / "metrics.txt").read_text()
    assert "rocof_hz_per_s:" in metrics
    blob = json.loads((out_dir / "metrics.json").read_text())
    assert blob["rocof_hz_per_s"] == pytest.approx(3.66, rel=0.05)


def test_cli_simulate_deterministic(tmp_path, table1_text, capsys):
    cfg = _short_config(tmp_path, table1_text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_cli_simulate_missing_key_exit2(tmp_path, table1_text, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text(table1_text.replace("y_h = 7.5", ""))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 2


def test_cli_simulate_divergence_exit3(tmp_path, table1_text, capsys):
    cfg = _short_config(tmp_path, table1_text,
                        extra=(("k_tp1 = 4000", "k_tp1 = 1e6"),
                               ("k_tp2 = 4000", "k_tp2 = 1e6")))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 3


def test_cli_simulate_off_grid_event_exit2(tmp_path, table1_text, caplog):
    # every event at 1.005 s falls between two 10 ms trace samples
    cfg = _short_config(tmp_path, table1_text,
                        extra=[(f"e{i} = 1.0 ", f"e{i} = 1.005 ")
                               for i in (1, 2, 3)])
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not on the trace grid" in caplog.text


def test_cli_simulate_event_on_last_sample_exit2(tmp_path, table1_text, caplog):
    # the events at 1 s sit on the last sample of a 1 s run: on the grid,
    # but the rates need the sample after it
    cfg = _short_config(tmp_path, table1_text, horizon="1")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("the event at t=1 s is the last trace sample; its rates need the "
            "sample after it") in caplog.text
    assert "not on the trace grid" not in caplog.text


def test_cli_simulate_second_load_change_in_rate_sample_exit2(
        tmp_path, table1_text, caplog):
    # the DC step at 1.005 s acts inside the 10 ms sample the first rates
    # are taken over, so they would blend two load changes
    cfg = _short_config(tmp_path, table1_text,
                        extra=[("e1 = 1.0 dc", "e1 = 1.005 dc")])
    out_dir = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert "within the sample (1, 1.01] s after the event at t=1 s" in caplog.text
    assert not (out_dir / "metrics.json").exists()


def test_cli_simulate_one_sample_trace_exit2(tmp_path, table1_text, caplog):
    # 5 ms holds 50 steps, fewer than the 100 between trace samples, so
    # the trace holds only t = 0
    cfg = _short_config(tmp_path, table1_text, horizon="0.005",
                        extra=[("e1 = 1.0 dc 14e3", "e1 = 0.001 ac 1e3"),
                               ("e2 = 1.0 ac 12e3", ""),
                               ("e3 = 1.0 ds 10e3", "")])
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "the horizon holds no sample after t = 0" in caplog.text


def test_cli_simulate_event_after_last_step_exit2(tmp_path, table1_text,
                                                  caplog):
    # 8.00004 s holds 80,000 steps of 0.1 ms; an event at 8.00003 s acts
    # from step 80,001, which the schedule would drop
    cfg = _short_config(tmp_path, table1_text, horizon="8.00004",
                        extra=[("e1 = 1.0 dc", "e1 = 8.00003 dc")])
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "t=8.00003 s acts after the last step at t=8 s" in caplog.text
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_cli_step_count_beyond_a_float_exit2(tmp_path, table1_text, caplog):
    # 1e300 s / 1e-10 s overflows to inf: a step count no integer can take
    cfg = _short_config(tmp_path, table1_text, horizon="1e300",
                        extra=[("step = 1e-4", "step = 1e-10")])
    assert "step = 1e-10" in cfg.read_text()
    code = main(["predict", "--config", str(cfg)])
    assert code == 2
    assert "horizon 1e+300 s at step 1e-10 s holds more steps" in caplog.text


def test_cli_bode_targets(tmp_path, capsys):
    out = tmp_path / "t_ac.csv"
    code = main(["bode", "T_ac", "--config", str(TABLE1), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_rad_s,mag_db,phase_deg"
    assert len(lines) == 301
    # plateau at 20*log10(25.5) near DC, 0 dB tail at the top
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == pytest.approx(20 * math.log10(25.5), abs=1e-2)
    assert abs(float(last[1])) < 1e-3


def test_cli_bode_inertia_transfer_lowers_magnitude(tmp_path, capsys):
    out0 = tmp_path / "n0.csv"
    out1 = tmp_path / "n1.csv"
    assert main(["bode", "N_ac0", "--config", str(TABLE1), "--out", str(out0)]) == 0
    assert main(["bode", "N_ac1", "--config", str(TABLE1), "--out", str(out1)]) == 0
    capsys.readouterr()

    def mag_at(path, w):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        best = min(rows, key=lambda r: abs(float(r[0]) - w))
        return float(best[1])

    assert mag_at(out1, 100.0) < mag_at(out0, 100.0)


def test_cli_bode_f_closed_low_frequency_plateau(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["bode", "f_closed", "--config", str(TABLE1), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    w, mag = float(rows[0][0]), float(rows[0][1])
    # |f(jw)| ~ 50/w near DC with restoration pinning the final value
    assert mag == pytest.approx(20 * math.log10(50.0 / w), abs=0.1)


def test_cli_bode_f_closed_uses_first_load_step_group(tmp_path, table1_text,
                                                     capsys):
    # e4 at t = 20 s is not part of the first disturbance
    path = tmp_path / "no_e4.cfg"
    path.write_text(table1_text.replace("e4 = 20.0 ac 6e3", ""))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bode", "f_closed", "--config", str(TABLE1), "--out", str(a)]) == 0
    assert main(["bode", "f_closed", "--config", str(path), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_bode_f_closed_honours_ilc_toggle(tmp_path, table1_text,
                                             monkeypatch, capsys):
    import hmg.cli
    from hmg.gecm import build_gecm

    path = tmp_path / "no_ilc.cfg"
    path.write_text(table1_text.replace("ilc = true", "ilc = false"))
    on, off, ref = (tmp_path / f"{name}.csv" for name in ("on", "off", "ref"))
    assert main(["bode", "f_closed", "--config", str(TABLE1), "--out", str(on)]) == 0
    assert main(["bode", "f_closed", "--config", str(path), "--out", str(off)]) == 0
    assert on.read_bytes() != off.read_bytes()

    # the converter-free circuit model, forced on the ilc = true file
    def no_converter(ac, dc, ds, ilc, cspec, loads_w):
        return build_gecm(ac, dc, ds, None, cspec, loads_w)

    monkeypatch.setattr(hmg.cli, "build_gecm", no_converter)
    assert main(["bode", "f_closed", "--config", str(TABLE1), "--out", str(ref)]) == 0
    capsys.readouterr()
    assert off.read_bytes() == ref.read_bytes()


def test_cli_simulate_unstable_step_names_largest_stable_step(
        tmp_path, table1_text, caplog):
    cfg = _short_config(tmp_path, table1_text,
                        extra=(("step = 1e-4", "step = 5e-4"),
                               ("output_every = 100", "output_every = 20")))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    found = re.search(r"largest stable step is about ([0-9.e+-]+) s", caplog.text)
    assert found, caplog.text
    assert float(found.group(1)) == pytest.approx(4.83e-4, rel=0.01)


def test_cli_bode_unknown_target_exit2(tmp_path, capsys):
    code = main(["bode", "N_bogus", "--config", str(TABLE1),
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "T_ac" in err or "invalid choice" in err


def test_cli_design_report(capsys):
    code = main(["design", "--config", str(TABLE1)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"droop_ac: {2/49:.6g} 1" in out
    assert f"droop_dc: {10/370:.6g} 1" in out
    assert "y_l: 35.5 1" in out
    assert f"omega_0_min: {1.3 * 2**-23 / 50e-6:.6g} rad/s" in out
    assert "omega_0_ok: true" in out


def test_cli_design_flags_low_cutoff(tmp_path, table1_text, capsys):
    path = tmp_path / "low.cfg"
    path.write_text(table1_text.replace("omega_0 = 3.141592653589793e-3",
                                        "omega_0 = 1e-6"))
    code = main(["design", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "omega_0_ok: false" in out


def test_cli_design_negative_droop_exit2(tmp_path, table1_text, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(table1_text.replace("damping = 1", "damping = 26", 1))
    code = main(["design", "--config", str(path)])
    capsys.readouterr()
    assert code == 2


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["predict", "--config", str(tmp_path / "nope.cfg")])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("old, new", [
    ("f_max = 51 ", "f_max = 0 "),
    ("v_max = 380 ", "v_max = 0 "),
    ("v_max = 710 ", "v_max = 0 "),
    ("f_max = 51 ", "droop = 0.05\nf_max = 0 "),
    ("v_max = 380 ", "droop = 0.05\nv_max = 0 "),
    ("v_max = 710 ", "y_l = 35.5\nv_max = 0 "),
    ("f_max = 51          # Hz\nf_min = 49\nf_nominal = 50",
     "droop = 0.05\nf_max = -1\nf_min = -3\nf_nominal = -2"),
], ids=["ac", "dc", "ds", "ac-droop-given", "dc-droop-given", "ds-y_l-given",
        "ac-negative-band-droop-given"])
def test_cli_non_positive_upper_limit_exit2(tmp_path, table1_text, caplog,
                                            old, new):
    # x_max <= 0 leaves no per-unit base: the droop design would divide by
    # zero, and a given droop must not let the limits through either
    text = table1_text.replace(old, new, 1)
    assert text != table1_text
    with pytest.raises(ConfigError, match="x_max must be > 0"):
        parse_config(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["predict", "--config", str(path)]) == 2
    assert "x_max must be > 0" in caplog.text


@pytest.mark.parametrize("command", ["simulate", "design", "bode", "predict"])
def test_cli_equal_limits_with_given_droop_exit2(tmp_path, table1_text, caplog,
                                                 command):
    # with the droop given no design step sees the empty band, so the
    # limits themselves are checked
    text = table1_text.replace(
        "f_min = 49\nf_nominal = 50", "f_min = 51\nf_nominal = 51\ndroop = 0.05")
    assert text != table1_text
    path = tmp_path / "equal.cfg"
    path.write_text(text)
    args = {"simulate": ["--out", str(tmp_path / "out")],
            "bode": ["N_ac1", "--out", str(tmp_path / "x.csv")]}
    assert main([command, *args.get(command, []), "--config", str(path)]) == 2
    assert "ac: need x_min < x_max, got 51.0, 51.0" in caplog.text


@pytest.mark.parametrize("old, new, message", [
    ("f_min = 49", "f_min = 1e30", "ac: need x_min < x_max, got 1e+30, 51.0"),
    ("f_max = 51 ", "f_max = 1e-30 ", "ac: need x_min < x_max, got 49.0, 1e-30"),
    ("v_min = 370", "v_min = 1e30", "dc: need x_min < x_max, got 1e+30, 380.0"),
    ("v_max = 380 ", "v_max = 1e-30 ", "dc: need x_min < x_max, got 370.0, 1e-30"),
], ids=["ac-f_min", "ac-f_max", "dc-v_min", "dc-v_max"])
def test_cli_inverted_limits_exit2(tmp_path, table1_text, caplog, old, new,
                                   message):
    # a band far below zero once rounded the droop identity r/(D r + 1) to 1/0
    text = table1_text.replace(old, new, 1)
    assert text != table1_text
    path = tmp_path / "inverted.cfg"
    path.write_text(text)
    assert main(["predict", "--config", str(path)]) == 2
    assert message in caplog.text


def test_cli_simulate_trace_too_large_exit2(tmp_path, table1_text, caplog):
    path = tmp_path / "long.cfg"
    path.write_text(table1_text.replace("horizon = 40", "horizon = 1e30"))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "the trace would hold 1e+32 samples, more than the 2,000,000" \
        in caplog.text


def test_cli_design_non_positive_cutoff_exit2(tmp_path, table1_text, caplog):
    # design defers only the resolution bound, not the cutoff's sign
    path = tmp_path / "w0.cfg"
    path.write_text(table1_text.replace("omega_0 = 3.141592653589793e-3",
                                        "omega_0 = -1"))
    assert main(["design", "--config", str(path)]) == 2
    assert "ilc.omega_0 must be > 0" in caplog.text


@pytest.mark.parametrize("argv, bad", [
    (["simulate", "--out", "{f}"], "{f}"),
    (["predict", "--out", "{f}/x.csv"], "{f}/x.csv"),
    (["bode", "N_ac1", "--out", "{f}/x.csv"], "{f}/x.csv"),
], ids=["simulate-out-is-a-file", "predict-out-under-a-file",
        "bode-out-under-a-file"])
def test_cli_unwritable_output_exit2(tmp_path, caplog, argv, bad):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    fill = {"f": str(a_file)}
    argv = [a.format(**fill) for a in argv] + ["--config", str(TABLE1)]
    assert main(argv) == 2
    assert f"cannot write {bad.format(**fill)}:" in caplog.text


# ---------------------------------------------------------------------------
# circuit-model and transfer-function errors
# ---------------------------------------------------------------------------

def test_cli_predict_load_beyond_capacity_exit2(tmp_path, table1_text, caplog):
    path = tmp_path / "big.cfg"
    path.write_text(table1_text.replace("e1 = 1.0 dc 14e3", "e1 = 1.0 dc 140e3"))
    assert main(["predict", "--config", str(path)]) == 2
    assert "load step exceeds total capacity" in caplog.text


def test_cli_bode_transfer_function_error_exit2(tmp_path, monkeypatch, caplog):
    import hmg.cli
    from hmg.lti import EvalAtPole

    def at_pole(f, grid):
        raise EvalAtPole("denominator vanishes at s=1j")

    monkeypatch.setattr(hmg.cli, "bode_export", at_pole)
    out = tmp_path / "t.csv"
    assert main(["bode", "T_ac", "--config", str(TABLE1), "--out", str(out)]) == 2
    assert "denominator vanishes at s=1j" in caplog.text


def test_cli_bode_biproper_branch_exit2(tmp_path, monkeypatch, caplog):
    from dataclasses import replace

    import hmg.cli
    from hmg.lti import tf

    build_gecm = hmg.cli.build_gecm

    def biproper(*args):  # Z_dc = (s + 2)/(s + 1)
        return replace(build_gecm(*args), z_dc=tf([2.0, 1.0], [1.0, 1.0]))

    monkeypatch.setattr(hmg.cli, "build_gecm", biproper)
    out = tmp_path / "f.csv"
    assert main(["bode", "f_closed", "--config", str(TABLE1),
                 "--out", str(out)]) == 2
    assert "z_dc is not strictly proper" in caplog.text


def test_cli_bode_singular_nodal_system_exit3(tmp_path, monkeypatch, caplog):
    import hmg.cli
    from hmg.gecm import SingularSystem

    def singular(system):
        raise SingularSystem("nodal determinant is identically zero")

    monkeypatch.setattr(hmg.cli, "solve_nodal", singular)
    out = tmp_path / "f.csv"
    assert main(["bode", "f_closed", "--config", str(TABLE1),
                 "--out", str(out)]) == 3
    assert "nodal determinant is identically zero" in caplog.text
