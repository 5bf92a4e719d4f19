import re
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from conftest import UNEQUAL_ILC
from hmg.config import load_config, reference_config
from hmg.sim import (
    Event,
    NotSettled,
    NumericalDivergence,
    Scenario,
    SimError,
    Toggles,
    TRACE_COLUMNS,
    compare_with_gecm,
    measure,
    run,
    write_trace_csv,
)
from hmg.ilc import IlcSpec

REF_EVENTS = (Event(1.0, "dc", 14e3), Event(1.0, "ac", 12e3), Event(1.0, "ds", 10e3))
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cfg():
    return reference_config()


@pytest.fixture(scope="module")
def ref_trace(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=REF_EVENTS)
    return run(sc, cfg)


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_validation():
    from hmg.config import ConfigError

    for settings, message in ((dict(step_s=-1.0), r"sim\.step must be > 0"),
                              (dict(step_s=0.0), r"sim\.step must be > 0"),
                              (dict(output_every=0),
                               r"sim\.output_every must be >= 1")):
        with pytest.raises(ConfigError, match=message):
            Scenario(horizon_s=10.0, **settings).validate()
    # the horizon must exceed the step: equal is rejected, one ulp more is not
    with pytest.raises(ConfigError, match=r"sim\.horizon must exceed sim\.step"):
        Scenario(horizon_s=1e-4, step_s=1e-4).validate()
    Scenario(horizon_s=np.nextafter(1e-4, 1.0), step_s=1e-4).validate()
    with pytest.raises(ConfigError):
        Scenario(horizon_s=10.0, events=(Event(5.0, "ac", 1e3),
                                         Event(1.0, "dc", 1e3))).validate()
    with pytest.raises(ConfigError):
        Scenario(horizon_s=10.0, events=(Event(20.0, "ac", 1e3),)).validate()
    with pytest.raises(ConfigError):
        Scenario(horizon_s=10.0, events=(Event(1.0, "pv", 1e3),)).validate()
    # within the horizon, but after the last step: the schedule would drop it
    with pytest.raises(ConfigError, match=r"t=0\.50004 s acts after the last "
                       r"step at t=0\.5 s"):
        Scenario(horizon_s=0.50005, step_s=1e-4,
                 events=(Event(0.50004, "ac", 1e3),)).validate()


def test_reference_config_run_settings_checked_by_its_scenario():
    from hmg.config import ConfigError, reference_run

    loaded = reference_run(step_s=0.0)
    assert loaded.config.step_s == 0.0
    with pytest.raises(ConfigError, match=r"sim\.step must be > 0"):
        loaded.scenario()


def test_first_group_is_the_first_events_step():
    sc = Scenario(horizon_s=2.0, events=(Event(1.00001, "dc", 1e3),
                                         Event(1.00004, "ac", 2e3),
                                         Event(1.0002, "ac", 4e3)))
    assert [sc.step_of(t) for t in (1.0, 1.00001, 1.00004, 1.0002)] == [
        10000, 10001, 10001, 10002]
    assert sc.first_group_w() == (2e3, 1e3, 0.0)
    assert Scenario(horizon_s=2.0).first_group_w() == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# run basics
# ---------------------------------------------------------------------------

def test_no_events_holds_nominal(cfg):
    sc = Scenario(horizon_s=5.0, step_s=2e-4, output_every=50)
    trace = run(sc, cfg)
    assert np.allclose(trace.f_hz, 50.0, atol=1e-9)
    assert np.allclose(trace.vdc_v, 370.0, atol=1e-9)
    assert np.allclose(trace.vds_v, 700.0, atol=1e-9)
    assert np.allclose(trace.p_oac_w, 0.0, atol=1e-6)


def test_initial_loads_start_settled(cfg):
    sc = Scenario(horizon_s=5.0, step_s=2e-4, output_every=50,
                  initial_loads_w=(4e3, 5e3, 3e3))
    trace = run(sc, cfg)
    # settled equilibrium: GPS shares of 12 kW, restored buses, no drift
    assert np.allclose(trace.f_hz, 50.0, atol=1e-6)
    assert np.allclose(trace.p_oac_w, 4e3, atol=1.0)
    assert np.ptp(trace.p_odc_w) < 1.0


def test_list_built_scenario_is_its_tuple_twin(cfg):
    # lists are stored as tuples, so every scenario can key the run memo
    listed = Scenario(horizon_s=2.0, events=[Event(1.0, "ac", 5e3)],
                      initial_loads_w=[1e3, 1e3, 1e3])
    twin = Scenario(horizon_s=2.0, events=(Event(1.0, "ac", 5e3),),
                    initial_loads_w=(1e3, 1e3, 1e3))
    assert listed == twin and hash(listed) == hash(twin)
    trace = run(listed, cfg)
    assert len(trace.t) == 201
    assert run(twin, cfg) is trace


def test_power_balance_every_sample(ref_trace):
    total_out = ref_trace.p_oac_w + ref_trace.p_odc_w + ref_trace.p_ods_w
    imbalance = np.abs(total_out - ref_trace.total_load_w())
    assert imbalance.max() < 1e-6 * 60e3


def test_hess_branches_sum_to_storage_power(ref_trace):
    recon = ref_trace.p_l_w + ref_trace.p_h_w
    assert np.allclose(recon, ref_trace.p_ods_w, atol=1e-6)


def test_decoupled_dc_step_leaves_ac_alone(cfg):
    sc = Scenario(horizon_s=10.0, step_s=2e-4, output_every=50,
                  events=(Event(1.0, "dc", 14e3),),
                  toggles=Toggles(ilc_enabled=False))
    trace = run(sc, cfg)
    assert np.allclose(trace.f_hz, 50.0, atol=1e-9)
    assert trace.vdc_v.min() < 369.0


def test_divergence_aborts():
    # proportional gain far beyond the step-size stability limit
    cfg = reference_config(ilc=IlcSpec(k_tp1=1e6, k_ti1=1e6, k_tp2=1e6,
                                       k_ti2=1e6))
    sc = Scenario(horizon_s=5.0, step_s=1e-4, events=REF_EVENTS)
    with pytest.raises(NumericalDivergence):
        run(sc, cfg)


def test_unstable_step_rejected_at_assembly(cfg, monkeypatch):
    # at 0.5 ms the fastest closed-loop mode leaves the RK4 stability region
    import hmg.sim

    def no_propagation(*args):
        raise AssertionError("propagated an unstable map")

    monkeypatch.setattr(hmg.sim, "_propagate", no_propagation)
    sc = Scenario(horizon_s=40.0, step_s=5e-4, events=REF_EVENTS,
                  output_every=20)
    with pytest.raises(NumericalDivergence, match="spectral radius 1.07"):
        run(sc, cfg)


def test_unstable_step_names_largest_stable_step(cfg):
    sc = Scenario(horizon_s=40.0, step_s=5e-4, events=REF_EVENTS,
                  output_every=20)
    with pytest.raises(NumericalDivergence, match="largest stable step") as exc:
        run(sc, cfg)
    step = re.search(r"about ([0-9.e+-]+) s", str(exc.value)).group(1)
    assert float(step) == pytest.approx(4.83e-4, rel=0.01)


def test_unstable_at_every_step_says_so(cfg, monkeypatch):
    import hmg.sim

    monkeypatch.setattr(hmg.sim, "_spectral_radius", lambda S: 1.5)
    sc = Scenario(horizon_s=1.0, step_s=1e-4, events=REF_EVENTS)
    with pytest.raises(NumericalDivergence,
                       match=r"spectral radius 1\.5 >= 1; no step down to "
                       r"9\.54e-11 s is stable"):
        run(sc, cfg)


@pytest.mark.parametrize("horizon_s, count", [(1e30, r"1e\+32"),
                                              (1e6, r"1e\+08")],
                         ids=["1e30s", "1e6s"])
def test_trace_too_large_to_hold_is_rejected_before_assembly(
        cfg, monkeypatch, horizon_s, count):
    # 1e6 s at 0.1 ms every 100 steps is 1e8 samples, ~20 GB of states
    import hmg.sim

    def no_assembly(*args):
        raise AssertionError("assembled an engine for a rejected trace")

    monkeypatch.setattr(hmg.sim, "_Engine", no_assembly)
    sc = Scenario(horizon_s=horizon_s, step_s=1e-4, events=REF_EVENTS)
    with pytest.raises(SimError, match=f"would hold {count} samples, more than "
                       "the 2,000,000 a run records"):
        run(sc, cfg)


def test_trace_cap_counts_the_recorded_samples(cfg, monkeypatch):
    import hmg.sim

    sc = Scenario(horizon_s=1.0, step_s=1e-4, output_every=1000)
    monkeypatch.setattr(hmg.sim, "MAX_TRACE_SAMPLES", 11)
    assert len(run(sc, cfg).t) == 11
    run.cache_clear()
    monkeypatch.setattr(hmg.sim, "MAX_TRACE_SAMPLES", 10)
    with pytest.raises(SimError, match="would hold 11 samples, more than the "
                       "10 a run records"):
        run(sc, cfg)


def test_divergence_check_catches_non_finite_states(cfg, monkeypatch):
    import hmg.sim

    def nan_states(Z, kicks, z0, n_samples, every):
        return np.full((n_samples + 1, len(z0)), np.nan)

    monkeypatch.setattr(hmg.sim, "_propagate", nan_states)
    sc = Scenario(horizon_s=1.0, step_s=1e-4, events=REF_EVENTS)
    with pytest.raises(NumericalDivergence, match="t=0.0000 s"):
        run(sc, cfg)


def test_composed_engine_matches_per_block_stepping(cfg):
    # with the reference converter, and with unequal loop gains, which tell
    # the two loops apart
    for ilc in (cfg.ilc, UNEQUAL_ILC):
        _assert_engine_matches_per_block_stepping(replace(cfg, ilc=ilc),
                                                  Toggles())


ALL_TOGGLES = [Toggles(concatenator_enabled=c, restoration_enabled=r,
                       ilc_enabled=i)
               for c in (True, False) for r in (True, False)
               for i in (True, False)]


def _toggles_id(t):
    return "c{:d}r{:d}i{:d}".format(t.concatenator_enabled,
                                    t.restoration_enabled, t.ilc_enabled)


@pytest.mark.parametrize("toggles", ALL_TOGGLES[1:], ids=_toggles_id)
def test_composed_engine_matches_per_block_stepping_under_toggles(cfg, toggles):
    # every conditional group of the block table against the per-block
    # reference: no concatenator is cspec=None, no converter is no ILC step
    # and p1 = p2 = 0, no restoration is no restoration step
    _assert_engine_matches_per_block_stepping(cfg, toggles)


def _assert_engine_matches_per_block_stepping(cfg, toggles):
    # the precomputed affine map must agree with literally stepping every
    # block under held inputs and coupling the outputs once per step
    from hmg.lti import tf_to_statespace
    from hmg.sim import _Engine
    from hmg.subgrid import build_open_loop_tf, hess_split
    from oracle import (
        IlcState,
        SubgridState,
        ilc_outputs,
        ilc_step,
        restoration_step,
        step_rk4,
    )

    h = 1e-4
    eng = _Engine(cfg, toggles, h)
    conc_on = toggles.ilc_enabled and toggles.concatenator_enabled
    groups = {"ac", "dc", "ds", "split"}
    groups |= {"conc"} if conc_on else set()
    groups |= {"pi"} if toggles.ilc_enabled else set()
    groups |= {"rest"} if toggles.restoration_enabled else set()
    assert {group for group, _ in eng.spans} == groups
    loads = np.array([12e3, 14e3, 10e3])
    u = np.append(loads, 1.0)
    x = np.zeros(eng.n)

    blocks = [tf_to_statespace(build_open_loop_tf(s)) for s in cfg.specs]
    split = tf_to_statespace(hess_split(1.0, cfg.ds)[0])
    block_x = [np.zeros(b.order) for b in blocks]
    split_x = np.zeros(1)
    ilc_state = IlcState()
    cspec = cfg.concatenator_spec() if toggles.concatenator_enabled else None
    rest = [SubgridState() for _ in cfg.specs]

    for _ in range(200):
        x = eng.S @ x + eng.T @ u

        devs = [float(b.C @ bx) for b, bx in zip(blocks, block_x)]
        p1_w = p2_w = 0.0
        if toggles.ilc_enabled:
            _, _, _, p1_w, p2_w = ilc_outputs(
                ilc_state, devs[0], devs[1], devs[2], cfg.ilc, cspec,
                cfg.p_gmax_w)
            ilc_state = ilc_step(ilc_state, devs[0], devs[1], devs[2],
                                 cfg.ilc, cspec, h, cfg.p_gmax_w)
        p_o = (loads[0] - p2_w, loads[1] - p1_w, loads[2] + p1_w + p2_w)
        block_x = [
            step_rk4(b, bx, p_o[i] / cfg.specs[i].p_max_w, h)
            for i, (b, bx) in enumerate(zip(blocks, block_x))
        ]
        split_x = step_rk4(split, split_x, p_o[2] / cfg.ds.p_max_w, h)
        if toggles.restoration_enabled:
            for i, spec in enumerate(cfg.specs):
                rest[i].delta_x_pu = devs[i]
                rest[i] = restoration_step(rest[i], spec.x_nominal_pu, h, spec)

    for i, kind in enumerate(("ac", "dc", "ds")):
        assert x[eng.spans[kind, 0]] == pytest.approx(block_x[i], rel=1e-9, abs=1e-15)
    assert x[eng.spans["split", 0]] == pytest.approx(split_x, rel=1e-9, abs=1e-15)
    if conc_on:
        conc = [x[eng.spans["conc", i]] for i in range(3)]
        assert np.concatenate(conc) == pytest.approx(
            [ilc_state.z_ac, ilc_state.z_dc, ilc_state.z_ds], rel=1e-9, abs=1e-18)
    if toggles.ilc_enabled:
        pi = [x[eng.spans["pi", j]] for j in range(2)]
        assert np.concatenate(pi) == pytest.approx(
            [ilc_state.z1, ilc_state.z2], rel=1e-9, abs=1e-18)
    if toggles.restoration_enabled:
        comps = [x[eng.spans["rest", i].start] for i in range(3)]
        assert comps == pytest.approx([r.delta_comp_pu for r in rest],
                                      rel=1e-9, abs=1e-15)


def test_time_column_by_name(cfg):
    trace = run(Scenario(horizon_s=1.0, step_s=2e-4, output_every=50), cfg)
    assert trace.column(TRACE_COLUMNS[0]) is trace.t


def test_run_is_deterministic(cfg):
    sc = Scenario(horizon_s=3.0, step_s=2e-4, output_every=20,
                  events=(Event(1.0, "ac", 6e3),))
    a = run(sc, cfg)
    b = run(sc, cfg)
    for col in TRACE_COLUMNS[1:]:
        assert np.array_equal(a.column(col), b.column(col))


# ---------------------------------------------------------------------------
# sample-stride propagation
# ---------------------------------------------------------------------------

# (kick steps, n_steps, every)
STRIDE_CASES = {
    "boundary_off_grid": ((0, 7), 40, 5),
    "two_boundaries_in_one_sample": ((0, 11, 13), 40, 5),
    "segment_shorter_than_every": ((0, 10, 12, 30), 40, 5),
    "event_at_last_step_and_past_it": ((0, 39, 40, 43), 40, 5),
    "steps_not_a_multiple_of_every": ((0, 17), 43, 5),
}


def _stride_problem(steps, rho=0.95):
    rng = np.random.default_rng(11)
    n = 6
    S = rng.standard_normal((n, n))
    S *= rho / np.abs(np.linalg.eigvals(S)).max()
    kicks = [(k, rng.standard_normal(n)) for k in steps]
    return S, kicks, rng.standard_normal(n)


def _segments(kicks):
    # (first step, drive held from it on): the running sum in kick order
    d, segments = 0.0, []
    for k, du in kicks:
        d = d + du
        segments.append((k, d))
    return segments


def _held(segments, steps):
    # the input of the last segment begun by each step
    return np.array([[u for first, u in segments if first <= k][-1]
                     for k in steps])


def _assert_plain_loop(S, kicks, x0, n_steps, every):
    # the blocked propagator, each drive d held as input states of
    # Z = [[S, I], [0, I]] that start at zero and take every kick, against
    # x = S x + d stepped one step at a time
    from hmg.sim import _propagate
    from oracle import affine_loop

    n = len(x0)
    Z = np.block([[S, np.eye(n)], [np.zeros((n, n)), np.eye(n)]])
    got = _propagate(Z, kicks, np.append(x0, np.zeros(n)), n_steps // every,
                     every)
    segments = _segments(kicks)
    ref = affine_loop(S, segments, x0, n_steps)[::every]
    assert got.shape == (len(ref), 2 * n) and ref.shape[1] == n
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got[:, :n] - ref) <= 1e-12 * scale)
    # each sample records the drive acting over the step it starts
    assert np.array_equal(got[:, n:],
                          _held(segments, range(0, n_steps + 1, every)))


@pytest.mark.parametrize("steps, n_steps, every", STRIDE_CASES.values(),
                         ids=STRIDE_CASES.keys())
def test_stride_matches_single_steps(steps, n_steps, every):
    S, kicks, x0 = _stride_problem(steps)
    _assert_plain_loop(S, kicks, x0, n_steps, every)


@pytest.mark.parametrize("case", STRIDE_CASES.values(), ids=STRIDE_CASES.keys())
def test_every_step_is_the_plain_affine_loop(case):
    steps, n_steps, _ = case
    S, kicks, x0 = _stride_problem(steps)
    _assert_plain_loop(S, kicks, x0, n_steps, 1)


@pytest.mark.parametrize("every", (1, 5))
@pytest.mark.parametrize("blocks", ((1, 0), (3, 5)), ids=("one", "three_plus_5"))
def test_propagate_across_blocks(blocks, every):
    # a first segment of exactly one block of whole samples, or of three
    # blocks and a partial one; at rho = 0.999 the state carried from block
    # to block still shows at the end
    from hmg.sim import _BLOCK_SAMPLES

    full, extra = blocks
    samples = full * _BLOCK_SAMPLES + extra
    S, kicks, x0 = _stride_problem((0, samples * every), rho=0.999)
    _assert_plain_loop(S, kicks, x0, samples * every + 7, every)


# every step recorded over twelve load steps: segments of 3, exactly 64 and
# several hundred steps
DENSE_TIMES = (0.05, 0.0503, 0.08, 0.1, 0.1064, 0.15, 0.2, 0.2641, 0.3, 0.35,
               0.4, 0.45)
DENSE = Scenario(
    horizon_s=0.5, step_s=1e-4, output_every=1,
    events=tuple(Event(t, ("ac", "dc", "ds")[i % 3], (1.5e3, -0.7e3)[i % 2])
                 for i, t in enumerate(DENSE_TIMES)),
    initial_loads_w=(8e3, 8e3, 8e3))


def test_dense_schedule_matches_affine_loop(cfg, monkeypatch):
    # each segment checked through the whole trace
    import hmg.sim
    from oracle import affine_loop

    got = run(DENSE, cfg)

    def plain_loop(Z, kicks, z0, n_samples, every):
        n = len(z0) - len(kicks[0][1])
        S, T = Z[:n, :n], Z[:n, n:]
        segments = _segments([(0, z0[n:]), *kicks])
        n_steps = n_samples * every
        X = affine_loop(S, [(k, T @ u) for k, u in segments], z0[:n], n_steps)
        return np.hstack((X, _held(segments, range(n_steps + 1))))[::every]

    monkeypatch.setattr(hmg.sim, "_propagate", plain_loop)
    want = run(DENSE, cfg)
    assert len(got.t) == 5001
    for name in TRACE_COLUMNS:
        ref = want.column(name)
        np.testing.assert_allclose(got.column(name), ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max(), err_msg=name)


def test_one_power_stack_per_run(cfg, monkeypatch):
    # the loads are input states, so one stack of sample-map powers serves
    # all thirteen load segments
    import hmg.sim

    counts = []
    powers = hmg.sim._powers

    def counting(P, count):
        counts.append(count)
        return powers(P, count)

    monkeypatch.setattr(hmg.sim, "_powers", counting)
    run(DENSE, cfg)
    assert counts == [hmg.sim._BLOCK_SAMPLES]


def _short_table1():
    loaded = load_config(REPO / "configs" / "table1.cfg")
    return loaded.config, replace(loaded.scenario(), horizon_s=3.0,
                                  events=loaded.events[:3])


def _pool_config_0(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import generators

    loaded = generators.admissible_pool(1, 1)[0]
    return loaded.config, loaded.scenario()


@pytest.mark.parametrize("toggles", ALL_TOGGLES, ids=_toggles_id)
@pytest.mark.parametrize("source", ("table1", "pool_config_0"))
def test_output_map_matches_per_column_formulas(source, toggles, monkeypatch):
    # every trace column is one row of the engine's output map over the
    # states and loads; the reference computes each column on its own
    import hmg.sim
    from oracle import trace_columns

    config, sc = (_short_table1() if source == "table1"
                  else _pool_config_0(monkeypatch))
    sc = replace(sc, toggles=toggles)
    states = []
    propagate = hmg.sim._propagate

    def recording(*args):
        states.append(propagate(*args))
        return states[-1]

    monkeypatch.setattr(hmg.sim, "_propagate", recording)
    trace = run(sc, config)
    eng = hmg.sim._Engine(config, toggles, sc.step_s)
    Zs, = states
    steps = np.arange(len(trace.t)) * sc.output_every
    loads = np.tile(sc.initial_loads_w, (len(steps), 1))
    for e in sc.events:
        loads[steps >= sc.step_of(e.time_s),
              ("ac", "dc", "ds").index(e.kind)] += e.delta_w
    assert np.array_equal(trace.loads_w, loads)
    want = trace_columns(config, toggles, eng.spans, Zs[:, :eng.n], loads)
    for name in TRACE_COLUMNS[1:]:
        ref = want[name]
        # the converter gains (~2.4e8 W per unit) scale the states' last bits
        np.testing.assert_allclose(trace.column(name), ref, rtol=0.0,
                                   atol=1e-11 * np.abs(ref).max(), err_msg=name)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_reference_rates(ref_trace):
    m = measure(ref_trace, 1.0)
    assert m.rocof_hz_s == pytest.approx(3.66, rel=0.05)
    assert m.rocov_dc_v_s == pytest.approx(27.32, rel=0.05)
    assert m.rocov_ds_v_s == pytest.approx(51.08, rel=0.05)
    assert m.nadir_f_hz <= m.steady_f_hz
    assert m.nadir_vdc_v <= m.steady_vdc_v


def test_measure_constant_trace(cfg):
    sc = Scenario(horizon_s=5.0, step_s=2e-4, output_every=50,
                  initial_loads_w=(3e3, 3e3, 3e3))
    m = measure(run(sc, cfg), 1.0)
    assert m.rocof_hz_s == pytest.approx(0.0, abs=1e-9)
    assert m.rocov_dc_v_s == pytest.approx(0.0, abs=1e-9)
    assert m.share_error == pytest.approx(0.0, abs=1e-9)


def test_measure_rejects_off_grid_event(ref_trace):
    with pytest.raises(SimError):
        measure(ref_trace, 1.0037)
    t = ref_trace.t  # one sample past the end is off the grid too
    with pytest.raises(SimError, match="not on the trace grid"):
        measure(ref_trace, t[-1] + (t[1] - t[0]))


def test_measure_event_at_time_zero(cfg):
    # the first sample is on the grid: its rates take the sample after it
    sc = Scenario(horizon_s=3.0, step_s=1e-4, output_every=10,
                  events=(Event(0.0, "ac", 5e3),))
    m = measure(run(sc, cfg), 0.0, require_settled=False)
    assert m.rocof_hz_s == pytest.approx(1.2519, rel=1e-4)


def test_measure_rejects_second_load_change_within_rate_sample(cfg):
    # the DC step at 1.005 s acts inside the 10 ms sample after the AC step
    sc = Scenario(horizon_s=3.0, step_s=1e-4, output_every=100,
                  events=(Event(1.0, "ac", 12e3), Event(1.005, "dc", 14e3)))
    trace = run(sc, cfg)
    with pytest.raises(SimError, match=r"\(1, 1\.01\] s after the event at "
                       r"t=1 s"):
        measure(trace, 1.0, require_settled=False)


def test_measure_nadir_window_ends_at_any_load_change(cfg):
    # the loads moved at 5 s keep the total constant; the window after the
    # 1 s event still ends there, before the DC dip the 5 s change makes
    sc = Scenario(horizon_s=10.0, step_s=1e-4,
                  toggles=Toggles(ilc_enabled=False),
                  events=(Event(1.0, "ac", 12e3), Event(1.0, "dc", 1e3),
                          Event(5.0, "dc", 10e3), Event(5.0, "ac", -10e3)))
    trace = run(sc, cfg)
    m = measure(trace, 1.0, require_settled=False)
    window = (trace.t >= 1.0) & (trace.t < 5.0)
    assert m.nadir_vdc_v == trace.vdc_v[window].min()
    assert m.nadir_vdc_v > trace.vdc_v.min() + 10.0


def test_measure_not_settled(cfg):
    from hmg.sim import SETTLE_REL, SETTLE_WINDOW_S

    sc = Scenario(horizon_s=6.0, step_s=1e-4, events=(Event(5.0, "ac", 12e3),))
    trace = run(sc, cfg)
    # the message names the first unsettled signal's spread over its base
    n = int(round(SETTLE_WINDOW_S / (trace.t[1] - trace.t[0])))
    spreads = [np.ptp(sig[-n:]) / base for sig, base in
               zip((trace.f_hz, trace.vdc_v, trace.vds_v), trace.bases)]
    first = next(x for x in spreads if x > SETTLE_REL)
    with pytest.raises(NotSettled, match=f"moves by {first:.2e} of base"):
        measure(trace, 5.0)


# ---------------------------------------------------------------------------
# control objectives
# ---------------------------------------------------------------------------

def test_transient_equalization_of_deviations(cfg):
    # pooled-inertia objective: per-unit deviations agree shortly after the
    # step, despite very different local disturbances
    sc = Scenario(horizon_s=8.0, step_s=1e-4, events=REF_EVENTS, output_every=10)
    trace = run(sc, cfg)
    devs = np.stack([trace.deviation_pu(k) for k in ("ac", "dc", "ds")], axis=1)
    window = (trace.t >= 1.2) & (trace.t <= 2.0)
    spread = devs[window].max(axis=1) - devs[window].min(axis=1)
    peak = np.abs(devs[window]).max()
    assert spread.max() < 0.05 * peak


def test_global_power_sharing_steady_state(cfg):
    sc = Scenario(horizon_s=60.0, step_s=1e-4, events=REF_EVENTS)
    m = measure(run(sc, cfg), 1.0)
    assert m.share_error < 0.01
    assert sum(m.steady_shares_w) == pytest.approx(36e3, rel=1e-6)


def test_global_power_sharing_random_admissible_configs():
    # sharing is a structural property, not a tuning artifact: random
    # capacities (within ~4:1), deviation bands and load splits all settle
    # into capacity-proportional allocation
    from dataclasses import replace as drep

    from conftest import make_ac, make_dc, make_ds
    from hmg.config import reference_config
    from hmg.subgrid import design_droop

    rng = np.random.default_rng(17)
    for _ in range(3):
        caps = rng.uniform(10e3, 40e3, size=3)
        f_band = rng.uniform(1.0, 3.0)
        vdc_band = rng.uniform(5.0, 20.0)
        vds_band = rng.uniform(10.0, 40.0)
        ac = design_droop(drep(make_ac(p_max_w=caps[0]),
                               x_min=51.0 - f_band, x_nominal=51.0 - f_band / 2,
                               droop_r=None))
        dc = design_droop(drep(make_dc(p_max_w=caps[1]),
                               x_min=380.0 - vdc_band,
                               x_nominal=380.0 - vdc_band / 2, droop_r=None))
        ds = design_droop(drep(make_ds(p_max_w=caps[2]),
                               x_min=710.0 - vds_band,
                               x_nominal=710.0 - vds_band / 2, y_l=None))
        cfg = reference_config(ac=ac, dc=dc, ds=ds)
        total = 0.5 * caps.sum()
        split = rng.dirichlet(np.ones(3)) * total
        sc = Scenario(
            horizon_s=60.0, step_s=1e-4,
            events=(Event(1.0, "ac", split[0]), Event(1.0, "dc", split[1]),
                    Event(1.0, "ds", split[2])),
        )
        m = measure(run(sc, cfg), 1.0)
        assert m.share_error < 0.01
        want = tuple(total * c / caps.sum() for c in caps)
        assert m.steady_shares_w == pytest.approx(want, rel=0.02)


def test_equilibrium_equalizes_relative_loading_indices(cfg):
    # the converter integrators drive the concatenated deviations together,
    # which at DC is exactly equality of the relative loading indices
    from hmg.subgrid import compute_rli

    sc = Scenario(horizon_s=60.0, step_s=1e-4, events=REF_EVENTS)
    trace = run(sc, cfg)
    values = (trace.f_hz[-1], trace.vdc_v[-1], trace.vds_v[-1])
    comps = (trace.delta_f_hz[-1], trace.delta_vdc_v[-1], trace.delta_vds_v[-1])
    rli = [compute_rli(x, c, spec)
           for x, c, spec in zip(values, comps, cfg.specs)]
    assert abs(rli[0] - rli[1]) < 1e-3
    assert abs(rli[0] - rli[2]) < 1e-3


def test_restoration_pins_nominals(cfg):
    sc = Scenario(horizon_s=120.0, step_s=1e-4, events=REF_EVENTS)
    m = measure(run(sc, cfg), 1.0)
    assert abs(m.steady_f_hz - 50.0) < 0.05
    assert abs(m.steady_vds_v - 700.0) < 0.7
    assert abs(m.steady_vdc_v - 370.0) < 0.37


def test_no_restoration_matches_droop_gains(cfg):
    sc = Scenario(horizon_s=60.0, step_s=1e-4, events=REF_EVENTS,
                  toggles=Toggles(restoration_enabled=False))
    m = measure(run(sc, cfg), 1.0)
    load_pu = 36e3 / 60e3
    assert m.steady_f_hz == pytest.approx(51.0 * (1 - load_pu * 2 / 51), rel=0.01)
    assert m.steady_vdc_v == pytest.approx(380.0 * (1 - load_pu * 10 / 380), rel=0.01)
    assert m.steady_vds_v == pytest.approx(710.0 * (1 - load_pu / 35.5), rel=0.01)


def test_storage_split_fast_slow(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=(Event(1.0, "ds", 10e3),))
    trace = run(sc, cfg)
    dt = trace.t[1] - trace.t[0]
    i0 = int(round(1.0 / dt))
    # fast branch carries the step instantly, then hands over
    assert trace.p_h_w[i0] == pytest.approx(10e3, rel=0.02)
    assert abs(trace.p_h_w[-1]) < 0.01 * 10e3
    assert trace.p_l_w[-1] == pytest.approx(trace.p_ods_w[-1], abs=0.01 * 10e3)


def test_storage_split_decay_time_isolated(cfg):
    # the ten-time-constant handover bound is a property of the split filter;
    # it holds exactly when the storage output is a clean step (converter
    # off), while coupled runs keep reshuffling power on the governor scale
    sc = Scenario(horizon_s=10.0, step_s=2e-4, events=(Event(1.0, "ds", 10e3),),
                  toggles=Toggles(ilc_enabled=False), output_every=50)
    trace = run(sc, cfg)
    settle = 10.0 * 2.0 * 7.5 / 35.5  # ten split-filter time constants
    after = trace.t >= 1.0 + settle
    assert np.abs(trace.p_h_w[after]).max() < 0.01 * 10e3
    assert trace.p_l_w[-1] == pytest.approx(10e3, rel=0.01)


def test_doubling_storage_inertia_reduces_rates(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=REF_EVENTS)
    m1 = measure(run(sc, cfg), 1.0)
    cfg2 = replace(cfg, ds=replace(cfg.ds, y_h=15.0))
    m2 = measure(run(sc, cfg2), 1.0)
    assert m2.rocof_hz_s < m1.rocof_hz_s
    assert m2.rocov_dc_v_s < m1.rocov_dc_v_s
    assert m2.rocov_ds_v_s < m1.rocov_ds_v_s


# ---------------------------------------------------------------------------
# cross-validation against the circuit model
# ---------------------------------------------------------------------------

def test_gecm_matches_reference_run(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=REF_EVENTS)
    report = compare_with_gecm(sc, cfg)
    assert report.passed
    assert max(report.rms_fraction.values()) < 0.02
    assert report.residual < 1e-6


def test_gecm_matches_decoupled_run(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=(Event(1.0, "ac", 12e3),),
                  toggles=Toggles(ilc_enabled=False))
    report = compare_with_gecm(sc, cfg)
    assert max(report.rms_fraction.values()) < 0.005


@pytest.mark.parametrize("t0", (1.004, 1.00004))
def test_gecm_aligns_a_first_event_between_samples(cfg, t0):
    # the first group acts from step ceil(t0/h), between two 10 ms samples;
    # the circuit model's load switches on at that same step
    sc = Scenario(horizon_s=12.0, step_s=1e-4,
                  events=tuple(replace(e, time_s=t0) for e in REF_EVENTS))
    assert max(compare_with_gecm(sc, cfg).rms_fraction.values()) < 1e-5


@pytest.mark.parametrize("t1", (2.0, 5.0, 8.0))
def test_gecm_matches_a_second_event_inside_the_window(cfg, t1):
    # the benchmark's second step moved into the 10 s window after the
    # first group: the circuit model takes it as the engine does
    sc = Scenario(horizon_s=40.0, step_s=1e-4,
                  events=REF_EVENTS + (Event(t1, "ac", 6e3),))
    report = compare_with_gecm(sc, cfg)
    assert report.passed
    assert max(report.rms_fraction.values()) < 1e-5


def test_gecm_window_past_horizon_rejected(cfg):
    # the 10 s window after the 1 s event needs an 11 s horizon
    sc = Scenario(horizon_s=10.0, step_s=1e-4, events=REF_EVENTS)
    with pytest.raises(SimError, match="1 s past the 10 s horizon"):
        compare_with_gecm(sc, cfg)


@pytest.mark.parametrize("settings, message", [
    (dict(step_s=0.0), r"sim\.step must be > 0"),
    (dict(output_every=0), r"sim\.output_every must be >= 1"),
], ids=["zero_step", "zero_output_every"])
def test_gecm_checks_the_run_settings_first(cfg, settings, message):
    # the cross-check window is derived from the step and the sample
    # interval, so a zero in either is a settings fault, not a division
    from hmg.config import ConfigError

    sc = Scenario(horizon_s=12.0, events=REF_EVENTS, **settings)
    with pytest.raises(ConfigError, match=message):
        compare_with_gecm(sc, cfg)


def test_gecm_flags_mismatched_configs(cfg):
    sc = Scenario(horizon_s=40.0, step_s=1e-4, events=REF_EVENTS)
    wrong = replace(cfg, ds=replace(cfg.ds, y_h=15.0))
    report = compare_with_gecm(sc, cfg, gecm_config=wrong)
    assert not report.passed


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def test_trace_csv_contract(tmp_path, cfg):
    sc = Scenario(horizon_s=2.0, step_s=2e-4, output_every=100,
                  events=(Event(1.0, "ac", 6e3),))
    trace = run(sc, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t_s,f_hz,vdc_v,vds_v,p_oac_w,p_odc_w,p_ods_w,"
                        "p_l_w,p_h_w,p1_w,p2_w,delta_f_hz,delta_vdc_v,"
                        "delta_vds_v")
    assert len(lines) == len(trace.t) + 1
    first = lines[1].split(",")
    assert len(first) == 14
    assert float(first[1]) == pytest.approx(50.0)
