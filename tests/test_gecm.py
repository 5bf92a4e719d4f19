import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import UNEQUAL_ILC, make_ac, make_dc, make_ds
from hmg.cli import _bode_tf
from hmg.config import Toggles, load_config, reference_config
from hmg import gecm
from hmg.gecm import (
    RESIDUAL_POINTS,
    GecmError,
    SingularSystem,
    _admittance,
    _back_substitution_residual,
    bode_export,
    build_branch_impedances,
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
from hmg.ilc import IlcSpec, design_omegas
from hmg.lti import ivt_rate_limit, tf, tf_eval, tf_scale, tf_series
from hmg.sim import _Engine
from hmg.subgrid import build_open_loop_tf, steady_droop_gain_pu

TABLE1 = Path(__file__).resolve().parents[1] / "configs" / "table1.cfg"
W0 = 1e-3 * math.pi
REF_GAINS = dict(k_tp1=4000.0, k_ti1=400e3, k_tp2=4000.0, k_ti2=400e3)


@pytest.fixture
def specs(ac_spec, dc_spec, ds_spec):
    return (ac_spec, dc_spec, ds_spec)


@pytest.fixture
def ref_system(specs):
    cspec = design_omegas(W0, *specs)
    return build_gecm(*specs, IlcSpec(**REF_GAINS), cspec, (12e3, 14e3, 10e3))


# ---------------------------------------------------------------------------
# branch impedances
# ---------------------------------------------------------------------------

def test_branch_scaling_equal_capacities(specs):
    z_ac, z_dc, z_ds = build_branch_impedances(*specs)
    # equal 20 kW capacities scale every branch by 3 vs the local base
    local = build_open_loop_tf(specs[2])
    assert ivt_rate_limit(z_ds) == pytest.approx(0.2, rel=1e-12)
    assert ivt_rate_limit(z_ds) == pytest.approx(-3.0 * ivt_rate_limit(local), rel=1e-12)


def test_branch_scaling_single_subgrid():
    # shrink the other capacities: the branch reduces to the local model
    ac = make_ac()
    dc = make_dc(p_max_w=1e-6)
    ds = make_ds(p_max_w=1e-6)
    z_ac, _, _ = build_branch_impedances(ac, dc, ds)
    assert ivt_rate_limit(z_ac) == pytest.approx(0.25, rel=1e-6)


def test_branch_validation(ref_system):
    ref_system.validate()  # stable, strictly proper branches


@pytest.mark.parametrize("z_ac, reason", [
    (tf([2.0, 1.0], [1.0, 1.0]), "not strictly proper"),  # (s + 2)/(s + 1)
    (tf([1.0], [-1.0, 1.0]), "non-stable poles"),          # 1/(s - 1)
])
def test_solve_rejects_invalid_branch(ref_system, z_ac, reason):
    with pytest.raises(GecmError, match=reason):
        solve_nodal(replace(ref_system, z_ac=z_ac))


# ---------------------------------------------------------------------------
# admittance assembly and nodal solve
# ---------------------------------------------------------------------------

def test_admittance_decouples_without_ilc(specs):
    cspec = design_omegas(W0, *specs)
    weak = IlcSpec(k_tp1=1e-12, k_ti1=1e-12, k_tp2=1e-12, k_ti2=1e-12)
    sys_ = build_gecm(*specs, weak, cspec, (1e3, 1e3, 1e3))
    g = _admittance(sys_, np.array([1j * 1.0]))[..., 0]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            assert abs(g[i][j]) < 1e-10 * abs(g[i][i])


def test_admittance_unity_concatenators(specs):
    # bypassed concatenators leave pure PI couplings in the off-diagonals,
    # each loop's own: loop 1 couples DC and DS, loop 2 AC and DS
    s = 1j * 3.0
    for ilc in (IlcSpec(**REF_GAINS), UNEQUAL_ILC):
        sys_ = build_gecm(*specs, ilc, None, (1e3, 1e3, 1e3))
        g = _admittance(sys_, np.array([s]))[..., 0]
        loop1 = (ilc.k_tp1 * s + ilc.k_ti1) / s
        loop2 = (ilc.k_tp2 * s + ilc.k_ti2) / s
        assert g[0][2] == pytest.approx(-loop2, rel=1e-10)
        assert g[1][2] == pytest.approx(-loop1, rel=1e-10)


def test_solve_zero_loads_zero_deviations(specs):
    cspec = design_omegas(W0, *specs)
    sys_ = build_gecm(*specs, IlcSpec(**REF_GAINS), cspec, (0.0, 0.0, 0.0))
    sol = solve_nodal(sys_)
    for kind in ("ac", "dc", "ds"):
        assert sol.channel(kind).num.is_zero


def test_solve_symmetric_system():
    # identical specs and loads: the three responses coincide
    base = make_ac()
    trio = (base, replace(base, kind="dc"), replace(make_ds(), x_max=51.0,
            x_min=49.0, x_nominal=50.0))
    # build a genuinely symmetric system instead: three AC-like branches
    ac = base
    dc = replace(base, kind="dc")
    ds_like = replace(base, kind="dc")
    from hmg.gecm import GecmSystem
    from hmg.ilc import ilc_equivalent_impedances

    z = build_branch_impedances(ac, dc, dc)[0]
    t = tf([2.0 * W0, 1.0], [W0, 1.0])
    z1, z2 = ilc_equivalent_impedances(IlcSpec(**REF_GAINS))
    sys_ = GecmSystem(
        z_ac=z, z_dc=z, z_ds=z, t_ac=t, t_dc=t, t_ds=t, z_ilc1=z1, z_ilc2=z2,
        p_lac_gpu=0.2, p_ldc_gpu=0.2, p_lds_gpu=0.2, p_gmax_w=60e3,
    )
    sol = solve_nodal(sys_)
    for s in (1j * 0.1, 1j * 10.0, 0.5 + 1j):
        vals = [sol.eval_channel(kind, s) for kind in ("ac", "dc", "ds")]
        assert vals[0] == pytest.approx(vals[1], rel=1e-8)
        assert vals[0] == pytest.approx(vals[2], rel=1e-8)
    del trio


def test_solve_reference_residual_and_stability(ref_system):
    sol = solve_nodal(ref_system)
    assert sol.residual < 1e-6
    assert np.all(sol.poles().real < 0.0)


def test_poles_are_the_engine_modes():
    # two independent constructions of one circuit: the nodal interconnection
    # of impedances, and the engine's continuous limit (S - I)/h
    loaded = load_config(TABLE1)
    cfg = loaded.config
    sys_ = build_gecm(*cfg.specs, cfg.ilc, cfg.concatenator_spec(),
                      loaded.scenario().first_group_w())
    poles = solve_nodal(sys_).poles()
    assert len(poles) == 14
    assert np.all(poles.real < 0.0)
    h = 1e-8
    eng = _Engine(cfg, Toggles(restoration_enabled=False), h)
    modes = list(np.linalg.eigvals((eng.S - np.eye(eng.n)) / h))
    for p in poles:
        j = int(np.argmin([abs(m - p) for m in modes]))
        assert modes.pop(j) == pytest.approx(p, rel=1e-5)
    # the storage split filter reads the circuit's outputs and feeds none back
    split = -cfg.ds.y_l / (2.0 * cfg.ds.y_h)
    assert modes == [pytest.approx(split, rel=1e-5)]


def test_f_closed_matches_its_formula():
    """`hmg bode f_closed` against pointwise evaluation of its definition.

    x_max (1/s + dev + F/(1+F) ((x_n* - 1)/s - dev)) with dev the nodal AC
    deviation and F = k_p + k_i/s. The CLI composes this as one rational
    function built from the solution's characteristic polynomials, which
    holds it to 1e-3 here; a 1e-9 match needs a pointwise `bode_export`,
    which waits for the benchmark harness to stop passing `bode_export` a
    RationalTF (ROADMAP item 2).
    """
    loaded = load_config(TABLE1)
    cfg = loaded.config
    ac = cfg.specs[0]
    f_closed = _bode_tf(loaded, "f_closed")
    sol = solve_nodal(build_gecm(*cfg.specs, cfg.ilc, cfg.concatenator_spec(),
                                 loaded.scenario().first_group_w()))
    for w in default_bode_grid():
        s = 1j * w
        dev = sol.eval_channel("ac", s) / s
        f = ac.k_p + ac.k_i / s
        want = ac.x_max * (1.0 / s + dev
                           + f / (1.0 + f) * ((ac.x_nominal_pu - 1.0) / s - dev))
        assert tf_eval(f_closed, s) == pytest.approx(want, rel=1e-3)


def wide_inertia_systems(n, seed=7):
    """Inertias and y_h scaled 0.1-10x log-uniform, unity concatenators;
    alternately a step on one subgrid and a random split of 36 kW."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        k = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        specs = (make_ac(inertia_h=2.0 * k[0]), make_dc(inertia_h=3.0 * k[1]),
                 make_ds(y_h=7.5 * k[2]))
        if i % 2:
            loads = 36e3 * rng.dirichlet(np.ones(3))
        else:
            loads = np.zeros(3)
            loads[rng.integers(3)] = 12e3
        yield build_gecm(*specs, IlcSpec(**REF_GAINS), None, tuple(loads))


def test_residual_on_wide_inertia_configs():
    worst = max(solve_nodal(sys_).residual for sys_ in wide_inertia_systems(100))
    assert worst <= 1e-12


def test_residual_points_are_the_fixed_draws():
    got, want = np.array(RESIDUAL_POINTS), np.array(oracle.residual_points())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def table1_system(concatenator=True, ilc=True):
    """table1's first load group; ilc True keeps its converter, False drops
    it, and an IlcSpec replaces it. Restoration does not enter the circuit
    model."""
    loaded = load_config(TABLE1)
    cfg = loaded.config
    gains = {True: cfg.ilc, False: None}.get(ilc, ilc)
    return build_gecm(*cfg.specs, gains,
                      cfg.concatenator_spec() if concatenator else None,
                      loaded.scenario().first_group_w())


@pytest.mark.parametrize("concatenator, ilc", [
    *itertools.product((True, False), repeat=2), (True, UNEQUAL_ILC),
], ids=lambda v: "unequal" if isinstance(v, IlcSpec) else None)
def test_residual_matches_point_loop_table1(concatenator, ilc):
    # the toggles as `compare_with_gecm` reads them, and converter loops
    # with unequal gains, which tell the two loops apart
    sys_ = table1_system(concatenator, ilc)
    sol = solve_nodal(sys_)
    want = oracle.back_substitution_residual(sys_, sol)
    assert abs(_back_substitution_residual(sys_, sol) - want) <= 1e-15
    assert sol.residual == _back_substitution_residual(sys_, sol)


def test_residual_matches_point_loop_admissible_pool(monkeypatch):
    # the seeded pool the benchmark's sweep draws its configurations from
    monkeypatch.syspath_prepend(str(TABLE1.parents[1] / "perfbench"))
    import generators

    for loaded in generators.admissible_pool(1, 48):
        cfg = loaded.config
        sys_ = build_gecm(*cfg.specs, cfg.ilc, cfg.concatenator_spec(),
                          loaded.scenario().first_group_w())
        sol = solve_nodal(sys_)
        want = oracle.back_substitution_residual(sys_, sol)
        assert abs(sol.residual - want) <= 1e-15


def test_residual_matches_point_loop_admissible_pool_unequal_gains(monkeypatch):
    # unequal converter gains on the same pool: the library's G and the
    # oracle's rational assembly round apart by up to 5.0e-15 (12 of the 48
    # configs above 1e-15, residuals up to 8.9e-15), so the bound is 64 eps
    monkeypatch.syspath_prepend(str(TABLE1.parents[1] / "perfbench"))
    import generators

    for loaded in generators.admissible_pool(1, 48):
        cfg = loaded.config
        sys_ = build_gecm(*cfg.specs, UNEQUAL_ILC, cfg.concatenator_spec(),
                          loaded.scenario().first_group_w())
        sol = solve_nodal(sys_)
        want = oracle.back_substitution_residual(sys_, sol)
        assert abs(sol.residual - want) <= 64 * np.finfo(float).eps


@pytest.mark.parametrize("error", ["T_dc_T_ds_swapped", "Z_ILC1_doubled",
                                   "B_dc_ds_columns_swapped",
                                   "C_dc_ds_rows_swapped"])
def test_gate_rejects_miswired_circuit(error, monkeypatch):
    # the gate's own construction of G must catch a state-space model that
    # solves a different circuit
    interconnect = gecm._interconnect

    def miswired(sys_):
        if error == "T_dc_T_ds_swapped":
            sys_ = replace(sys_, t_dc=sys_.t_ds, t_ds=sys_.t_dc)
        if error == "Z_ILC1_doubled":
            sys_ = replace(sys_, z_ilc1=tf_scale(sys_.z_ilc1, 2.0))
        A, B, C = interconnect(sys_)
        if error == "B_dc_ds_columns_swapped":
            B = B[:, [0, 2, 1]]
        if error == "C_dc_ds_rows_swapped":
            C = C[[0, 2, 1]]
        return A, B, C

    monkeypatch.setattr(gecm, "_interconnect", miswired)
    solve_nodal.cache_clear()  # an earlier test may have solved table1
    with pytest.raises(SingularSystem, match="back-substitution residual"):
        solve_nodal(table1_system())


def test_responses_batch_matches_points(ref_system):
    sol = solve_nodal(ref_system)
    s = np.array([1j * 0.1, 1j * 10.0, 0.5 + 1j])
    batch = sol.responses(s)
    assert batch.shape == (3, 3)
    for row, p in zip(batch, s):
        np.testing.assert_allclose(row, sol.responses(p), rtol=1e-15)


def test_responses_batch_solves_a_stack_of_matrices(ref_system, monkeypatch):
    # numpy 1.x reads an (n, 1) right-hand side against a (k, n, n) stack as
    # n vectors, so the batch must pass b as a (k, n, 1) stack
    sol = solve_nodal(ref_system)
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append((a.shape, b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    n = len(sol.b)
    sol.responses(np.array([1j, 2j, 3j, 4j]))
    sol.responses(1j)
    assert shapes == [((4, n, n), (4, n, 1)), ((n, n), (n, 1))]


def test_solve_steady_deviations_match_droop_gains(ref_system, specs):
    # steady state is capacity-proportional sharing through each droop
    sol = solve_nodal(ref_system)
    p_lg_pu = 36e3 / 60e3
    for kind, spec in zip(("ac", "dc", "ds"), specs):
        got = sol.eval_channel(kind, 1e-12).real
        want = steady_droop_gain_pu(spec) * p_lg_pu
        assert got == pytest.approx(want, rel=1e-8)


def test_solve_midband_plateau_shows_global_inertia(ref_system, specs):
    sol = solve_nodal(ref_system)
    want = (36e3 / 60e3) / (2.0 * global_inertia(specs))
    for kind in ("ac", "dc", "ds"):
        for w in (20.0, 50.0, 200.0):
            got = abs(1j * w * sol.eval_channel(kind, 1j * w))
            assert got == pytest.approx(want, rel=0.02)


# ---------------------------------------------------------------------------
# global inertia and predictions
# ---------------------------------------------------------------------------

def test_global_inertia_reference(specs):
    assert global_inertia(specs) == 12.5 / 3.0


def test_global_inertia_doubled_storage(ac_spec, dc_spec):
    specs = (ac_spec, dc_spec, make_ds(y_h=15.0))
    assert global_inertia(specs) == 20.0 / 3.0


def test_global_inertia_single_subgrid(ac_spec):
    specs = (ac_spec, make_dc(p_max_w=1e-9), make_ds(p_max_w=1e-9))
    assert global_inertia(specs) == pytest.approx(2.0, rel=1e-12)


def test_predict_rates_table(specs):
    rocof, rocov_dc, rocov_ds = predict_rates(specs, 36e3)
    assert rocof == pytest.approx(3.672, rel=1e-12)
    assert rocov_dc == pytest.approx(27.36, rel=1e-12)
    assert rocov_ds == pytest.approx(51.12, rel=1e-12)
    specs2 = (specs[0], specs[1], make_ds(y_h=15.0))
    rocof2, rocov_dc2, rocov_ds2 = predict_rates(specs2, 36e3)
    assert rocof2 == pytest.approx(2.295, rel=1e-12)
    assert rocov_dc2 == pytest.approx(17.10, rel=1e-12)
    assert rocov_ds2 == pytest.approx(31.95, rel=1e-12)
    assert predict_rates(specs, 0.0) == (0.0, 0.0, 0.0)


def test_predict_steady_shares(specs):
    assert predict_steady_shares(specs, 36e3) == pytest.approx((12e3,) * 3)
    assert predict_steady_shares(specs, 42e3) == pytest.approx((14e3,) * 3)
    lopsided = (make_ac(p_max_w=40e3), make_dc(p_max_w=10e3), make_ds(p_max_w=10e3))
    assert predict_steady_shares(lopsided, 30e3) == pytest.approx((20e3, 5e3, 5e3))
    # closure: shares sum to the load exactly
    shares = predict_steady_shares(specs, 33.3e3)
    assert sum(shares) == pytest.approx(33.3e3, abs=1e-9)


def test_objective1_only_ratio(specs):
    assert objective1_only_ratio(specs) == pytest.approx((25.5, 38.0, 35.5), rel=1e-12)
    same_band = (make_ac(), make_dc(x_max=380.0, x_min=380.0 * 49 / 51,
                                    x_nominal=375.0), make_ds())
    r = objective1_only_ratio(same_band)
    assert r[0] == pytest.approx(r[1], rel=1e-10)
    widened = objective1_only_ratio((make_ac(x_min=47.0), make_dc(), make_ds()))
    assert widened[0] < 25.5  # wider band lowers the share


# ---------------------------------------------------------------------------
# ideal-coupling global deviation TFs
# ---------------------------------------------------------------------------

def test_ideal_global_tf_rate_limits(specs):
    h_g = global_inertia(specs)
    cspec = design_omegas(W0, *specs)
    for kind in ("ac", "dc", "ds"):
        n1 = ideal_global_deviation_tf(specs, cspec, kind)
        assert ivt_rate_limit(n1) == pytest.approx(-1.0 / (2.0 * h_g), rel=1e-10)
        # and with unity concatenators as well
        n1u = ideal_global_deviation_tf(specs, None, kind)
        assert ivt_rate_limit(n1u) == pytest.approx(-1.0 / (2.0 * h_g), rel=1e-10)


def test_ideal_vs_local_branch_without_coupling(specs):
    # without coupling each branch keeps its own inertia rate exactly
    for spec, want in zip(specs, (-0.25, -1.0 / 6.0, -1.0 / 15.0)):
        assert ivt_rate_limit(build_open_loop_tf(spec)) == pytest.approx(want, rel=1e-12)


def test_ideal_global_tf_reduces_high_frequency_magnitude(specs):
    cspec = design_omegas(W0, *specs)
    n_ac0 = build_open_loop_tf(specs[0])
    n_ac1 = ideal_global_deviation_tf(specs, cspec, "ac")
    w = 100.0
    assert abs(tf_eval(n_ac1, 1j * w)) < abs(tf_eval(n_ac0, 1j * w))


@pytest.mark.parametrize("source", ("table1", "admissible_pool"))
def test_ideal_global_tf_matches_per_channel_build(source, monkeypatch):
    # the pooled stiffness is built once per configuration and shared by
    # the three channels: the same arithmetic as building it per channel
    if source == "table1":
        configs = [load_config(TABLE1).config]
    else:
        monkeypatch.syspath_prepend(str(TABLE1.parents[1] / "perfbench"))
        import generators

        configs = [loaded.config for loaded in generators.admissible_pool(1, 48)]
    for cfg in configs:
        for cspec in (cfg.concatenator_spec(), None):
            for kind in ("ac", "dc", "ds"):
                got = ideal_global_deviation_tf(cfg.specs, cspec, kind)
                want = oracle.ideal_global_deviation_tf(cfg.specs, cspec, kind)
                for a, b in ((got.num, want.num), (got.den, want.den)):
                    assert np.array(a.coeffs).tobytes() == np.array(b.coeffs).tobytes()


def _ideal_coupling_gap(lam: float, w: float) -> float:
    """Worst relative gap over the three channels at s = jw between the
    finite-gain nodal model, all four converter gains of table1 scaled by
    lam, and the ideal-coupling form times table1's first-group load."""
    loaded = load_config(TABLE1)
    cfg, loads = loaded.config, loaded.scenario().first_group_w()
    ilc = replace(cfg.ilc, **{k: lam * getattr(cfg.ilc, k) for k in REF_GAINS})
    cspec = cfg.concatenator_spec()
    got = solve_nodal(build_gecm(*cfg.specs, ilc, cspec, loads)).responses(1j * w)
    want = np.array([tf_eval(ideal_global_deviation_tf(cfg.specs, cspec, kind), 1j * w)
                     for kind in ("ac", "dc", "ds")]) * sum(loads) / cfg.p_gmax_w
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("w", (100.0, 1000.0))
def test_nodal_model_converges_to_ideal_coupling_at_first_order(w):
    # the rate predictions rest on the infinite-gain form: scaling the
    # converter gains by lam shrinks the gap as 1/lam (measured on table1:
    # 1.6e-2 / lam at 100 rad/s, 0.23 / lam at 1000 rad/s)
    gap_1 = _ideal_coupling_gap(1.0, w)
    for lam in (10.0, 100.0, 1e3):
        assert lam * _ideal_coupling_gap(lam, w) == pytest.approx(gap_1, rel=0.1)


def test_ideal_coupling_holds_at_table1_gains_below_100_rad_s():
    # within 2% up to 100 rad/s at table1's gains, and 7e-6 at 1 rad/s
    assert _ideal_coupling_gap(1.0, 100.0) < 0.02
    assert _ideal_coupling_gap(1.0, 1.0) < 1e-5


def test_nodal_model_puts_doubled_inertia_nadirs_where_the_xfail_says():
    # the strict xfail of criterion 3b gives its reason as the nodal model's
    # nadirs with the published parameters: 48.46 Hz and 359.1 V. The modal
    # step response of the nodal solution, without restoration, from the
    # nominal operating point, over 20 s at 0.1 ms:
    cfg = reference_config()
    cfg_2x = replace(cfg, ds=replace(cfg.ds, y_h=15.0))
    loads = (12e3, 14e3, 10e3)
    sol = solve_nodal(build_gecm(*cfg_2x.specs, *cfg_2x.coupling(Toggles()), loads))
    w, V = np.linalg.eig(sol.A)
    modal_b = np.linalg.solve(V, sol.b)
    t = np.linspace(0.0, 20.0, 200_001)
    x = np.expm1(np.outer(t, w)) / w * modal_b
    deviation = (x @ (sol.C @ V).T).real
    ac, dc = cfg_2x.specs[:2]
    nadir_f = ac.x_nominal + ac.x_max * deviation[:, 0].min()
    nadir_vdc = dc.x_nominal + dc.x_max * deviation[:, 1].min()
    assert nadir_f == pytest.approx(48.457, abs=5e-4)
    assert nadir_vdc == pytest.approx(359.097, abs=5e-4)
    # both miss the floors the xfail asserts (49.40 Hz, 369.35 V)
    assert nadir_f < 49.40 and nadir_vdc < 369.35


# ---------------------------------------------------------------------------
# restoration in the Laplace picture
# ---------------------------------------------------------------------------

def test_restored_absolute_value_pins_nominal(ref_system, specs):
    sol = solve_nodal(ref_system)
    step = tf([1.0], [0.0, 1.0])
    for kind, spec in zip(("ac", "dc", "ds"), specs):
        dev = tf_series(sol.channel(kind), step)
        x_tf = restored_absolute_tf(dev, spec, restoration=True)
        # final value: lim s*x*(s) at small s through the rational form
        s = 1e-7
        got = (s * tf_eval(x_tf, s)).real
        assert got == pytest.approx(spec.x_nominal_pu, rel=1e-6)


def test_unrestored_absolute_value_keeps_droop_offset(ref_system, specs):
    sol = solve_nodal(ref_system)
    step = tf([1.0], [0.0, 1.0])
    p_lg_pu = 36e3 / 60e3
    for kind, spec in zip(("ac", "dc", "ds"), specs):
        dev = tf_series(sol.channel(kind), step)
        x_tf = restored_absolute_tf(dev, spec, restoration=False)
        s = 1e-7
        got = (s * tf_eval(x_tf, s)).real
        want = 1.0 + steady_droop_gain_pu(spec) * p_lg_pu
        assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# Bode export
# ---------------------------------------------------------------------------

def test_bode_constant_gain():
    rows = bode_export(tf([25.5], [1.0]), [0.1, 1.0, 10.0])
    for _, mag_db, phase in rows:
        assert mag_db == pytest.approx(20.0 * math.log10(25.5), rel=1e-12)
        assert phase == 0.0


def test_bode_concatenator_tail(specs):
    cspec = design_omegas(W0, *specs)
    from hmg.ilc import concatenator_tf

    rows = bode_export(concatenator_tf(cspec, "ac"), [1e3, 1e4])
    for _, mag_db, _ in rows:
        assert abs(mag_db) < 1e-3  # 0 dB tail


def test_bode_grid_validation():
    with pytest.raises(GecmError):
        bode_export(tf([1], [1, 1]), [1.0, 0.5])
    with pytest.raises(GecmError):
        bode_export(tf([1], [1, 1]), [-1.0, 1.0])
    assert bode_export(tf([1], [1, 1]), []) == []
    grid = default_bode_grid()
    assert len(grid) == 300 and grid[0] == pytest.approx(1e-4)


@pytest.mark.parametrize("grid", [[1.0, math.nan, 3.0], [1.0, 2.0, math.inf]],
                         ids=["nan", "inf"])
def test_bode_rejects_non_finite_grid(grid):
    with pytest.raises(GecmError, match="finite"):
        bode_export(tf([1], [1, 1]), grid)


def test_bode_rows_are_python_floats():
    rows = bode_export(tf([1], [1, 1]), default_bode_grid())
    assert len(rows) == 300
    assert all(type(v) is float for row in rows for v in row)
