import numpy as np
import pytest

from conftest import make_ac, make_ds
from oracle import SubgridState, restoration_step, tf_close
from hmg.lti import (
    fvt_limit,
    ivt_rate_limit,
    rk4_step_maps,
    tf,
    tf_add,
    tf_to_statespace,
)
from hmg.subgrid import (
    AC,
    DegenerateLimits,
    NegativeDroop,
    SubgridError,
    SubgridSpec,
    build_open_loop_tf,
    compute_lc,
    compute_rli,
    design_droop,
    hess_split,
    steady_droop_gain_pu,
)


def step_input_tf(f):
    """f(s)/s: the response of f to a unit step input."""
    return tf(f.num.coeffs, (0.0,) + f.den.coeffs)


# ---------------------------------------------------------------------------
# droop design
# ---------------------------------------------------------------------------

def test_design_ac_droop(ac_spec):
    assert ac_spec.droop_r == pytest.approx(2.0 / 49.0, rel=1e-12)
    r, d = ac_spec.droop_r, ac_spec.damping_d
    residual = r / (d * r + 1.0) - (51.0 - 49.0) / 51.0
    assert abs(residual) < 1e-12


def test_design_dc_droop(dc_spec):
    assert dc_spec.droop_r == pytest.approx(10.0 / 370.0, rel=1e-12)


def test_design_ds_droop(ds_spec):
    assert ds_spec.y_l == pytest.approx(35.5, rel=1e-12)


def test_design_droop_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x_min = rng.uniform(10.0, 500.0)
        band = rng.uniform(0.01, 0.2) * x_min
        d = rng.uniform(0.0, 2.0)
        spec = SubgridSpec(
            kind=AC, x_max=x_min + band, x_min=x_min, x_nominal=x_min + 0.5 * band,
            p_max_w=1e4, inertia_h=2.0, damping_d=d,
            t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
        )
        spec = design_droop(spec)
        r = spec.droop_r
        want = band / spec.x_max
        assert r / (d * r + 1.0) == pytest.approx(want, rel=1e-10)


def test_design_droop_degenerate():
    spec = make_ac()
    from dataclasses import replace

    with pytest.raises(DegenerateLimits):
        design_droop(replace(spec, x_min=51.0, x_nominal=51.0))


@pytest.mark.parametrize("kind", ["ac", "ds"])
@pytest.mark.parametrize("x_max, x_min", [(51.0, 1e30), (1e-30, 49.0)])
def test_design_droop_rejects_an_inverted_band(kind, x_max, x_min):
    # a band far below zero rounds r/(D r + 1) to 1/0: the band is checked
    # before the droop identity
    from dataclasses import replace

    spec = replace(make_ac() if kind == "ac" else make_ds(),
                   x_max=x_max, x_min=x_min)
    with pytest.raises(DegenerateLimits, match=f"{kind}: need x_min < x_max"):
        design_droop(spec)


def test_design_droop_negative():
    from dataclasses import replace

    # damping so large that x_max - D*(x_max - x_min) <= 0
    with pytest.raises(NegativeDroop):
        design_droop(replace(make_ac(), damping_d=26.0))


def test_zero_capacity_rejected():
    from dataclasses import replace

    with pytest.raises(SubgridError, match="p_max_w must be > 0"):
        replace(make_ac(), p_max_w=0.0).validate()


# ---------------------------------------------------------------------------
# open-loop transfer functions
# ---------------------------------------------------------------------------

def test_ac_branch_rate_and_steady_gain(ac_spec):
    n_ac0 = build_open_loop_tf(ac_spec)
    assert ivt_rate_limit(n_ac0) == pytest.approx(-0.25, rel=1e-12)
    steady = fvt_limit(step_input_tf(n_ac0))
    assert steady == pytest.approx(-2.0 / 51.0, rel=1e-10)
    assert steady == pytest.approx(steady_droop_gain_pu(ac_spec), rel=1e-10)


def test_ac_branch_infinite_inertia_limit():
    big = make_ac(inertia_h=1e12)
    assert abs(ivt_rate_limit(build_open_loop_tf(big))) < 1e-12


def test_dc_branch_rate_and_steady_gain(dc_spec):
    n_dc0 = build_open_loop_tf(dc_spec)
    assert ivt_rate_limit(n_dc0) == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert fvt_limit(step_input_tf(n_dc0)) == pytest.approx(-10.0 / 380.0, rel=1e-10)


def test_dc_branch_damping_rescale_keeps_steady_gain(dc_spec):
    # doubling D and re-designing R leaves the droop steady gain unchanged
    from dataclasses import replace

    doubled = design_droop(replace(dc_spec, damping_d=2.0, droop_r=None))
    g0 = fvt_limit(step_input_tf(build_open_loop_tf(dc_spec)))
    g1 = fvt_limit(step_input_tf(build_open_loop_tf(doubled)))
    assert g1 == pytest.approx(g0, rel=1e-10)


def test_ds_branch(ds_spec):
    n_ds0 = build_open_loop_tf(ds_spec)
    assert ivt_rate_limit(n_ds0) == pytest.approx(-1.0 / 15.0, rel=1e-12)
    assert fvt_limit(step_input_tf(n_ds0)) == pytest.approx(-1.0 / 35.5, rel=1e-10)
    huge = make_ds(y_h=1e12)
    assert abs(ivt_rate_limit(build_open_loop_tf(huge))) < 1e-12


# ---------------------------------------------------------------------------
# hybrid-storage split
# ---------------------------------------------------------------------------

def test_hess_split_step_shares(ds_spec):
    p_l, p_h = hess_split(0.5, ds_spec)
    # high-ramp branch carries the step first, then hands it over entirely
    assert fvt_limit(step_input_tf(p_h)) == pytest.approx(0.0, abs=1e-12)
    assert fvt_limit(step_input_tf(p_l)) == pytest.approx(0.5, rel=1e-10)
    assert ivt_rate_limit_initial(p_h) == pytest.approx(0.5, rel=1e-12)


def ivt_rate_limit_initial(f):
    """Initial value of the step response: lim s*(f/s) = f(inf)."""
    return f.num.coeffs[-1] / f.den.coeffs[-1] if f.num.degree == f.den.degree else 0.0


def test_hess_split_completeness(ds_spec):
    p_l, p_h = hess_split(1.0, ds_spec)
    assert tf_close(tf_add(p_l, p_h), tf([1.0], [1.0]), tol=1e-10)


# ---------------------------------------------------------------------------
# restoration PI
# ---------------------------------------------------------------------------

def test_restoration_zero_error_is_inert(ac_spec):
    state = SubgridState(delta_x_pu=0.0, delta_comp_pu=50.0 / 51.0 - 1.0)
    state.e_prev = 0.0
    out = restoration_step(state, 50.0 / 51.0, 0.1, ac_spec)
    assert out.delta_comp_pu == state.delta_comp_pu


def test_restoration_integrator_arithmetic():
    from dataclasses import replace

    spec = replace(make_ac(), k_p=0.0, k_i=0.2)
    # x* fixed 0.01 below nominal -> one step adds k_i*e*h = 2e-4
    state = SubgridState(delta_x_pu=50.0 / 51.0 - 1.0 - 0.01, delta_comp_pu=0.0)
    state.e_prev = 0.01
    out = restoration_step(state, 50.0 / 51.0, 0.1, spec)
    assert out.delta_comp_pu == pytest.approx(2e-4, rel=1e-12)


def _closed_loop_single(spec, load_pu, horizon, h=1e-3, record_every=10):
    """Single subgrid + restoration, no converter coupling."""
    block = tf_to_statespace(build_open_loop_tf(spec))
    M, N = rk4_step_maps(block, h)
    x = np.zeros(block.order)
    state = SubgridState(delta_comp_pu=spec.x_nominal_pu - 1.0)
    t_hist, dx_hist, comp_hist = [], [], []
    n_steps = int(round(horizon / h))
    for k in range(n_steps):
        u = load_pu if k * h >= 1.0 else 0.0
        x = M @ x + N * u
        state.delta_x_pu = float(block.C @ x)
        state = restoration_step(state, spec.x_nominal_pu, h, spec)
        if k % record_every == 0:
            t_hist.append((k + 1) * h)
            dx_hist.append(state.delta_x_pu)
            comp_hist.append(state.delta_comp_pu)
    return np.array(t_hist), np.array(dx_hist), np.array(comp_hist)


def test_restoration_closed_loop_converges(ac_spec):
    t, dx, comp = _closed_loop_single(ac_spec, 0.6, horizon=150.0)
    x_final = 51.0 * (1.0 + dx[-1] + comp[-1])
    assert x_final == pytest.approx(50.0, rel=1e-3)


def test_restoration_neutral_during_transient(ac_spec):
    t, dx, comp = _closed_loop_single(ac_spec, 0.6, horizon=2.0, record_every=1)
    comp0 = comp[t <= 1.0][-1]
    window = (t >= 1.0) & (t <= 1.5)
    drift = np.max(np.abs(comp[window] - comp0))
    peak = np.max(np.abs(dx))
    assert drift < 0.02 * peak


def test_initial_rate_matches_ivt(ac_spec, dc_spec, ds_spec):
    # first integration step after the event reproduces the IVT slope
    h = 1e-4
    for spec in (ac_spec, dc_spec, ds_spec):
        block = tf_to_statespace(build_open_loop_tf(spec))
        M, N = rk4_step_maps(block, h)
        x = N * 0.6
        rate = float(block.C @ x) / h
        want = ivt_rate_limit(build_open_loop_tf(spec)) * 0.6
        assert rate == pytest.approx(want, rel=0.02)


# ---------------------------------------------------------------------------
# loading indices
# ---------------------------------------------------------------------------

def test_compute_lc(ac_spec, dc_spec):
    assert compute_lc(51.0, ac_spec) == 0.0
    assert compute_lc(49.0, ac_spec) == 1.0
    assert compute_lc(375.0, dc_spec) == pytest.approx(0.5)


def test_compute_rli(ac_spec):
    assert compute_rli(50.0, 0.0, ac_spec) == compute_lc(50.0, ac_spec)
    assert compute_rli(50.0, -0.8, ac_spec) == pytest.approx(0.1)
    assert compute_rli(51.0, 0.0, ac_spec) == 0.0
