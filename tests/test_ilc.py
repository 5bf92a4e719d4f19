import math

import numpy as np
import pytest

from hmg.ilc import (
    ConcatenatorSpec,
    IlcSpec,
    concatenator_tf,
    design_omegas,
    ilc_equivalent_impedances,
    min_cutoff,
)
from hmg.lti import ss_eval, tf, tf_eval, tf_to_statespace
from oracle import IlcState, ilc_step, tf_close
from hmg.subgrid import AC, DC, DS, DegenerateLimits

W0 = 1e-3 * math.pi


@pytest.fixture
def cspec(ac_spec, dc_spec, ds_spec):
    return design_omegas(W0, ac_spec, dc_spec, ds_spec)


# ---------------------------------------------------------------------------
# corner-frequency design
# ---------------------------------------------------------------------------

def test_design_omegas_table1(cspec):
    assert cspec.omega_ac == pytest.approx(25.5e-3 * math.pi, rel=1e-12)
    assert cspec.omega_dc == pytest.approx(38e-3 * math.pi, rel=1e-12)
    assert cspec.omega_ds == pytest.approx(35.5e-3 * math.pi, rel=1e-12)


def test_design_omegas_degenerate(ac_spec, dc_spec, ds_spec):
    from dataclasses import replace

    broken = replace(ds_spec, x_min=710.0, x_nominal=710.0)
    with pytest.raises(DegenerateLimits):
        design_omegas(W0, ac_spec, dc_spec, broken)


@pytest.mark.parametrize("x_max, x_min", [(380.0, 1e30), (1e-30, 370.0)])
def test_design_omegas_rejects_an_inverted_band(ac_spec, dc_spec, ds_spec,
                                                x_max, x_min):
    from dataclasses import replace

    broken = replace(dc_spec, x_max=x_max, x_min=x_min)
    with pytest.raises(DegenerateLimits, match="dc: need x_min < x_max"):
        design_omegas(W0, ac_spec, broken, ds_spec)


# ---------------------------------------------------------------------------
# resolution lower bound
# ---------------------------------------------------------------------------

def test_min_cutoff_reference_hardware():
    got = min_cutoff(50e-6, 1.3)
    assert got == pytest.approx(1.3 * 2.0 ** -23 / 50e-6, rel=1e-12)
    assert got == pytest.approx(3.0994e-3, rel=1e-4)
    assert got == pytest.approx(9.866e-4 * math.pi, rel=1e-3)


def test_min_cutoff_unit_safety_factor():
    assert min_cutoff(50e-6, 1.0) == 2.0 ** -23 / 50e-6


def test_default_cutoff_passes_bound():
    assert W0 >= min_cutoff(50e-6, 1.3)


def test_min_cutoff_monotone():
    # bound grows with the safety factor and relaxes with slower sampling
    # (longer T_s moves the discrete pole away from 1 for the same cutoff)
    rng = np.random.default_rng(2)
    for _ in range(50):
        ts = rng.uniform(1e-6, 1e-3)
        m = rng.uniform(1.0, 3.0)
        assert min_cutoff(ts, m * 1.5) >= min_cutoff(ts, m)
        assert min_cutoff(ts * 1.5, m) <= min_cutoff(ts, m)


# ---------------------------------------------------------------------------
# concatenator
# ---------------------------------------------------------------------------

def test_concatenator_gain_extremes(cspec):
    t_ac = concatenator_tf(cspec, AC)
    assert abs(abs(tf_eval(t_ac, 1j * 1e4)) - 1.0) < 1e-6
    assert tf_eval(t_ac, 0.0).real == pytest.approx(25.5, rel=1e-12)


def test_concatenator_band_gains(cspec):
    # unity within 1% above 100*w_x (approached from above for w_x > w_0),
    # exact ratio w_x/w_0 at DC, per channel
    for channel in (AC, DC, DS):
        t_x = concatenator_tf(cspec, channel)
        w_x = cspec.omega(channel)
        for w in np.geomspace(100.0 * w_x, 1e6 * w_x, 25):
            mag = abs(tf_eval(t_x, 1j * w))
            assert 1.0 - 1e-12 <= mag <= 1.01
        assert tf_eval(t_x, 0.0).real == pytest.approx(w_x / W0, rel=1e-12)


def test_concatenator_identity_when_corners_equal():
    ident = ConcatenatorSpec(omega_0=W0, omega_ac=W0, omega_dc=W0, omega_ds=W0)
    assert tf_close(concatenator_tf(ident, AC), tf([1.0], [1.0]))


def test_concatenator_ss_matches_tf(cspec):
    for channel in (AC, DC, DS):
        f = concatenator_tf(cspec, channel)
        ss = tf_to_statespace(f)
        # the form the controller rows assume: y = u + (w_x - w_0) z,
        # dz/dt = u - w_0 z
        w_0 = cspec.omega_0
        assert [ss.A.tolist(), ss.B.tolist(), ss.C.tolist(), ss.D] == [
            [[-w_0]], [1.0], [cspec.omega(channel) - w_0], 1.0]
        for s in (0.0, 1j * 0.01, 1j * 10.0, -0.5 + 2j):
            assert ss_eval(ss, s) == pytest.approx(tf_eval(f, s), rel=1e-12)


# ---------------------------------------------------------------------------
# equivalent impedances
# ---------------------------------------------------------------------------

def test_equivalent_impedances_shape():
    spec = IlcSpec(k_tp1=5.0, k_ti1=200.0, k_tp2=5.0, k_ti2=200.0)
    z1, z2 = ilc_equivalent_impedances(spec)
    assert tf_eval(z1, 0.0) == 0.0  # ideal steady coupling
    assert abs(tf_eval(z1, 1j * 1e9)) == pytest.approx(1.0 / 5.0, rel=1e-6)
    huge = IlcSpec(k_tp1=5.0, k_ti1=1e12, k_tp2=5.0, k_ti2=1e12)
    zh, _ = ilc_equivalent_impedances(huge)
    for w in (0.1, 10.0, 1000.0):
        assert abs(tf_eval(zh, 1j * w)) < 1e-8


# ---------------------------------------------------------------------------
# controller stepping
# ---------------------------------------------------------------------------

def test_ilc_step_zero_inputs_stay_zero(cspec):
    spec = IlcSpec()
    state = IlcState()
    for _ in range(50):
        state = ilc_step(state, 0.0, 0.0, 0.0, spec, cspec, 1e-4, 60e3)
    assert state.p1_w == 0.0 and state.p2_w == 0.0
    assert state.z1 == 0.0 and state.z_ds == 0.0


def test_ilc_step_dc_disturbance_draws_storage_support(cspec):
    # negative DC deviation, others zero: storage must support DC (p1 > 0)
    spec = IlcSpec()
    state = IlcState()
    state = ilc_step(state, 0.0, -0.01, 0.0, spec, cspec, 1e-4, 60e3)
    state = ilc_step(state, 0.0, -0.01, 0.0, spec, cspec, 1e-4, 60e3)
    assert state.p1_w > 0.0
    assert state.p2_w == pytest.approx(0.0, abs=1e-9)


def test_ilc_step_integrator_accumulates(cspec):
    spec = IlcSpec()
    state = IlcState()
    h = 1e-3
    for _ in range(10):
        state = ilc_step(state, 0.0, 0.0, -0.01, spec, cspec, h, 60e3)
    # z1 integrates c_ds - c_dc ~ -0.01 per step
    assert state.z1 == pytest.approx(-0.01 * 10 * h, rel=1e-3)
