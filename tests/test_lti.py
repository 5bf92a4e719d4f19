import math
from pathlib import Path

import numpy as np
import pytest

from hmg.cli import BODE_TARGETS, _bode_tf
from hmg.config import load_config
from hmg.gecm import default_bode_grid
from hmg.lti import (
    Blocks,
    EvalAtPole,
    FvtInvalid,
    ImproperTF,
    POLE_REL,
    Polynomial,
    Unbounded,
    fvt_limit,
    ivt_rate_limit,
    poly,
    poly_mul,
    rk4_step_maps,
    ss_eval,
    tf,
    tf_add,
    tf_eval,
    tf_reciprocal,
    tf_series,
    tf_to_statespace,
)
from oracle import coeffs_close, step_rk4, tf_close, tf_eval_point

TABLE1 = Path(__file__).resolve().parents[1] / "configs" / "table1.cfg"

# reference governor/turbine constants used by a few oracles below

T_G, F_HP, T_CH, T_RH = 0.1, 0.3, 0.2, 7.0


def governor_turbine():
    """T(s)*Y(s) = (F_HP*T_RH*s + 1) / ((T_G s+1)(T_CH s+1)(T_RH s+1))."""
    den = poly_mul(poly_mul(poly(1.0, T_G), poly(1.0, T_CH)), poly(1.0, T_RH))
    return tf([1.0, F_HP * T_RH], den.coeffs)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_mul_binomial_square():
    assert poly_mul(poly(1, 1), poly(1, 1)).coeffs == (1.0, 2.0, 1.0)


def test_poly_mul_annihilator():
    assert poly_mul(poly(0.0), poly(1, 1)).coeffs == (0.0,)


def test_poly_mul_governor_constants():
    # hand convolution: (1 + 0.1 s)(1 + 0.2 s) = 1 + 0.3 s + 0.02 s^2
    got = poly_mul(poly(1.0, 0.1), poly(1.0, 0.2))
    assert coeffs_close(got, poly(1.0, 0.3, 0.02), tol=1e-14)


def test_poly_trim_and_zero():
    p = Polynomial((1.0, 2.0, 1e-30))
    assert p.degree == 1
    assert Polynomial((0.0, 0.0)).coeffs == (0.0,)
    with pytest.raises(ValueError):
        Polynomial(())


def test_poly_eval_horner():
    p = poly(1.0, 2.0, 3.0)
    assert p(2.0) == 1 + 4 + 12
    assert p(1j) == pytest.approx(1 + 2j - 3)


# ---------------------------------------------------------------------------
# rational arithmetic
# ---------------------------------------------------------------------------

def test_series_first_order_chain():
    got = tf_series(tf([1], [1, 1]), tf([1], [2, 1]))
    assert tf_close(got, tf([1], [2, 3, 1]))


def test_series_identity_element():
    f = tf([1.0, 2.1], [1.0, 0.3, 0.02])
    assert tf_close(tf_series(tf([1], [1]), f), f)


def test_series_governor_turbine_table1():
    # reference constants: T(s)Y(s) = (2.1 s + 1)/((0.1s+1)(0.2s+1)(7s+1))
    ty = governor_turbine()
    t = tf([1.0], [1.0, T_G])
    y = tf([1.0, F_HP * T_RH], poly_mul(poly(1.0, T_CH), poly(1.0, T_RH)).coeffs)
    assert tf_close(tf_series(t, y), ty)
    assert ty.num.coeffs[1] / ty.num.coeffs[0] == pytest.approx(2.1)


def test_add_zero_and_self():
    f = tf([1], [1, 1])
    assert tf_close(tf_add(f, tf([0], [1])), f)
    assert tf_close(tf_add(f, f), tf([2], [1, 1]))


def test_add_integrator_plus_one():
    got = tf_add(tf([1], [0, 1]), tf([1], [1]))
    assert tf_close(got, tf([1, 1], [0, 1]))


def test_series_add_commute_and_associate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = tf(rng.normal(size=2), np.r_[rng.normal(size=2), 1.0])
        b = tf(rng.normal(size=3), np.r_[rng.normal(size=3), 1.0])
        c = tf(rng.normal(size=1), np.r_[rng.normal(size=1), 1.0])
        assert tf_close(tf_series(a, b), tf_series(b, a))
        assert tf_close(tf_add(a, b), tf_add(b, a))
        assert tf_close(tf_series(tf_series(a, b), c), tf_series(a, tf_series(b, c)))
        assert tf_close(tf_add(tf_add(a, b), c), tf_add(a, tf_add(b, c)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_dc_gain():
    assert tf_eval(tf([1], [1, 1]), 0.0) == 1.0


def test_eval_concatenator_band_edges():
    w0 = 1e-3 * math.pi
    w_ac = 25.5 * w0
    t_ac = tf([w_ac, 1.0], [w0, 1.0])
    # high-frequency gain -> 1, checked against direct complex division
    s = 1j * 1e3
    direct = (s + w_ac) / (s + w0)
    assert abs(tf_eval(t_ac, s) - direct) < 1e-12
    assert abs(abs(tf_eval(t_ac, s)) - 1.0) < 1e-4
    # near-DC gain -> omega_ac / omega_0 = 25.5
    s = 1j * 1e-9
    assert abs(abs(tf_eval(t_ac, s)) - 25.5) < 1e-4


def test_eval_at_pole_raises():
    with pytest.raises(EvalAtPole):
        tf_eval(tf([1], [1, 1]), -1.0)
    with pytest.raises(EvalAtPole):
        tf_eval(tf([1], [0, 1]), 0.0)


def test_eval_pole_test_is_strict():
    # at s = 1 + jy, den = s - 1 is exactly jy and its rounding scale is
    # |s| + 1 = 2: a |den| equal to POLE_REL * 2 is not a pole, below it is
    f = tf([1.0], [-1.0, 1.0])
    at = 1.0 + 1j * (POLE_REL * 2.0)
    assert tf_eval(f, at) == 1.0 / (at - 1.0)
    with pytest.raises(EvalAtPole):
        tf_eval(f, 1.0 + 1j * np.nextafter(POLE_REL * 2.0, 0.0))


def test_eval_scalar_returns_complex():
    assert type(tf_eval(tf([1], [1, 1]), 0.5)) is complex
    assert type(tf_eval(tf([1], [1, 1]), np.complex128(2j))) is complex


def test_eval_array_names_first_pole():
    f = tf([1], [2, 3, 1])  # poles at -1 and -2
    s = np.array([1j, -2.0, 3j, -1.0])
    with pytest.raises(EvalAtPole, match=r"s=\(-2\+0j\)"):
        tf_eval(f, s)
    vals = tf_eval(f, s[[0, 2]])
    assert vals.shape == (2,) and vals.dtype == complex


@pytest.mark.parametrize("target", BODE_TARGETS)
def test_eval_array_matches_point_loop(target):
    # one array evaluation against Horner at one point at a time, in Python
    # complex arithmetic and through the scalar form of tf_eval
    f = _bode_tf(load_config(TABLE1), target)
    s = 1j * default_bode_grid()
    got = tf_eval(f, s)
    for want in (np.array([tf_eval_point(f, p) for p in s]),
                 np.array([tf_eval(f, p) for p in s])):
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realize_first_order_lag():
    ss = tf_to_statespace(tf([1], [1, 1]))
    assert ss.A.tolist() == [[-1.0]]
    assert ss.B.tolist() == [1.0]
    assert ss.C.tolist() == [1.0]
    assert ss.D == 0.0


def test_realize_biproper_long_division():
    # (s+2)/(s+1) = 1 + 1/(s+1): D = 1, residue path C@B = 1
    ss = tf_to_statespace(tf([2, 1], [1, 1]))
    assert ss.D == 1.0
    assert float(ss.C @ ss.B) == pytest.approx(1.0)
    # s/(s+1) = 1 - 1/(s+1): D = 1, C@B = -1
    ss = tf_to_statespace(tf([0, 1], [1, 1]))
    assert ss.D == 1.0
    assert float(ss.C @ ss.B) == pytest.approx(-1.0)


def test_realize_improper_rejected():
    with pytest.raises(ImproperTF):
        tf_to_statespace(tf([1, 0, 1], [1, 1]))


def random_stable_tf(rng, max_degree=5, strictly_proper=False):
    n = int(rng.integers(1, max_degree + 1))
    poles = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.1, 5.0)
            im = rng.uniform(0.1, 5.0)
            poles += [re + 1j * im, re - 1j * im]
        else:
            poles.append(-rng.uniform(0.1, 5.0))
    den = np.real(np.poly(poles))[::-1]  # ascending, monic
    m = n - 1 if strictly_proper else int(rng.integers(0, n + 1))
    num = rng.normal(size=m + 1)
    return tf(num, den)


def test_realization_round_trip_random():
    # frequency response of (A,B,C,D) matches tf_eval at 10 random points
    rng = np.random.default_rng(42)
    for _ in range(25):
        f = random_stable_tf(rng)
        ss = tf_to_statespace(f)
        assert ss.order == f.den.degree
        for _ in range(10):
            s = complex(rng.normal(), rng.normal()) * 3.0
            want = tf_eval(f, s)
            got = ss_eval(ss, s)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

def test_rk4_pure_integrator():
    ss = tf_to_statespace(tf([1], [0, 1]))
    x = step_rk4(ss, np.zeros(1), 1.0, 0.01)
    assert x[0] == pytest.approx(0.01)


def test_rk4_exponential_decay():
    ss = tf_to_statespace(tf([1], [1, 1]))
    x = step_rk4(ss, np.ones(1), 0.0, 0.1)
    assert abs(x[0] - math.exp(-0.1)) < 1e-6


def test_rk4_zero_in_zero_state():
    ss = tf_to_statespace(tf([1], [1, 2, 1]))
    x = step_rk4(ss, np.zeros(2), 0.0, 0.05)
    assert np.all(x == 0.0)


def test_rk4_order_by_richardson():
    # one h-step vs two h/2-steps on dx/dt = -a x: error ratio ~ 2^4 = 16
    a = 1.7
    ss = tf_to_statespace(tf([1], [1, 1 / a]))  # den: 1 + s/a -> pole at -a
    h = 0.1
    x0 = np.ones(1)
    exact = math.exp(-a * h)
    full = step_rk4(ss, x0, 0.0, h)[0]
    half = step_rk4(ss, step_rk4(ss, x0, 0.0, h / 2), 0.0, h / 2)[0]
    ratio = abs(full - exact) / abs(half - exact)
    assert 8.0 < ratio < 32.0


def test_rk4_step_maps_match_explicit_step():
    rng = np.random.default_rng(3)
    f = random_stable_tf(rng, max_degree=4, strictly_proper=True)
    ss = tf_to_statespace(f)
    M, N = rk4_step_maps(ss, 2e-3)
    x = rng.normal(size=ss.order)
    u = 0.7
    direct = step_rk4(ss, x, u, 2e-3)
    composed = M @ x + N * u
    assert np.allclose(direct, composed, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# IVT / FVT
# ---------------------------------------------------------------------------

def test_ivt_ac_branch_table1():
    # N_ac0 = -R_ac / ((2 H_ac s + D_ac) R_ac + T(s)Y(s)); limit -1/(2 H_ac)
    r_ac, h_ac, d_ac = 2.0 / 49.0, 2.0, 1.0
    ty = governor_turbine()
    swing = tf([d_ac * r_ac, 2.0 * h_ac * r_ac], [1.0])
    n_ac0 = tf_series(tf([-r_ac], [1.0]), tf_reciprocal(tf_add(swing, ty)))
    assert ivt_rate_limit(n_ac0) == pytest.approx(-0.25, rel=1e-12)


def test_ivt_ds_branch():
    n_ds0 = tf([-1.0], [35.5, 15.0])  # -1/(2*7.5 s + 35.5)
    assert ivt_rate_limit(n_ds0) == pytest.approx(-1.0 / 15.0, rel=1e-12)


def test_ivt_relative_degree_two_is_zero():
    assert ivt_rate_limit(tf([1], [1, 0, 1])) == 0.0


def test_ivt_unbounded_for_equal_degrees():
    with pytest.raises(Unbounded):
        ivt_rate_limit(tf([1, 1], [2, 1]))


def test_ivt_matches_initial_step_slope():
    # simulated initial slope of the unit-step response, h = 1e-5
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_stable_tf(rng, max_degree=4, strictly_proper=True)
        if f.relative_degree != 1:
            continue
        ss = tf_to_statespace(f)
        h = 1e-5
        x1 = step_rk4(ss, np.zeros(ss.order), 1.0, h)
        slope = float(ss.C @ x1) / h
        want = ivt_rate_limit(f)
        assert slope == pytest.approx(want, rel=0.02)


def test_fvt_step():
    assert fvt_limit(tf([1], [0, 1])) == pytest.approx(1.0)


def test_fvt_concatenator_steady_gain():
    w0 = 1e-3 * math.pi
    t_ac_over_s = tf([25.5 * w0, 1.0], [0.0, w0, 1.0])
    assert fvt_limit(t_ac_over_s) == pytest.approx(25.5, rel=1e-9)


def test_fvt_rejects_unstable_pole():
    with pytest.raises(FvtInvalid):
        fvt_limit(tf([1], [-1, 1]))
    with pytest.raises(FvtInvalid):
        fvt_limit(tf([1], [0, 0, 1]))  # double pole at the origin


def test_fvt_matches_long_simulation():
    # step response at t = 50/|slowest pole| agrees with the FVT value
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 6:
        f = random_stable_tf(rng, max_degree=3, strictly_proper=True)
        g = tf(f.num.coeffs, (0.0,) + f.den.coeffs)  # f(s)/s -> step input
        want = fvt_limit(g)
        poles = f.den.roots()
        slow, fast = np.min(np.abs(poles)), np.max(np.abs(poles))
        if fast / slow > 50.0:
            continue
        t_end = 50.0 / slow
        h = min(0.05 / fast, t_end / 2000.0)
        ss = tf_to_statespace(f)
        M, N = rk4_step_maps(ss, h)
        x = np.zeros(ss.order)
        for _ in range(int(round(t_end / h))):
            x = M @ x + N * 1.0
        got = float(ss.C @ x + ss.D)
        assert got == pytest.approx(want, rel=5e-3)
        checked += 1


# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------

def _toy_blocks(order):
    """Two blocks, "a" with two states and feedthrough, "b" with one state
    and none, inserted in `order`, with one input after their states."""
    entries = {"a": (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]),
                     np.array([7.0, 8.0]), 0.5),
               "b": (np.array([[9.0]]), np.array([10.0]), np.array([11.0]), 0.0)}
    return Blocks({key: entries[key] for key in order}, inputs=1)


def test_blocks_spans_follow_insertion_order():
    ab, ba = _toy_blocks("ab"), _toy_blocks("ba")
    assert ab.spans == {"a": slice(0, 2), "b": slice(2, 3)}
    assert ba.spans == {"b": slice(0, 1), "a": slice(1, 3)}
    assert (ab.n, ab.width) == (ba.n, ba.width) == (3, 4)


def test_blocks_output_is_feedthrough_plus_c_on_own_span():
    blocks = _toy_blocks("ab")
    drive = np.array([1.0, -1.0, 2.0, 3.0])
    assert blocks.output("a", drive).tolist() == [7.5, 7.5, 1.0, 1.5]
    assert blocks.output("b", drive).tolist() == [0.0, 0.0, 11.0, 0.0]
    assert drive.tolist() == [1.0, -1.0, 2.0, 3.0]  # the drive is not written


def test_blocks_stamp_places_m_on_diagonal_and_drive_on_own_rows():
    blocks = _toy_blocks("ba")                      # b on state 0, a on 1-2
    d_a, d_b = np.array([1.0, 0.0, 2.0, -1.0]), np.array([0.0, 3.0, 0.0, 1.0])
    F = blocks.stamp({"a": d_a, "b": d_b})
    want = np.zeros((4, 4))
    want[0, 0] = 9.0
    want[1:3, 1:3] = [[1.0, 2.0], [3.0, 4.0]]
    want[0] += 10.0 * d_b
    want[1:3] += np.outer([5.0, 6.0], d_a)
    np.testing.assert_array_equal(F, want)
    assert not F[3].any()                           # the input row stays zero

