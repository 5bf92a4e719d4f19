"""Per-block scalar stepping reference for the composed engine.

The library advances the whole closed loop as one affine map x+ = S x + T u
(`hmg.sim._Engine`). This module is the independent reference the tests
compare that map against: every control law stepped on its own, one block
and one scalar state at a time, exactly as the paper states them.

* ``step_rk4`` -- classical 4th-order Runge-Kutta advance of a
  ``StateSpace`` with the input held constant over the step.
* ``SubgridState`` / ``restoration_step`` -- the frequency/voltage
  restoration PI in velocity form.
* ``IlcState`` / ``ilc_outputs`` / ``ilc_step`` -- the concatenators and
  the two-stage interlinking-converter power loop.
* ``affine_loop`` -- the composed map iterated one step at a time, the
  reference for the library's blocked propagator.
* ``trace_columns`` -- each trace column computed on its own from the
  plant states and the loads, the reference for the engine's output map.
* ``coeffs_close`` / ``tf_close`` -- tolerance comparison of polynomials and
  rational functions.
* ``tf_eval_point`` / ``assemble_admittance`` / ``back_substitution_residual``
  -- transfer functions and the nodal residual gate evaluated one frequency
  point at a time, with the admittance matrix assembled over rational
  functions: the reference for the library's whole-grid evaluation and its
  admittance formed from branch values.
* ``ideal_global_deviation_tf`` -- the ideal-coupling deviation TF with its
  pooled stiffness built afresh for every channel, the reference for the
  library's shared one.
* ``write_trace_csv_rows`` -- the trace CSV written one row at a time by
  Python's ``%``, the reference for the library's array formatter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hmg.gecm import GecmSystem, NodalSolution, global_capacity
from hmg.ilc import ConcatenatorSpec, IlcSpec, concatenator_tf
from hmg.lti import (
    POLE_REL,
    EvalAtPole,
    Polynomial,
    RationalTF,
    StateSpace,
    poly_mul,
    rk4_step_maps,
    tf,
    tf_add,
    tf_reciprocal,
    tf_scale,
    tf_series,
    tf_to_statespace,
)
from hmg.sim import TRACE_COLUMNS
from hmg.subgrid import AC, DC, DS, SubgridSpec, build_open_loop_tf, hess_split


def step_rk4(ss: StateSpace, x: np.ndarray, u: float, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = A x + B u with u held constant."""
    A, B = ss.A, ss.B
    bu = B * u
    k1 = A @ x + bu
    k2 = A @ (x + 0.5 * h * k1) + bu
    k3 = A @ (x + 0.5 * h * k2) + bu
    k4 = A @ (x + h * k3) + bu
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def affine_loop(S: np.ndarray, segments, x0: np.ndarray,
                n_steps: int) -> np.ndarray:
    """States at steps 0..n_steps of x+ = S x + d, one step at a time.

    Each (first step, d) segment holds its drive d from its first step on.
    """
    X = np.empty((n_steps + 1, len(x0)))
    X[0] = x = x0
    for k in range(n_steps):
        d = [drive for first, drive in segments if first <= k][-1]
        X[k + 1] = x = S @ x + d
    return X


def trace_columns(config, toggles, spans: dict, X: np.ndarray,
                  loads: np.ndarray) -> dict:
    """The trace columns after t_s, by name, from the plant states X
    (samples, n), each block's states at `spans[(group, i)]`, and the
    applied loads (samples, 3):
    bus values (1 + dev + comp) x_max, the converter powers of
    ``ilc_outputs``, output powers as load less converter power, and the
    storage split's slow branch."""
    specs = config.specs
    zeros = np.zeros(len(X))
    devs = [X[:, spans[kind, 0]] @ tf_to_statespace(build_open_loop_tf(spec)).C
            for kind, spec in zip((AC, DC, DS), specs)]
    comps = [zeros] * 3
    if toggles.restoration_enabled:
        comps = [X[:, spans["rest", i].start] for i in range(3)]
    p1 = p2 = zeros
    if toggles.ilc_enabled:
        cspec = config.concatenator_spec() if toggles.concatenator_enabled else None
        z = ([X[:, spans["conc", i].start] for i in range(3)]
             if cspec is not None else [zeros] * 3)
        state = IlcState(z_ac=z[0], z_dc=z[1], z_ds=z[2],
                         z1=X[:, spans["pi", 0].start], z2=X[:, spans["pi", 1].start])
        *_, p1, p2 = ilc_outputs(state, *devs, config.ilc, cspec,
                                 config.p_gmax_w)
    p_out = (loads[:, 0] - p2, loads[:, 1] - p1, loads[:, 2] + p1 + p2)
    split = tf_to_statespace(hess_split(1.0, specs[2])[0])
    p_l = X[:, spans["split", 0]] @ split.C * specs[2].p_max_w
    cols = {}
    for i, (bus, delta) in enumerate((("f_hz", "delta_f_hz"),
                                      ("vdc_v", "delta_vdc_v"),
                                      ("vds_v", "delta_vds_v"))):
        cols[bus] = (1.0 + devs[i] + comps[i]) * specs[i].x_max
        cols[delta] = comps[i] * specs[i].x_max
    cols.update(p_oac_w=p_out[0], p_odc_w=p_out[1], p_ods_w=p_out[2],
                p_l_w=p_l, p_h_w=p_out[2] - p_l, p1_w=p1, p2_w=p2)
    return cols


def coeffs_close(a: Polynomial, b: Polynomial, tol: float = 1e-10) -> bool:
    """Coefficient-wise comparison after padding, relative to joint scale."""
    n = max(len(a.coeffs), len(b.coeffs))
    ca = list(a.coeffs) + [0.0] * (n - len(a.coeffs))
    cb = list(b.coeffs) + [0.0] * (n - len(b.coeffs))
    scale = max(max(abs(v) for v in ca), max(abs(v) for v in cb), 1e-300)
    return all(abs(x - y) <= tol * scale for x, y in zip(ca, cb))


def tf_close(a: RationalTF, b: RationalTF, tol: float = 1e-10) -> bool:
    """Equality of normalized rational functions by cross-multiplication."""
    return coeffs_close(poly_mul(a.num, b.den), poly_mul(b.num, a.den), tol)


# ---------------------------------------------------------------------------
# frequency-domain evaluation, one point at a time
# ---------------------------------------------------------------------------

def tf_eval_point(f: RationalTF, s: complex) -> complex:
    """num(s)/den(s) at one point by Horner's rule in Python complex
    arithmetic, with the library's pole test."""
    s = complex(s)
    den_val = f.den(s)
    mag = abs(s)
    scale = 0.0
    for c in reversed(f.den.coeffs):
        scale = scale * mag + abs(c)
    if abs(den_val) < POLE_REL * max(scale, 1e-300):
        raise EvalAtPole(f"denominator vanishes at s={s}")
    return f.num(s) / den_val


def residual_points() -> list[complex]:
    """The residual gate's ten points, drawn afresh from the gate's seed."""
    rng = np.random.default_rng(1234)
    points = [1j * w for w in (0.01, 1.0, 100.0)]
    points += [complex(rng.normal(), rng.normal()) * 10.0 for _ in range(7)]
    return points


def assemble_admittance(sys: GecmSystem) -> list[list[RationalTF]]:
    """3x3 nodal admittance matrix over rational functions, rows (AC, DS, DC)."""
    zero = tf([0.0], [1.0])
    y_ac = tf_reciprocal(sys.z_ac)
    y_dc = tf_reciprocal(sys.z_dc)
    y_ds = tf_reciprocal(sys.z_ds)
    g1, g2 = (zero, zero) if sys.z_ilc1 is None else (
        tf_reciprocal(sys.z_ilc1), tf_reciprocal(sys.z_ilc2))
    tac_g2 = tf_series(sys.t_ac, g2)
    tds_g2 = tf_series(sys.t_ds, g2)
    tds_g1 = tf_series(sys.t_ds, g1)
    tdc_g1 = tf_series(sys.t_dc, g1)
    return [
        [tf_add(y_ac, tac_g2), tf_scale(tds_g2, -1.0), zero],
        [
            tf_scale(tac_g2, -1.0),
            tf_add(y_ds, tf_add(tds_g1, tds_g2)),
            tf_scale(tdc_g1, -1.0),
        ],
        [zero, tf_scale(tds_g1, -1.0), tf_add(y_dc, tdc_g1)],
    ]


def back_substitution_residual(sys: GecmSystem, sol: NodalSolution) -> float:
    """Worst relative residual of G(s) V(s) = I, one point and one entry of
    G at a time; V_j = -deviation_j from one solve with sI - A per point."""
    g = assemble_admittance(sys)
    injections = (sys.p_lac_gpu, sys.p_lds_gpu, sys.p_ldc_gpu)
    eye = np.eye(len(sol.b))
    worst = 0.0
    for s in residual_points():
        g_vals = [[tf_eval_point(e, s) if not e.num.is_zero else 0.0 for e in row]
                  for row in g]
        f = sol.C @ np.linalg.solve(s * eye - sol.A, sol.b.astype(complex))
        v_vals = -f[[0, 2, 1]]  # KINDS order to rows (AC, DS, DC)
        for i in range(3):
            lhs = sum(g_vals[i][j] * v_vals[j] for j in range(3))
            scale = max(
                abs(injections[i]),
                max(abs(g_vals[i][j] * v_vals[j]) for j in range(3)),
                1e-30,
            )
            worst = max(worst, abs(lhs - injections[i]) / scale)
    return float(worst)


def ideal_global_deviation_tf(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec],
    cspec: ConcatenatorSpec | None,
    channel: str,
) -> RationalTF:
    """-1/(T_x q) with q = sum_y (P_y/P_G) B_y/T_y built for this channel."""
    p_g = global_capacity(specs)
    unity = tf([1.0], [1.0])

    def t_of(kind):
        return unity if cspec is None else concatenator_tf(cspec, kind)

    q = tf([0.0], [1.0])
    for spec in specs:
        b_y = tf_scale(tf_reciprocal(build_open_loop_tf(spec)), -1.0)
        weighted = tf_scale(b_y, spec.p_max_w / p_g)
        q = tf_add(q, tf_series(weighted, tf_reciprocal(t_of(spec.kind))))
    return tf_scale(tf_reciprocal(tf_series(t_of(channel), q)), -1.0)


# ---------------------------------------------------------------------------
# restoration PI
# ---------------------------------------------------------------------------

@dataclass
class SubgridState:
    """Restoration state of one subgrid; x* = 1 + delta_x_pu + delta_comp_pu."""

    delta_x_pu: float = 0.0
    delta_comp_pu: float = 0.0
    e_prev: float = 0.0


def restoration_step(
    state: SubgridState, x_nominal_pu: float, h: float, spec: SubgridSpec
) -> SubgridState:
    """Advance the restoration PI one step of length h (velocity form).

    e = x_n* - x*; the compensation moves by k_p*(e - e_prev) + k_i*e*h.
    """
    x_pu = 1.0 + state.delta_x_pu + state.delta_comp_pu
    e = x_nominal_pu - x_pu
    comp = state.delta_comp_pu + spec.k_p * (e - state.e_prev) + spec.k_i * e * h
    return replace(state, delta_comp_pu=comp, e_prev=e)


# ---------------------------------------------------------------------------
# interlinking-converter controller
# ---------------------------------------------------------------------------

@dataclass
class IlcState:
    """Controller state: concatenator integrators z_ac/z_dc/z_ds and the
    power-loop PI integrators z1/z2. p1_w > 0 moves power DS -> DC, p2_w > 0
    moves power DS -> AC."""

    z_ac: float = 0.0
    z_dc: float = 0.0
    z_ds: float = 0.0
    z1: float = 0.0
    z2: float = 0.0
    p1_w: float = 0.0
    p2_w: float = 0.0


def ilc_outputs(
    state: IlcState,
    delta_f_pu: float,
    delta_vdc_pu: float,
    delta_vds_pu: float,
    spec: IlcSpec,
    cspec: ConcatenatorSpec | None,
    p_gmax_w: float,
) -> tuple[float, float, float, float, float]:
    """Concatenated deviations and converter powers from the current state.

    With cspec None the concatenators are bypassed (unity filters).
    """
    if cspec is None:
        c_ac, c_dc, c_ds = delta_f_pu, delta_vdc_pu, delta_vds_pu
    else:
        w0 = cspec.omega_0
        c_ac = delta_f_pu + (cspec.omega_ac - w0) * state.z_ac
        c_dc = delta_vdc_pu + (cspec.omega_dc - w0) * state.z_dc
        c_ds = delta_vds_pu + (cspec.omega_ds - w0) * state.z_ds
    e1 = c_ds - c_dc
    e2 = c_ds - c_ac
    p1_w = (spec.k_tp1 * e1 + spec.k_ti1 * state.z1) * p_gmax_w
    p2_w = (spec.k_tp2 * e2 + spec.k_ti2 * state.z2) * p_gmax_w
    return c_ac, c_dc, c_ds, p1_w, p2_w


def ilc_step(
    state: IlcState,
    delta_f_pu: float,
    delta_vdc_pu: float,
    delta_vds_pu: float,
    spec: IlcSpec,
    cspec: ConcatenatorSpec | None,
    h: float,
    p_gmax_w: float,
) -> IlcState:
    """Advance the controller one step with deviation inputs held constant.

    The converter powers stored in the returned state are the values acting
    over this step (computed from the pre-advance state).
    """
    c_ac, c_dc, c_ds, p1_w, p2_w = ilc_outputs(
        state, delta_f_pu, delta_vdc_pu, delta_vds_pu, spec, cspec, p_gmax_w
    )
    out = replace(state, p1_w=p1_w, p2_w=p2_w,
                  z1=state.z1 + h * (c_ds - c_dc),
                  z2=state.z2 + h * (c_ds - c_ac))
    if cspec is not None:
        # RK4 one-step map of dz/dt = u - w0 z with held input
        for name, channel, u in (("z_ac", AC, delta_f_pu),
                                 ("z_dc", DC, delta_vdc_pu),
                                 ("z_ds", DS, delta_vds_pu)):
            m, n = rk4_step_maps(
                tf_to_statespace(concatenator_tf(cspec, channel)), h)
            setattr(out, name, float(m[0, 0] * getattr(state, name) + n[0] * u))
    return out


def write_trace_csv_rows(trace, path) -> None:
    """The trace CSV with every row formatted by ``%``: `t_s` as "%.10g",
    every other column as "%.6g"."""
    row = "%.10g" + ",%.6g" * (len(TRACE_COLUMNS) - 1) + "\n"
    cols = [trace.column(c).tolist() for c in TRACE_COLUMNS]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(row % values for values in zip(*cols))
