"""Global equivalent circuit model: nodal analysis and analytic predictions.

Each subgrid is a Thévenin branch: per-unit deviation = -Z_x(s) * per-unit
output power on the global base P_gmax. The converter stages couple the
branches through impedances Z_ILCn = s/(k_tp s + k_ti) behind the
concatenators T_x(s). With node voltages V_x = -dx*(s) and the converter
powers

    p1 = (T_dc V_dc - T_ds V_ds)/Z_ILC1      (DS -> DC positive)
    p2 = (T_ac V_ac - T_ds V_ds)/Z_ILC2      (DS -> AC positive)

Kirchhoff balances P_ox = P_Lx -/+ converter flows give the admittance
system G V = I_P with rows ordered (AC, DS, DC):

    [ y_ac + T_ac/Z2      -T_ds/Z2               0          ]
    [ -T_ac/Z2            y_ds + T_ds/Z1+T_ds/Z2 -T_dc/Z1   ]
    [ 0                   -T_ds/Z1               y_dc + T_dc/Z1 ]

where y_x = 1/Z_x. Solving by Cramer's rule over polynomials (no pole/zero
cancellation anywhere) yields the deviation responses; a back-substitution
residual gates every solve.

The module also carries the closed-form full-system results: the
capacity-weighted global inertia, predicted rates of change, steady
capacity-proportional shares, and the ideal-coupling global deviation
transfer functions used for inertia analysis and Bode studies.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .ilc import ConcatenatorSpec, IlcSpec, concatenator_tf, ilc_equivalent_impedances
from .lti import (
    Polynomial,
    RationalTF,
    poly,
    poly_add,
    poly_mul,
    tf,
    tf_add,
    tf_eval,
    tf_reciprocal,
    tf_scale,
    tf_series,
)
from .subgrid import SubgridSpec, build_open_loop_tf

RESIDUAL_TOL = 1e-6
BODE_POINTS = 300  # default Bode grid, log-spaced over 1e-4..1e4 rad/s


class GecmError(Exception):
    pass


class SingularSystem(GecmError):
    """Nodal determinant vanishes, or the solve fails its residual gate."""


@dataclass(frozen=True)
class GecmSystem:
    """Branch impedances, couplings and load injections on the global base."""

    z_ac: RationalTF
    z_dc: RationalTF
    z_ds: RationalTF
    t_ac: RationalTF
    t_dc: RationalTF
    t_ds: RationalTF
    z_ilc1: RationalTF
    z_ilc2: RationalTF
    p_lac_gpu: float
    p_ldc_gpu: float
    p_lds_gpu: float
    p_gmax_w: float

    def validate(self) -> None:
        for name in ("z_ac", "z_dc", "z_ds"):
            z = getattr(self, name)
            if not z.is_proper:
                raise GecmError(f"{name} is improper")
            poles = z.den.roots()
            if np.any(poles.real >= 0.0):
                raise GecmError(f"{name} has non-stable poles {poles}")


@dataclass(frozen=True)
class NodalSolution:
    """Per-unit deviation responses to the configured step injections.

    Each field F satisfies deviation(s) = F(s)/s for the simultaneous load
    steps stored in the GecmSystem; the residual is the worst relative
    back-substitution error over the verification grid.

    The Cramer arithmetic runs in the scaled variable sigma = s/freq_scale,
    which keeps the high-degree polynomial coefficients in a narrow range;
    eval_channel and realize_channel use that representation (the plain
    fields are the reconstructed s-domain rationals).
    """

    delta_f_pu: RationalTF
    delta_vdc_pu: RationalTF
    delta_vds_pu: RationalTF
    residual: float
    freq_scale: float
    scaled: tuple  # (ac, ds, dc) responses in the sigma variable

    def channel(self, kind: str) -> RationalTF:
        return {"ac": self.delta_f_pu, "dc": self.delta_vdc_pu,
                "ds": self.delta_vds_pu}[kind]

    def _scaled_channel(self, kind: str) -> RationalTF:
        return self.scaled[{"ac": 0, "ds": 1, "dc": 2}[kind]]

    def eval_channel(self, kind: str, s: complex) -> complex:
        """deviation(s)*s, evaluated through the conditioned representation."""
        return tf_eval(self._scaled_channel(kind), s / self.freq_scale)

    def realize_channel(self, kind: str):
        """StateSpace of the response TF (input: unit step of the loads)."""
        from .lti import StateSpace, tf_to_statespace

        ss = tf_to_statespace(self._scaled_channel(kind))
        a = self.freq_scale
        return StateSpace(A=a * ss.A, B=a * ss.B, C=ss.C, D=ss.D)

    def poles(self) -> np.ndarray:
        return self.freq_scale * self.scaled[0].den.roots()


def global_capacity(specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec]) -> float:
    return sum(s.p_max_w for s in specs)


def build_branch_impedances(
    ac: SubgridSpec, dc: SubgridSpec, ds: SubgridSpec
) -> tuple[RationalTF, RationalTF, RationalTF]:
    """Re-normalize the per-subgrid deviation TFs to the global power base.

    Z_x is positive: deviation = -Z_x * output power (global p.u.); scaling
    each branch by P_gmax/P_x_max in the numerator is the base change.
    """
    p_g = global_capacity((ac, dc, ds))
    out = []
    for spec in (ac, dc, ds):
        n_x0 = build_open_loop_tf(spec)
        out.append(tf_scale(n_x0, -p_g / spec.p_max_w))
    return tuple(out)


def build_gecm(
    ac: SubgridSpec,
    dc: SubgridSpec,
    ds: SubgridSpec,
    ilc: IlcSpec,
    cspec: ConcatenatorSpec | None,
    loads_w: tuple[float, float, float],
) -> GecmSystem:
    """Assemble the full circuit model; cspec None means unity concatenators."""
    z_ac, z_dc, z_ds = build_branch_impedances(ac, dc, ds)
    if cspec is None:
        unity = tf([1.0], [1.0])
        t_ac = t_dc = t_ds = unity
    else:
        t_ac = concatenator_tf(cspec, "ac")
        t_dc = concatenator_tf(cspec, "dc")
        t_ds = concatenator_tf(cspec, "ds")
    z1, z2 = ilc_equivalent_impedances(ilc)
    p_g = global_capacity((ac, dc, ds))
    return GecmSystem(
        z_ac=z_ac, z_dc=z_dc, z_ds=z_ds,
        t_ac=t_ac, t_dc=t_dc, t_ds=t_ds,
        z_ilc1=z1, z_ilc2=z2,
        p_lac_gpu=loads_w[0] / p_g,
        p_ldc_gpu=loads_w[1] / p_g,
        p_lds_gpu=loads_w[2] / p_g,
        p_gmax_w=p_g,
    )


def assemble_admittance(sys: GecmSystem) -> list[list[RationalTF]]:
    """3x3 nodal admittance matrix over rational functions, rows (AC, DS, DC)."""
    y_ac = tf_reciprocal(sys.z_ac)
    y_dc = tf_reciprocal(sys.z_dc)
    y_ds = tf_reciprocal(sys.z_ds)
    g1 = tf_reciprocal(sys.z_ilc1)
    g2 = tf_reciprocal(sys.z_ilc2)
    tac_g2 = tf_series(sys.t_ac, g2)
    tds_g2 = tf_series(sys.t_ds, g2)
    tds_g1 = tf_series(sys.t_ds, g1)
    tdc_g1 = tf_series(sys.t_dc, g1)
    zero = tf([0.0], [1.0])
    return [
        [tf_add(y_ac, tac_g2), tf_scale(tds_g2, -1.0), zero],
        [
            tf_scale(tac_g2, -1.0),
            tf_add(y_ds, tf_add(tds_g1, tds_g2)),
            tf_scale(tdc_g1, -1.0),
        ],
        [zero, tf_scale(tds_g1, -1.0), tf_add(y_dc, tdc_g1)],
    ]


def _poly_det3(m: list[list[Polynomial]]) -> Polynomial:
    def mul3(a, b, c):
        return poly_mul(poly_mul(a, b), c)

    pos = poly_add(
        poly_add(mul3(m[0][0], m[1][1], m[2][2]), mul3(m[0][1], m[1][2], m[2][0])),
        mul3(m[0][2], m[1][0], m[2][1]),
    )
    neg = poly_add(
        poly_add(mul3(m[0][2], m[1][1], m[2][0]), mul3(m[0][0], m[1][2], m[2][1])),
        mul3(m[0][1], m[1][0], m[2][2]),
    )
    return poly_add(pos, neg.scaled(-1.0))


def _polynomial_matrix(sys: GecmSystem) -> tuple[list[list[Polynomial]], Polynomial]:
    """Admittance matrix scaled onto one shared polynomial denominator.

    Returns (P, D) with G = P/D entrywise. D is assembled from the factor
    structure of the entries, so every P_ij is a pure product of known
    polynomials; no polynomial division is performed anywhere.
    """
    y_ac = tf_reciprocal(sys.z_ac)
    y_ds = tf_reciprocal(sys.z_ds)
    y_dc = tf_reciprocal(sys.z_dc)
    g1 = tf_reciprocal(sys.z_ilc1)
    g2 = tf_reciprocal(sys.z_ilc2)
    if g1.den.coeffs != g2.den.coeffs:
        raise GecmError("coupling impedances must share their pole structure")
    if not (sys.t_ac.den.coeffs == sys.t_dc.den.coeffs == sys.t_ds.den.coeffs):
        raise GecmError("concatenators must share their cutoff denominator")
    f_c = sys.t_ac.den          # (s + w0), or 1 for unity concatenators
    f_s = g1.den                # s, the coupling-impedance zero
    tau_ac, tau_dc, tau_ds = sys.t_ac.num, sys.t_dc.num, sys.t_ds.num
    gam1, gam2 = g1.num, g2.num

    d_branches = poly_mul(poly_mul(y_ac.den, y_ds.den), y_dc.den)
    d_coupling = poly_mul(f_c, f_s)
    d_common = poly_mul(d_branches, d_coupling)

    def branch_term(y, other1, other2):
        # y.num * (D / y.den) = y.num * other1.den * other2.den * Fc * Fs
        comp = poly_mul(poly_mul(other1.den, other2.den), d_coupling)
        return poly_mul(y.num, comp)

    def coupling_term(tau, gam, sign):
        # tau*gam/(Fc*Fs) * D = tau * gam * (product of branch dens)
        return poly_mul(poly_mul(tau, gam), d_branches).scaled(sign)

    zero = poly(0.0)
    p00 = poly_add(branch_term(y_ac, y_ds, y_dc), coupling_term(tau_ac, gam2, 1.0))
    p01 = coupling_term(tau_ds, gam2, -1.0)
    p10 = coupling_term(tau_ac, gam2, -1.0)
    p11 = poly_add(
        branch_term(y_ds, y_ac, y_dc),
        coupling_term(tau_ds, poly_add(gam1, gam2), 1.0),
    )
    p12 = coupling_term(tau_dc, gam1, -1.0)
    p21 = coupling_term(tau_ds, gam1, -1.0)
    p22 = poly_add(branch_term(y_dc, y_ac, y_ds), coupling_term(tau_dc, gam1, 1.0))
    return [[p00, p01, zero], [p10, p11, p12], [zero, p21, p22]], d_common


# Candidate frequency scales for the Cramer arithmetic; tried in order until
# the residual gate is satisfied. 10 rad/s sits at the geometric center of
# the reference system's pole spread.
FREQ_SCALE_CANDIDATES = (10.0, 30.0, 3.0, 100.0, 1.0)


def _scale_tf(f: RationalTF, alpha: float) -> RationalTF:
    """F(alpha*sigma): coefficient of s^k picks up alpha^k."""
    num = Polynomial(tuple(c * alpha ** k for k, c in enumerate(f.num.coeffs)))
    den = Polynomial(tuple(c * alpha ** k for k, c in enumerate(f.den.coeffs)))
    return RationalTF(num, den)


def _unscale_tf(f: RationalTF, alpha: float) -> RationalTF:
    return _scale_tf(f, 1.0 / alpha)


def solve_nodal(sys: GecmSystem) -> NodalSolution:
    """Cramer's-rule solution of G V = I_P over rational functions.

    The entries are carried on one shared polynomial denominator, so each
    V_k = D * sum_j cof_jk(P) I_j / det(P) is formed purely by polynomial
    products, in a frequency-scaled variable to keep the coefficients
    well-ranged. Back-substitution residuals of the solution against the
    independently assembled rational admittance matrix gate the result.

    Raises
    ------
    SingularSystem
        When the determinant vanishes identically or no frequency scaling
        brings the back-substitution residual below RESIDUAL_TOL.
    """
    from dataclasses import replace

    g = assemble_admittance(sys)
    injections = (sys.p_lac_gpu, sys.p_lds_gpu, sys.p_ldc_gpu)
    failure: Exception | None = None
    for alpha in FREQ_SCALE_CANDIDATES:
        scaled_sys = replace(
            sys,
            z_ac=_scale_tf(sys.z_ac, alpha), z_dc=_scale_tf(sys.z_dc, alpha),
            z_ds=_scale_tf(sys.z_ds, alpha), t_ac=_scale_tf(sys.t_ac, alpha),
            t_dc=_scale_tf(sys.t_dc, alpha), t_ds=_scale_tf(sys.t_ds, alpha),
            z_ilc1=_scale_tf(sys.z_ilc1, alpha),
            z_ilc2=_scale_tf(sys.z_ilc2, alpha),
        )
        p, d_common = _polynomial_matrix(scaled_sys)
        det_p = _poly_det3(p)
        if det_p.is_zero:
            raise SingularSystem("nodal determinant is identically zero")
        responses = []
        for k in range(3):
            acc = poly(0.0)
            for j, inj in enumerate(injections):
                if inj == 0.0:
                    continue
                acc = poly_add(acc, _cofactor(p, j, k).scaled(inj))
            responses.append(RationalTF(poly_mul(d_common, acc), det_p))
        # node voltages are the negated deviations
        deltas_scaled = tuple(tf_scale(v, -1.0) for v in responses)
        residual = _back_substitution_residual(g, deltas_scaled, alpha, injections)
        if residual <= RESIDUAL_TOL:
            deltas = [_unscale_tf(f, alpha) for f in deltas_scaled]
            return NodalSolution(
                delta_f_pu=deltas[0], delta_vds_pu=deltas[1],
                delta_vdc_pu=deltas[2], residual=residual,
                freq_scale=alpha, scaled=deltas_scaled,
            )
        failure = SingularSystem(
            f"back-substitution residual {residual:.2e} exceeds "
            f"{RESIDUAL_TOL} (freq scale {alpha})"
        )
    raise failure


def _cofactor(p: list[list[Polynomial]], row: int, col: int) -> Polynomial:
    rows = [r for r in range(3) if r != row]
    cols = [c for c in range(3) if c != col]
    a = p[rows[0]][cols[0]]
    b = p[rows[0]][cols[1]]
    c = p[rows[1]][cols[0]]
    d = p[rows[1]][cols[1]]
    minor = poly_add(poly_mul(a, d), poly_mul(b, c).scaled(-1.0))
    return minor if (row + col) % 2 == 0 else minor.scaled(-1.0)


def _back_substitution_residual(g, deltas_scaled, alpha, injections) -> float:
    """Worst relative residual of G(s) V(s) = I over the verification grid.

    V_j = -delta_j, with the deviations evaluated through their scaled
    representation at sigma = s/alpha.
    """
    rng = np.random.default_rng(1234)
    points = [1j * w for w in (0.01, 1.0, 100.0)]
    points += [complex(rng.normal(), rng.normal()) * 10.0 for _ in range(7)]
    worst = 0.0
    for s in points:
        g_vals = [[tf_eval(e, s) if not e.num.is_zero else 0.0 for e in row]
                  for row in g]
        v_vals = [-tf_eval(t, s / alpha) for t in deltas_scaled]
        for i in range(3):
            lhs = sum(g_vals[i][j] * v_vals[j] for j in range(3))
            scale = max(
                abs(injections[i]),
                max(abs(g_vals[i][j] * v_vals[j]) for j in range(3)),
                1e-30,
            )
            worst = max(worst, abs(lhs - injections[i]) / scale)
    return worst


# ---------------------------------------------------------------------------
# closed-form full-system quantities
# ---------------------------------------------------------------------------

def global_inertia(specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec]) -> float:
    """Capacity-weighted inertia H_G = sum H_x P_x_max / P_gmax (y_h for DS)."""
    p_g = global_capacity(specs)
    total = 0.0
    for spec in specs:
        h = spec.y_h if spec.kind == "ds" else spec.inertia_h
        total += h * spec.p_max_w
    return total / p_g


def predict_rates(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec], total_load_step_w: float
) -> tuple[float, float, float]:
    """Initial rates of change after a global load step, in SI units.

    Per-unit rate is (dP/P_gmax)/(2 H_G) on every bus; SI rates follow from
    the frequency and voltage bases (x_max of each subgrid).
    """
    p_g = global_capacity(specs)
    if total_load_step_w > p_g:
        raise GecmError("load step exceeds total capacity")
    pu_rate = (total_load_step_w / p_g) / (2.0 * global_inertia(specs))
    ac, dc, ds = specs
    return pu_rate * ac.x_max, pu_rate * dc.x_max, pu_rate * ds.x_max


def predict_steady_shares(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec], total_load_w: float
) -> tuple[float, float, float]:
    """Capacity-proportional steady allocation P_x = P_x_max * load/P_gmax."""
    p_g = global_capacity(specs)
    if total_load_w > p_g:
        raise GecmError("load exceeds total capacity")
    return tuple(spec.p_max_w * total_load_w / p_g for spec in specs)


def objective1_only_ratio(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec]
) -> tuple[float, float, float]:
    """Per-unit output ratio under pure inertia transfer: 1/(1 - x*_min)."""
    return tuple(1.0 / (1.0 - s.x_min / s.x_max) for s in specs)


def ideal_global_deviation_tf(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec],
    cspec: ConcatenatorSpec | None,
    channel: str,
) -> RationalTF:
    """Deviation per global load with ideal (infinite-gain) converter coupling.

    In the limit Z_ILC -> 0 the coupling pins T_x(s) dx_x*(s) to a common
    signal; power balance then gives

        N_x1(s) = -1 / ( T_x(s) * sum_y (P_y/P_G) B_y(s) / T_y(s) )

    with B_y = -1/N_y0 the branch stiffness on the local base. Its
    high-frequency limit is the global-inertia rate -1/(2 H_G) and its DC
    value reproduces capacity-proportional sharing.
    """
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


def restored_absolute_tf(
    delta_tf: RationalTF, spec: SubgridSpec, restoration: bool = True
) -> RationalTF:
    """Per-unit absolute quantity x*(s) = 1/s + dx*(s) + comp*(s).

    delta_tf is the deviation response including its step input (i.e.
    dx*(s) itself, not a per-unit-step TF). With restoration the
    compensation is comp* = F/(1+F) ((x_n*-1)/s - dx*) for the PI
    F = k_p + k_i/s, which pins the final value at x_n*.
    """
    one_over_s = tf([1.0], [0.0, 1.0])
    x = tf_add(one_over_s, delta_tf)
    if not restoration:
        return x
    f_cl = tf([spec.k_i, spec.k_p], [spec.k_i, 1.0 + spec.k_p])
    target = tf_scale(one_over_s, spec.x_nominal_pu - 1.0)
    comp = tf_series(f_cl, tf_add(target, tf_scale(delta_tf, -1.0)))
    return tf_add(x, comp)


def bode_export(f: RationalTF, omega_grid) -> list[tuple[float, float, float]]:
    """Magnitude (dB) and phase (deg) of f(jw) over an ascending grid."""
    omegas = list(omega_grid)
    if any(w <= 0.0 for w in omegas) or any(
        b <= a for a, b in zip(omegas, omegas[1:])
    ):
        raise GecmError("omega grid must be positive and strictly ascending")
    rows = []
    for w in omegas:
        val = tf_eval(f, 1j * w)
        mag_db = 20.0 * np.log10(abs(val))
        phase_deg = np.degrees(cmath.phase(val))
        rows.append((w, float(mag_db), float(phase_deg)))
    return rows


def default_bode_grid() -> np.ndarray:
    return np.geomspace(1e-4, 1e4, BODE_POINTS)
