"""Global equivalent circuit model: nodal analysis and analytic predictions.

Each subgrid is a Thévenin branch: per-unit deviation = -Z_x(s) * per-unit
output power on the global base P_gmax. The converter stages couple the
branches through impedances Z_ILCn = s/(k_tp s + k_ti) behind the
concatenators T_x(s). With node voltages V_x = -dx*(s) and the converter
powers

    p1 = (T_dc V_dc - T_ds V_ds)/Z_ILC1      (DS -> DC positive)
    p2 = (T_ac V_ac - T_ds V_ds)/Z_ILC2      (DS -> AC positive)

Kirchhoff balances P_ox = P_Lx -/+ converter flows give the admittance
system G V = I_P with rows and columns in KINDS order (AC, DC, DS):

    [ y_ac + T_ac/Z2   0                -T_ds/Z2               ]
    [ 0                y_dc + T_dc/Z1   -T_ds/Z1               ]
    [ -T_ac/Z2         -T_dc/Z1         y_ds + T_ds/Z1+T_ds/Z2 ]

where y_x = 1/Z_x. The solve realizes each Z_x, T_x and 1/Z_ILCn as its
own low-order state-space block and closes these relations into one model
x' = A x + B P_L whose rows C read the deviations. Every Z_x is strictly
proper, so V_x is a function of the state and the interconnection has no
algebraic loop. The poles are the eigenvalues of A; a response is one
complex solve with sI - A. The residual of G(s) V(s) = I_P gates every
solve, with G formed at each point from the values of its branches.

The module also carries the closed-form full-system results: the
capacity-weighted global inertia, predicted rates of change, steady
capacity-proportional shares, and the ideal-coupling global deviation
transfer functions used for inertia analysis and Bode studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ilc import ConcatenatorSpec, IlcSpec, concatenator_tf, ilc_equivalent_impedances
from .lti import (
    Polynomial,
    RationalTF,
    poly_mul,  # noqa: F401  perfbench/spans.py counts calls through it (ROADMAP item 2)
    tf,
    tf_add,
    tf_eval,
    tf_reciprocal,
    tf_scale,
    tf_series,
    tf_to_statespace,
)
from .subgrid import AC, DC, DS, KINDS, SubgridSpec, build_open_loop_tf

RESIDUAL_TOL = 1e-6

# Where every solve checks G(s) V(s) = I: three points on the imaginary axis
# and seven draws of 10 (N(0,1) + j N(0,1)) from numpy's default_rng(1234),
# written out so that importing this module does not load numpy.random.
RESIDUAL_POINTS = (
    0.01j, 1j, 100j,
    -16.038368053963016 + 0.6409991400376411j,
    7.408912958767258 + 1.5261919356565308j,
    8.637438913233318 + 29.130992225039712j,
    -14.788233606644015 + 9.454729746458598j,
    -16.661354573179644 + 3.4374458145267965j,
    -5.124437092848577 + 13.23758956688572j,
    -8.602801935850232 + 5.194931990183601j,
)
BODE_POINTS = 300  # default Bode grid, log-spaced over 1e-4..1e4 rad/s

# perfbench/spans.py imports this and indexes it with freq_scale (ROADMAP item 2).
FREQ_SCALE_CANDIDATES = (1.0,)


class GecmError(Exception):
    pass


class SingularSystem(GecmError):
    """The nodal solve fails its residual gate."""


@dataclass(frozen=True)
class GecmSystem:
    """Branch impedances, couplings and load injections on the global base.

    z_ilc1 and z_ilc2 are None when no converter couples the branches.
    """

    z_ac: RationalTF
    z_dc: RationalTF
    z_ds: RationalTF
    t_ac: RationalTF
    t_dc: RationalTF
    t_ds: RationalTF
    z_ilc1: RationalTF | None
    z_ilc2: RationalTF | None
    p_lac_gpu: float
    p_ldc_gpu: float
    p_lds_gpu: float
    p_gmax_w: float

    def validate(self) -> None:
        for name in ("z_ac", "z_dc", "z_ds"):
            z = getattr(self, name)
            if z.relative_degree < 1:
                raise GecmError(f"{name} is not strictly proper: its feedthrough "
                                "would close an algebraic loop")
            poles = z.den.roots()
            if np.any(poles.real >= 0.0):
                raise GecmError(f"{name} has non-stable poles {poles}")


@dataclass(frozen=True)
class NodalSolution:
    """Per-unit deviation responses to the configured step injections.

    x' = A x + b u is the circuit driven by u, a unit step of the loads
    stored in the GecmSystem (b = B P_L, column i of B taking the global
    per-unit load of KINDS[i]); row i of C reads the deviation of KINDS[i].
    Each channel F(s) = C_x (sI - A)^-1 b satisfies deviation(s) = F(s)/s.
    The residual is the worst relative error of G(s) V(s) = I_P over
    RESIDUAL_POINTS. `solve_nodal` hands the same solution to every caller
    that solves one system, so its arrays are read-only.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    C: np.ndarray
    residual: float
    # traced perfbench runs look this up in FREQ_SCALE_CANDIDATES (ROADMAP item 2)
    freq_scale = 1.0

    def responses(self, s) -> np.ndarray:
        """F(s) of every channel, in KINDS order along the last axis.

        An array of points is one batched solve over the stacked sI - A.
        """
        s = np.asarray(s, dtype=complex)
        m = s[..., None, None] * np.eye(len(self.b)) - self.A
        # b as an (..., n, 1) stack of matrices: numpy 1.x would read an
        # (n, 1) right-hand side against a stack of systems as n vectors
        rhs = np.broadcast_to(self.b.astype(complex)[:, None], m.shape[:-1] + (1,))
        x = np.linalg.solve(m, rhs)
        return (self.C @ x)[..., 0]

    def eval_channel(self, kind: str, s: complex) -> complex:
        """deviation(s)*s = C_x (sI - A)^-1 b."""
        return complex(self.responses(s)[KINDS.index(kind)])

    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    def channel(self, kind: str) -> RationalTF:
        """F(s) as a rational function, from characteristic polynomials:
        C_x (sI - A)^-1 b = (det(sI - A + b C_x) - det(sI - A))/det(sI - A)."""
        den = np.poly(self.A)
        num = np.poly(self.A - np.outer(self.b, self.C[KINDS.index(kind)])) - den
        return RationalTF(Polynomial(tuple(num[::-1])), Polynomial(tuple(den[::-1])))

    # perfbench `analyze` and `hmg bode f_closed` compose these (ROADMAP item 2)
    delta_f_pu = property(lambda self: self.channel(AC))
    delta_vdc_pu = property(lambda self: self.channel(DC))
    delta_vds_pu = property(lambda self: self.channel(DS))


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
    ilc: IlcSpec | None,
    cspec: ConcatenatorSpec | None,
    loads_w: tuple[float, float, float],
) -> GecmSystem:
    """Assemble the full circuit model; ilc None means no converter, cspec
    None unity concatenators."""
    z_ac, z_dc, z_ds = build_branch_impedances(ac, dc, ds)
    t_ac, t_dc, t_ds = (_concatenator(cspec, kind) for kind in KINDS)
    z1, z2 = (None, None) if ilc is None else ilc_equivalent_impedances(ilc)
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


def _interconnect(sys: GecmSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) of x' = A x + B P_L, with B's columns and C's rows in KINDS order.

    The branches Z_x are driven by their output powers P_ox; with a
    converter, the concatenators T_x by V_x and the couplings 1/Z_ILCn by
    the concatenated differences. Each block's output is a row over x.
    """
    blocks = [tf_to_statespace(z) for z in (sys.z_ac, sys.z_dc, sys.z_ds)]
    if sys.z_ilc1 is not None:
        blocks += [tf_to_statespace(t) for t in (sys.t_ac, sys.t_dc, sys.t_ds)]
        blocks += [tf_to_statespace(tf_reciprocal(z))
                   for z in (sys.z_ilc1, sys.z_ilc2)]
    ends = np.cumsum([b.order for b in blocks])
    n = int(ends[-1])
    spans = [slice(e - b.order, e) for b, e in zip(blocks, ends)]

    def output(k: int, drive: np.ndarray) -> np.ndarray:
        row = blocks[k].D * drive
        row[spans[k]] += blocks[k].C
        return row

    zero = np.zeros(n)
    v = [output(k, zero) for k in range(3)]  # strictly proper: no feedthrough
    p1 = p2 = zero
    drives = []
    if sys.z_ilc1 is not None:
        c = [output(3 + k, v[k]) for k in range(3)]
        e = [c[1] - c[2], c[0] - c[2]]       # the numerators of p1 and p2
        p1, p2 = output(6, e[0]), output(7, e[1])
        drives = v + e
    p_o = [-p2, -p1, p1 + p2]                # plus the loads P_L
    A = np.zeros((n, n))
    B = np.zeros((n, 3))
    for k, drive in enumerate(p_o + drives):
        A[spans[k], spans[k]] = blocks[k].A
        A[spans[k]] += np.outer(blocks[k].B, drive)
    for k in range(3):
        B[spans[k], k] = blocks[k].B
    return A, B, -np.array(v)


@lru_cache(maxsize=1)
def solve_nodal(sys: GecmSystem) -> NodalSolution:
    """State-space solution of G V = I_P for the configured load steps.

    The solution of the last system solved is kept and returned again for
    an equal system: a design study cross-checks a configuration and then
    analyses the same circuit. A failed solve is not kept.

    Raises
    ------
    GecmError
        When a branch impedance is not strictly proper or not stable.
    SingularSystem
        When the residual of G(s) V(s) = I_P exceeds RESIDUAL_TOL.
    """
    sys.validate()
    A, B, C = _interconnect(sys)
    b = B @ np.array([sys.p_lac_gpu, sys.p_ldc_gpu, sys.p_lds_gpu])
    for a in (A, B, b, C):
        a.setflags(write=False)
    sol = NodalSolution(A=A, B=B, b=b, C=C, residual=float("nan"))
    residual = _back_substitution_residual(sys, sol)
    if not residual <= RESIDUAL_TOL:
        raise SingularSystem(
            f"back-substitution residual {residual:.2e} exceeds {RESIDUAL_TOL}"
        )
    return replace(sol, residual=residual)


def _back_substitution_residual(sys: GecmSystem, sol: NodalSolution) -> float:
    """Worst relative residual of G(s) V(s) = I over RESIDUAL_POINTS, with
    V = -deviation from the state-space solution."""
    s = np.array(RESIDUAL_POINTS)
    terms = _admittance(sys, s) * -sol.responses(s).T  # terms[i, j] = G_ij V_j
    injections = np.array([sys.p_lac_gpu, sys.p_ldc_gpu, sys.p_lds_gpu])[:, None]
    scale = np.maximum(np.maximum(np.abs(injections), np.abs(terms).max(axis=1)),
                       1e-30)
    return float(np.max(np.abs(terms.sum(axis=1) - injections) / scale))


def _admittance(sys: GecmSystem, s: np.ndarray) -> np.ndarray:
    """G at every point of s, shape (3, 3, len(s)), in KINDS order, from one
    evaluation of each branch 1/Z_x, T_x and 1/Z_ILCn over all the points."""
    y_ac, y_dc, y_ds = (tf_eval(tf_reciprocal(z), s)
                        for z in (sys.z_ac, sys.z_dc, sys.z_ds))
    t_ac = t_dc = t_ds = g1 = g2 = zero = np.zeros(len(s))
    if sys.z_ilc1 is not None:
        t_ac, t_dc, t_ds = (tf_eval(t, s) for t in (sys.t_ac, sys.t_dc, sys.t_ds))
        g1, g2 = (tf_eval(tf_reciprocal(z), s) for z in (sys.z_ilc1, sys.z_ilc2))
    return np.array([[y_ac + t_ac * g2, zero, -t_ds * g2],
                     [zero, y_dc + t_dc * g1, -t_ds * g1],
                     [-t_ac * g2, -t_dc * g1, y_ds + t_ds * (g1 + g2)]])


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
    q = _pooled_stiffness(tuple(specs), cspec)
    return tf_scale(tf_reciprocal(tf_series(_concatenator(cspec, channel), q)), -1.0)


@lru_cache(maxsize=1)
def _pooled_stiffness(
    specs: tuple[SubgridSpec, SubgridSpec, SubgridSpec],
    cspec: ConcatenatorSpec | None,
) -> RationalTF:
    """q = sum_y (P_y/P_G) B_y / T_y, shared by the three channels of one
    configuration: the last (specs, cspec) is kept."""
    p_g = global_capacity(specs)
    q = tf([0.0], [1.0])
    for spec in specs:
        b_y = tf_scale(tf_reciprocal(build_open_loop_tf(spec)), -1.0)
        weighted = tf_scale(b_y, spec.p_max_w / p_g)
        t_y = _concatenator(cspec, spec.kind)
        q = tf_add(q, tf_series(weighted, tf_reciprocal(t_y)))
    return q


def _concatenator(cspec: ConcatenatorSpec | None, kind: str) -> RationalTF:
    """T_x, or unity when cspec is None."""
    return tf([1.0], [1.0]) if cspec is None else concatenator_tf(cspec, kind)


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
    """Magnitude (dB) and phase (deg) of f(jw) over an ascending grid.

    The whole grid is one evaluation of f; rows are (w, mag_db, phase_deg).
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if not np.isfinite(omegas).all():
        raise GecmError("omega grid must be finite")
    if (omegas <= 0.0).any() or (np.diff(omegas) <= 0.0).any():
        raise GecmError("omega grid must be positive and strictly ascending")
    val = tf_eval(f, 1j * omegas)
    mag_db = 20.0 * np.log10(np.abs(val))
    phase_deg = np.degrees(np.angle(val))
    return list(zip(omegas.tolist(), mag_db.tolist(), phase_deg.tolist()))


def default_bode_grid() -> np.ndarray:
    return np.geomspace(1e-4, 1e4, BODE_POINTS)
