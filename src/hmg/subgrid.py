"""Per-unit dynamic models of the AC, DC and distributed-storage subgrids.

Each subgrid is reduced to the transfer function from its per-unit output
power (on its own power base) to its per-unit frequency/voltage deviation:

* AC / DC: virtual-inertia swing loop with damping, droop gain R and a
  governor/turbine chain T(s)*Y(s) closing the droop path.
* DS: parallel conventional droop (low-ramp storage) and integral droop
  (high-ramp storage), which together behave like a first-order swing
  -1/(2*y_h*s + y_l).

The module also designs droop coefficients from the SI frequency/voltage
limits so that per-unit and SI droop laws agree, splits the DS power into
its low/high-frequency shares, and carries the gains of the restoration PI
that trims steady-state deviations to zero (`sim` steps that PI).

Sign conventions: deviations are measured from the maximum value
(x* = 1 + dx* + comp*), so positive load gives negative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .lti import (
    RationalTF,
    poly,
    poly_mul,
    tf,
    tf_add,
    tf_reciprocal,
    tf_scale,
)

AC, DC, DS = "ac", "dc", "ds"
KINDS = (AC, DC, DS)

# Relative tolerance for the droop re-substitution identity check.
DROOP_IDENTITY_RTOL = 1e-10


class SubgridError(Exception):
    pass


class DegenerateLimits(SubgridError):
    """x_min is not below x_max; droop design has nothing to work with."""


class NegativeDroop(SubgridError):
    """Damping too large: the droop design denominator is <= 0."""


@dataclass(frozen=True)
class SubgridSpec:
    """Physical and control parameters of one subgrid.

    SI unit of x is Hz for the AC subgrid and V for DC/DS. Fields that do
    not apply to a kind stay None (y_h/y_l are DS-only; inertia, damping,
    droop and the governor time constants are AC/DC-only).
    """

    kind: str
    x_max: float
    x_min: float
    x_nominal: float
    p_max_w: float
    inertia_h: float | None = None
    damping_d: float | None = None
    droop_r: float | None = None
    y_h: float | None = None
    y_l: float | None = None
    t_g: float | None = None
    f_hp: float | None = None
    t_ch: float | None = None
    t_rh: float | None = None
    # restoration PI gains; slow against the inertia response on purpose
    k_p: float = 0.005
    k_i: float = 0.05

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise SubgridError(f"unknown subgrid kind {self.kind!r}")
        # the per-unit base and band, whether or not the droop is given
        self.band  # raises on x_max <= 0 or x_min >= x_max
        # nominal may sit on the lower limit (the reference DC bus does)
        if not (self.x_min <= self.x_nominal <= self.x_max):
            raise SubgridError(
                f"{self.kind}: need x_min <= x_nominal <= x_max, got "
                f"{self.x_min}, {self.x_nominal}, {self.x_max}"
            )
        if self.p_max_w <= 0.0:
            raise SubgridError(f"{self.kind}: p_max_w must be > 0")
        if self.kind in (AC, DC):
            if self.inertia_h is None or self.inertia_h <= 0.0:
                raise SubgridError(f"{self.kind}: inertia_h must be > 0")
            if self.damping_d is None:
                raise SubgridError(f"{self.kind}: damping_d is required")
            for name in ("t_g", "f_hp", "t_ch", "t_rh"):
                if getattr(self, name) is None:
                    raise SubgridError(f"{self.kind}: {name} is required")
        else:
            if self.y_h is None or self.y_h <= 0.0:
                raise SubgridError("ds: y_h must be > 0")
            if self.y_l is not None and self.y_l <= 0.0:
                raise SubgridError("ds: y_l must be > 0")

    @property
    def x_nominal_pu(self) -> float:
        return self.x_nominal / self.x_max

    @property
    def band(self) -> float:
        """Permissible SI deviation range x_max - x_min. Raises SubgridError
        when x_max <= 0 (no per-unit base), DegenerateLimits when x_min >=
        x_max: every per-unit quantity divides by x_max or by the band."""
        if self.x_max <= 0.0:
            raise SubgridError(f"{self.kind}: x_max must be > 0, got {self.x_max}")
        if self.x_min >= self.x_max:
            raise DegenerateLimits(f"{self.kind}: need x_min < x_max, got "
                                   f"{self.x_min}, {self.x_max}")
        return self.x_max - self.x_min


def design_droop(spec: SubgridSpec) -> SubgridSpec:
    """Fill the droop coefficient so p.u. and SI droop laws coincide.

    AC/DC: R = (x_max - x_min) / (x_max - D*(x_max - x_min)); the designed
    value satisfies R/(D*R + 1) = (x_max - x_min)/x_max, which is verified by
    re-substitution before returning. DS: y_l = x_max/(x_max - x_min).

    Raises
    ------
    SubgridError
        When x_max <= 0: the per-unit band (x_max - x_min)/x_max is undefined.
    DegenerateLimits
        When x_min >= x_max.
    NegativeDroop
        When damping is so large that the design denominator is <= 0.
    """
    band = spec.band
    if spec.kind == DS:
        y_l = spec.x_max / band
        out = replace(spec, y_l=y_l)
        _check_identity(1.0 / y_l, band / spec.x_max, spec.kind)
        return out
    denom = spec.x_max - spec.damping_d * band
    if denom <= 0.0:
        raise NegativeDroop(
            f"{spec.kind}: x_max - D*(x_max - x_min) = {denom} <= 0"
        )
    r = band / denom
    out = replace(spec, droop_r=r)
    _check_identity(r / (spec.damping_d * r + 1.0), band / spec.x_max, spec.kind)
    return out


def _check_identity(got: float, want: float, kind: str) -> None:
    if abs(got - want) > DROOP_IDENTITY_RTOL * abs(want):
        raise SubgridError(f"{kind}: droop identity violated: {got} vs {want}")


def governor_turbine_tf(spec: SubgridSpec) -> RationalTF:
    """T(s)Y(s) = (f_hp*t_rh*s + 1) / ((t_g s+1)(t_ch s+1)(t_rh s+1))."""
    den = poly_mul(
        poly_mul(poly(1.0, spec.t_g), poly(1.0, spec.t_ch)), poly(1.0, spec.t_rh)
    )
    return tf([1.0, spec.f_hp * spec.t_rh], den.coeffs)


def build_open_loop_tf(spec: SubgridSpec) -> RationalTF:
    """Deviation-per-output-power transfer function of one subgrid, on its
    own power base: -R/((2 H s + D) R + T(s)Y(s)) for AC/DC and
    -1/(2 y_h s + y_l) for DS. A missing droop is designed first."""
    if (spec.y_l if spec.kind == DS else spec.droop_r) is None:
        spec = design_droop(spec)
    if spec.kind == DS:
        return tf([-1.0], [spec.y_l, 2.0 * spec.y_h])
    r = spec.droop_r
    swing = tf([spec.damping_d * r, 2.0 * spec.inertia_h * r], [1.0])
    return tf_scale(tf_reciprocal(tf_add(swing, governor_turbine_tf(spec))), -r)


@lru_cache(maxsize=1)
def open_loop_tfs(specs: tuple[SubgridSpec, ...]) -> tuple[RationalTF, ...]:
    """`build_open_loop_tf` of each spec. The models of the last specs are
    kept: a design study's engine, circuit model and ideal-coupling analysis
    all start from the same subgrid models."""
    return tuple(map(build_open_loop_tf, specs))


def steady_droop_gain_pu(spec: SubgridSpec) -> float:
    """DC gain of the open-loop deviation TF: -R/(D R+1), or -1/y_l for DS."""
    if spec.kind == DS:
        return -1.0 / spec.y_l
    r = spec.droop_r
    return -r / (spec.damping_d * r + 1.0)


def hess_split(step_pu: float, spec: SubgridSpec) -> tuple[RationalTF, RationalTF]:
    """Low/high-ramp storage shares of a DS output-power step.

    Returns the two transfer functions, scaled by the step magnitude:

        P_L*(s) = step * (y_l/(2 y_h)) / (s + y_l/(2 y_h))
        P_H*(s) = step *  s            / (s + y_l/(2 y_h))

    Their sum is the constant `step`, so the two branches always carry
    exactly the DS output power between them.
    """
    if spec.y_l is None:
        spec = design_droop(spec)
    a = spec.y_l / (2.0 * spec.y_h)
    p_l = tf([step_pu * a], [a, 1.0])
    p_h = tf([0.0, step_pu], [a, 1.0])
    return p_l, p_h


def compute_lc(x_si: float, spec: SubgridSpec) -> float:
    """Loading condition (x_max - x)/(x_max - x_min); 0 unloaded, 1 full."""
    return (spec.x_max - x_si) / spec.band


def compute_rli(x_si: float, delta_comp_si: float, spec: SubgridSpec) -> float:
    """Relative loading index: loading condition corrected for the
    restoration compensation, (x_max - x + comp)/(x_max - x_min)."""
    return (spec.x_max - x_si + delta_comp_si) / spec.band
