"""Two-stage interlinking-converter controller with dynamic concatenators.

The converter routes power between the three subgrids so that

* during transients the concatenated deviations track each other, pooling
  the subgrids' inertia against any local disturbance, and
* in steady state the same loop equalizes relative loading indices, which
  yields capacity-proportional global power sharing.

Both behaviors come from one controller: each per-unit deviation passes
through a lead-lag concatenator (s + w_x)/(s + w_0) whose high-frequency
gain is unity (transient: raw deviations compared) and whose DC gain is
x_max/(x_max - x_min) (steady state: relative loading compared). No mode
switch exists anywhere.

The cutoff w_0 must respect the resolution of the fixed-width arithmetic the
controller is deployed on: discretized with period T_s, the filter pole maps
to exp(-w_0*T_s) ~ 1 - w_0*T_s, so w_0*T_s has to stay above the effective
machine spacing M * 2**-23 of single-precision hardware.

This module designs the controller; `sim` steps it as rows of its one-step map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lti import RationalTF, tf
from .subgrid import AC, DC, DS, SubgridSpec

# Single-precision machine spacing of the target fixed-width hardware
# (1 sign bit, 8 exponent bits, 23 fraction bits).
EPS_MACH = 2.0 ** -23


class IlcError(Exception):
    pass


@dataclass(frozen=True)
class ConcatenatorSpec:
    """Cutoff and per-channel corner frequencies of the concatenators."""

    omega_0: float
    omega_ac: float
    omega_dc: float
    omega_ds: float

    def omega(self, channel: str) -> float:
        return {AC: self.omega_ac, DC: self.omega_dc, DS: self.omega_ds}[channel]


@dataclass(frozen=True)
class IlcSpec:
    """Power-loop PI gains and controller deployment parameters."""

    # fast against every subgrid mode, so the measured post-disturbance
    # rates reflect the pooled inertia
    k_tp1: float = 4000.0
    k_ti1: float = 400e3
    k_tp2: float = 4000.0
    k_ti2: float = 400e3
    sampling_period: float = 50e-6
    safety_factor_m: float = 1.3

    def validate(self) -> None:
        for name in ("k_tp1", "k_ti1", "k_tp2", "k_ti2", "sampling_period",
                     "safety_factor_m"):
            if getattr(self, name) <= 0.0:
                raise IlcError(f"{name} must be > 0")


def min_cutoff(sampling_period: float, safety_factor: float) -> float:
    """Smallest admissible concatenator cutoff, M * 2**-23 / T_s [rad/s]."""
    if sampling_period <= 0.0 or safety_factor <= 0.0:
        raise IlcError("sampling period and safety factor must be > 0")
    return safety_factor * EPS_MACH / sampling_period


def design_omegas(
    omega_0: float, ac: SubgridSpec, dc: SubgridSpec, ds: SubgridSpec
) -> ConcatenatorSpec:
    """Corner frequencies w_x = w_0 * x_max / (x_max - x_min) per channel;
    `SubgridSpec.band` rejects a non-positive x_max or an empty band."""
    if omega_0 <= 0.0:
        raise IlcError("omega_0 must be > 0")
    omegas = {spec.kind: omega_0 * spec.x_max / spec.band for spec in (ac, dc, ds)}
    return ConcatenatorSpec(
        omega_0=omega_0, omega_ac=omegas[AC], omega_dc=omegas[DC],
        omega_ds=omegas[DS],
    )


def concatenator_tf(cspec: ConcatenatorSpec, channel: str) -> RationalTF:
    """(s + w_x)/(s + w_0) for the requested channel."""
    return tf([cspec.omega(channel), 1.0], [cspec.omega_0, 1.0])


def ilc_equivalent_impedances(spec: IlcSpec) -> tuple[RationalTF, RationalTF]:
    """Coupling impedances of the two power loops, s/(k_tp s + k_ti)."""
    spec.validate()
    z1 = tf([0.0, 1.0], [spec.k_ti1, spec.k_tp1])
    z2 = tf([0.0, 1.0], [spec.k_ti2, spec.k_tp2])
    return z1, z2
