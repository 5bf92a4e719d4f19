"""Nodal circuit analysis of the coupled system and closed-form predictions.

Solves the three-node circuit as one state-space interconnection, then
reads the headline quantities straight from limits: pooled inertia from
the high-frequency behavior, capacity-proportional sharing from DC values.
"""

import numpy as np

from hmg.config import reference_config
from hmg.gecm import (
    build_gecm,
    global_inertia,
    ideal_global_deviation_tf,
    objective1_only_ratio,
    predict_rates,
    predict_steady_shares,
    solve_nodal,
)
from hmg.lti import ivt_rate_limit
from hmg.subgrid import steady_droop_gain_pu

cfg = reference_config()
specs = cfg.specs
loads = (12e3, 14e3, 10e3)  # AC, DC, DS step magnitudes in watts

h_g = global_inertia(specs)
print(f"pooled inertia H_G = {h_g:.6f} s")
rocof, rocov_dc, rocov_ds = predict_rates(specs, sum(loads))
print(f"predicted rates for a {sum(loads)/1e3:.0f} kW step: "
      f"{rocof:.3f} Hz/s, {rocov_dc:.2f} V/s, {rocov_ds:.2f} V/s")
print("steady shares:", [f"{s/1e3:.1f} kW" for s in predict_steady_shares(specs, sum(loads))])
print("inertia-transfer-only ratio:", objective1_only_ratio(specs))

# Ideal-coupling deviation responses: every channel shows -1/(2 H_G).
cspec = cfg.concatenator_spec()
for kind in ("ac", "dc", "ds"):
    n1 = ideal_global_deviation_tf(specs, cspec, kind)
    print(f"rate limit of the pooled {kind} response: {ivt_rate_limit(n1):+.5f}"
          f"  (-1/(2 H_G) = {-1/(2*h_g):+.5f})")

# Finite-gain nodal solve: one state-space model, gated by the residual of
# G(s) V(s) = I against the rational admittance matrix.
sys_ = build_gecm(*specs, cfg.ilc, cspec, loads)
sol = solve_nodal(sys_)
print(f"\nnodal solve residual: {sol.residual:.2e}")
p_lg_pu = sum(loads) / cfg.p_gmax_w
for kind, spec in zip(("ac", "dc", "ds"), specs):
    steady = sol.eval_channel(kind, 1e-12).real
    print(f"{kind}: steady deviation {steady:+.6f} pu "
          f"(droop gain * load = {steady_droop_gain_pu(spec) * p_lg_pu:+.6f})")
print("slowest poles:", np.sort(np.abs(sol.poles()))[:3].round(5))
