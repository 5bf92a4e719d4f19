"""Tour of the numeric substrate: rational blocks, realization, stepping.

Every model in the package reduces to rational functions of the Laplace
variable. This walk-through builds a governor/turbine chain, realizes it,
integrates it, and reads off the initial/final value limits.
"""

import math

import numpy as np

from hmg.lti import (
    fvt_limit,
    ivt_rate_limit,
    poly,
    poly_mul,
    rk4_step_maps,
    tf,
    tf_add,
    tf_eval,
    tf_reciprocal,
    tf_scale,
    tf_series,
    tf_to_statespace,
)

# The speed-governor lag and the turbine with its fast/reheat split.
t_g, f_hp, t_ch, t_rh = 0.1, 0.3, 0.2, 7.0
governor = tf([1.0], [1.0, t_g])
turbine = tf([1.0, f_hp * t_rh], poly_mul(poly(1.0, t_ch), poly(1.0, t_rh)).coeffs)
chain = tf_series(governor, turbine)
print("governor*turbine numerator:", chain.num.coeffs)
print("             denominator:", chain.den.coeffs)
print("DC gain:", tf_eval(chain, 0.0).real, "(full droop authority)")
print("fast-path gain at 5 rad/s:", abs(tf_eval(chain, 5j)))

# Close the swing loop: deviation per unit output power of a 2-second
# machine with droop 2/49 and damping 1.
r, h_inertia, d = 2.0 / 49.0, 2.0, 1.0
swing = tf([d * r, 2.0 * h_inertia * r], [1.0])
branch = tf_scale(tf_reciprocal(tf_add(swing, chain)), -r)
print("\nswing branch relative degree:", branch.relative_degree)
print("initial rate per unit load:", ivt_rate_limit(branch), "= -1/(2H)")
step_response = tf(branch.num.coeffs, (0.0,) + branch.den.coeffs)
print("steady deviation per unit load:", fvt_limit(step_response))

# Realize and integrate with the RK4 one-step map x+ = M x + N u; the step
# response approaches the final value.
ss = tf_to_statespace(branch)
x = np.zeros(ss.order)
h = 1e-3
M, N = rk4_step_maps(ss, h)
for _ in range(int(60.0 / h)):
    x = M @ x + N
print("simulated deviation at 60 s:", float(ss.C @ x))

# The high-frequency magnitude of the lead-lag concatenator is unity and
# its DC gain is the band ratio; the transition is what chains transient
# and steady behavior.
w0 = 1e-3 * math.pi
t_ac = tf([25.5 * w0, 1.0], [w0, 1.0])
for w in (1e-5, 1e-3, 1e-1, 10.0):
    print(f"|T_ac(j{w:g})| = {abs(tf_eval(t_ac, 1j * w)):.4f}")
