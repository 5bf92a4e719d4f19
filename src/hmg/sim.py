"""Coupled time-domain simulation of the three subgrids and the converter.

The whole closed loop is linear: subgrid blocks, concatenators, converter
PI loops and the storage split filter are LTI, restoration is a linear
discrete update, and the only inputs are the piecewise constant loads.
The engine is one table of blocks, the PIs included, each one entry: a
one-step map (M, N), the exact RK4 map under held inputs or restoration's
velocity form, and a drive row, the coupling at the step start. Every row
comes from one output rule. The inputs u are carried as constant states,
so the whole run is one linear system z+ = Z z on z = [x; u], a load step
is a kick that adds to the input states, and every trace column is one
row of one output matrix over z. One power of Z advances a whole output
sample, and one product with the stacked powers, built once per run,
advances up to _BLOCK_SAMPLES samples at once. This is algebraically
identical to stepping every block on its own under held inputs (it
differs by round-off only), and fast enough for sub-millisecond steps
over long horizons, recorded at every step or not. A map whose spectral
radius is not below 1 is rejected at assembly, with the largest stable
step named. The circuit-model cross-check takes the same kicks through
the same propagator, and compares them with the trace of `run`, which
keeps its last trace: a design study that runs a configuration and then
cross-checks it propagates the engine once.

Coupling sign conventions (converter powers in watts on the global base):

    p1 > 0: storage -> DC     p_odc = p_ldc - p1
    p2 > 0: storage -> AC     p_oac = p_lac - p2
                              p_ods = p_lds + p1 + p2

so the three output powers always sum to the total load (lossless
converter), which the trace invariant checks sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Event, HybridConfig, Scenario, Toggles
from .gecm import build_gecm, solve_nodal
from .ilc import concatenator_tf
from .lti import Blocks, StateSpace, rk4_step_maps, tf_to_statespace
from .subgrid import KINDS, build_open_loop_tf, hess_split

__all__ = [
    "Event", "Scenario", "Toggles", "SimTrace", "Metrics", "GecmComparison",
    "SimError", "NumericalDivergence", "NotSettled", "run", "measure",
    "compare_with_gecm", "write_trace_csv", "TRACE_COLUMNS",
]

# Run aborts when any per-unit deviation leaves this band: far outside the
# droop range, so it signals a parameter error rather than physics.
DIVERGENCE_LIMIT = 0.5

# Settling detector: spread of each bus quantity over the trailing window,
# relative to its base, must stay below this.
SETTLE_WINDOW_S = 2.0
SETTLE_REL = 5e-4

# Circuit-model cross-check: window after the first event, and the worst
# RMS mismatch (fraction of the channel's own RMS) that still passes.
XCHECK_WINDOW_S = 10.0
XCHECK_TOLERANCE = 0.02

TRACE_COLUMNS = (
    "t_s", "f_hz", "vdc_v", "vds_v", "p_oac_w", "p_odc_w", "p_ods_w",
    "p_l_w", "p_h_w", "p1_w", "p2_w", "delta_f_hz", "delta_vdc_v",
    "delta_vds_v",
)


class SimError(Exception):
    pass


class NumericalDivergence(SimError):
    """A per-unit deviation left the plausible band; the run was aborted."""


class NotSettled(SimError):
    """The trailing window still moves; steady-state metrics are undefined."""


@dataclass(frozen=True)
class SimTrace:
    """Uniformly sampled run history plus the bases needed to interpret it.

    delta_* columns are the restoration compensations in SI units; the raw
    per-unit deviations are recoverable as (x - x_max)/x_max - delta*/x_max.
    A trace from `run` is shared by the calls that repeat that run, so its
    fields cannot be rebound and its arrays are read-only.
    """

    t: np.ndarray
    f_hz: np.ndarray
    vdc_v: np.ndarray
    vds_v: np.ndarray
    p_oac_w: np.ndarray
    p_odc_w: np.ndarray
    p_ods_w: np.ndarray
    p_l_w: np.ndarray
    p_h_w: np.ndarray
    p1_w: np.ndarray
    p2_w: np.ndarray
    delta_f_hz: np.ndarray
    delta_vdc_v: np.ndarray
    delta_vds_v: np.ndarray
    bases: tuple[float, float, float]        # f_max, V_dc_max, V_ds_max
    capacities: tuple[float, float, float]   # P_max per subgrid, watts
    loads_w: np.ndarray                      # applied loads per sample, (n, 3)

    def column(self, name: str) -> np.ndarray:
        return self.t if name == "t_s" else getattr(self, name)

    def deviation_pu(self, kind: str) -> np.ndarray:
        i = KINDS.index(kind)
        x = (self.f_hz, self.vdc_v, self.vds_v)[i]
        comp = (self.delta_f_hz, self.delta_vdc_v, self.delta_vds_v)[i]
        return (x - self.bases[i] - comp) / self.bases[i]

    def total_load_w(self) -> np.ndarray:
        return self.loads_w.sum(axis=1)


@dataclass(frozen=True)
class Metrics:
    """Rates, nadirs and steady-state quantities around one load event."""

    rocof_hz_s: float
    rocov_dc_v_s: float
    rocov_ds_v_s: float
    nadir_f_hz: float
    nadir_vdc_v: float
    nadir_vds_v: float
    steady_f_hz: float
    steady_vdc_v: float
    steady_vds_v: float
    steady_shares_w: tuple[float, float, float]
    share_error: float


# ---------------------------------------------------------------------------
# engine assembly
# ---------------------------------------------------------------------------

class _Engine:
    """Composed one-step linear map of the full closed loop and its loads.

    State layout: z = [ac block | dc block | ds block | split filter
                       | concatenator z_ac z_dc z_ds | converter z1 z2
                       | restoration (comp, e_prev) x 3
                       | P_lac_w P_ldc_w P_lds_w 1 ].
    The first n states are the plant x; the last four are the inputs u,
    held constant by the identity block of Z = [[S, T], [0, I]], so the
    run is z+ = Z z and a load step adds to u. Every trace column after
    t_s is one row of the output map C over z, in TRACE_COLUMNS order.

    The plant is one table of blocks in that order. Every block, the
    converter and restoration PIs included, is one entry: a one-step map
    x_b+ = M x_b + N drive, a drive row over z, and an output C x_b +
    D drive. The LTI blocks step by their RK4 maps, restoration by its
    exact velocity form. `lti.Blocks` lays the table out, forms every
    output row and stamps Z; `spans` maps each (group, i) to its states.
    `run` assembles one engine per run.
    """

    def __init__(self, config: HybridConfig, toggles: Toggles, h: float):
        specs = config.specs
        ilc, cspec = config.coupling(toggles)
        p_l_tf, _ = hess_split(1.0, specs[2])  # designs y_l when absent

        # the LTI blocks, (group, i) -> StateSpace, in state order
        lti = {(kind, 0): tf_to_statespace(build_open_loop_tf(s))
               for kind, s in zip(KINDS, specs)}
        lti["split", 0] = tf_to_statespace(p_l_tf)
        if ilc is not None:
            if cspec is not None:
                lti |= {("conc", i): tf_to_statespace(concatenator_tf(cspec, kind))
                        for i, kind in enumerate(KINDS)}
            # the converter PI on its error e: z' = e, output k_i z + k_p e
            lti["pi", 0], lti["pi", 1] = (
                StateSpace(A=np.zeros((1, 1)), B=np.ones(1), C=np.array([k_i]), D=k_p)
                for k_p, k_i in ((ilc.k_tp1, ilc.k_ti1), (ilc.k_tp2, ilc.k_ti2)))
        # the block table, (group, i) -> (M, N, C, D)
        table = {key: (*rk4_step_maps(b, h), b.C, b.D) for key, b in lti.items()}
        if toggles.restoration_enabled:
            # velocity form: comp+ = comp + (k_p + k_i h) e - k_p e_prev, e_prev+ = e
            table.update({("rest", i): (np.array([[1.0, -s.k_p], [0.0, 0.0]]),
                                        np.array([s.k_p + s.k_i * h, 1.0]),
                                        np.array([1.0, 0.0]), 0.0)
                          for i, s in enumerate(specs)})
        blocks = Blocks(table, inputs=4)
        self.n = n = blocks.n
        self.spans = blocks.spans
        w, one = blocks.width, n + 3             # z width, the constant input

        # strictly proper blocks are read with no drive: no feedthrough
        zero = np.zeros(w)
        dev_rows = np.array([blocks.output((kind, 0), zero) for kind in KINDS])
        comp_rows = (np.array([blocks.output(("rest", i), zero) for i in range(3)])
                     if ("rest", 0) in table else np.zeros((3, w)))
        # concatenated deviations c = T_x dev, dev itself when bypassed
        c = ([blocks.output(("conc", i), dev_rows[i]) for i in range(3)]
             if ("conc", 0) in table else dev_rows)
        e_rows = [c[2] - c[1], c[2] - c[0]]      # c_ds - c_dc, c_ds - c_ac

        # converter powers in watts
        p1, p2 = ([blocks.output(("pi", j), e) * config.p_gmax_w
                   for j, e in enumerate(e_rows)]
                  if ("pi", 0) in table else (zero, zero))

        # subgrid output powers in watts: the load less the converter power
        p_out = np.array([-p2, -p1, p1 + p2])
        p_out[:, n:one] += np.eye(3)
        p_l = blocks.output(("split", 0), zero) * specs[2].p_max_w

        # drive rows; the subgrid blocks and the split filter see local
        # per-unit output power, restoration e = (x_n* - 1) - dev - comp
        drives = {("split", 0): p_out[2] / specs[2].p_max_w,
                  ("pi", 0): e_rows[0], ("pi", 1): e_rows[1]}
        for i, (kind, spec) in enumerate(zip(KINDS, specs)):
            drives[kind, 0] = p_out[i] / spec.p_max_w
            drives["conc", i] = dev_rows[i]
            drives["rest", i] = e = -dev_rows[i] - comp_rows[i]
            e[one] = spec.x_nominal_pu - 1.0

        # one-step update z+ = Z z
        Z = blocks.stamp(drives)
        Z[n:, n:] = np.eye(4)                    # the inputs hold

        # output map, rows in TRACE_COLUMNS order: bus values
        # x* = (1 + dev + comp) x_max, the powers, the compensations in SI
        bases = np.array([s.x_max for s in specs])[:, None]
        bus = (dev_rows + comp_rows) * bases
        bus[:, one] += bases[:, 0]
        C = np.concatenate((bus, p_out, [p_l, p_out[2] - p_l, p1, p2],
                            comp_rows * bases))

        self.Z, self.C, self.dev_rows = Z, C, dev_rows
        self.S, self.T = Z[:n, :n], Z[:n, n:]

    def equilibrium(self, u: np.ndarray) -> np.ndarray:
        """Settled z with the inputs u held: x = (I - S)^-1 T u, then u."""
        x = np.linalg.solve(np.eye(self.n) - self.S, self.T @ u)
        return np.concatenate((x, u))


def _spectral_radius(S: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(S)).max())


# Search for the largest stable step, run only when a step is rejected:
# halvings tried below the rejected step, then geometric bisection down to
# this relative bracket width (~11 re-assemblies on table1).
_STABLE_STEP_HALVINGS = 20
_STABLE_STEP_RTOL = 1e-3


def _stable_step_note(config: HybridConfig, toggles: Toggles, h: float) -> str:
    """Name the largest step below h whose one-step map is a contraction."""
    def stable(step):
        return _spectral_radius(_Engine(config, toggles, step).S) < 1.0

    hi, lo = h, h / 2
    while not stable(lo):
        if lo <= h * 2.0 ** -_STABLE_STEP_HALVINGS:
            return f"no step down to {lo:.3g} s is stable"
        hi, lo = lo, lo / 2
    while hi > lo * (1.0 + _STABLE_STEP_RTOL):
        mid = (lo * hi) ** 0.5
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return f"the largest stable step is about {lo:.4g} s"


def _schedule(scenario: Scenario) -> list[tuple[int, np.ndarray]]:
    """Load kicks (step k, du) in event order: du adds the event's size to its
    input state of u = [P_lac_w, P_ldc_w, P_lds_w, 1], and a load step at
    time t acts from step `scenario.step_of(t)` on."""
    kicks = []
    for e in scenario.events:
        du = np.zeros(4)
        du[KINDS.index(e.kind)] = e.delta_w
        kicks.append((scenario.step_of(e.time_s), du))
    return kicks


# Whole output samples written per product: the stack of the first
# _BLOCK_SAMPLES powers of the per-sample map is built once per run. Median
# in-process `run` ms for 32 / 64 / 128 (2 cores): table1 2.3 / 1.9 / 2.0,
# dense_events seed 1 23 / 19 / 17, one sweep config 0.86 / 0.92 / 0.99.
# No size is fastest on all three, so 64 stays.
_BLOCK_SAMPLES = 64


def _propagate(Z: np.ndarray, kicks, z0: np.ndarray, n_samples: int,
               every: int) -> np.ndarray:
    """States at steps 0, every, ..., n_samples * every of z+ = Z z from z0,
    shape (n_samples + 1, len(z0)); a sample records the inputs acting over
    the step it starts.

    The last len(du) entries of z are input states that Z holds constant,
    and each (step k, du) kick adds du to them from step k on. Z is linear,
    so the kick reaches the first sample that shows it, j = ceil(k/every),
    as Z**(j*every - k) [0; du]; one on the grid adds du to the input
    states only. A kick past the last sample never acts.

    One output sample is one application of P = Z**every. The stack P,
    P**2, ..., P**_BLOCK_SAMPLES is built once by doubling, and each run of
    up to _BLOCK_SAMPLES samples between kicked ones is one product of that
    stack with z (the chunked form of a linear-recurrence scan). The result
    differs from the plain loop z = Z z by round-off only.
    """
    w = len(z0)
    X = np.empty((n_samples + 1, w))
    X[0] = z0
    # the stack as one (count * w, w) matrix: one matrix-vector product
    # advances a run of samples, faster than a batched product
    Q = _powers(np.linalg.matrix_power(Z, every),
                min(max(n_samples, 1), _BLOCK_SAMPLES)).reshape(-1, w)

    j = 0
    for k, du in [*kicks, (n_samples * every, None)]:  # None: fill to the end
        j_end = min(-(-k // every), n_samples)  # the first sample showing step k
        while j < j_end:
            b = min(len(Q) // w, j_end - j)
            X[j + 1:j + b + 1] = (Q[:b * w] @ X[j]).reshape(b, w)
            j += b
        if du is None or k > n_samples * every:
            continue
        if j * every > k:  # off the grid: Z**r carries the kick to sample j
            X[j, :-len(du)] += np.linalg.matrix_power(
                Z, j * every - k)[:-len(du), -len(du):] @ du
        X[j, -len(du):] += du
    return X


def _powers(P: np.ndarray, count: int) -> np.ndarray:
    """P, P**2, ..., P**count stacked on axis 0, by repeated doubling."""
    Q = np.empty((count,) + P.shape)
    Q[0] = P
    have = 1
    while have < count:
        step = min(have, count - have)
        Q[have:have + step] = Q[:step] @ Q[have - 1]
        have += step
    return Q


# Most trace samples a run may record: 200 s at every 0.1 ms step. A sample
# holds the propagated state z (at most 25 doubles: 21 plant states and 4
# inputs) and the trace's 17 columns (t, 13 signals, 3 loads), 336 bytes in
# all, so the cap bounds those arrays at about 670 MB. Checked before
# assembly, so a horizon too long to hold fails before any allocation.
MAX_TRACE_SAMPLES = 2_000_000


@lru_cache(maxsize=1)
def run(scenario: Scenario, config: HybridConfig) -> SimTrace:
    """Advance the coupled system over the scenario horizon.

    The run starts from the settled equilibrium of the initial loads, so a
    scenario without events holds every quantity constant. Deterministic:
    identical inputs give identical traces.

    The last (scenario, config) run is kept, one entry: a design study runs
    a configuration and then cross-checks it, and the cross-check's `run`
    returns the trace already checked, whose arrays are read-only. A run
    that raised is not kept.

    Raises
    ------
    SimError
        When the trace would hold more than MAX_TRACE_SAMPLES samples
        (checked before assembly).
    NumericalDivergence
        When the one-step map is not a contraction at the configured step
        (checked at assembly, before any propagation), or when any per-unit
        deviation reaches DIVERGENCE_LIMIT.
    """
    scenario.validate()
    config.validate()
    h = scenario.step_s
    every = scenario.output_every
    n_samples = int(round(scenario.horizon_s / h)) // every
    if n_samples + 1 > MAX_TRACE_SAMPLES:
        raise SimError(
            f"the trace would hold {n_samples + 1:.7g} samples, more than the "
            f"{MAX_TRACE_SAMPLES:,} a run records; shorten the horizon or "
            f"raise output_every"
        )
    eng = _Engine(config, scenario.toggles, h)
    rho = _spectral_radius(eng.S)
    if not rho < 1.0:
        raise NumericalDivergence(
            f"one-step map unstable at step {h:g} s: spectral radius "
            f"{rho:.7g} >= 1; {_stable_step_note(config, scenario.toggles, h)}"
        )
    u0 = np.append(scenario.initial_loads_w, 1.0)
    Zs = _propagate(eng.Z, _schedule(scenario), eng.equilibrium(u0),
                    n_samples, every)

    t = np.arange(len(Zs)) * (h * every)
    bad = ~np.all(np.abs(Zs @ eng.dev_rows.T) < DIVERGENCE_LIMIT, axis=1)
    if bad.any():
        raise NumericalDivergence(
            f"per-unit deviation beyond {DIVERGENCE_LIMIT} at "
            f"t={t[bad][0]:.4f} s"
        )
    columns = eng.C @ Zs.T
    loads_w = Zs[:, eng.n:eng.n + 3].copy()
    for a in (t, columns, loads_w):
        a.setflags(write=False)
    return SimTrace(
        t=t,
        **dict(zip(TRACE_COLUMNS[1:], columns)),
        bases=tuple(s.x_max for s in config.specs),
        capacities=tuple(s.p_max_w for s in config.specs),
        loads_w=loads_w,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def measure(trace: SimTrace, event_time_s: float,
            require_settled: bool = True) -> Metrics:
    """Rates, nadirs and steady-state values around one load event.

    Each rate is a two-sample forward difference over one output interval,
    |x[i+1] - x[i]| / dt from the event sample i (dt is 10 ms on table1),
    reported as a magnitude. It depends on that interval: on table1 the
    three rates are within 5% of the closed-form predictions for intervals
    from 4 ms to 50 ms, and not at 2 ms or 100 ms (README). Nadirs are the minima
    between the event and the next change of any subgrid's load. Steady
    values average the last 5% of the horizon after the settling check;
    require_settled=False skips the check and reports the trailing averages
    regardless.

    Raises
    ------
    NotSettled
        When any bus quantity moves more than SETTLE_REL of its base within
        the trailing SETTLE_WINDOW_S seconds (and require_settled is True).
    SimError
        When the trace holds no sample after t = 0, when the event time is
        not on the trace grid, when it is the last sample (the rates need
        the one after it), or when another load change acts within the
        sample the rates are taken over.
    """
    t = trace.t
    if len(t) < 2:
        raise SimError("the horizon holds no sample after t = 0, so no rate "
                       "can be measured")
    dt = t[1] - t[0]
    i = int(round(event_time_s / dt))
    if i < 0 or i >= len(t) or abs(t[i] - event_time_s) > 1e-6 * dt:
        raise SimError(f"event time {event_time_s} not on the trace grid")
    if i + 1 == len(t):
        raise SimError(
            f"the event at t={event_time_s:g} s is the last trace sample; its "
            f"rates need the sample after it"
        )
    if np.any(trace.loads_w[i + 1] != trace.loads_w[i]):
        raise SimError(
            f"another load change acts within the sample ({t[i]:g}, "
            f"{t[i + 1]:g}] s after the event at t={event_time_s:g} s, so "
            f"its rate would blend two load steps"
        )
    signals = (trace.f_hz, trace.vdc_v, trace.vds_v)
    rates = tuple(abs(sig[i + 1] - sig[i]) / dt for sig in signals)

    # window until any subgrid's load next changes (or the end of the run)
    changes = np.any(np.diff(trace.loads_w[i + 1:], axis=0) != 0, axis=1)
    later = np.nonzero(changes)[0]
    j_end = (i + 1 + later[0] + 1) if later.size else len(t)
    nadirs = tuple(float(np.min(sig[i:j_end])) for sig in signals)

    # settling check over the trailing window
    n_settle = max(2, int(round(SETTLE_WINDOW_S / dt)))
    for sig, base in zip(signals, trace.bases):
        tail = sig[-n_settle:]
        if require_settled and (tail.max() - tail.min()) / base > SETTLE_REL:
            raise NotSettled(
                f"trailing {SETTLE_WINDOW_S} s moves by "
                f"{(tail.max() - tail.min()) / base:.2e} of base"
            )
    n_avg = max(1, int(round(0.05 * len(t))))
    steady = tuple(float(np.mean(sig[-n_avg:])) for sig in signals)
    shares = tuple(
        float(np.mean(p[-n_avg:]))
        for p in (trace.p_oac_w, trace.p_odc_w, trace.p_ods_w)
    )
    loadings = [s / c for s, c in zip(shares, trace.capacities)]
    share_error = max(
        abs(a - b) for a in loadings for b in loadings
    )
    return Metrics(
        rocof_hz_s=rates[0], rocov_dc_v_s=rates[1], rocov_ds_v_s=rates[2],
        nadir_f_hz=nadirs[0], nadir_vdc_v=nadirs[1], nadir_vds_v=nadirs[2],
        steady_f_hz=steady[0], steady_vdc_v=steady[1], steady_vds_v=steady[2],
        steady_shares_w=shares, share_error=share_error,
    )


# ---------------------------------------------------------------------------
# cross-validation against the circuit model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GecmComparison:
    rms_fraction: dict
    residual: float
    passed: bool


def compare_with_gecm(
    scenario: Scenario,
    config: HybridConfig,
    gecm_config: HybridConfig | None = None,
) -> GecmComparison:
    """RMS agreement between the simulated deviations and the circuit model.

    The circuit model is solved for the loads of the first load-step group
    (`Scenario.first_group_w`), which set its residual gate. Its state-space
    model x' = A x + B P_L/P_G is discretized with the same step, over the
    same inputs u as the engine, and driven from rest by the engine's own
    schedule: by superposition it takes exactly the load steps the engine
    takes. The per-unit deviation responses are compared over
    XCHECK_WINDOW_S from the sample at or before the first event's step,
    normalized by each channel's own RMS. Passing a different `gecm_config`
    turns this into a negative control: the report then flags the mismatch.
    """
    if not scenario.events:
        raise SimError("cross-validation needs at least one event")
    h = scenario.step_s
    every = scenario.output_every
    dt = h * every
    t0 = scenario.events[0].time_s
    i0 = scenario.step_of(t0) // every
    n = int(round(XCHECK_WINDOW_S / dt))
    missing = (i0 + n - int(round(scenario.horizon_s / h)) // every) * dt
    if missing > 0:
        raise SimError(
            f"cross-check window of {XCHECK_WINDOW_S:g} s after t={t0:g} s ends "
            f"{missing:g} s past the {scenario.horizon_s:g} s horizon"
        )
    trace = run(scenario, config)
    model_cfg = config if gecm_config is None else gecm_config
    sys_ = build_gecm(*model_cfg.specs, *model_cfg.coupling(scenario.toggles),
                      scenario.first_group_w())
    sol = solve_nodal(sys_)

    sim_devs = np.column_stack([trace.deviation_pu(kind)[i0:i0 + n + 1]
                                for kind in KINDS])
    sim_devs -= sim_devs[0]  # isolate the step response
    # the model z = [x; u] under Z = [[M, N], [0, I]]; the constant input
    # drives nothing
    B = np.column_stack((sol.B / sys_.p_gmax_w, np.zeros(len(sol.B))))
    M, N = rk4_step_maps(StateSpace(A=sol.A, B=B, C=sol.C, D=0.0), h)
    Z = np.block([[M, N], [np.zeros((4, len(M))), np.eye(4)]])
    model = _propagate(Z, _schedule(scenario), np.zeros(len(Z)), i0 + n, every)
    err = sim_devs - model[i0:, :-4] @ sol.C.T
    sim_rms = np.sqrt(np.mean(sim_devs ** 2, axis=0))
    # inert channels (decoupled runs) compare on the dominant channel's scale
    denom = np.maximum(sim_rms, max(1e-6 * sim_rms.max(), 1e-30))
    fracs = (np.sqrt(np.mean(err ** 2, axis=0)) / denom).tolist()
    return GecmComparison(
        rms_fraction=dict(zip(KINDS, fracs)), residual=sol.residual,
        passed=max(fracs) <= XCHECK_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# trace output
# ---------------------------------------------------------------------------

# Rows formatted at a time: bounds the writer's memory on long traces.
CSV_BLOCK_ROWS = 1024

# The ASCII digits of 000..999 as little-endian words, their trailing
# zeros, and the doubles 10**0..10**22, all exact.
_DIGITS3 = np.array([[*b"%03d" % i, 0] for i in range(1000)], np.uint8).view("<u4").ravel()
_TRAILING_ZEROS = np.array(
    [3] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 1000)])
_POW10 = 10.0 ** np.arange(23)
# Decimal exponents of doubles lie in -_EXP_SPAN.._EXP_SPAN; those the
# arrays format (|k| <= 22) have two digits.
_EXP_SPAN = 400
_EXPONENTS = np.arange(-_EXP_SPAN, _EXP_SPAN + 1)
# an exponent's last two digits in bytes 1-2, then its sign
_EXP_WORDS = _DIGITS3[np.abs(_EXPONENTS) % 100] | np.where(
    _EXPONENTS < 0, ord("-") << 24, ord("+") << 24).astype("<u4")


class _GFormat:
    """`"%.Pg" % x` over an array of doubles, byte for byte, as byte lanes.

    A value's P significant digits are rint(|x| 10**k), where k is P - 1
    minus its decimal exponent and 10**k is exact (|k| <= 22), so the
    scaled value holds one rounding: at most 2**-33 (P = 6) or 2**-19
    (P = 10) off the true one. A fraction within `tie` of one half could
    round either way there. Such values, zero, non-finite values, a scale
    beyond 10**22 and a carry to P + 1 digits are formatted by `%` itself.

    Each value's text is read from its source row, little-endian words of
    four bytes: its digit groups of three (the first word's fourth byte is
    the separator), "-.0e", and the exponent's digits and sign. One index
    pattern per layout picks the bytes. A layout is the sign, the form
    (fixed point at exponents -4..P-1, else exponent form) and the digit
    count left after trailing zeros.
    """

    def __init__(self, precision: int, tie: float):
        P = self.P = precision
        self.fmt, self.tie = f"%.{P}g", tie
        G = -(-P // 3)
        self.words = G + 2
        digit = [4 * (p // 3) + p % 3 for p in range(3 * G - P, 3 * G)]
        minus, dot, zero, e = range(4 * G, 4 * G + 4)
        exp_digits, exp_sign, sep = [4 * G + 5, 4 * G + 6], 4 * G + 7, 3
        layouts = []
        for sign in (0, 1):
            for form in range(P + 5):
                for nd in range(1, P + 1):
                    out = [minus] * sign
                    if form == P + 4:   # exponent form
                        out += [digit[0]] + [dot, *digit[1:nd]] * (nd > 1)
                        out += [e, exp_sign, *exp_digits]
                    elif form >= 4:     # fixed point, exponent 0..P-1
                        out += digit[:form - 3]
                        out += [dot, *digit[form - 3:nd]] * (nd > form - 3)
                    else:               # fixed point, exponent -4..-1
                        out += [zero, dot] + [zero] * (3 - form) + digit[:nd]
                    layouts.append(out + [sep])
        width = P + 8   # the longest `%` text, -d.ddddde-ddd, and the separator
        self.patterns = np.array(
            [lay + [sep] * (width - len(lay)) for lay in layouts], np.uint8
        ).view(f"V{width}").ravel()
        self.masks = (np.arange(width) < np.array(list(map(len, layouts)))[:, None]
                     ).view(f"V{width}").ravel()
        # layout of a positive value with P digits left, by exponent
        fixed = (_EXPONENTS >= -4) & (_EXPONENTS < P)
        self.layout_of_exp = np.where(fixed, _EXPONENTS + 4, P + 4) * P + P - 1

    def digits(self, x: np.ndarray):
        """Which values the arrays format (the rest go to `%`), the decimal
        exponent of each plus _EXP_SPAN, and its P digits as an integer."""
        P = self.P
        a = np.abs(x)
        ok = np.isfinite(a) & (a > 0)
        a[~ok] = 1.0
        e = np.floor(np.log10(a)).astype(np.intp) + _EXP_SPAN
        # |k| > 22, or an exponent log10 misjudged, leaves m out of range
        k = P - 1 + _EXP_SPAN - e
        m = a * _POW10.take(k, mode="clip") / _POW10.take(-k, mode="clip")
        r = np.rint(m)
        ok &= (m >= 10.0 ** (P - 1)) & (r < 10.0 ** P) & (np.abs(m - r) < 0.5 - self.tie)
        r[~ok] = 10.0 ** (P - 1)
        return ok, e, r

    def __call__(self, x: np.ndarray, sep: np.ndarray):
        """Lanes (len(x), width) holding each value's text and then its
        separator (given as `sep << 24`), and the mask of the lanes to keep."""
        P, n = self.P, len(x)
        ok, e, r = self.digits(x)
        src = np.empty((n, self.words), "<u4")
        layout = self.layout_of_exp.take(e, mode="clip") + np.signbit(x) * ((P + 5) * P)
        trailing = np.ones(n, bool)          # all less significant groups are 0
        for g in range(self.words - 3, -1, -1):
            rest = np.floor(r / 1000.0)
            group = (r - 1000.0 * rest).astype(np.intp)
            r = rest
            src[:, g] = _DIGITS3.take(group)
            layout -= trailing * _TRAILING_ZEROS.take(group)
            trailing &= group == 0
        src[:, 0] |= sep
        src[:, -2] = int.from_bytes(b"-.0e", "little")
        src[:, -1] = _EXP_WORDS.take(e, mode="clip")
        width = self.patterns.itemsize
        index = self.patterns.take(layout).view(np.uint8).reshape(n, width) + (
            np.arange(0, n * 4 * self.words, 4 * self.words)[:, None])
        lanes = src.view(np.uint8).ravel().take(index, mode="clip")
        keep = self.masks.take(layout).view(bool).reshape(n, width)
        other = np.flatnonzero(~ok)
        if len(other):
            text = np.array([self.fmt % v for v in x[other].tolist()], f"S{width}")
            size = np.char.str_len(text)
            text = text.view(np.uint8).reshape(len(other), width)
            text[np.arange(len(other)), size] = src[other, 0] >> 24
            lanes[other] = text
            keep[other] = np.arange(width) <= size[:, None]
        return lanes, keep


_TIME_G = _GFormat(10, tie=1e-5)
_SIGNAL_G = _GFormat(6, tie=1e-9)


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the run history with the fixed column contract: `t_s` as
    "%.10g" and every other column as "%.6g", byte for byte."""
    cols = [trace.column(c) for c in TRACE_COLUMNS]
    seps = np.frombuffer(b"," * (len(cols) - 1) + b"\n", np.uint8).astype("<u4") << 24
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\n").encode())
        for start in range(0, len(trace.t), CSV_BLOCK_ROWS):
            t = cols[0][start:start + CSV_BLOCK_ROWS]
            signals = np.stack([c[start:start + CSV_BLOCK_ROWS] for c in cols[1:]], axis=1)
            t_lanes, t_keep = _TIME_G(t, seps[0])
            lanes, keep = _SIGNAL_G(signals.ravel(), np.tile(seps[1:], len(t)))
            lanes = np.concatenate((t_lanes, lanes.reshape(len(t), -1)), axis=1)
            keep = np.concatenate((t_keep, keep.reshape(len(t), -1)), axis=1)
            fh.write(lanes[keep].tobytes())
