"""Seeded input generators for the benchmark workloads.

Every generator takes the seed and returns `hmg.config.LoadedRun` values
(plus, for the CLI workloads, the file the program is given). The program
never sees the seed, only the generated inputs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from hmg.config import (
    Event,
    LoadedRun,
    Toggles,
    reference_config,
    serialize_config,
)
from hmg.subgrid import AC, DC, DS, design_droop

KINDS = (AC, DC, DS)

# Distinct streams per generator, so the workloads draw unrelated inputs
# from one --seed.
_STREAM = {"dense_events": 2, "admissible": 3}


def admissible_run(rng: np.random.Generator) -> LoadedRun:
    """One random admissible configuration with a global load step at 1 s.

    Mirrors the property test on random admissible configurations:
    capacities of 10-40 kW, random deviation bands with the nominal in the
    middle of each band, droops designed from the limits, and a Dirichlet
    split of half the total capacity stepped at t = 1 s. The horizon is
    12 s at a 0.1 ms step, keeping one sample in 100: the shortest that
    holds the cross-check's 10 s window after the step, so a `sweep`
    operation takes about a second and a run completes ~25 of them (at 40 s
    a run completed 11, too few for a steady tail).
    """
    base = reference_config()
    caps = rng.uniform(10e3, 40e3, size=3)
    f_band = rng.uniform(1.0, 3.0)
    vdc_band = rng.uniform(5.0, 20.0)
    vds_band = rng.uniform(10.0, 40.0)

    def banded(spec, cap, band, **unset):
        return design_droop(replace(
            spec, p_max_w=float(cap), x_min=spec.x_max - band,
            x_nominal=spec.x_max - band / 2, **unset,
        ))

    ac = banded(base.ac, caps[0], f_band, droop_r=None)
    dc = banded(base.dc, caps[1], vdc_band, droop_r=None)
    ds = banded(base.ds, caps[2], vds_band, y_l=None)
    cfg = reference_config(ac=ac, dc=dc, ds=ds, step_s=1e-4, horizon_s=12.0,
                           output_every=100)
    split = rng.dirichlet(np.ones(3)) * (0.5 * caps.sum())
    events = tuple(Event(1.0, kind, float(w)) for kind, w in zip(KINDS, split))
    return LoadedRun(config=cfg, toggles=Toggles(), events=events,
                     initial_loads_w=(0.0, 0.0, 0.0))


def admissible_pool(seed: int, n: int) -> list[LoadedRun]:
    """`n` admissible configurations drawn from one seeded stream."""
    rng = np.random.default_rng([seed, _STREAM["admissible"]])
    return [admissible_run(rng) for _ in range(n)]


def dense_events_run(seed: int) -> LoadedRun:
    """Reference system over 5 s with every step recorded and 40 load steps.

    Initial loads are ~8 kW per subgrid. Each step is 0.2-1.5 kW on a random
    subgrid, at a distinct time on a 1 ms grid in [0.5, 4.5) s, with its
    sign chosen to keep every subgrid load within 2-16 kW of its 20 kW
    capacity. At 5 s (50,001 rows) an operation takes about a second, so a
    30 s run completes ~30; at 10 s a run completed the minimum 21.
    """
    rng = np.random.default_rng([seed, _STREAM["dense_events"]])
    cfg = reference_config(step_s=1e-4, horizon_s=5.0, output_every=1)
    loads = [float(x) for x in rng.uniform(7.5e3, 8.5e3, size=3)]
    initial = tuple(loads)
    ms = np.sort(rng.choice(np.arange(500, 4500), size=40, replace=False))
    events = []
    for t_ms in ms:
        i = int(rng.integers(3))
        size = float(rng.uniform(200.0, 1500.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if loads[i] + sign * size > 16e3 or loads[i] + sign * size < 2e3:
            sign = -sign
        loads[i] += sign * size
        # the 0.1 ms step grid, in the float the engine's own grid uses
        events.append(Event(int(t_ms) * 10 * 1e-4, KINDS[i], sign * size))
    return LoadedRun(config=cfg, toggles=Toggles(), events=tuple(events),
                     initial_loads_w=initial)


def dense_events_text(seed: int) -> str:
    """The dense_events configuration file, as `serialize_config` writes it."""
    return serialize_config(dense_events_run(seed))


def expected_rows(loaded: LoadedRun) -> int:
    cfg = loaded.config
    return int(round(cfg.horizon_s / cfg.step_s)) // cfg.output_every + 1


def expected_total_load(loaded: LoadedRun) -> np.ndarray:
    """Total applied load at every recorded sample, from the load schedule.

    A step at time t acts from step k = ceil(t/h) on, so it first shows in
    the sample recorded at or after step k.
    """
    cfg = loaded.config
    every = cfg.output_every
    total = np.full(expected_rows(loaded), float(sum(loaded.initial_loads_w)))
    for e in loaded.events:
        k = int(np.ceil(e.time_s / cfg.step_s - 1e-9))
        total[(k + every - 1) // every:] += e.delta_w
    return total
