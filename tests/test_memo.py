"""Reuse of the engine, the nodal solution and the pooled stiffness.

Each is kept for the last inputs only (`functools.lru_cache(maxsize=1)`):
a design study runs, cross-checks and analyses one configuration, and the
later steps reuse what the earlier ones built. Two configurations never
share an entry, a reused result is bitwise the result of a fresh build,
shared arrays are read-only, and the checks `run` makes on every call
still run when its engine is reused.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmg import gecm, sim
from hmg.config import load_config
from hmg.gecm import GecmError, build_gecm, solve_nodal
from hmg.lti import tf
from hmg.sim import NumericalDivergence, compare_with_gecm, run

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def table1():
    """table1 over 12 s with the first load-step group only, so the
    cross-check's 10 s window fits."""
    loaded = load_config(REPO / "configs" / "table1.cfg")
    sc = loaded.scenario()
    return loaded.config, replace(sc, horizon_s=12.0, events=sc.events[:3])


@pytest.fixture
def pool_config(monkeypatch):
    """The first configuration of the benchmark's seeded sweep pool."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import generators

    loaded = generators.admissible_pool(1, 48)[0]
    return loaded.config, loaded.scenario()


def _system(cfg, sc):
    return build_gecm(*cfg.specs, cfg.ilc, cfg.concatenator_spec(),
                      sc.first_group_w())


def _bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


# memo, its arguments for one (config, scenario), its result as raw bytes
MEMOS = {
    "engine": (
        sim._engine,
        lambda cfg, sc: (cfg, sc.toggles, sc.step_s),
        lambda e: (_bits(e.Z, e.C, e.dev_rows), e.idx, e.n),
    ),
    "nodal solve": (
        solve_nodal,
        lambda cfg, sc: (_system(cfg, sc),),
        lambda sol: _bits(sol.A, sol.b, sol.C, sol.residual),
    ),
    "pooled stiffness": (
        gecm._pooled_stiffness,
        lambda cfg, sc: (cfg.specs, cfg.concatenator_spec()),
        lambda q: _bits(q.num.coeffs, q.den.coeffs),
    ),
}


def _hits_misses(memo):
    info = memo.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("name", MEMOS)
def test_alternating_configurations_never_share_an_entry(name, table1,
                                                         pool_config):
    memo, args_of, bits = MEMOS[name]
    memo.cache_clear()
    for cfg, sc in (table1, pool_config, table1):
        args = args_of(cfg, sc)
        assert bits(memo(*args)) == bits(memo.__wrapped__(*args))
    assert _hits_misses(memo) == (0, 3)


def test_cross_check_reuses_the_runs_engine(table1):
    cfg, sc = table1
    sim._engine.cache_clear()
    run(sc, cfg)
    compare_with_gecm(sc, cfg)
    assert _hits_misses(sim._engine) == (1, 1)


def test_analysis_reuses_the_cross_checks_solve(table1):
    cfg, sc = table1
    solve_nodal.cache_clear()
    compare_with_gecm(sc, cfg)
    solve_nodal(_system(cfg, sc))
    assert _hits_misses(solve_nodal) == (1, 1)


def test_ideal_channels_share_one_pooled_stiffness(table1):
    cfg, _ = table1
    gecm._pooled_stiffness.cache_clear()
    for kind in ("ac", "dc", "ds"):
        gecm.ideal_global_deviation_tf(list(cfg.specs), cfg.concatenator_spec(),
                                       kind)
    assert _hits_misses(gecm._pooled_stiffness) == (2, 1)


def test_failed_solve_is_not_kept(table1):
    cfg, sc = table1
    biproper = replace(_system(cfg, sc), z_ac=tf([1.0, 1.0], [1.0, 1.0]))
    solve_nodal.cache_clear()
    for _ in range(2):
        with pytest.raises(GecmError, match="not strictly proper"):
            solve_nodal(biproper)
    assert solve_nodal.cache_info().currsize == 0
    assert _hits_misses(solve_nodal) == (0, 2)


def test_shared_arrays_are_read_only(table1):
    cfg, sc = table1
    eng = sim._engine(cfg, sc.toggles, sc.step_s)
    sol = solve_nodal(_system(cfg, sc))
    for a in (eng.Z, eng.S, eng.T, eng.C, eng.dev_rows, sol.A, sol.B, sol.b,
              sol.C):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_reused_engine_still_checks_the_spectral_radius(table1, monkeypatch):
    cfg, sc = table1
    sim._engine.cache_clear()
    run(sc, cfg)
    monkeypatch.setattr(sim, "_spectral_radius", lambda S: 1.5)
    with pytest.raises(NumericalDivergence, match=r"spectral radius 1\.5 >= 1"):
        run(sc, cfg)
    assert _hits_misses(sim._engine) == (1, 1)


def test_reused_engine_still_checks_the_propagated_states(table1, monkeypatch):
    cfg, sc = table1
    sim._engine.cache_clear()
    run(sc, cfg)

    def nan_states(Z, kicks, z0, n_samples, every):
        return np.full((n_samples + 1, len(z0)), np.nan)

    monkeypatch.setattr(sim, "_propagate", nan_states)
    with pytest.raises(NumericalDivergence, match="t=0.0000 s"):
        run(sc, cfg)
    assert _hits_misses(sim._engine) == (1, 1)
