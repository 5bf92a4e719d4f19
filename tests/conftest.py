"""Shared fixtures: the reference parameter set used across the suites."""

import importlib
import pkgutil

import pytest

import hmg
from hmg.ilc import IlcSpec
from hmg.subgrid import AC, DC, DS, SubgridSpec, design_droop

# Restoration PI gains shared by the reference setup (slow on purpose;
# the SubgridSpec defaults).
K_P, K_I = 0.005, 0.05

# Converter loops with unequal gains, so that a test sees which loop is which:
# loop 1 (DS-DC) keeps the reference gains, loop 2 (DS-AC) does not.
UNEQUAL_ILC = IlcSpec(k_tp1=4000.0, k_ti1=400e3, k_tp2=8000.0, k_ti2=200e3)


def library_memos():
    """Every `functools.lru_cache` wrapper bound in hmg's modules, once each."""
    memos = []
    for info in pkgutil.iter_modules(hmg.__path__, "hmg."):
        for obj in vars(importlib.import_module(info.name)).values():
            if hasattr(obj, "cache_parameters") and all(obj is not m for m in memos):
                memos.append(obj)
    return memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with every library memo empty, so no test is handed
    a result an earlier test left, and hit counts start at zero."""
    for memo in library_memos():
        memo.cache_clear()


def make_ac(**kw):
    spec = SubgridSpec(
        kind=AC, x_max=51.0, x_min=49.0, x_nominal=50.0, p_max_w=20e3,
        inertia_h=2.0, damping_d=1.0, t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
        k_p=K_P, k_i=K_I,
    )
    if kw:
        from dataclasses import replace
        spec = replace(spec, **kw)
    return design_droop(spec)


def make_dc(**kw):
    spec = SubgridSpec(
        kind=DC, x_max=380.0, x_min=370.0, x_nominal=370.0, p_max_w=20e3,
        inertia_h=3.0, damping_d=1.0, t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
        k_p=K_P, k_i=K_I,
    )
    if kw:
        from dataclasses import replace
        spec = replace(spec, **kw)
    return design_droop(spec)


def make_ds(**kw):
    spec = SubgridSpec(
        kind=DS, x_max=710.0, x_min=690.0, x_nominal=700.0, p_max_w=20e3,
        y_h=7.5, k_p=K_P, k_i=K_I,
    )
    if kw:
        from dataclasses import replace
        spec = replace(spec, **kw)
    return design_droop(spec)


@pytest.fixture
def ac_spec():
    return make_ac()


@pytest.fixture
def dc_spec():
    return make_dc()


@pytest.fixture
def ds_spec():
    return make_ds()
