"""Tier-1 subset of the config fault probe (`fault_probe.py`): 64 of its
663 single faults of table1 and its required two-fault cases, each run
through every command. Every call returns a documented exit code, none
raises out of `hmg.cli.main`, and only `design` returns 1. The subset holds
the inverted limits (`f_min = 1e30`, `f_max = 1e-30`), the traces too large
to hold (`horizon = 1e30`, `step = 1e-30`) and a step count beyond any
float (`horizon = 1e300` with `step = 1e-10`); it adds 1.0-1.4 s to a
tier-1 run on 2 cores.
"""

import pytest

from fault_probe import REQUIRED_PAIRS, probe, subset

CASES = [(fault,) for fault in subset(seed=1, count=60)] + list(REQUIRED_PAIRS)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fault_probe")


@pytest.mark.parametrize("faults", CASES, ids=[
    "+".join(f"{s}.{k}={v}" for s, k, v in case) for case in CASES])
def test_fault_exits_with_a_documented_code(faults, work_dir):
    assert probe(faults, work_dir) == []
