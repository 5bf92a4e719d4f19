"""Tier-1 subset of the config fault probe (`fault_probe.py`): 64 of its
663 single faults of table1, each run through every command. Every call
returns a documented exit code, none raises out of `hmg.cli.main`, and only
`design` returns 1. The subset holds the inverted limits (`f_min = 1e30`,
`f_max = 1e-30`) and the traces too large to hold (`horizon = 1e30`,
`step = 1e-30`); it adds 1.0-1.4 s to a tier-1 run on 2 cores.
"""

import pytest

from fault_probe import probe, subset

SUBSET = subset(seed=1, count=60)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fault_probe")


@pytest.mark.parametrize("section, key, value", SUBSET,
                         ids=[f"{s}.{k}={v}" for s, k, v in SUBSET])
def test_fault_exits_with_a_documented_code(section, key, value, work_dir):
    assert probe(section, key, value, work_dir) == []
