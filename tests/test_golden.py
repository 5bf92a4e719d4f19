"""Golden reference for the shipped benchmark configuration.

`golden_table1.json` holds, for `configs/table1.cfg`, the `metrics.json`
that `hmg simulate` writes and every 100th row (1 s) of the trace at full
precision, as produced by the engine before its stepping paths were merged
into one propagator. It is never regenerated: a change that moves these
numbers beyond round-off is a behaviour change and must be explained.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hmg.cli import main
from hmg.config import load_config
from hmg.sim import TRACE_COLUMNS, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads(Path(__file__).with_name("golden_table1.json").read_text())
RTOL = 1e-9


@pytest.fixture(scope="module")
def loaded():
    return load_config(ROOT / GOLDEN["config"])


def test_golden_trace_rows(loaded):
    trace = run(loaded.scenario(), loaded.config)
    assert list(GOLDEN["columns"]) == list(TRACE_COLUMNS)
    want = np.array(GOLDEN["rows"])
    got = np.stack([trace.t if c == "t_s" else trace.column(c)
                    for c in TRACE_COLUMNS], axis=1)[::GOLDEN["row_every"]]
    assert got.shape == want.shape
    for j, name in enumerate(TRACE_COLUMNS):
        floor = RTOL * np.abs(want[:, j]).max()
        np.testing.assert_allclose(got[:, j], want[:, j], rtol=RTOL,
                                   atol=floor, err_msg=name)


def test_golden_metrics(tmp_path):
    assert main(["simulate", "--config", str(ROOT / GOLDEN["config"]),
                 "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "metrics.json").read_text())
    want = GOLDEN["metrics"]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if isinstance(value, bool):
            assert got[key] is value, key
        else:
            assert got[key] == pytest.approx(value, rel=RTOL), key
