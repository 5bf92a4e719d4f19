"""The trace CSV writer against Python's `%`, byte for byte.

The library formats whole blocks of values with array arithmetic and hands
to `%` only the values whose rounding it cannot prove. These tests compare
its lanes with "%.6g" and "%.10g" value by value, and whole files with the
row-at-a-time writer in `oracle.py`.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hmg.config import Event, Scenario, load_config, reference_config
from hmg.sim import (CSV_BLOCK_ROWS, _EXP_SPAN, _SIGNAL_G, _TIME_G, run,
                     write_trace_csv)
from oracle import write_trace_csv_rows

REPO = Path(__file__).resolve().parents[1]
TABLE1 = REPO / "configs" / "table1.cfg"

# carry and form-switch points of %.6g/%.10g, and their neighbours
SWITCH_POINTS = (999999.5, 9.999995, 9.9999951e-5, 1e-4, 1e-5, 1e6, 1e16,
                 9999999999.5, 9.9999999995, 1e10, 1e-300, 1e300)
# exact ties at the 6th and the 10th significant digit, which `%` rounds
# half to even on the exact binary value
TIES = (1234565.0, 1234575.0, 123456.5, 123457.5, 0.5, 2.5, 1000000.5,
        12345678905.0, 12345678915.0, 1234567890.5, 1234567891.5,
        0.125, 1.125e-3, 17179869184.5, 2.0 ** -20, 9999995.0, 9999999995.0)
SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308,
            1.5e-100, -2.5e100, 1e-99, 1e100, 9.99999e99, 1e22, 1e23, 1e-22)


def formatted(G, x):
    """The formatter's text of each value of x, split at its separators."""
    lanes, keep = G(np.asarray(x, dtype=float), np.full(len(x), ord(","), "<u4") << 24)
    return lanes[keep].tobytes().decode().split(",")[:-1]


def assert_like_percent(G, x):
    got = formatted(G, x)
    want = [G.fmt % v for v in np.asarray(x, dtype=float).tolist()]
    bad = [(v, g, w) for v, g, w in zip(np.asarray(x).tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:10]


def seeded_values(seed, n):
    """n values with decimal exponents spread over -320..308 (subnormals
    included), random signs, and a share of zeros of both signs."""
    rng = np.random.default_rng(seed)
    exponent = rng.integers(-320, 309, n)
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice((-1.0, 1.0), n)
    mantissa[exponent == 308] /= 6.0         # stay below the largest double
    # 10**exponent underflows below -323; scale in two steps
    x = mantissa * 10.0 ** (exponent // 2) * 10.0 ** (exponent - exponent // 2)
    x[rng.random(n) < 1e-3] = 0.0
    x[rng.random(n) < 1e-3] = -0.0
    return x


def near(points, rng, count, rel):
    """Values within rel of each point, and each point's two neighbours."""
    points = np.asarray(points)
    spread = points[:, None] * (1 + rng.uniform(-rel, rel, (len(points), count)))
    return np.concatenate([points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf), spread.ravel()])


@pytest.mark.parametrize("G", [_SIGNAL_G, _TIME_G], ids=["6g", "10g"])
def test_seeded_values_match_percent(G):
    assert_like_percent(G, seeded_values(20261020, 400_000))


@pytest.mark.parametrize("G", [_SIGNAL_G, _TIME_G], ids=["6g", "10g"])
def test_trace_range_values_match_percent(G):
    # the exponents a trace holds, where the arrays format nearly every value
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-17, 23, 200_000)
    assert_like_percent(G, x * rng.choice((-1.0, 1.0), len(x)))


@pytest.mark.filterwarnings("error")     # zero and nan reach no log10
@pytest.mark.parametrize("G", [_SIGNAL_G, _TIME_G], ids=["6g", "10g"])
def test_ties_switch_points_and_specials_match_percent(G):
    rng = np.random.default_rng(3)
    x = np.concatenate([TIES, SPECIALS, near(SWITCH_POINTS, rng, 500, 1e-9),
                        near(SWITCH_POINTS, rng, 500, 1e-5)])
    assert_like_percent(G, np.concatenate([x, -x]))


@pytest.mark.parametrize("G", [_SIGNAL_G, _TIME_G], ids=["6g", "10g"])
def test_every_layout_matches_percent(G):
    # each exponent of both forms, each digit count left after trailing
    # zeros, both signs
    P = G.P
    digits = np.array([int("1234567891"[:nd].ljust(P, "0")) for nd in range(1, P + 1)])
    exps = np.arange(-120, 121)
    x = (digits[:, None] * 10.0 ** (exps[None, :] - (P - 1))).ravel()
    assert_like_percent(G, np.concatenate([x, -x]))


@pytest.mark.parametrize("G", [_SIGNAL_G, _TIME_G], ids=["6g", "10g"])
def test_arrays_format_trace_range_values_themselves(G):
    # `%` is the fallback, so equal text alone would not show that the
    # arrays did the work: at exponents -13..22 every value is theirs but
    # the few within `tie` of a rounding tie
    rng = np.random.default_rng(11)
    x = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-13, 23, 100_000)
    x *= rng.choice((-1.0, 1.0), len(x))
    ok, e, r = G.digits(x)
    assert (~ok).sum() <= (0 if G.P == 6 else 10)
    # the P digits and the exponent of "%.(P-1)e"
    mantissa, exponent = zip(*(("%.*e" % (G.P - 1, v)).split("e") for v in x[ok].tolist()))
    assert np.array_equal(r[ok], [abs(int(m.replace(".", ""))) for m in mantissa])
    assert np.array_equal(e[ok] - _EXP_SPAN, np.array(exponent, int))


@pytest.mark.parametrize("x", [1.5, 50.0, -379.123, 1e-5, 1e-4, 1e6, 123456.0,
                               9.99999e-5, 24919.6, 1.18064e-13, 4.0e22])
def test_arrays_format_ordinary_values(x):
    assert _SIGNAL_G.digits(np.array([x]))[0].all()


@pytest.mark.parametrize("x", [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                               1e-30, 1e30, 1234565.0, 123456.5, 999999.5,
                               9.999995, 999999.6, -999999.7])
def test_ties_carries_and_specials_go_to_percent(x):
    # zero, non-finite, beyond 10**22, a tie at the 6th digit, a carry
    assert not _SIGNAL_G.digits(np.array([x]))[0].any()


def test_three_digit_exponents_and_non_finite():
    x = [1e100, -1.5e-100, 1.234567e-200, 9.87654321e250, np.nan, np.inf, -np.inf]
    assert formatted(_SIGNAL_G, x) == ["1e+100", "-1.5e-100", "1.23457e-200",
                                       "9.87654e+250", "nan", "inf", "-inf"]
    assert formatted(_TIME_G, x) == ["1e+100", "-1.5e-100", "1.234567e-200",
                                     "9.87654321e+250", "nan", "inf", "-inf"]


def dense_events_scenario(seed=5):
    """5 s at a 0.1 ms step, every step recorded (50,001 rows), 40 load
    steps of 0.2-1.5 kW at distinct times on a 1 ms grid, every subgrid's
    load kept within 2-16 kW."""
    rng = np.random.default_rng(seed)
    loads = {"ac": 8e3, "dc": 8e3, "ds": 8e3}
    events = []
    for ms in sorted(rng.choice(np.arange(500, 4500), 40, replace=False)):
        kind = ("ac", "dc", "ds")[rng.integers(3)]
        step = rng.uniform(200.0, 1500.0)
        step = step if loads[kind] + step <= 16e3 else -step
        step = step if loads[kind] + step >= 2e3 else abs(step)
        loads[kind] += step
        events.append(Event(ms / 1000.0, kind, float(step)))
    return Scenario(horizon_s=5.0, step_s=1e-4, output_every=1, events=tuple(events),
                    initial_loads_w=(8e3, 8e3, 8e3))


def test_dense_trace_file_matches_oracle(tmp_path):
    sc = dense_events_scenario()
    trace = run(sc, reference_config())
    assert len(trace.t) == 50_001 > 40 * CSV_BLOCK_ROWS
    write_trace_csv(trace, tmp_path / "lib.csv")
    write_trace_csv_rows(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_table1_trace_file_matches_oracle(tmp_path):
    loaded = load_config(TABLE1)
    trace = run(loaded.scenario(), loaded.config)
    write_trace_csv(trace, tmp_path / "lib.csv")
    write_trace_csv_rows(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_writer_memory_is_bounded_by_the_block(tmp_path):
    # measured: 3.5 MB at 1,024-row blocks (0.94 MB for the row-at-a-time
    # writer); formatting the whole 50,001-row trace at once would take
    # over 100 MB of lanes and indices
    trace = run(dense_events_scenario(), reference_config())
    write_trace_csv(trace, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # README: trace.csv and metrics.txt are byte-identical across BLAS
    # thread counts (metrics.json is not promised to be)
    text = TABLE1.read_text()
    text = re.sub(r"(?m)^horizon = .*$", "horizon = 4", text)
    text = re.sub(r"(?m)^output_every = .*$", "output_every = 10", text)
    text = re.sub(r"(?m)^e4 = .*$", "", text)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "hmg.cli", "simulate", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("trace.csv", "metrics.txt")])
    assert len(outputs[0][0].splitlines()) == 4002
    assert outputs[0] == outputs[1]
