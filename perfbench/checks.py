"""Output checks run on every benchmark operation.

Each check holds the program to a property the acceptance suite certifies,
at that suite's tolerance, never to byte-equality with one version's
numbers: a faster program whose results move only by round-off passes, a
wrong one fails. A check raises `CheckFailed` or returns the accuracy
figure it measured.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from generators import expected_total_load
from hmg.lti import ivt_rate_limit
from hmg.sim import TRACE_COLUMNS

RATE_REL_TOL = 0.05          # measured vs predicted first-event rates
XCHECK_RMS_TOL = 0.02        # simulator vs circuit model, worst channel
NODAL_RESIDUAL_TOL = 1e-6    # back-substitution residual of the nodal solve
BALANCE_REL_TOL = 1e-6       # |sum P_o - load| as a share of P_gmax
IVT_REL_TOL = 1e-10          # initial rate of the ideal pooled response
BODE_POINTS = 300


class CheckFailed(Exception):
    """An operation's output breaks a certified property."""


def global_inertia(specs) -> float:
    """H_G = sum H_x P_x / P_G (y_h for storage), computed independently."""
    weights = [(s.y_h if s.kind == "ds" else s.inertia_h) * s.p_max_w
               for s in specs]
    return sum(weights) / sum(s.p_max_w for s in specs)


def rate_error(measured, predicted) -> float:
    """Worst relative error of measured against predicted first-event rates."""
    return max(abs(m - p) / abs(p) for m, p in zip(measured, predicted))


def check_rates(measured, predicted) -> float:
    """Measured first-event rates within 5% of the closed-form prediction.

    The acceptance suite certifies this on the benchmark system (three
    equal 20 kW subgrids), not on arbitrary admissible configurations.
    """
    worst = rate_error(measured, predicted)
    if not worst <= RATE_REL_TOL:
        raise CheckFailed(f"rate error {worst:.4f} exceeds {RATE_REL_TOL}")
    return worst


def check_xcheck(report) -> float:
    """`compare_with_gecm` passes with worst RMS <= 2% and residual < 1e-6."""
    worst = max(report.rms_fraction.values())
    if not (report.passed and worst <= XCHECK_RMS_TOL
            and report.residual < NODAL_RESIDUAL_TOL):
        raise CheckFailed(f"cross-check failed: worst RMS {worst:.3e}, "
                          f"residual {report.residual:.2e}")
    return worst


def check_residual(residual: float) -> float:
    if not residual < NODAL_RESIDUAL_TOL:
        raise CheckFailed(f"nodal residual {residual:.2e}")
    return residual


def check_balance(p_out: np.ndarray, total_load: np.ndarray, p_gmax: float,
                  allowance: np.ndarray | float = 0.0) -> float:
    """Per-sample |sum P_o - total load| < 1e-6 P_gmax (+ print rounding)."""
    p_out = np.asarray(p_out, dtype=float)
    if p_out.shape != (len(total_load), 3):
        raise CheckFailed(f"power columns have shape {p_out.shape}, "
                          f"expected ({len(total_load)}, 3)")
    err = np.abs(p_out.sum(axis=1) - total_load)
    bad = ~(err < BALANCE_REL_TOL * p_gmax + allowance)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"power balance off by {err[i]:.3g} W at row {i}")
    return float(err.max())


def _half_ulp_6g(values: np.ndarray) -> np.ndarray:
    """Half a unit in the last place of each value printed with %.6g."""
    mag = np.abs(values)
    exp = np.floor(np.log10(np.where(mag > 0.0, mag, 1e-300)))
    return 0.5 * 10.0 ** (exp - 5)


def check_trace_csv(text: str, total_load: np.ndarray, p_gmax: float) -> float:
    """Header equals TRACE_COLUMNS, one row per sample, power balance holds.

    Signals are printed with six significant digits, so the balance
    tolerance adds the rounding of the three printed output powers.
    """
    header, _, body = text.partition("\n")
    if tuple(header.split(",")) != TRACE_COLUMNS:
        raise CheckFailed(f"trace header {header!r}")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"trace rows do not parse: {exc}") from None
    if data.shape != (len(total_load), len(TRACE_COLUMNS)):
        raise CheckFailed(f"trace has shape {data.shape}, expected "
                          f"({len(total_load)}, {len(TRACE_COLUMNS)})")
    cols = [TRACE_COLUMNS.index(c) for c in ("p_oac_w", "p_odc_w", "p_ods_w")]
    p_out = data[:, cols]
    return check_balance(p_out, total_load, p_gmax,
                         _half_ulp_6g(p_out).sum(axis=1))


def check_ideal_rates(tfs, specs) -> float:
    """Initial rate of each ideal pooled deviation TF equals -1/(2 H_G)."""
    want = -1.0 / (2.0 * global_inertia(specs))
    worst = 0.0
    for kind, f in tfs.items():
        rel = abs(ivt_rate_limit(f) - want) / abs(want)
        if not rel <= IVT_REL_TOL:
            raise CheckFailed(f"{kind}: initial rate off by {rel:.2e} (rel)")
        worst = max(worst, rel)
    return worst


def check_bode(rows) -> None:
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (BODE_POINTS, 3) or not np.all(np.isfinite(arr)):
        raise CheckFailed(f"bode export has shape {arr.shape} or non-finite values")


def check_exit(code: int, stderr: str = "") -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}: {stderr.strip()[-300:]}")


def output_digest(out_dir: Path) -> str:
    """Digest of the files README promises are byte-identical across runs."""
    h = hashlib.sha256()
    for name in ("trace.csv", "metrics.json"):
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def check_same_digest(digest: str, reference: str) -> None:
    if digest != reference:
        raise CheckFailed("trace.csv/metrics.json differ from the first run "
                          "on the same input")


def check_simulate_outputs(out_dir: Path, loaded, predicted_rates=None) -> dict:
    """Full check of one `hmg simulate` output directory.

    Returns the accuracy figures: power balance and, when predicted rates
    are given, the worst first-event rate error read from metrics.json.
    """
    cfg = loaded.config
    total = expected_total_load(loaded)
    acc = {"power_balance_max_w": check_trace_csv(
        (out_dir / "trace.csv").read_text(), total, cfg.p_gmax_w)}
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text())
        measured = (metrics["rocof_hz_per_s"], metrics["rocov_dc_v_per_s"],
                    metrics["rocov_ds_v_per_s"])
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"metrics.json unreadable: {exc}") from None
    if predicted_rates is not None:
        acc["rate_rel_err_max"] = check_rates(measured, predicted_rates)
    return acc
