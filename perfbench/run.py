"""hmg benchmark: one closed-loop workload per run, outputs checked per op.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run from the repository root. With --trace 0 it times operations with
tracing off and reports the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it alternates untraced and traced operations in this process and
reports the per-layer metrics, including the tracing overhead. The last
line of standard output is one JSON object; the lines before it repeat each
metric with its unit, the accuracy sentinels and the run metadata. Spans of
a traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A run keeps starting operations until --seconds have passed and at least
# MIN_OPS are done, so the printed op_tail_s (ten samples beyond it) sits at
# or above the median; it stops starting them after HARD_LIMIT_S whatever
# the count.
MIN_OPS = 21
HARD_LIMIT_S = 120.0
# Set-up is timed this many times and the median reported: one import
# takes ~0.2 s, shorter than the host's speed swings.
SETUP_REPS = 15

# The reference loop: small numpy operations driven from a Python loop, the
# same mix as hmg's stepping loops, in code no change to hmg can move. It is
# timed just before and just after every operation on the same CPU; the
# host's speed changes from one operation to the next, and the operation's
# time relative to the loop's does not (README, "Steadiness").
REF_ITERS = 12_000

IMPORT_PROBE = ("import time; t = time.perf_counter(); import hmg.cli; "
                "print(time.perf_counter() - t)")

# Spans reported as median seconds per call, and as median share of op wall
# time (inclusive time, or self time for the spans in SELF_TIMED).
TIMED_SPANS = (
    "config.load_config", "sim.run", "sim.measure", "sim.write_trace_csv",
    "sim.compare_with_gecm", "lti.tf_to_statespace", "lti.rk4_step_maps",
    "gecm.build_gecm", "gecm.solve_nodal", "gecm.ideal_global_deviation_tf",
    "gecm.restored_absolute_tf", "gecm.bode_export",
)
SELF_TIMED = ("sim.compare_with_gecm", "cli.main")
PER_OP_COUNTS = ("sim.run", "lti.tf_to_statespace", "lti.rk4_step_maps")
PARENTS = {"sim.run": "in_run", "sim.compare_with_gecm": "in_compare"}
# Per-layer figures taken per run rather than from spans.
RUN_LEVEL = ("cli.import_s", "trace.ops_per_s_untraced",
             "trace.ops_per_s_traced", "trace.overhead_ops_per_s")
ACC_KEYS = ("rate_rel_err_max", "xcheck_rms_worst", "nodal_residual_max",
            "power_balance_max_w")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(durations: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    d = sorted(durations)
    k = len(d) - 11
    if k < 0:          # fewer than 11 samples: the maximum, at p100
        return d[-1], 100.0
    return d[k], 100.0 * (k + 1) / len(d)


def reference_loop() -> float:
    """Wall time of one run of the reference loop."""
    import numpy as np
    a = np.eye(4) * 0.99
    b = np.ones(4)
    x = np.zeros(4)
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        x = a @ x + b * 0.5
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure_setup(wl, seed: int, env: dict) -> tuple[float, float]:
    """Median set-up time and median import time over SETUP_REPS repeats.

    Set-up is a fresh interpreter importing hmg.cli plus preparing the
    workload's inputs; the import time is what the child reports. Repeats
    take the CPUs this process may use in turn, as operations do.
    """
    from workloads import run_child
    setups, imports = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for rep in range(SETUP_REPS):
            os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
            t0 = time.perf_counter()
            code, out = run_child([sys.executable, "-c", IMPORT_PROBE], env,
                                  ROOT, subprocess.PIPE, subprocess.DEVNULL,
                                  timeout=60)
            if code != 0:
                raise RuntimeError(f"importing hmg.cli exited with {code}")
            wl.prepare(seed)
            setups.append(time.perf_counter() - t0)
            imports.append(float(out.strip()))
    finally:
        os.sched_setaffinity(0, cpus)
    return median(setups), median(imports)


def layer_metrics(tracer, traced_walls: dict[int, float]) -> dict[str, float]:
    """Per-layer figures from the spans of the traced operations."""
    spans = tracer.spans
    own = tracer.self_times()
    per_call = defaultdict(list)      # name -> durations
    per_call_self = defaultdict(list)
    by_parent = defaultdict(list)     # (name, parent tag) -> durations
    op_time = defaultdict(lambda: defaultdict(float))   # op -> name -> s
    op_calls = defaultdict(lambda: defaultdict(int))
    for idx, (name, t0, t1, parent, op_id, _) in enumerate(spans):
        dur = t1 - t0
        per_call[name].append(dur)
        per_call_self[name].append(own[idx])
        op_time[op_id][name] += own[idx] if name in SELF_TIMED else dur
        op_calls[op_id][name] += 1
        if parent is not None and spans[parent][0] in PARENTS:
            by_parent[(name, PARENTS[spans[parent][0]])].append(dur)
    ops = sorted(traced_walls)

    def over_calls(name, fn):
        """Median over the calls of one span of fn(duration, attrs)."""
        return median([fn(t1 - t0, a) for n, t0, t1, _, _, a in spans if n == name])

    out = {}
    for name in TIMED_SPANS:
        out[f"{name}.s"] = median(per_call[name])
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = median(per_call_self[name])
    for name in TIMED_SPANS + ("cli.main",):
        out[f"{name}.share"] = median(
            [op_time[o][name] / traced_walls[o] for o in ops])
    for name in PER_OP_COUNTS:
        out[f"{name}.calls"] = median([op_calls[o][name] for o in ops])
    for name in ("lti.tf_eval", "lti.poly_mul"):
        out[f"{name}.calls"] = median([tracer.counts[o][name] for o in ops])
    for name in ("lti.tf_to_statespace", "lti.rk4_step_maps"):
        for tag in PARENTS.values():
            out[f"{name}.{tag}.s"] = median(by_parent[(name, tag)])
    out["sim.run.ns_per_step"] = over_calls(
        "sim.run", lambda d, a: d * 1e9 / a["steps"])
    out["sim.write_trace_csv.us_per_row"] = over_calls(
        "sim.write_trace_csv", lambda d, a: d * 1e6 / a["rows"])
    out["sim.write_trace_csv.mb"] = over_calls(
        "sim.write_trace_csv", lambda d, a: a["bytes"] / 1e6)
    out["gecm.solve_nodal.scale_retries"] = over_calls(
        "gecm.solve_nodal", lambda d, a: a["scale_retries"])
    out["gecm.bode_export.us_per_point"] = over_calls(
        "gecm.bode_export", lambda d, a: d * 1e6 / a["points"])
    return out


# One operation: wall time, whether it was traced or failed, the CPU it was
# pinned to and the mean of the reference loop's times around it.
Op = namedtuple("Op", "dur traced failed cpu ref")


def run_ops(wl, seconds: float, tracer=None):
    """Closed loop of operations; returns per-op records and accuracy maxima.

    With a tracer, every second operation is traced and all of them run in
    this process. Each operation, with any child it starts, is pinned to one
    CPU together with the reference loop timed just before and after it, so
    both run under the same host slowdown; operations take the CPUs this
    process may use in turn, in pairs (a traced and an untraced operation
    share a CPU).
    """
    records = []
    acc = defaultdict(float)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    i = 0
    try:
        while ((time.perf_counter() - start < seconds or i < MIN_OPS)
               and time.perf_counter() - start < HARD_LIMIT_S):
            cpu = cpus[(i // 2) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            before = reference_loop()
            dur, traced, failed = timed_op(wl, i, tracer, acc)
            ref = 0.5 * (before + reference_loop())
            records.append(Op(dur, traced, failed, cpu, ref))
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return records, acc


def timed_op(wl, i: int, tracer, acc: dict) -> tuple[float, bool, bool]:
    """Runs and checks operation i; returns (duration_s, traced, failed)."""
    trace = tracer is not None
    traced = trace and i % 2 == 1
    t0 = time.perf_counter()
    dur = None
    try:
        if traced:
            with tracer.installed():
                result = tracer.op(i, wl.op, i, True)
        else:
            result = wl.op(i, trace)
        dur = time.perf_counter() - t0
        for key, value in wl.check(i, result).items():
            acc[key] = max(acc[key], value)
        failed = False
    except Exception:  # a failed operation is counted; the run goes on
        if dur is None:
            dur = time.perf_counter() - t0
        print(f"perfbench: op {i} failed:\n{traceback.format_exc()}",
              file=sys.stderr)
        failed = True
    return dur, traced, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hmg" / "cli.py").is_file():
        return fail(f"no hmg sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import hmg
    if Path(hmg.__file__).resolve().parent != ROOT / "src" / "hmg":
        return fail(f"hmg imported from {hmg.__file__}, not from {ROOT}")
    import numpy as np
    from spans import Tracer
    from workloads import WORKLOADS, cli_env

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, workdir)
        setup_s, import_s = measure_setup(wl, args.seed, cli_env(ROOT))
        tracer = Tracer() if args.trace else None
        records, acc = run_ops(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for op in records if op.failed)
    durations = [op.dur for op in records]
    lines = []
    if args.trace:
        plain = [op.dur for op in records if not op.traced]
        traced = [op.dur for op in records if op.traced]
        walls = {op_id: t1 - t0 for name, t0, t1, _, op_id, _ in tracer.spans
                 if name == "op"}
        values = layer_metrics(tracer, walls)
        values["cli.import_s"] = import_s
        values["trace.ops_per_s_untraced"] = len(plain) / sum(plain)
        values["trace.ops_per_s_traced"] = len(traced) / sum(traced)
        values["trace.overhead_ops_per_s"] = (
            values["trace.ops_per_s_untraced"] - values["trace.ops_per_s_traced"])
        for key in ACC_KEYS:
            values[f"acc.{key}"] = acc.get(key, 0.0)
        wanted = spec["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        rss_who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
        rel = [op.dur / op.ref for op in records]
        tail_rel, tail_pct = tail(rel)
        values = {
            "setup_s": setup_s,
            "op_p50_rel": median(rel),
            "op_tail_rel": tail_rel,
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        # Reported, not gated: wall times follow the host's speed phases.
        lines.append(f"op_tail_rel is p{tail_pct:.2f} of {attempted} ops")
        lines.append(f"ops_per_s {attempted / sum(durations):.6g} 1/s")
        lines.append(f"op_p50_s {median(durations):.6g} s")
        lines.append(f"op_tail_s {tail(durations)[0]:.6g} s")
        lines.append(f"op_min_s {min(durations):.6g} s")
        lines.append(f"ref_loop_p50_s {median([op.ref for op in records]):.6g} s")
        wanted = spec["end_to_end"]
        for key, value in sorted(acc.items()):
            lines.append(f"acc.{key} {value:.6g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "src_lines": src_lines(),
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
