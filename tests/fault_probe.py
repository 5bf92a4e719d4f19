"""Config fault probe: keys of configs/table1.cfg set to bad values, one
or several per file, run through every command in process by `hmg.cli.main`.

A fault is a (section, key, value) triple, and a case is a tuple of faults
on distinct keys applied to one file. A call passes when `main` returns a
documented exit code (0, 1, 2 or 3), no exception leaves it, and it returns
1 only from `design`, the one command with an informational exit. The
horizon is cut to 21 s, unless it is a key under fault, so the second load
step at 20 s stays in.

    python3 tests/fault_probe.py

runs the full single-fault set (51 keys x 13 values x 6 commands), then
PAIR_SAMPLE two-fault cases drawn with PAIR_SEED, prints each failing call
and the escape count of each set, and exits 1 when any call fails.
`tests/test_fault_probe.py` runs a seeded subset of it in tier-1.
"""

from __future__ import annotations

import contextlib
import io
import logging
import random
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))

from hmg.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFO, EXIT_OK, main  # noqa: E402

TABLE1 = REPO / "configs" / "table1.cfg"
BAD_VALUES = ("abc", "nan", "inf", "-inf", "-1", "0", "-0", "1", "2.5", "1e30",
              "1e-30", "true", "")
COMMANDS = (("predict",), ("design",), ("bode", "N_ac1"), ("bode", "f_closed"),
            ("bode", "T_ds"), ("simulate",))
EXIT_CODES = (EXIT_OK, EXIT_INFO, EXIT_CONFIG, EXIT_DIVERGED)
# the faults every subset holds: inverted limits and a trace too large to hold
REQUIRED = (("ac", "f_min", "1e30"), ("ac", "f_max", "1e-30"),
            ("sim", "horizon", "1e30"), ("sim", "step", "1e-30"))
# the two-fault cases every subset holds: a step count beyond any float
REQUIRED_PAIRS = ((("sim", "horizon", "1e300"), ("sim", "step", "1e-10")),)
PAIR_SEED, PAIR_SAMPLE = 1, 1000


def _lines():
    """table1's lines, each with its section and key (None off a key)."""
    section = None
    for line in TABLE1.read_text().splitlines():
        text = line.split("#")[0].strip()
        if text.startswith("["):
            section = text[1:-1]
        key = text.split("=")[0].strip() if "=" in text else None
        yield section, key, line


def cases() -> list[tuple[str, str, str]]:
    """Every (section, key, bad value), keys in file order."""
    return [(section, key, value) for section, key, _ in _lines() if key
            for value in BAD_VALUES]


def subset(seed: int, count: int) -> list[tuple[str, str, str]]:
    """REQUIRED plus `count` other cases drawn with `seed`."""
    rest = [c for c in cases() if c not in REQUIRED]
    return [*REQUIRED, *random.Random(seed).sample(rest, count)]


def pairs(seed: int, count: int) -> list[tuple[tuple[str, str, str], ...]]:
    """`count` two-fault cases on distinct keys, drawn with `seed`."""
    rng, singles, out = random.Random(seed), cases(), []
    while len(out) < count:
        a, b = rng.sample(singles, 2)
        if a[:2] != b[:2]:
            out.append((a, b))
    return out


def faulted_text(*faults: tuple[str, str, str]) -> str:
    """table1 with the horizon cut to 21 s and every `section.key = value`."""
    values = {(section, key): value for section, key, value in faults}
    out = []
    for sec, k, line in _lines():
        if (sec, k) in values:
            line = f"{k} = {values[sec, k]}"
        elif (sec, k) == ("sim", "horizon"):
            line = "horizon = 21"
        out.append(line)
    return "\n".join(out) + "\n"


def probe(faults, tmp: Path) -> list[str]:
    """Run every command on the config with all `faults` applied; one line
    per failing call."""
    path = tmp / "fault.cfg"
    path.write_text(faulted_text(*faults))
    outs = {"bode": ["--out", str(tmp / "bode.csv")],
            "simulate": ["--out", str(tmp / "out")]}
    label = ", ".join(f"{s}.{k} = {v!r}" for s, k, v in faults)
    failures = []
    for command in COMMANDS:
        call = f"{label}: {' '.join(command)}"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*command, *outs.get(command[0], []),
                             "--config", str(path)])
        except (Exception, SystemExit) as exc:
            failures.append(f"{call} raised {type(exc).__name__}: {exc}")
            continue
        if code not in EXIT_CODES or (code == EXIT_INFO and command[0] != "design"):
            failures.append(f"{call} exited {code}")
    return failures


def _run_set(name: str, set_cases, tmp: Path) -> list[str]:
    """Probe every case of one set and print its failures and counts."""
    start = time.perf_counter()
    failures = [line for case in set_cases for line in probe(case, tmp)]
    for line in failures:
        print(line)
    escapes = sum(" raised " in line for line in failures)
    print(f"{name}: {len(set_cases) * len(COMMANDS)} calls over {len(set_cases)} "
          f"cases in {time.perf_counter() - start:.1f} s: {escapes} escapes, "
          f"{len(failures) - escapes} undocumented exit codes")
    return failures


def _main() -> int:
    logging.disable(logging.CRITICAL)
    two = [*REQUIRED_PAIRS, *pairs(PAIR_SEED, PAIR_SAMPLE)]
    with tempfile.TemporaryDirectory() as tmp:
        failures = _run_set("single faults", [(c,) for c in cases()], Path(tmp))
        failures += _run_set("fault pairs", two, Path(tmp))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
