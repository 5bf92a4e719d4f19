"""Config fault probe: each key of configs/table1.cfg set to each of 13 bad
values, run through every command in process by `hmg.cli.main`.

A call passes when `main` returns a documented exit code (0, 1, 2 or 3),
no exception leaves it, and it returns 1 only from `design`, the one command
with an informational exit. The horizon is cut to 21 s, unless it is the key
under fault, so the second load step at 20 s stays in.

    python3 tests/fault_probe.py

runs the full single-fault set (51 keys x 13 values x 6 commands), prints
each failing call and the escape count, and exits 1 when any call fails.
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


def faulted_text(section: str, key: str, value: str) -> str:
    """table1 with the horizon cut to 21 s and `section.key = value`."""
    out = []
    for sec, k, line in _lines():
        if (sec, k) == (section, key):
            line = f"{key} = {value}"
        elif (sec, k) == ("sim", "horizon"):
            line = "horizon = 21"
        out.append(line)
    return "\n".join(out) + "\n"


def probe(section: str, key: str, value: str, tmp: Path) -> list[str]:
    """Run every command on the faulted config; one line per failing call."""
    path = tmp / "fault.cfg"
    path.write_text(faulted_text(section, key, value))
    outs = {"bode": ["--out", str(tmp / "bode.csv")],
            "simulate": ["--out", str(tmp / "out")]}
    failures = []
    for command in COMMANDS:
        call = f"{section}.{key} = {value!r}: {' '.join(command)}"
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


def _main() -> int:
    logging.disable(logging.CRITICAL)
    start = time.perf_counter()
    all_cases = cases()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in all_cases:
            failures += probe(*case, Path(tmp))
    for line in failures:
        print(line)
    escapes = sum(" raised " in line for line in failures)
    print(f"{len(all_cases) * len(COMMANDS)} calls over {len(all_cases)} faults "
          f"in {time.perf_counter() - start:.1f} s: {escapes} escapes, "
          f"{len(failures) - escapes} undocumented exit codes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
