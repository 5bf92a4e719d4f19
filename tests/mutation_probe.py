"""Mutation probe: how many one-operator changes to a module the tests catch.

A site is one operator in the module's source: + and -, * and /, < and
<=, > and >=, each swapped for its partner, or a unary minus dropped. Each
mutant is the module with one site changed, written into a fresh copy of
`src/`; the chosen tests run against that copy in a subprocess, and the
mutant is killed when they fail (or hang past the timeout).

    python3 tests/mutation_probe.py src/hmg/sim.py \\
        --scope _GFormat,write_trace_csv,_DIGITS3,_TRAILING_ZEROS,_EXP_WORDS \\
        --tests tests/test_trace_csv.py tests/test_sim.py

tries every site inside the named top-level definitions (all sites when
--scope is omitted, or a --sample of them drawn with --seed), prints each
survivor with its line, and the kill count. The copies go under --workdir
(default: the system temporary directory). Tier-1 does not collect this
file; it takes about a second per mutant on the trace tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def sites(tree: ast.Module, scope: set[str] | None) -> list[tuple[int, int]]:
    """(node index in ast.walk order, line) of every mutable operator."""
    inside = set()
    for top in tree.body:
        names = {getattr(top, "name", None)} | {
            t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)}
        if scope is None or names & scope:
            inside |= {id(node) for node in ast.walk(top)}
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if id(node) not in inside:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((i, node.lineno))
        elif isinstance(node, ast.Compare) and any(type(op) in SWAPS for op in node.ops):
            found.append((i, node.lineno))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((i, node.lineno))
    return found


def mutate(source: str, index: int) -> tuple[str, str]:
    """The source with site `index` changed, and a description of it."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    before = ast.unparse(node)
    if isinstance(node, ast.UnaryOp):
        # drop the minus: replace the node by its operand in its parent
        for parent in ast.walk(tree):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and any(v is node for v in value):
                    value[[v is node for v in value].index(True)] = node.operand
        after = ast.unparse(node.operand)
    elif isinstance(node, ast.Compare):
        k = next(k for k, op in enumerate(node.ops) if type(op) in SWAPS)
        node.ops[k] = SWAPS[type(node.ops[k])]()
        after = ast.unparse(node)
    else:
        node.op = SWAPS[type(node.op)]()
        after = ast.unparse(node)
    return ast.unparse(tree), f"{before}  ->  {after}"


def killed(module: Path, source: str, tests: list[str], workdir: str,
           timeout: float) -> bool:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / module.relative_to(REPO / "src")).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *tests], cwd=REPO, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return True
        return done.returncode != 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module under src/ to mutate")
    ap.add_argument("--scope", help="comma-separated top-level names to mutate within")
    ap.add_argument("--tests", nargs="+", default=["tests"])
    ap.add_argument("--sample", type=int, help="mutate this many sites, drawn with --seed")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args(argv)
    module = (REPO / args.module).resolve()
    source = module.read_text()
    scope = set(args.scope.split(",")) if args.scope else None
    chosen = sites(ast.parse(source), scope)
    if args.sample is not None and args.sample < len(chosen):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))
    survivors = []
    for index, line in chosen:
        mutant, change = mutate(source, index)
        if not killed(module, mutant, args.tests, args.workdir, args.timeout):
            survivors.append(f"{args.module}:{line}: {change}")
            print("survived", survivors[-1], flush=True)
    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)} mutants")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
