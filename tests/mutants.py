"""Mutation check of one function: which one-token edits does the suite miss?

Run by hand from the repository root; pytest does not collect this file:

    python tests/mutants.py coopsim.controller solve_p1_fading \
        tests/test_controller.py tests/test_acceptance.py::test_08_solver_equivalences

Every comparison ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` is swapped with
its partner, every ``+``/``-`` likewise, and every int constant 0 or 1 is
raised by one, each on its own, inside the named function (``Class.method``
names a method). Each mutant is written into a temporary copy of ``src/``,
never into the checkout, and the given test files run against that copy with
``-x`` and a 60 s cap; a mutant that fails a test or times out is killed. The
unmutated copy runs first and must pass. The survivors are printed last: each
is either an equivalent mutant or a promise no test pins.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    scope: ast.AST = tree
    for part in name.split("."):
        scope = next(node for node in ast.iter_child_nodes(scope)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part)
    return scope


def sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int]]:
    """(node, operand index) of each mutable token, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, 0))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1)):
            found.append((node, 0))
    return found


def mutate(node: ast.AST, i: int) -> str:
    """Apply the edit in place; returns what it did."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[i])
        node.ops[i] = SWAPS[old]()
    elif isinstance(node, ast.Constant):
        node.value += 1
        return f"line {node.lineno}: {node.value - 1} -> {node.value}"
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
    return f"line {node.lineno}: {SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def run_tests(src: Path, tests: list[str]) -> tuple[str, str]:
    """('passed', 'failed' or 'timeout', pytest's last line) for the tests against ``src``."""
    paths = f"{shlex.quote(str(src))} {shlex.quote(str(ROOT / 'tests'))}"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={paths}", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    last = done.stdout.decode().strip().splitlines()[-1:] or [""]
    return ("passed" if done.returncode == 0 else "failed"), last[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="dotted module under src/, e.g. coopsim.controller")
    parser.add_argument("function", help="function or Class.method in that module")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / (args.module.replace(".", "/") + ".py")
        tree = ast.parse(target.read_text())
        n_sites = len(sites(find_function(tree, args.function)))
        outcome, last = run_tests(src, args.tests)
        if outcome != "passed":
            print(f"the unmutated copy fails its tests ({last}); nothing to measure")
            return 1
        survivors = []
        for k in range(n_sites):
            mutant = copy.deepcopy(tree)
            what = mutate(*sites(find_function(mutant, args.function))[k])
            target.write_text(ast.unparse(mutant))
            outcome, _ = run_tests(src, args.tests)
            print(f"{what:<24} {'survived' if outcome == 'passed' else 'killed: ' + outcome}",
                  flush=True)
            if outcome == "passed":
                survivors.append(what)
    print(f"{args.module}.{args.function}: {n_sites} mutants, {len(survivors)} survived")
    for what in survivors:
        print(f"  survivor {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
