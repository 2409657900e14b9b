"""Mutation run over the exact kernels of ``ctrace.pwcalc``: each mutant swaps
one operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+``
and ``-``) in a function of ``src/ctrace/pwcalc.py`` from ``_merge`` on, and
is killed when ``tests/test_pwcalc.py`` fails on it.  The tests run in a
temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``, never in the
checkout, once the unmutated module as ``ast.unparse`` writes it has passed.
Prints each outcome, the kill rate, the surviving sites and the wall time.
A site is named by its function, its index among the function's sites and
the swap, such as ``compose_pl#3 < -> <=``, so that runs on different
versions of the module can be compared line by line.
Not part of the test suite or CI: a run takes an hour or more.  ``--only``
mutates just the named functions, so a run over a few kernels takes minutes.

    python tools/mutate.py
    python tools/mutate.py --only compose_pl,_violation_point
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULE = Path("src", "ctrace", "pwcalc.py")
PYTEST = [sys.executable, "-m", "pytest", "tests/test_pwcalc.py", "-x", "-q",
          "-p", "no:cacheprovider", "--hypothesis-seed=0"]
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}
PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Add, ast.Sub)]
SWAPS = {**dict(PAIRS), **{b: a for a, b in PAIRS}}


def sites(tree: ast.Module, only: set = frozenset()) -> list:
    """``(name, k, node, i)`` for each swappable operator in the functions
    named ``only``, or else in every module-level statement from ``_merge``
    on, in source order: the site is the ``k``-th of its function (or
    class) ``name``, and ``i`` picks a comparison's operator, None a
    binary operation's."""
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    if only:
        scopes = [node for node in functions if node.name in only]
        missing = only - {node.name for node in scopes}
        if missing:
            raise SystemExit(f"no function {', '.join(sorted(missing))} in {MODULE}")
    else:
        start = next(node.lineno for node in functions if node.name == "_merge")
        scopes = [node for node in tree.body if node.lineno >= start]
    found = []
    for scope in scopes:
        here = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare):
                here += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                here.append((node, None))
        here.sort(key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))
        name = getattr(scope, "name", f"line {scope.lineno}")
        found += [(name, k, node, i) for k, (node, i) in enumerate(here)]
    return found


def swap(node, i) -> str:
    """Swap the operator at a site in place, so a second swap restores it."""
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def passes(work: Path) -> tuple:
    """Whether the tests pass in ``work``, and the seconds they took."""
    # a fresh example database each run, so no mutant replays another's failure
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    start = time.perf_counter()
    try:
        code = subprocess.run(PYTEST, cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=600).returncode
    except subprocess.TimeoutExpired:  # a mutant that loops counts as killed
        code = None
    return code == 0, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description="Mutation run over src/ctrace/pwcalc.py.")
    parser.add_argument("--only", metavar="NAME[,NAME...]", default="",
                        help="mutate only these module-level functions")
    only = set(filter(None, parser.parse_args().only.split(",")))
    began = time.perf_counter()
    source = (ROOT / MODULE).read_text()
    tree, lines = ast.parse(source), source.splitlines()
    targets = sites(tree, only)
    with tempfile.TemporaryDirectory(prefix="ctrace-mutate-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / MODULE).write_text(ast.unparse(tree))
        passed, seconds = passes(work)
        if not passed:
            print("tests/test_pwcalc.py fails on the unmutated module as ast.unparse writes it")
            return 1
        print(f"unmutated: passed in {seconds:.0f} s; {len(targets)} mutants", flush=True)
        survivors = []
        for n, (name, k, node, i) in enumerate(targets, 1):
            site = f"{name}#{k} {swap(node, i)}"
            (work / MODULE).write_text(ast.unparse(tree))
            swap(node, i)
            survived, seconds = passes(work)
            if survived:
                survivors.append(f"{site}    {lines[node.lineno - 1].strip()}")
            print(f"[{n}/{len(targets)}] {site} {'SURVIVED' if survived else 'killed'}"
                  f" ({seconds:.0f} s)", flush=True)
    killed = len(targets) - len(survivors)
    print(f"killed {killed} of {len(targets)} mutants ({100 * killed / len(targets):.1f}%)")
    print("surviving sites:" if survivors else "no mutant survived", *survivors, sep="\n  ")
    print(f"wall time: {time.perf_counter() - began:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
