"""Mutation run over a module of ``ctrace``: each mutant swaps one operator
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``) in a
function of ``src/ctrace/<module>.py``, and is killed when
``tests/test_<module>.py`` fails on it.  ``--module`` is ``pwcalc`` (the
default: the exact kernels, from ``_merge`` on), or ``existence``,
``blocks`` or ``patterns`` (every function and class).  The tests run in a temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, never in the checkout, once the unmutated module as
``ast.unparse`` writes it has passed.  Prints each outcome, the kill rate,
the surviving sites and the wall time.  A site is named by its function, its
index among the function's sites and the swap, such as ``compose_pl#3 < ->
<=``, so that runs on different versions of the module can be compared line
by line.  Not part of the test suite or CI: a run over ``pwcalc`` takes an
hour or more.  ``--only`` mutates just the named functions or classes (every
method of a class), so a run over a few of them takes minutes.

    python tools/mutate.py
    python tools/mutate.py --only compose_pl,_violation_point
    python tools/mutate.py --module existence --only _windows,squash_map
    python tools/mutate.py --only Frozen,Record
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
# each module's first mutated function or class when no --only is given
FIRST = {"pwcalc": "_merge", "existence": "choose_delta", "blocks": "SpecialCheck",
         "patterns": "EigenPattern"}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}
PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Add, ast.Sub)]
SWAPS = {**dict(PAIRS), **{b: a for a, b in PAIRS}}


def sites(tree: ast.Module, only: set = frozenset(), first: str = "_merge") -> list:
    """``(name, k, node, i)`` for each swappable operator in the functions
    and classes named ``only``, or else in every module-level statement
    from the function or class ``first`` on, in source order: the site is
    the ``k``-th of its function (or class) ``name``, and ``i`` picks a
    comparison's operator, None a binary operation's.  Refuses a name the
    module does not define, and a selection with no site."""
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    missing = (only or {first}) - {node.name for node in defs}
    if missing:
        raise SystemExit(f"no function or class {', '.join(sorted(missing))} in the module")
    if only:
        scopes = [node for node in defs if node.name in only]
    else:
        start = next(node.lineno for node in defs if node.name == first)
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
    if not found:
        raise SystemExit(f"no swappable operator in {', '.join(sorted(only)) or first + ' on'}")
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


def passes(work: Path, tests: str) -> tuple:
    """Whether the test file ``tests`` passes in ``work``, and the seconds it took."""
    # a fresh example database each run, so no mutant replays another's failure
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    start = time.perf_counter()
    pytest = [sys.executable, "-m", "pytest", tests, "-x", "-q",
              "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    try:
        code = subprocess.run(pytest, cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=600).returncode
    except subprocess.TimeoutExpired:  # a mutant that loops counts as killed
        code = None
    return code == 0, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description="Mutation run over a module of src/ctrace.")
    parser.add_argument("--module", choices=sorted(FIRST), default="pwcalc",
                        help="the module to mutate, tested by tests/test_<module>.py")
    parser.add_argument("--only", metavar="NAME[,NAME...]", default="",
                        help="mutate only these module-level functions or classes")
    args = parser.parse_args()
    only = set(filter(None, args.only.split(",")))
    module, tests = Path("src", "ctrace", f"{args.module}.py"), f"tests/test_{args.module}.py"
    began = time.perf_counter()
    source = (ROOT / module).read_text()
    tree, lines = ast.parse(source), source.splitlines()
    targets = sites(tree, only, FIRST[args.module])
    with tempfile.TemporaryDirectory(prefix="ctrace-mutate-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / module).write_text(ast.unparse(tree))
        passed, seconds = passes(work, tests)
        if not passed:
            print(f"{tests} fails on the unmutated module as ast.unparse writes it")
            return 1
        print(f"unmutated: passed in {seconds:.0f} s; {len(targets)} mutants", flush=True)
        survivors = []
        for n, (name, k, node, i) in enumerate(targets, 1):
            site = f"{name}#{k} {swap(node, i)}"
            (work / module).write_text(ast.unparse(tree))
            swap(node, i)
            survived, seconds = passes(work, tests)
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
