"""Module layering: the exact core imports without the numerical layer,
each CLI subcommand loads only its own group's modules, no module
reads Fraction's private attributes, no module or tool script imports a
name it does not use, the tool scripts import only the standard library,
and every ctrace name the benchmark scripts use exists."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_exact_modules_load_without_numpy():
    proc = run_python(
        "import sys\n"
        "import ctrace.pwcalc, ctrace.blocks, ctrace.patterns, ctrace.existence, ctrace.invariant\n"
        "print('numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_loads_without_numpy():
    proc = run_python("import sys, ctrace.cli\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_numerical_layer_and_cli_still_import():
    proc = run_python("import sys, ctrace.unitary, ctrace.cli\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# The ctrace modules a subcommand of each group loads besides the package,
# the CLI and the shared `pwcalc` and `errors`.
GROUP_MODULES = {
    "pw": set(),
    "block": {"blocks"},
    "invariant": {"invariant"},
    "pattern": {"patterns", "blocks"},
    "exist": {"existence", "patterns", "blocks"},
    "unitary": {"unitary"},
}
SHARED = {"ctrace", "ctrace.cli", "ctrace.pwcalc", "ctrace.errors"}
LAYERED = ("blocks", "patterns", "existence", "invariant", "unitary")


def group_payloads():
    from ctrace.patterns import EigenPattern
    from ctrace.pwcalc import PLFunction, StepFunction

    e11, eye = [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
    return {
        "pw": (["pw", "eval"], {"f": PLFunction.identity().to_json(), "t": [1, 2]}),
        "block": (["block", "validate"], StepFunction.constant(2).to_json()),
        "invariant": (["invariant", "range"], {
            "group": {"kind": "qZ", "q": [1, 1]}, "pairing": [[1, 1]],
            "f": [[5, 2]], "x": [2, 1],
        }),
        "pattern": (["pattern", "apply"], {
            "pattern": EigenPattern.identities(2).to_json(),
            "f": PLFunction.identity().to_json(),
        }),
        "exist": (["exist", "fprime"], {"d": StepFunction.constant(1).to_json(), "delta": [1, 8]}),
        "unitary": (["unitary", "patch"], {
            "samples": [
                {"t": i / 4, "re": e11 if i <= 2 else eye, "im": [[0.0, 0.0], [0.0, 0.0]]}
                for i in range(5)
            ],
            "t_jump": 0.5,
        }),
    }


# Standard-library modules the CLI's exact path does without: `dataclasses`
# takes about 8 ms to import, and `inspect` is most of that.
UNUSED_STDLIB = {"dataclasses", "inspect"}

STDLIB_LOADED = "sorted(m for m in sys.modules if m in sys.stdlib_module_names)"


def loaded_after_main(argv, payload, tmp_path):
    """Run ctrace.cli.main in a fresh interpreter; its exit code, the
    ctrace modules and the top-level standard-library modules it loaded,
    and whether it loaded numpy."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    proc = run_python(
        "import json, sys\n"
        "from ctrace.cli import main\n"
        f"code = main({[*argv, str(path)]!r})\n"
        "mods = sorted(m for m in sys.modules if m == 'ctrace' or m.startswith('ctrace.'))\n"
        f"print(json.dumps([code, mods, {STDLIB_LOADED}, 'numpy' in sys.modules]))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("group", sorted(GROUP_MODULES))
def test_each_group_loads_only_its_modules(group, tmp_path):
    argv, payload = group_payloads()[group]
    code, mods, stdlib, numpy_loaded = loaded_after_main(argv, payload, tmp_path)
    assert code == 0
    assert set(mods) == SHARED | {f"ctrace.{m}" for m in GROUP_MODULES[group]}
    assert numpy_loaded is (group == "unitary")
    # numpy itself imports inspect
    if group != "unitary":
        assert UNUSED_STDLIB.isdisjoint(stdlib)
    assert "json" in stdlib and "argparse" in stdlib


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    proc = run_python(f"import sys, ctrace.cli\nprint({STDLIB_LOADED})")
    assert proc.returncode == 0, proc.stderr
    stdlib = set(ast.literal_eval(proc.stdout.strip()))
    assert "fractions" in stdlib and UNUSED_STDLIB.isdisjoint(stdlib)


def test_cli_import_loads_no_handler_module():
    proc = run_python(
        "import sys, ctrace.cli\n"
        f"print([m for m in {LAYERED!r} if 'ctrace.' + m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_reads_private_fraction_attributes():
    # Fraction's _numerator, _denominator and constructors like
    # _from_coprime_ints are private and differ between Python 3.10, 3.11
    # and 3.12; the package reads only numerator and denominator
    private = re.compile(r"\b_(numerator|denominator|from_coprime_ints)\b")
    readers = [p.name for p in sorted((Path(SRC) / "ctrace").glob("*.py"))
               if private.search(p.read_text())]
    assert readers == []


def unused_imports(source: str) -> list:
    """Names a module binds with ``import`` or ``from ... import`` and never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) or (
                 isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nfrom typing import Union, Sequence\n"
              "import os.path, sys\nx: Sequence = os.sep\n")
    assert unused_imports(source) == ["Union", "sys"]


def test_every_imported_name_is_used():
    scripts = [*sorted((Path(SRC) / "ctrace").glob("*.py")), *sorted(TOOLS.glob("*.py"))]
    assert TOOLS / "mutate.py" in scripts
    unused = {p.name: unused_imports(p.read_text()) for p in scripts}
    assert {name: names for name, names in unused.items() if names} == {}


def test_tools_import_only_the_standard_library():
    # a tool runs pytest as a subprocess, and no dependency may be added
    modules = {m.split(".")[0] for p in TOOLS.glob("*.py") for m, _ in script_imports(p)}
    assert "ast" in modules and modules - sys.stdlib_module_names == set()



BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def script_imports(path: Path) -> list:
    """``(module, name)`` for each name a script imports, name "" for a
    plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
    return found


def resolves(module: str, attr: str) -> bool:
    """Whether ``module`` imports and has ``attr``, a name or ``Class.method``."""
    owner = importlib.import_module(module)
    for part in filter(None, attr.split(".")):
        owner = getattr(owner, part, None)
    return owner is not None


def test_benchmark_imports_from_ctrace_resolve():
    found = [entry for path in sorted(BENCH.glob("*.py")) for entry in script_imports(path)
             if entry[0].split(".")[0] == "ctrace"]
    assert ("ctrace.pwcalc", "StepFunction") in found
    assert [entry for entry in found if not resolves(*entry)] == []


def test_benchmark_trace_targets_resolve():
    # the tracer rebinds these with getattr, so a name src/ drops would
    # crash every traced run; tracing.py imports only the standard library
    path = BENCH / "tracing.py"
    assert {m.split(".")[0] for m, _ in script_imports(path)} <= sys.stdlib_module_names
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entries = [(m, attr) for m, attr, _ in tracing.TARGETS] + list(tracing.COUNTED)
    assert ("ctrace.pwcalc", "StepFunction.jumps") in entries
    assert [entry for entry in entries if not resolves(*entry)] == []
