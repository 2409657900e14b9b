"""Module layering: the exact core imports without the numerical layer, and
each CLI subcommand loads only its own group's modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def loaded_after_main(argv, payload, tmp_path):
    """Run ctrace.cli.main in a fresh interpreter; its exit code and loaded modules."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    proc = run_python(
        "import json, sys\n"
        "from ctrace.cli import main\n"
        f"code = main({[*argv, str(path)]!r})\n"
        "mods = sorted(m for m in sys.modules if m == 'ctrace' or m.startswith('ctrace.'))\n"
        "print(json.dumps([code, mods, 'numpy' in sys.modules]))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("group", sorted(GROUP_MODULES))
def test_each_group_loads_only_its_modules(group, tmp_path):
    argv, payload = group_payloads()[group]
    code, mods, numpy_loaded = loaded_after_main(argv, payload, tmp_path)
    assert code == 0
    assert set(mods) == SHARED | {f"ctrace.{m}" for m in GROUP_MODULES[group]}
    assert numpy_loaded is (group == "unitary")


def test_cli_import_loads_no_handler_module():
    proc = run_python(
        "import sys, ctrace.cli\n"
        f"print([m for m in {LAYERED!r} if 'ctrace.' + m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
