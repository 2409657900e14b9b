"""Module layering: the exact core imports without the numerical layer."""

import os
import subprocess
import sys
from pathlib import Path

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
