"""Self-checks of the benchmark: generators, preconditions, the contract.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cli_mix  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ctrace.blocks import validate_special  # noqa: E402
from ctrace.existence import make_underapprox  # noqa: E402
from ctrace.pwcalc import is_lsc  # noqa: E402


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def certify_digest(seed):
    return [workloads.digest(inst.d_a.to_json()) + workloads.digest(inst.pattern.to_json())
            + workloads.digest(inst.d_b.to_json()) + str(inst.delta)
            for inst in gen.certify_instances(seed, 1)]


def test_generators_are_deterministic_per_seed():
    assert certify_digest(3) == certify_digest(3)
    assert certify_digest(3) != certify_digest(4)
    a, b = gen.unitary_path(gen.rng_for(3, "u"), 101), gen.unitary_path(gen.rng_for(3, "u"), 101)
    assert (a.mats == b.mats).all() and a.t_jump == b.t_jump
    mix = [e.text() for e in cli_mix.build_mix(3, "smoke")]
    assert mix == [e.text() for e in cli_mix.build_mix(3, "smoke")]
    assert mix != [e.text() for e in cli_mix.build_mix(4, "smoke")]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_certify_instances_meet_their_preconditions(seed):
    insts = gen.certify_instances(seed, 1)
    assert sum(i.identity for i in insts) * 4 == len(insts)
    for inst in insts:
        assert validate_special(inst.d_a) and validate_special(inst.d_b)
        jumps = [j.t for j in inst.d_a.jumps()]
        assert 1 <= len(jumps) <= 3
        assert gen.windows_fit(jumps, inst.delta)
        make_underapprox(inst.d_a, inst.delta)      # raises if windows overlap
        assert 1 <= inst.pattern.multiplicity <= 8
        assert all(len(lam.breakpoints) <= 4 for lam in inst.pattern.eigenfunctions)


def test_refine_pairs_built_to_hold_do_hold():
    for op in workloads.refine_ops(5, "smoke", rungs=range(4)):
        out = op.run()
        assert op.check(out) is None, op.id
        if op.kernel in ("pwcalc.le_pointwise", "pwcalc.le_pointwise_pl"):
            assert out.holds
        if op.kernel == "pwcalc.le_pointwise_late":
            assert not out.holds
        if op.kernel == "blocks.validate_special":
            assert out.valid
        if op.kernel == "pwcalc.is_lsc":
            assert out.holds


def test_dimension_functions_of_the_generators_are_valid():
    rng = gen.rng_for(9, "dims")
    for n in (1, 5, 40):
        d = gen.rand_lsc_int_step(rng, n, 1, 5)
        assert validate_special(d) and is_lsc(d)


@pytest.mark.parametrize("m", [101, 1000, 1001])
def test_unitary_paths_put_the_jump_on_a_sample(m):
    path = gen.unitary_path(gen.rng_for(2, "jump", m), m)
    assert path.ts[path.jump_index] == path.t_jump
    path.check_structure()


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_names()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(doc["per_layer"]) <= 128


def test_tail_percentile_leaves_ten_ops_beyond():
    for count in (30, 36, 39, 64, 500):
        pct = run.tail_percentile(count)
        assert count - math.ceil(pct / 100 * count) >= 10
        assert count - math.ceil((pct + 1) / 100 * count) < 10


def test_quantile_matches_order_statistics_on_smooth_data():
    values = [float(i) for i in range(1, 202)]
    assert abs(run.quantile(values, 50) - 101) < 0.5
    assert run.quantile([3.0], 90) == 3.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_runs_print_the_contract_line(workload):
    for trace, names in ((0, run.END_TO_END), (1, run.per_layer_names())):
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(names)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "certify", "--seed", "2", "--trace", "1", "--size", "smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bits", "ratio") and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert counts[0]["pwcalc.eval.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
