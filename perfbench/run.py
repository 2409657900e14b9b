#!/usr/bin/env python3
"""Benchmark for ctrace: four seeded workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads: ``certify`` (the perturb-and-verify pipeline on many small
instances), ``refine`` (large-n exact kernels), ``cli`` (one fresh
``python -m ctrace.cli`` process per payload) and ``unitary`` (patching
and validating sampled paths).  ``--size smoke`` shrinks every input so
that a run takes seconds.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of work once untraced and once under
the span recorder of ``tracing.py`` and reports the per-layer metrics.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric with its unit.

The library is imported from ``src/`` of the checkout this script sits
in; without it the script exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"

WORKLOADS = ("certify", "refine", "cli", "unitary")
DEFAULT_SEED = 1
SETUPS = 7                  # set-ups per run; setup_s is their median
FLOAT_TOL = 1e-9            # pinned float readings (unitary) may move this much
PROCESS_REPEATS = 5         # fresh interpreters behind cli.interp_s / cli.import_s

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def per_layer_names() -> dict:
    """Every per-layer metric with its unit, in report order."""
    from tracing import TARGETS
    from workloads import REFINE_KERNELS, UNITARY_SWEEP, ladder

    out = {}
    for _, _, name in TARGETS:
        # one call per op, or one per payload, says nothing: self time only
        if not name.startswith(("unitary.", "cli.", "blocks.dim_", "blocks.nested_")):
            out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
    out.update({
        "pwcalc.eval.calls": "count",
        "pwcalc.compose_pl.out_breakpoints": "count",
        "pwcalc.max_den_bits": "bits",
        "patterns.distinct_eigen_frac": "ratio",
        "existence.verified_frac": "ratio",
    })
    for stem in REFINE_KERNELS:
        for n in ladder(stem, "full")[1:]:
            out[f"{stem}.n{n}_s"] = "s"
        out[f"{stem}.growth"] = "slope"
    out.update({
        "unitary.us_per_sample": "us", "unitary.samples_per_s": "1/s",
        **{f"unitary.n{m}.us_per_sample": "us" for m in UNITARY_SWEEP["full"]},
        "unitary.max_unitarity_defect": "norm", "unitary.phase_residual": "norm",
        "cli.interp_s": "s", "cli.import_s": "s", "cli.main_s": "s",
        "cli.stdout_bytes": "bytes", "cli.defect_fail_frac": "ratio",
        "fail_frac": "ratio",
        "trace.op_s": "s", "trace.other_s": "s", "trace.overhead_frac": "ratio",
    })
    return out


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def build_ops(workload, seed, size, workdir, in_process=False):
    """The workload's op list; for cli, payload files are written first."""
    import workloads

    if workload == "cli":
        import cli_mix
        entries = cli_mix.build_mix(seed, size)
        argvs = cli_mix.write_payloads(entries, workdir)
        return [cli_op(e, a, in_process) for e, a in zip(entries, argvs)]
    return {"certify": workloads.certify_ops, "refine": workloads.refine_ops,
            "unitary": workloads.unitary_ops}[workload](seed, size)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ctrace.cli", *argv], env=child_env(), cwd=ROOT,
        capture_output=True, timeout=150,
    )
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace")


def run_cli_in_process(argv):
    """ctrace.cli.main in this process; an uncaught exception exits 1 with
    a traceback, as the interpreter would."""
    import ctrace.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ctrace.cli.main(argv)
        except Exception:   # noqa: BLE001 - the op records it as a failure
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_op(entry, argv, in_process=False):
    import cli_mix
    from workloads import Op

    def run():
        return (run_cli_in_process if in_process else run_cli_process)(argv)

    def check(res):
        code, out, err = res
        if "Traceback" in err:
            return f"traceback (exit {code})"
        if code != entry.expect:
            return f"exit {code}, contract says {entry.expect}"
        if code == cli_mix.BAD_INPUT:
            return None if out == "" and err.strip() else "exit 2 needs empty stdout and a message"
        if out.count("\n") != 1 or not out.endswith("\n"):
            return "stdout is not exactly one line"
        try:
            json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return None

    def summary(res):
        code, out, _ = res
        if not entry.floats or code != 0:
            return {"exact": [code, out], "floats": []}
        parsed = json.loads(out)
        floats = cli_mix.float_readings(parsed)
        return {"exact": [code, cli_mix.strip_floats(parsed)],
                "floats": floats[:: max(1, len(floats) // 64)]}

    return Op(f"cli/{entry.id}", run, check, summary)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


REF_SECONDS = 0.002     # the reference loop in the fast spells of a 2-vCPU Xeon host


def reference_loop() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic.

    The host's speed swings up to twofold over spells of seconds to
    minutes (other guests on the same cores).  Timing this loop next to
    every op tracks the swing, and scaling the op by REF_SECONDS over it
    reports the op's time at one fixed host speed.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


SAMPLE_EVERY = 0.1      # seconds between reference loops inside an in-process op


class Tally:
    """Latencies, failures and pinned-digest comparison for one pass.

    ``lat`` holds each op's latency scaled to the reference host speed
    (see ``reference_loop``), ``raw`` the wall-clock latency.  With
    ``sample`` the reference loop also runs every SAMPLE_EVERY seconds
    inside an op, from a timer signal, so an op that outlasts a change of
    host speed is scaled by the speed it ran at; the loop's own time is
    taken out of the op's.
    """

    def __init__(self, pinned, sample=False):
        self.pinned = pinned
        self.sample = sample
        self.lat = {}            # op id -> [scaled seconds]
        self.raw = {}            # op id -> [wall seconds]
        self._probe = None       # the reference loop just before the next op
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.outputs = {}        # op id -> summary (first run only)

    def run(self, op, recorder=None):
        self.attempted += 1
        if self._probe is None:
            self._probe = reference_loop()
        if recorder is not None:
            recorder.begin_op(op.id)
        inside = []
        if self.sample:
            signal.signal(signal.SIGALRM, lambda *_: inside.append(reference_loop()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - an op that raises has failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
        dt = time.perf_counter() - t0 - sum(inside)
        if recorder is not None:
            dt = recorder.end_op()
        after = reference_loop()
        probes = [self._probe, *inside, after]
        self.raw.setdefault(op.id, []).append(dt)
        self.lat.setdefault(op.id, []).append(dt * REF_SECONDS * len(probes) / sum(probes))
        self._probe = after
        reason = error or op.check(out)
        if reason is None:
            summ = op.summary(out)
            self.outputs.setdefault(op.id, summ)
            reason = self.compare(op.id, summ)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op.id}: {reason}")
        return out

    def compare(self, op_id, summ):
        if self.pinned is None or op_id not in self.pinned:
            return None
        from workloads import digest
        want = self.pinned[op_id]
        if isinstance(want, str):
            want = {"digest": want, "floats": []}
        if digest(summ["exact"]) != want["digest"]:
            return "output differs from the pinned digest"
        if len(summ["floats"]) != len(want["floats"]) or any(
            abs(a - b) > FLOAT_TOL for a, b in zip(summ["floats"], want["floats"])
        ):
            return "float readings moved from the pinned values by more than 1e-9"
        return None

    def all_lat(self, raw=False):
        return [x for v in (self.raw if raw else self.lat).values() for x in v]


def run_rounds(ops, seconds, tally):
    """Closed loop, one client: pass over the op list in order, again and
    again while another whole pass still fits in ``seconds`` (at least
    one pass).  Op costs differ up to 100-fold, so only whole passes keep
    the mix the same in every run."""
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in ops:
            tally.run(op)
        took = time.perf_counter() - r0
        if time.perf_counter() - start + took > seconds:
            return


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 of ``count`` ops beyond
    it (p50 when there are fewer than 20)."""
    return max(50, (100 * (count - 10)) // count)


def quantile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile.

    A workload mixes op kinds whose costs differ in steps, and a plain
    order statistic jumps from one step to the next as noise reorders
    neighbours; this weighted mean of all order statistics (Beta weights
    centred on the rank) does not.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(lognorm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16      # Simpson's rule on each order statistic's share of [0, 1]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = pdf(lo) + pdf(lo + steps * h)
        total += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timed_process(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def setup_once(workload, seed, size, workdir):
    """One set-up: a fresh interpreter importing ctrace (in-process
    workloads), building the inputs, and one warm-up op."""
    before = reference_loop()
    t_import = 0.0
    if workload != "cli":
        t_import = timed_process([sys.executable, "-c", "import ctrace"])
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    ops = build_ops(workload, seed, size, workdir)
    warm = Tally(None)
    warm.run(ops[0])
    if warm.failed:
        raise RuntimeError(f"warm-up op failed: {warm.reasons}")
    took = t_import + time.perf_counter() - t0
    return ops, took, took * REF_SECONDS * 2 / (before + reference_loop())


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, workdir, pinned):
    import cli_mix  # noqa: F401 - imported before the timed set-ups, which repeat
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        ops, took, scaled = setup_once(args.workload, args.seed, args.size, workdir)
        setups.append(scaled)
        raw_setups.append(took)
    tally = Tally(pinned, sample=args.workload != "cli")
    gc.collect()
    gc.freeze()     # the inputs live all run; keep the collector off them
    run_rounds(ops, args.seconds, tally)
    # an op's latency is its median over the passes
    per_op = [statistics.median(v) for v in tally.lat.values()]
    raw = [statistics.median(v) for v in tally.raw.values()]
    pct = tail_percentile(len(per_op))
    if args.workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": quantile(per_op, 50) * 1e3,
        "op_tail_ms": quantile(per_op, pct) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    passes = tally.attempted // len(ops)
    notes = [
        f"{len(per_op)} ops x {passes} passes; op_tail_ms is p{pct} of the per-op "
        f"medians, {len(per_op) - math.ceil(pct / 100 * len(per_op))} ops beyond it; "
        "both percentiles are Harrell-Davis estimates",
        f"fail_frac {tally.failed}/{tally.attempted} ops",
        f"setup_s median of {SETUPS}: " + ", ".join(f"{s:.3f}" for s in setups),
        f"wall clock, unscaled: ops_per_s {len(raw) / sum(raw):.4g}, op_p50_ms "
        f"{quantile(raw, 50) * 1e3:.4g}, op_tail_ms {quantile(raw, pct) * 1e3:.4g}, "
        f"setup_s {statistics.median(raw_setups):.4g}; wall over scaled time "
        f"{sum(raw) / sum(per_op):.3f}",
    ]
    if args.workload == "cli":
        probe = run_defect(workdir, in_process=False)
        notes.append(f"known-defect payload (t = 1/0): {probe.failed} of 1 failed, "
                     f"share of the mix {probe.failed}/{len(ops) + 1}; " + "; ".join(probe.reasons))
    return tally, metrics, END_TO_END, notes


def run_defect(workdir, in_process):
    """Run the known-defect payload once, outside the timed mix."""
    import cli_mix
    entry = cli_mix.defect_entry()
    probe = Tally(None)
    probe.run(cli_op(entry, cli_mix.write_payloads([entry], workdir)[0], in_process))
    return probe


def output_bits(workload, summ) -> int:
    """Largest numerator or denominator bit length in an op's exact output."""
    from workloads import max_int_bits
    exact = summ["exact"]
    if workload == "cli":
        code, out = exact
        exact = json.loads(out) if isinstance(out, str) and out else out
    return max_int_bits(exact)


def growth(points):
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def traced(args, workdir):
    import tracing
    import workloads

    names = per_layer_names()
    metrics = {k: 0.0 for k in names}
    ops = build_ops(args.workload, args.seed, args.size, workdir, in_process=True)
    Tally(None).run(ops[0])     # warm-up

    # each op runs untraced, then traced, so drift on a shared machine
    # hits both sides of trace.overhead_frac alike
    plain, under = Tally(None), Tally(None)
    recorder = tracing.Recorder(extra_modules=("workloads", "cli_mix", "gen", "__main__"))
    for op in ops:
        plain.run(op)
        recorder.install()
        try:
            out = under.run(op, recorder)
        finally:
            recorder.uninstall()
        if out is None:
            continue
        metrics["pwcalc.max_den_bits"] = max(
            metrics["pwcalc.max_den_bits"], output_bits(args.workload, op.summary(out)))
        if args.workload == "cli":
            metrics["cli.stdout_bytes"] += len(out[1].encode())

    by_name, op_total = recorder.self_times()
    self_sum = sum(s for _, s in by_name.values())
    for name, (calls, self_s) in by_name.items():
        if name == tracing.ROOT:
            metrics["trace.other_s"] = self_s
            continue
        metrics[name + ".self_s"] = self_s
        if name + ".calls" in metrics:
            metrics[name + ".calls"] = calls
    counts = recorder.counts
    metrics["pwcalc.eval.calls"] = counts["pwcalc.eval.calls"]
    metrics["pwcalc.compose_pl.out_breakpoints"] = counts["pwcalc.compose_pl.out_breakpoints"]
    if counts["patterns.eigen_total"]:
        metrics["patterns.distinct_eigen_frac"] = (
            counts["patterns.eigen_distinct"] / counts["patterns.eigen_total"])
    perturbs = by_name.get("existence.perturb_pattern", (0, 0))[0]
    if perturbs:
        metrics["existence.verified_frac"] = counts["existence.verified"] / perturbs
    metrics["trace.op_s"] = op_total
    metrics["trace.overhead_frac"] = op_total / sum(plain.all_lat(raw=True)) - 1
    notes = [f"traced {under.attempted} ops; per-layer self times sum to the traced op time: "
             f"{self_sum:.6f} s vs {op_total:.6f} s"]
    reasons = []
    if abs(self_sum - op_total) > 1e-6 * op_total:
        reasons.append("span self times do not add up to the traced op time")

    # untraced extras: the largest rung of each refine ladder, the big unitary paths
    sweep = Tally(None)
    if args.workload == "refine":
        big = workloads.refine_ops(args.seed, args.size, rungs=[3])
        for op in big:
            sweep.run(op)
        lat = {op.id: plain.lat.get(op.id, sweep.lat.get(op.id, [0.0]))[0] for op in ops + big}
        for stem in workloads.REFINE_KERNELS:
            pts = [(op.n, lat[op.id]) for op in ops + big if op.kernel == stem]
            full = workloads.ladder(stem, "full")
            for rung, (_, t) in enumerate(pts):
                if rung:
                    metrics[f"{stem}.n{full[rung]}_s"] = t
            metrics[f"{stem}.growth"] = growth(pts)
    if args.workload == "unitary":
        samples = sum(op.samples for op in ops)
        metrics["unitary.us_per_sample"] = sum(plain.all_lat()) / samples * 1e6
        metrics["unitary.samples_per_s"] = samples / sum(plain.all_lat())
        big = workloads.unitary_sweep_ops(args.seed, args.size)
        for op, m in zip(big, workloads.UNITARY_SWEEP["full"]):
            sweep.run(op)
            metrics[f"unitary.n{m}.us_per_sample"] = sweep.lat[op.id][0] / op.samples * 1e6
        for tally in (plain, sweep):
            for summ in tally.outputs.values():
                for key, value in summ["accuracy"].items():
                    metrics["unitary." + key] = max(metrics["unitary." + key], value)
    if args.workload == "cli":
        metrics["cli.main_s"] = statistics.fmean(plain.all_lat())
        metrics["cli.interp_s"] = statistics.median(
            timed_process([sys.executable, "-c", "pass"]) for _ in range(PROCESS_REPEATS))
        metrics["cli.import_s"] = statistics.median(
            import_seconds() for _ in range(PROCESS_REPEATS))
        probe = run_defect(workdir, in_process=True)
        mix_size = len(ops) + 1
        metrics["cli.defect_fail_frac"] = probe.failed / mix_size
        notes.append(f"known-defect payload: {probe.failed} of 1 failed, base {mix_size} mix entries; "
                     + "; ".join(probe.reasons))

    total = Tally(None)
    for part in (plain, under, sweep):
        total.attempted += part.attempted
        total.failed += part.failed
        total.reasons += part.reasons
    total.reasons += reasons
    metrics["fail_frac"] = total.failed / total.attempted

    SPANS_OUT.mkdir(exist_ok=True)
    spans_file = SPANS_OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl.gz"
    recorder.write(spans_file)
    notes.append(f"{len(recorder.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return total, metrics, names, notes


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import ctrace.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          check=True, capture_output=True, timeout=120)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# pinning and entry point
# ---------------------------------------------------------------------------


def pin(args, workdir):
    """Run every op of the workload once and store its output digest."""
    from workloads import digest
    ops = build_ops(args.workload, args.seed, args.size, workdir)
    tally = Tally(None)
    for op in ops:
        tally.run(op)
    if tally.failed:
        raise SystemExit(f"not pinning: {tally.failed} ops failed: {tally.reasons}")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data["seed"], data["size"] = args.seed, args.size
    data[args.workload] = {
        op_id: {"digest": digest(s["exact"]), "floats": s["floats"]} if s["floats"] else digest(s["exact"])
        for op_id, s in tally.outputs.items()
    }
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(tally.outputs)} {args.workload} digests for seed {args.seed}")


def load_pinned(args):
    if not DIGESTS.exists():
        return None
    data = json.loads(DIGESTS.read_text())
    if data.get("seed") != args.seed or data.get("size") != args.size:
        return None
    return data.get(args.workload)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--pin", action="store_true",
                   help="store the output digests of this seed and size instead of measuring")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctrace" / "__init__.py").is_file():
        print(f"error: no ctrace sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # one core for this process and the ctrace processes it starts, so the
    # reference loop times the core the ops run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            pin(args, workdir)
            return 0
        if args.trace:
            tally, metrics, units, notes = traced(args, workdir)
        else:
            tally, metrics, units, notes = end_to_end(args, workdir, load_pinned(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"# ctrace benchmark: workload {args.workload}, seed {args.seed}, "
          f"size {args.size}, trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print("# " + note)
    for reason in tally.reasons:
        print("# FAILED " + reason)
    result = {
        "correct": tally.failed == 0 and not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
