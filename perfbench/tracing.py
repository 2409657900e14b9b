"""Span recorder for the traced run.

It wraps each listed public function of ``ctrace`` in a recorder that
notes name, start, end, parent span and op id.  Modules bind names with
``from .pwcalc import ...``, so a wrapper is bound in every namespace
that holds the original (every ``ctrace`` module and the benchmark's own
modules) and on the classes for methods; otherwise calls made from one
layer into another would escape.  ``StepFunction.eval`` and
``PLFunction.eval`` get a counter instead of a span.

Spans stay in memory and are written out when the run ends.  Calls
made outside an op (the benchmark's own output checks) are neither
recorded nor counted.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import json
import sys
import time

# (module, attribute or Class.method, span name)
TARGETS = [
    ("ctrace.pwcalc", fn, f"pwcalc.{fn}") for fn in (
        "le_pointwise", "inf_difference", "weighted_sup_norm", "compose_pl",
        "compose_step_pl", "combine_steps", "linear_combine", "merged_points", "is_lsc",
    )
] + [("ctrace.pwcalc", "StepFunction.jumps", "pwcalc.jumps")] + [
    ("ctrace.blocks", fn, f"blocks.{fn}")
    for fn in ("validate_special", "dim_from_nested", "nested_from_dim")
] + [
    ("ctrace.patterns", fn, f"patterns.{fn}") for fn in (
        "apply_pattern", "push_dimension", "check_compat", "compute_gap",
        "density_check", "uniqueness_hypothesis_check", "verify_chain",
    )
] + [
    ("ctrace.existence", fn, f"existence.{fn}") for fn in (
        "make_underapprox", "squash_map", "perturb_pattern", "verify_certificate",
        "reproduce_counterexample",
    )
] + [
    ("ctrace.invariant", fn, "invariant") for fn in (
        "trace_norm_eval", "dimension_range_membership", "ai_criterion",
        "lsc_decompose", "classify_point",
    )
] + [
    ("ctrace.unitary", "patch_at_singularity", "unitary.patch_at_singularity"),
    ("ctrace.unitary", "validate_unitary_path", "unitary.validate_unitary_path"),
    ("ctrace.unitary", "IsometryPath.check_structure", "unitary.IsometryPath.check_structure"),
    ("ctrace.unitary", "IsometryPath.from_json", "unitary.IsometryPath.from_json"),
    ("ctrace.cli", "main", "cli.main"),
]
COUNTED = [("ctrace.pwcalc", "StepFunction.eval"), ("ctrace.pwcalc", "PLFunction.eval")]
ROOT = "op"


class Recorder:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self, extra_modules=()):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = collections.Counter()
        self._extra = tuple(extra_modules)
        self._undo = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> float:
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        return self.spans[idx][2] - self.spans[idx][1]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.stack:
                return fn(*args, **kwargs)
            spans = rec.spans
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, rec.stack[-1], rec.op])
            rec.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                rec.stack.pop()
            if observe is not None:
                observe(rec.counts, args, out)
            return out
        return wrapper

    def _counter(self, key, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.stack:
                rec.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _namespaces(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "ctrace" or n.startswith("ctrace."))]
        return mods + [sys.modules[n] for n in self._extra if n in sys.modules]

    def _rebind(self, owner_mod, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner_mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, raw))
            return
        orig = getattr(owner_mod, attr)
        new = make(orig)
        for mod in self._namespaces():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)
                self._undo.append((mod, attr, orig))

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            observe = OBSERVERS.get(name)
            self._rebind(importlib.import_module(mod_name), attr,
                         lambda fn, name=name, observe=observe: self._span(name, fn, observe))
        for mod_name, attr in COUNTED:
            self._rebind(importlib.import_module(mod_name), attr,
                         lambda fn: self._counter("pwcalc.eval.calls", fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple:
        """({span name: (calls, self seconds)}, total op seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        self_s = collections.Counter()
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
            if parent < 0:
                total += end - start
        return {k: (calls[k], self_s[k]) for k in calls}, total

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _patterns_seen(counts, args, out):
    eigs = args[0].eigenfunctions
    counts["patterns.eigen_total"] += len(eigs)
    counts["patterns.eigen_distinct"] += len(set(eigs))


def _compose_out(counts, args, out):
    counts["pwcalc.compose_pl.out_breakpoints"] += len(out.breakpoints)


def _verified(counts, args, out):
    counts["existence.verified"] += bool(out.ok)


OBSERVERS = {
    "patterns.apply_pattern": _patterns_seen,
    "patterns.push_dimension": _patterns_seen,
    "pwcalc.compose_pl": _compose_out,
    "existence.verify_certificate": _verified,
}
