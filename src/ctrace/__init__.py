"""Exact interval-function calculus with eigenvalue-pattern machinery.

The exact modules (everything except :mod:`ctrace.unitary`) work over
arbitrary-precision rationals with no floating point: step and
piecewise-linear functions on [0,1], dimension-function building
blocks, eigenvalue-pattern maps and their compatibility / density /
gap / chain checks, constraint-preserving perturbation with
machine-checkable certificates, and finite invariant-range models.
:mod:`ctrace.unitary` is deliberately numerical: it patches sampled
paths of 2x2 partial isometries across a rank jump.

Each public name is imported from the module that defines it, for
example ``from ctrace.pwcalc import StepFunction``; only importers of
:mod:`ctrace.unitary` load numpy.
"""

__version__ = "0.1.0"
