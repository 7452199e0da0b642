"""Bounds and self-testing numerics for the Cabello nonlocality argument.

Modules in dependency order: scenario (behaviors, the local polytope
and its LP), qubit (the constrained two-qubit family and its
closed-form score), npa (moment-matrix upper bounds), optimize (the
BFGS minimizer, multistart searches and the epsilon sweep),
selftest (direct sums and the extraction isometry), cli.
"""

__version__ = "0.1.0"
