"""Bounds and self-testing numerics for the Cabello nonlocality argument.

Subpackages are organized in dependency order: mathcore (linear algebra,
LP, gradient-based SLSQP minimizer), scenario (behaviors and the local
polytope), qubit (the constrained two-qubit family and its closed-form
score), optimize (seeded multistart searches and the epsilon sweep), npa
(moment-matrix upper bounds), selftest (block decomposition and the
extraction isometry), cli.
"""

__version__ = "0.1.0"
