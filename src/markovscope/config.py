"""Numerical thresholds.

Every threshold the package compares against is a constant of this module;
they are fixed bounds, not options.  The one setting is the environment
variable MARKOVSCOPE_TOL: when set, it replaces CHECK_TOL, the base
tolerance of the hermiticity, trace-preservation and positivity checks that
validate a channel, a generator or a state (for example a noisy process
tomography estimate).  It is read on every call, so the CLI and the library
pick it up alike; it must be a finite positive number.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ParseError

# base tolerance for hermiticity / trace-preservation / positivity checks,
# applied relative to the sup norm of the matrix under test
CHECK_TOL = 1e-9
# eigenvalue clustering threshold: two eigenvalues closer than this times
# the larger of their moduli are one cluster
CLUSTER_TOL = 1e-8
# projector idempotency
PROJECTOR_TOL = 1e-8
# exp(log T) and spectral reconstruction bound, relative
RECONSTRUCTION_TOL = 1e-7
# "Markovian" decision margin, scaled by (1 + ||A0||)
MARKOV_TOL = 1e-7
# imaginary residue allowed on the Lorentz spectrum of T g T' g
LORENTZ_IMAG_TOL = 1e-7
# condition-number limit on the eigenvector matrix before a spectrum is
# declared defective
CONDITION_LIMIT = 1e8
# anti-Hermitian residual allowed on a compressed Choi-type matrix, relative
COMPRESSION_RESIDUAL_TOL = 1e-8
# standard-form rebuild residual allowed by lindblad_decompose, relative
REBUILD_RESIDUAL_TOL = 1e-8
# slack on kappa + kappa^dag = phi*(1), in units of the check tolerance
KAPPA_SLACK = 1e3
# slack of a branch-search cut, in units of eps * n * (1 + ||A_0||_F +
# m_max sum_c ||A_c||_F): covers the rounding of eigvalsh, of the sum A(m)
# and of the cut itself
CUT_SLACK = 64
# rounding floor of the zero test, in units of eps * cond(V) * max(1, ||T||_2)
ZERO_SLACK = 64
# jump rates at or below this are dropped from a jump decomposition
JUMP_RATE_CUTOFF = 1e-12


def check_tolerance(norm):
    """The base check tolerance (MARKOVSCOPE_TOL if set, else CHECK_TOL)
    scaled to a matrix of the given sup norm, or elementwise to an array of
    sup norms."""
    env = os.environ.get("MARKOVSCOPE_TOL")
    try:
        base = CHECK_TOL if env is None else float(env)
    except ValueError:
        base = 0.0
    if not 0.0 < base < float("inf"):  # also rejects nan
        raise ParseError(f"MARKOVSCOPE_TOL must be a finite positive number, got {env!r}")
    return base * (np.maximum(1.0, norm) if isinstance(norm, np.ndarray) else max(1.0, norm))
