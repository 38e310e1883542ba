"""Fixed linear-algebra furniture: Pauli and Gell-Mann bases, the flip operator,
the maximally entangled vector, and the isometry onto its orthocomplement.

Vectorization is row-major throughout: vec(rho)[i*d + j] = rho[i, j], so the
matrix-unit basis element at position i*d + j is |i><j|.  The Hermitian
basis of hermitian_transform carries the one Hermiticity test: a map
preserves Hermiticity exactly when its matrix in that basis is real, in
whichever basis it was given.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d)


@lru_cache(maxsize=None)
def flip_operator(d: int) -> np.ndarray:
    """Swap on the doubled space: F |a,b> = |b,a>.  As a matrix-unit
    transfer matrix it is the transpose map."""
    F = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            F[b * d + a, a * d + b] = 1.0
    F.setflags(write=False)
    return F


@lru_cache(maxsize=None)
def omega_vector(d: int) -> np.ndarray:
    """Unnormalized |Omega> = sum_i |i,i>; the unit vector is this over sqrt(d)."""
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0
    v.setflags(write=False)
    return v


@lru_cache(maxsize=None)
def hermitian_transform(d: int) -> np.ndarray:
    """Unitary U with T_herm = U T_mu U^dag, in which a map preserves
    Hermiticity exactly when its matrix is real.  Row alpha is the conjugated,
    vectorized, normalized element of a Hermitian basis: the identity, then
    for each j < k the Gell-Mann matrices |j><k| + |k><j| and -i|j><k| +
    i|k><j|, then sum_{j<l} |j><j| - l |l><l|.  At d = 2: the Paulis."""
    elements = [np.eye(d, dtype=complex)]
    for j, k in itertools.combinations(range(d), 2):
        for a, b in ((1, 1), (-1j, 1j)):
            G = np.zeros((d, d), dtype=complex)
            G[j, k], G[k, j] = a, b
            elements.append(G)
    for l in range(1, d):
        elements.append(np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1)).astype(complex))
    U = np.array([(G / np.sqrt(np.vdot(G, G).real)).conj().reshape(-1) for G in elements])
    U.setflags(write=False)
    return U


@lru_cache(maxsize=None)
def perp_isometry(d: int) -> np.ndarray:
    """Isometry V with orthonormal columns spanning the orthocomplement of the
    maximally entangled unit vector.

    Built from the Householder reflection sending e_0 to |Omega>/sqrt(d); the
    remaining columns of the reflection are then an orthonormal basis of the
    complement.  Every column is the vectorization of a traceless matrix (its
    overlap with Omega vanishes), which is what makes this basis double as the
    jump-operator basis for Lindblad forms.  For d = 2 the columns are
    |0><1|, |1><0| and sigma_z/sqrt(2).
    """
    n = d * d
    w = omega_vector(d) / np.sqrt(d)
    h = np.eye(n)[:, 0] - w
    H = np.eye(n) - 2.0 * np.outer(h, h) / (h @ h)
    V = H[:, 1:].copy()
    V.setflags(write=False)
    return V


@lru_cache(maxsize=None)
def jump_basis(d: int) -> tuple[np.ndarray, ...]:
    """Traceless, unit-Hilbert-Schmidt-norm operators F_1 .. F_{d^2-1}obtained
    by unvectorizing the columns of perp_isometry(d)."""
    V = perp_isometry(d)
    ops = []
    for k in range(d * d - 1):
        op = unvec(V[:, k]).astype(complex)
        op.setflags(write=False)
        ops.append(op)
    return tuple(ops)


def readonly(M) -> np.ndarray:
    """A read-only, C-ordered complex copy of M, for the frozen records."""
    M = np.array(M, dtype=complex, order="C")
    M.setflags(write=False)
    return M


def sup_norm(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0
