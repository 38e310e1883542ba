"""Eigenstructure of transfer matrices and the logarithm branches compatible
with Hermiticity preservation.

A Hermiticity-preserving map is a real matrix R in a Hermitian operator
basis (channels.real_form), so its spectrum is closed under complex
conjugation, exactly so in a real eig.  In that basis, after clustering
numerically coincident eigenvalues, each cluster carries a spectral
projector P = V_k W_k (right-eigenvector block times the matching rows of
the inverse), and the cluster of the conjugate value carries conj(P).  The
real, that is Hermiticity-preserving, logarithms of the map form a discrete
family indexed by one integer per complex-conjugate eigenvalue pair,

    L_m = L_0 + 2 pi i sum_c m_c (P_c - conj(P_c)) = L_0 - 4 pi sum_c m_c Im(P_c),

with L_0 the principal branch; they are returned in matrix units.  A
singular map admits no logarithm, and neither does a negative real
eigenvalue of odd multiplicity.  Every negative real cluster is rejected
here: at even multiplicity real logarithms can exist (Culver 1966) but form
a continuous family that is not yet searched.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import expm

from .bases import hermitian_transform, readonly, sup_norm
from .channels import ChannelMatrix, OperatorBasis, change_basis, real_form, trace_violation
from .config import (
    CLUSTER_TOL,
    CONDITION_LIMIT,
    PROJECTOR_TOL,
    RECONSTRUCTION_TOL,
    ZERO_SLACK,
    check_tolerance,
)
from .errors import (
    BranchLengthMismatch,
    DefectiveMatrix,
    NegativeRealEigenvalue,
    RangeError,
    SingularChannel,
)
from .lindblad import GeneratorMatrix


class ClusterKind(Enum):
    REAL_POSITIVE = "real_positive"
    REAL_NEGATIVE = "real_negative"
    ZERO = "zero"
    COMPLEX_PAIR_MEMBER = "complex_pair_member"


@dataclass(frozen=True)
class Cluster:
    value: complex
    multiplicity: int
    projector: np.ndarray
    kind: ClusterKind

    def __post_init__(self):
        object.__setattr__(self, "projector", readonly(self.projector))


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigenvalues and projectors of a transfer matrix.

    entries and every projector are in the Hermitian basis of
    bases.hermitian_transform(dimension): entries is the real matrix
    channels.real_form of the map.  pairs holds index tuples (c_plus,
    c_minus) into clusters, one per complex-conjugate pair, with c_plus the
    member in the upper half plane.
    """

    dimension: int
    clusters: tuple[Cluster, ...]
    pairs: tuple[tuple[int, int], ...]
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", readonly(self.entries))

    @property
    def num_complex_pairs(self) -> int:
        return len(self.pairs)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.entries)
        for c in self.clusters:
            out = out + c.value * c.projector
        return out

    def has_kind(self, kind: ClusterKind) -> bool:
        return any(c.kind is kind for c in self.clusters)


def _cluster_indices(vals: np.ndarray, floor: float) -> list[tuple[complex, np.ndarray]]:
    """Groups of eigenvalues joined by chains of links, as (mean, indices)
    pairs: indices ascending, groups by decreasing modulus, then real part,
    then imaginary part of the mean.  Two eigenvalues are linked when their
    gap is at most CLUSTER_TOL times the larger modulus, and every
    eigenvalue at or below floor is linked to every other one."""
    mod = np.abs(vals)
    tiny = mod <= floor
    linked = np.abs(vals[:, None] - vals[None, :]) <= CLUSTER_TOL * np.maximum.outer(mod, mod)
    linked |= np.outer(tiny, tiny)
    for _ in range(vals.size.bit_length()):  # paths of up to 2^k steps after k squarings
        linked = linked @ linked
    groups = {row.tobytes(): np.flatnonzero(row) for row in linked}  # first-seen order
    means = [(vals[g].mean(), g) for g in groups.values()]
    return sorted(means, key=lambda mg: (-abs(mg[0]), -mg[0].real, -mg[0].imag))


def eigendecompose(T: ChannelMatrix) -> SpectralData:
    """Cluster the spectrum of T and build the spectral projectors.

    The matrix decomposed is R = channels.real_form(T), behind its
    Hermiticity gate.  The real eig of R lists each complex eigenvalue and
    eigenvector right before its exact conjugate, so the clusters
    (eigenvalues closer than CLUSTER_TOL times their modulus merged) are
    closed under conjugation.  A cluster is real exactly when it is its own
    conjugate, and its projector is the real part of V_k W_k.  A cluster in
    the lower half plane is the conjugate of an upper one listed before it,
    and its projector is the conjugate of that one's, so every later branch
    construction is real, that is Hermiticity-preserving.

    Every eigenvalue at or below the rounding floor ZERO_SLACK eps cond(V)
    scale, with scale = max(1, ||R||_2), joins the one ZERO cluster; every
    other eigenvalue is resolved, however small.
    """
    R = real_form(T, "spectral analysis needs a Hermiticity-preserving map")
    scale = max(1.0, float(np.linalg.norm(R, 2)))

    vals, V = np.linalg.eig(R)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DefectiveMatrix(
            f"eigenbasis condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}; "
            "the matrix is defective or too close to it"
        )
    W = np.linalg.inv(V)
    floor = ZERO_SLACK * np.finfo(float).eps * cond * scale

    clusters, pairs, owner = [], [], {}  # owner: eigenvalue index -> its cluster
    for value, idx in _cluster_indices(vals, floor):
        owner.update(dict.fromkeys(idx.tolist(), len(clusters)))
        if (vals[idx].imag < 0).all():
            upper = owner[idx[0] - 1]  # eig lists each conjugate right after its upper member
            pairs.append((upper, len(clusters)))
            P = clusters[upper].projector.conj()
            clusters.append(replace(clusters[upper], value=value, projector=P))
            continue
        P = V[:, idx] @ W[idx, :]
        if sup_norm(P @ P - P) > PROJECTOR_TOL * max(1.0, sup_norm(P)):
            raise DefectiveMatrix(
                "a cluster projector is not idempotent; eigenvalue clustering "
                "merged a defective block"
            )
        if abs(value) <= floor:
            kind = ClusterKind.ZERO
            value = 0.0 + 0.0j
        elif (vals[idx].imag > 0).all():
            kind = ClusterKind.COMPLEX_PAIR_MEMBER
        else:  # its own conjugate
            P = P.real
            value = complex(value.real)
            kind = ClusterKind.REAL_POSITIVE if value.real > 0 else ClusterKind.REAL_NEGATIVE
        clusters.append(Cluster(value=value, multiplicity=len(idx), projector=P, kind=kind))

    data = SpectralData(dimension=T.d, clusters=tuple(clusters), pairs=tuple(pairs), entries=R)
    resid = sup_norm(data.reconstruct() - R)
    if resid > RECONSTRUCTION_TOL * scale:
        raise DefectiveMatrix(
            f"spectral reconstruction residual {resid:.3e} exceeds tolerance; "
            "clustering is unreliable for this matrix"
        )
    return data


def principal_log(S: SpectralData) -> GeneratorMatrix:
    """L_0 = sum_k log(lambda_k) P_k with the principal scalar logarithm:
    real in the basis of S, where expm(L_0) is checked against S.entries,
    and returned in matrix units.

    This is the one place that decides that no Hermiticity-preserving
    logarithm exists: a zero eigenvalue raises SingularChannel and a negative
    real one NegativeRealEigenvalue.
    """
    if S.has_kind(ClusterKind.ZERO):
        raise SingularChannel("zero eigenvalue: the map is singular and admits no logarithm")
    if S.has_kind(ClusterKind.REAL_NEGATIVE):
        neg = min(c.value.real for c in S.clusters if c.kind is ClusterKind.REAL_NEGATIVE)
        raise NegativeRealEigenvalue(
            f"negative real eigenvalue {neg:.6g}: no Hermiticity-preserving logarithm exists"
        )
    L = sum(np.log(c.value) * c.projector for c in S.clusters).real
    resid = sup_norm(expm(L) - S.entries)
    scale = max(1.0, sup_norm(S.entries))
    if resid > RECONSTRUCTION_TOL * scale:
        raise DefectiveMatrix(
            f"exp(log T) misses T by {resid:.3e}; spectral data is unreliable"
        )
    U = hermitian_transform(S.dimension)
    return GeneratorMatrix(U.conj().T @ L @ U, OperatorBasis.matrix_units(S.dimension))


def branch_shifts(S: SpectralData) -> np.ndarray:
    """The generator offsets of one winding of each pair, -4 pi Im(P_c) in
    the basis of S, as one (C, d^2, d^2) stack in pair order in matrix units."""
    n, U = S.dimension * S.dimension, hermitian_transform(S.dimension)
    P = np.array([S.clusters[cp].projector.imag for cp, _ in S.pairs]).reshape(-1, n, n)
    return U.conj().T @ (-4 * np.pi * P) @ U


def branch_sum(base: np.ndarray, terms: np.ndarray, ms) -> np.ndarray:
    """base + sum_c m_c terms[c] for every row m of ms (integer winding
    numbers, one column per pair), as one stack of shape (len(ms), *base.shape).

    The terms are added in pair order and a term with m_c = 0 is skipped
    (adding 0 * term can flip the sign of a zero), so a branch has the same
    value whichever stack it is summed in.
    """
    ms = np.asarray(ms)
    out = np.repeat(base[None], len(ms), axis=0)
    for c, term in enumerate(terms):
        mc = ms[:, c, None, None]
        np.add(out, mc * term, out=out, where=mc != 0)
    return out


def branch_log(S: SpectralData, m: tuple[int, ...]) -> GeneratorMatrix:
    """The branch of log T with winding numbers m, one per complex pair."""
    try:
        m = tuple(int(x) for x in m)
    except (TypeError, ValueError) as exc:
        raise RangeError(f"branch index must be a sequence of integers, got {m!r}") from exc
    if len(m) != S.num_complex_pairs:
        raise BranchLengthMismatch(
            f"branch index has length {len(m)} but the spectrum has "
            f"{S.num_complex_pairs} complex pairs"
        )
    try:  # as floats, a winding beyond the int64 range still sums (to a huge L)
        ms = np.array([m], dtype=float)
    except OverflowError as exc:
        raise RangeError("a winding number is beyond the float range") from exc
    L = branch_sum(principal_log(S).entries, branch_shifts(S), ms)[0]
    return GeneratorMatrix(L, OperatorBasis.matrix_units(S.dimension))


def fractional_power(
    T: ChannelMatrix,
    s: float,
    m: tuple[int, ...] | None = None,
) -> ChannelMatrix:
    """T^s = exp(s L_m) on a chosen logarithm branch (principal by default).

    On a fixed branch this is a semigroup in s, interpolating the snapshot
    into a continuous family.  A non-finite s, or one for which s L or
    exp(s L) overflows, raises RangeError, and so does an s for which
    exp(s L) misses trace preservation by more than config.check_tolerance
    of its largest entry (the rounding of expm grows with |s| ||L||).
    """
    if not math.isfinite(s):
        raise RangeError(f"exponent must be finite, got {s}")
    if s < 0:
        warnings.warn(
            "negative power inverts the map; the result is generally not a channel",
            RuntimeWarning,
            stacklevel=2,
        )
    S = eigendecompose(T)
    L = branch_log(S, (0,) * S.num_complex_pairs if m is None else m)
    with np.errstate(over="ignore", invalid="ignore"):
        sL = s * L.entries
        E = expm(sL) if np.isfinite(sL).all() else sL
    if not np.isfinite(E).all():
        raise RangeError(f"exponent {s} overflows: exp(s L) is not finite")
    viol = trace_violation(E)
    if viol > check_tolerance(sup_norm(E)):
        raise RangeError(
            f"exponent {s}: exp(s L) misses trace preservation by {viol:.3e}, "
            "beyond the check tolerance"
        )
    out = ChannelMatrix(E, OperatorBasis.matrix_units(S.dimension))
    return change_basis(out, T.basis)
