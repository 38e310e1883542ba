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

The stages work on stacks of maps of one dimension (_Spectra): clustering and
projectors (_decompose), the refusals of a map without a logarithm
(_refusals), the principal log with its expm check (_principal_logs) and the
winding terms (_branch_shifts).  eigendecompose, principal_log and
branch_shifts are their one-member case.  A check that fails for a member of
a stack only marks it; decision runs such a member again alone, and for a
lone member the check raises its exception instead (_screen).  A member
with a real spectrum gets its eigenvector arithmetic in real numbers whatever
the stack (_own_arithmetic), so its results do not depend on the stack.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

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
    MarkovscopeError,
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
        return _Spectra.of(self).reconstruct()[0]

    def has_kind(self, kind: ClusterKind) -> bool:
        return any(c.kind is kind for c in self.clusters)


class _Spectra(NamedTuple):
    """The clustered spectra of n maps of one dimension, the form the
    stacked stages work on.  Member i lists its clusters in the order of
    SpectralData.clusters, in slots padded to one count s, and its pairs in
    the order of SpectralData.pairs, padded to one count p:

        entries         (n, k, k)     real forms, k = d^2
        values          (n, s)        cluster values, 1 in an empty slot
        projectors      (n, s, k, k)  projectors, 0 in an empty slot
        multiplicities  (n, s)        as floats, 0 in an empty slot
        zero, negative  (n, s)        ZERO and REAL_NEGATIVE clusters
        pairs           (n, p, 2)     slots (upper, lower) of each pair, -1 past the last

    A cluster in no pair that is neither zero nor negative is REAL_POSITIVE.
    """

    dimension: int
    entries: np.ndarray
    values: np.ndarray
    projectors: np.ndarray
    multiplicities: np.ndarray
    zero: np.ndarray
    negative: np.ndarray
    pairs: np.ndarray

    def take(self, keep: np.ndarray) -> "_Spectra":
        """The members selected by the boolean mask or index array keep."""
        if keep.dtype == bool and keep.all():
            return self
        return _Spectra(self.dimension, *(a[keep] for a in self[1:]))

    def member(self, i: int) -> SpectralData:
        pairs = tuple((int(u), int(l)) for u, l in self.pairs[i] if u >= 0)
        in_pair = {c for pair in pairs for c in pair}
        clusters = tuple(
            Cluster(value=complex(self.values[i, c]), multiplicity=int(self.multiplicities[i, c]),
                    projector=self.projectors[i, c],
                    kind=ClusterKind.COMPLEX_PAIR_MEMBER if c in in_pair
                    else ClusterKind.ZERO if self.zero[i, c]
                    else ClusterKind.REAL_NEGATIVE if self.negative[i, c]
                    else ClusterKind.REAL_POSITIVE)
            for c in np.flatnonzero(self.multiplicities[i]).tolist()
        )
        return SpectralData(self.dimension, clusters, pairs, self.entries[i])

    @classmethod
    def of(cls, S: SpectralData) -> "_Spectra":
        """The one-member stack of S."""
        c = S.clusters
        return cls(
            S.dimension,
            S.entries.real[None],
            np.array([[x.value for x in c]], dtype=complex),
            np.array([[x.projector for x in c]]),
            np.array([[x.multiplicity for x in c]]),
            np.array([[x.kind is ClusterKind.ZERO for x in c]]),
            np.array([[x.kind is ClusterKind.REAL_NEGATIVE for x in c]]),
            np.array(S.pairs, dtype=int).reshape(1, -1, 2),
        )

    def reconstruct(self) -> np.ndarray:
        """sum_k lambda_k P_k of every member, summed in cluster order."""
        return (self.values[..., None, None] * self.projectors).sum(axis=1)


def _screen(bad: np.ndarray, solo: bool, error) -> np.ndarray:
    """The members that pass a check, ~bad.  When the stack is one member
    run alone and it fails, the check raises error() instead: the one-member
    call gets the exception and the message of its check."""
    if solo and bad[0]:
        raise error()
    return ~bad


@lru_cache(maxsize=None)
def _earlier(k: int) -> np.ndarray:
    """[i, j] = i < j, for k eigenvalues."""
    return np.array([[i < j for j in range(k)] for i in range(k)])


def _own_arithmetic(f, real: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """f of the stacked arrays (eigenvector matrices and what is built from
    them), for a member with a real spectrum in real arithmetic, as eig
    gives it alone: a real SVD, inverse or product rounds unlike that of its
    complex copy, so the result does not depend on the stack."""
    out = f(*arrays)
    if arrays[0].dtype.kind == "c" and real.any():
        out[real] = f(*(a[real].real if a.dtype.kind == "c" else a[real] for a in arrays))
    return out


def _decompose(R: np.ndarray, solo: bool) -> tuple[_Spectra, np.ndarray]:
    """Cluster the spectra of the real forms R, shape (n, k, k), and build
    their projectors; returns the spectra and the mask of the members that
    pass every check (a failed member's spectrum is meaningless).

    Two eigenvalues are linked when their gap is at most CLUSTER_TOL times
    the larger modulus, and every eigenvalue at or below the rounding floor
    is linked to every other one; a cluster is a chain of links, labelled by
    its first index.  Its projector is V[:, idx] @ W[idx, :], computed as
    V diag(idx) W.  Clusters are ordered by decreasing modulus, then real
    part, then imaginary part of their mean, ties by label.
    """
    n, k = R.shape[:2]
    scale = np.maximum(1.0, np.linalg.svd(R, compute_uv=False)[:, 0])  # max(1, ||R||_2)
    vals, V = np.linalg.eig(R)
    real_spectrum = (vals.imag == 0).all(axis=1)
    cond = _own_arithmetic(np.linalg.cond, real_spectrum, V)
    ok = _screen(~(cond <= CONDITION_LIMIT), solo, lambda: DefectiveMatrix(
        f"eigenbasis condition number {cond[0]:.3e} exceeds {CONDITION_LIMIT:.1e}; "
        "the matrix is defective or too close to it"
    ))
    if not ok.all():
        V[~ok] = np.eye(k)  # a failed member must not stop the inverse of the others
    W = _own_arithmetic(np.linalg.inv, real_spectrum, V)
    floor = ZERO_SLACK * np.finfo(float).eps * cond * scale

    mod = np.abs(vals)
    tiny = mod <= floor[:, None]
    linked = np.abs(vals[:, :, None] - vals[:, None, :]) <= (
        CLUSTER_TOL * np.maximum(mod[:, :, None], mod[:, None, :]))
    linked |= tiny[:, :, None] & tiny[:, None, :]
    for _ in range((k - 1).bit_length()):  # paths of up to 2^j steps after j squarings
        linked = linked @ linked
    # row j of linked is now the cluster of index j, labelled by its first index
    label = linked.argmax(axis=2)
    used = ~(linked & _earlier(k)).any(axis=1)  # j is a label: no earlier index links to it
    count = np.where(linked, 1.0, 0.0).sum(axis=2)
    mean = _own_arithmetic(lambda v, l: np.where(l, v[:, None, :], 0).sum(axis=2),
                           real_spectrum, vals, linked) / count

    # from here on, slot c holds the cluster labelled order[c]
    rows = np.arange(n)[:, None]
    order = np.lexsort((-mean.imag, -mean.real, -np.abs(mean), ~used), axis=1)
    mean, used, count = mean[rows, order], used[rows, order], count[rows, order]
    member = linked[rows, order] & used[:, :, None]
    # eig lists each complex eigenvalue right before its conjugate, so a
    # cluster in the lower half plane is the conjugate of the cluster holding
    # the index before its label
    lower = used & ~(member & (vals.imag >= 0)[:, None, :]).any(axis=2)
    upper = used & ~(member & (vals.imag <= 0)[:, None, :]).any(axis=2)
    slot = np.empty_like(order)
    slot[rows, order] = np.arange(k)
    partner = slot[rows, label[rows, order - 1]]

    P = _own_arithmetic(lambda V, W, member: (V[:, None] * member[:, :, None, :]) @ W[:, None],
                        real_spectrum, V, W, member)
    resid = np.abs(P @ P - P).reshape(n, k, -1).max(axis=2)
    bad = resid > PROJECTOR_TOL * np.maximum(1.0, np.abs(P).reshape(n, k, -1).max(axis=2))
    ok &= _screen((bad & ~lower).any(axis=1), solo, lambda: DefectiveMatrix(
        "a cluster projector is not idempotent; eigenvalue clustering merged a defective block"
    ))

    zero = used & ~lower & (np.abs(mean) <= floor[:, None])
    pair = lower | upper & ~zero
    real = used & ~pair & ~zero  # its own conjugate
    P = np.where(real[:, :, None, None], P.real, P)
    P = np.where(lower[:, :, None, None], P[rows, partner].conj(), P)
    values = np.where(used, np.where(zero, 0.0, np.where(real, mean.real, mean)), 1.0 + 0j)
    lower_slots = np.argsort(~lower, axis=1, kind="stable")[:, :int(lower.sum(axis=1).max())]
    pairs = np.empty(lower_slots.shape + (2,), dtype=int)
    pairs[..., 0], pairs[..., 1] = partner[rows, lower_slots], lower_slots
    pairs[~lower[rows, lower_slots]] = -1

    S = _Spectra(
        dimension=int(round(math.sqrt(k))),
        entries=R,
        values=values,
        projectors=P,
        multiplicities=np.where(used, count, 0.0),
        zero=zero,
        negative=real & (values.real <= 0),
        pairs=pairs,
    )
    resid = np.abs(S.reconstruct() - R).reshape(n, -1).max(axis=1)
    ok &= _screen(resid > RECONSTRUCTION_TOL * scale, solo, lambda: DefectiveMatrix(
        f"spectral reconstruction residual {resid[0]:.3e} exceeds tolerance; "
        "clustering is unreliable for this matrix"
    ))
    return S, ok


def eigendecompose(T: ChannelMatrix) -> SpectralData:
    """Cluster the spectrum of T and build the spectral projectors: the
    one-member case of the stacked spectral stage.

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
    return _decompose(R[None], solo=True)[0].member(0)


def _refusals(S: _Spectra) -> dict[int, MarkovscopeError]:
    """The members of S that have no Hermiticity-preserving logarithm, each
    with the reason principal_log raises: SingularChannel for a zero
    eigenvalue, else NegativeRealEigenvalue for a negative real one."""
    zero = S.zero.any(axis=1)
    out = {}
    for i in np.flatnonzero(zero | S.negative.any(axis=1)).tolist():
        if zero[i]:
            out[i] = SingularChannel("zero eigenvalue: the map is singular and admits no logarithm")
        else:
            neg = S.values[i, S.negative[i]].real.min()
            out[i] = NegativeRealEigenvalue(
                f"negative real eigenvalue {neg:.6g}: no Hermiticity-preserving logarithm exists"
            )
    return out


def _principal_logs(S: _Spectra, solo: bool) -> tuple[np.ndarray, np.ndarray]:
    """L_0 = sum_k log(lambda_k) P_k of every member of S, none of them
    refused by _refusals, in matrix units, and the mask of the members
    whose expm(L_0) reproduces their real form."""
    L = (np.log(S.values)[..., None, None] * S.projectors).sum(axis=1).real
    resid = np.abs(expm(L) - S.entries).reshape(len(L), -1).max(axis=1)
    scale = np.maximum(1.0, np.abs(S.entries).reshape(len(L), -1).max(axis=1))
    ok = _screen(resid > RECONSTRUCTION_TOL * scale, solo, lambda: DefectiveMatrix(
        f"exp(log T) misses T by {resid[0]:.3e}; spectral data is unreliable"
    ))
    U = hermitian_transform(S.dimension)
    return U.conj().T @ L @ U, ok


def principal_log(S: SpectralData) -> GeneratorMatrix:
    """L_0 = sum_k log(lambda_k) P_k with the principal scalar logarithm:
    real in the basis of S, where expm(L_0) is checked against S.entries,
    and returned in matrix units.

    This is the one place that decides that no Hermiticity-preserving
    logarithm exists: a zero eigenvalue raises SingularChannel and a negative
    real one NegativeRealEigenvalue.
    """
    X = _Spectra.of(S)
    refused = _refusals(X)
    if refused:
        raise refused[0]
    L = _principal_logs(X, solo=True)[0][0]
    return GeneratorMatrix(L, OperatorBasis.matrix_units(S.dimension))


def _branch_shifts(S: _Spectra) -> np.ndarray:
    """-4 pi Im(P_c) of the upper member of each pair of every member of S,
    in matrix units: shape (n, p, k, k), zero past a member's last pair."""
    upper = S.pairs[..., 0]
    P = S.projectors.imag[np.arange(len(upper))[:, None], upper]
    P[upper < 0] = 0.0
    U = hermitian_transform(S.dimension)
    return U.conj().T @ (-4 * np.pi * P) @ U


def branch_shifts(S: SpectralData) -> np.ndarray:
    """The generator offsets of one winding of each pair, -4 pi Im(P_c) in
    the basis of S, as one (C, d^2, d^2) stack in pair order in matrix units."""
    return _branch_shifts(_Spectra.of(S))[0]


def branch_sum(base: np.ndarray, terms: np.ndarray, ms) -> np.ndarray:
    """base + sum_c m_c terms[..., c, :, :] for every row m of ms (integer
    winding numbers, one column per pair), as one stack of shape
    (..., len(ms), k, k) for a base of shape (..., k, k).

    The terms are added in pair order and a term with m_c = 0 is skipped
    (adding 0 * term can flip the sign of a zero), so a branch has the same
    value whichever stack it is summed in.
    """
    ms = np.asarray(ms)
    out = np.repeat(base[..., None, :, :], len(ms), axis=-3)
    for c in range(terms.shape[-3]):
        mc = ms[:, c, None, None]
        np.add(out, mc * terms[..., c, None, :, :], out=out, where=mc != 0)
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
