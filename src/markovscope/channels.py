"""Representations of quantum maps and the operations connecting them.

A map T acting on d x d matrices is stored as the d^2 x d^2 matrix T-hat with
T(rho) = unvec(T-hat vec(rho)).  Vectorization is row-major, so for d = 2

    vec(rho) = (rho_00, rho_01, rho_10, rho_11)

and the matrix-unit basis is ordered |0><0|, |0><1|, |1><0|, |1><1|.  Worked
example: the Kraus channel {sigma_x} sends rho_ij to rho_{1-i,1-j}, so its
transfer matrix is the permutation

        00 01 10 11
    00 [ .  .  .  1 ]
    01 [ .  .  1  . ]
    10 [ .  1  .  . ]
    11 [ 1  .  .  . ]

which is exactly sigma_x (x) conj(sigma_x).

The Gamma involution swaps the inner index pair, <i,j|M^Gamma|k,l> =
<i,k|M|j,l>.  The Choi matrix used here is T-hat^Gamma = d (T (x) id)(omega)
with omega the maximally entangled state; note the factor d, which some
conventions drop.  For a trace-preserving map the partial trace of the Choi
matrix over the first tensor factor is the identity, and complete positivity
is positive semidefiniteness of the Choi matrix.

Hermiticity preservation is one test in every basis: the map's matrix in
the Hermitian basis of U = hermitian_transform(d) (T_herm = U T_mu U^dag; at
d = 2 the normalized Pauli basis {1, sigma_x, sigma_y, sigma_z}/sqrt(2)) must
be real.  hermitian_basis_matrix(T) is that matrix, hermiticity_violation its
largest imaginary entry, and real_form(T) its real part, behind the one
Hermiticity gate.  (In matrix units the same condition reads F T-hat F =
conj(T-hat), with F the flip permutation F|a,b> = |b,a>.)  Entries must be
finite (RangeError otherwise).

A ChannelStack holds n maps of one dimension as one (n, d^2, d^2) array, for
the stacked decision stages.  It computes its Hermitian-basis matrices once;
verify_channel, real_form and trace_violation take a stack as well as one
map, and give one value per member.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .bases import hermitian_transform, omega_vector, readonly, sup_norm, unvec, vec
from .config import check_tolerance
from .errors import (
    DimensionMismatch,
    InvalidForm,
    NotAChannel,
    NotASquareOfSquare,
    NotHermiticityPreserving,
    RangeError,
    UnsupportedBasis,
)


class BasisTag(Enum):
    MATRIX_UNITS = "matrix_units"
    PAULI_NORMALIZED = "pauli"


@dataclass(frozen=True)
class OperatorBasis:
    """An orthonormal operator basis labelling the rows and columns of a
    transfer matrix."""

    tag: BasisTag
    dimension: int

    def __post_init__(self):
        if self.dimension < 2:
            raise DimensionMismatch(f"dimension must be at least 2, got {self.dimension}")
        if self.tag is BasisTag.PAULI_NORMALIZED and self.dimension != 2:
            raise UnsupportedBasis("the normalized Pauli basis exists only for d = 2")

    @classmethod
    def matrix_units(cls, d: int) -> "OperatorBasis":
        return cls(BasisTag.MATRIX_UNITS, d)

    @classmethod
    def pauli(cls) -> "OperatorBasis":
        return cls(BasisTag.PAULI_NORMALIZED, 2)

    def elements(self) -> tuple[np.ndarray, ...]:
        """The basis operators in order, as d x d arrays."""
        d = self.dimension
        if self.tag is BasisTag.MATRIX_UNITS:
            out = []
            for i in range(d):
                for j in range(d):
                    E = np.zeros((d, d), dtype=complex)
                    E[i, j] = 1.0
                    out.append(E)
            return tuple(out)
        return tuple(row.conj().reshape(d, d) for row in hermitian_transform(d))


def _square_side(M: np.ndarray) -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise NotASquareOfSquare(f"matrix side {n} is not a perfect square")
    return d


@dataclass(frozen=True)
class ChannelMatrix:
    """A linear map on d x d matrices, stored in a declared operator basis."""

    entries: np.ndarray
    basis: OperatorBasis

    def __post_init__(self):
        M = readonly(self.entries)
        if not np.isfinite(M).all():
            raise RangeError("a map must have finite entries")
        if _square_side(M) != self.basis.dimension:
            raise DimensionMismatch(
                f"matrix is {M.shape[0]}x{M.shape[0]} but basis has d = {self.basis.dimension}"
            )
        object.__setattr__(self, "entries", M)

    @property
    def d(self) -> int:
        return self.basis.dimension


@dataclass(frozen=True)
class ChannelStack:
    """n >= 1 maps of one dimension stacked as one (n, d^2, d^2) array in
    one operator basis.  hermitian is hermitian_basis_matrix of the stack,
    computed once at construction and shared by every stage that needs it:
    validation, the spectral stage and the Lorentz values."""

    entries: np.ndarray
    basis: OperatorBasis
    hermitian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = readonly(self.entries)
        if M.ndim != 3 or not len(M):
            raise DimensionMismatch(f"a stack has shape (n >= 1, d^2, d^2), got {M.shape}")
        if not np.isfinite(M).all():
            raise RangeError("a map must have finite entries")
        if _square_side(M[0]) != self.basis.dimension:
            raise DimensionMismatch(
                f"matrices are {M.shape[1]}x{M.shape[1]} but basis has d = {self.basis.dimension}"
            )
        object.__setattr__(self, "entries", M)
        H = hermitian_basis_matrix(self)
        H.flags.writeable = False
        object.__setattr__(self, "hermitian", H)

    @classmethod
    def of(cls, T: ChannelMatrix) -> "ChannelStack":
        """The stack whose one member is T."""
        return cls(T.entries[None], T.basis)

    @property
    def d(self) -> int:
        return self.basis.dimension

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: slice) -> "ChannelStack":
        """The members in the slice key, sharing these Hermitian-basis
        matrices."""
        part = copy.copy(self)
        object.__setattr__(part, "entries", self.entries[key])
        object.__setattr__(part, "hermitian", self.hermitian[key])
        return part


@dataclass(frozen=True)
class ChoiMatrix:
    entries: np.ndarray
    dimension: int

    def __post_init__(self):
        M = readonly(self.entries)
        if not np.isfinite(M).all():
            raise RangeError("a Choi matrix must have finite entries")
        if _square_side(M) != self.dimension:
            raise DimensionMismatch("Choi matrix size does not match the declared dimension")
        object.__setattr__(self, "entries", M)


@dataclass(frozen=True)
class KrausSet:
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(readonly(K) for K in self.operators)
        if not ops:
            raise InvalidForm("a Kraus set needs at least one operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for K in ops:
            if K.ndim != 2 or K.shape != (d, d):
                raise DimensionMismatch("Kraus operators must all be square with equal size")
            if not np.isfinite(K).all():
                raise RangeError("Kraus operators must have finite entries")
        if len(ops) > d * d:
            raise InvalidForm(f"at most d^2 = {d * d} Kraus operators are meaningful, got {len(ops)}")
        object.__setattr__(self, "operators", ops)

    @property
    def d(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    rho: np.ndarray

    def __post_init__(self):
        r = readonly(self.rho)
        if not np.isfinite(r).all():
            raise RangeError("a state must have finite entries")
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionMismatch(f"a state must be square, got shape {r.shape}")
        eps = check_tolerance(sup_norm(r))
        if sup_norm(r - r.conj().T) > eps:
            raise InvalidForm("state is not Hermitian")
        if abs(np.trace(r).real - 1.0) > eps or abs(np.trace(r).imag) > eps:
            raise InvalidForm("state trace is not 1")
        if np.linalg.eigvalsh((r + r.conj().T) / 2).min() < -eps:
            raise InvalidForm("state has a negative eigenvalue")
        object.__setattr__(self, "rho", r)

    @property
    def d(self) -> int:
        return self.rho.shape[0]


def transfer_from_kraus(kraus: KrausSet | Sequence[np.ndarray]) -> ChannelMatrix:
    """Build the matrix-unit-basis transfer matrix sum_a K_a (x) conj(K_a)."""
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(tuple(kraus))
    d = kraus.d
    T = np.zeros((d * d, d * d), dtype=complex)
    for K in kraus.operators:
        T += np.kron(K, K.conj())
    return ChannelMatrix(T, OperatorBasis.matrix_units(d))


def involution_gamma(M: np.ndarray) -> np.ndarray:
    """The index swap <i,j|M^Gamma|k,l> = <i,k|M|j,l>; an exact involution.
    It acts on the last two axes, so M may be a stack of matrices."""
    M = np.asarray(M)
    d = _square_side(M[(0,) * (M.ndim - 2)])  # the first matrix of a stack
    return M.reshape(*M.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(M.shape)


def as_matrix_units(T: ChannelMatrix) -> ChannelMatrix:
    if T.basis.tag is BasisTag.MATRIX_UNITS:
        return T
    return change_basis(T, OperatorBasis.matrix_units(T.d))


def choi_of(T: ChannelMatrix) -> ChoiMatrix:
    """Choi matrix T-hat^Gamma = d (T (x) id)(omega); trace d when T is TP."""
    T = as_matrix_units(T)
    return ChoiMatrix(involution_gamma(T.entries), T.d)


@dataclass(frozen=True)
class ChannelReport:
    """The three channel properties and their numeric witnesses: one value
    each for a map, one array over the members for a ChannelStack."""

    hermiticity_preserving: bool | np.ndarray
    trace_preserving: bool | np.ndarray
    completely_positive: bool | np.ndarray
    min_choi_eigenvalue: float | np.ndarray
    hermiticity_violation: float | np.ndarray
    trace_violation: float | np.ndarray
    tolerance: float | np.ndarray

    @property
    def is_channel(self) -> bool | np.ndarray:
        return self.hermiticity_preserving & self.trace_preserving & self.completely_positive

    def require(self, what: str) -> None:
        """Raise NotAChannel, naming what needs a channel and the three
        witnesses, unless every map is a channel; for a stack the witnesses
        are those of the first member that is not one."""
        ok = np.ravel(self.is_channel)
        if not ok.all():
            i = np.argmin(ok)  # the first False
            hp, tp, cp, lam, hv, tv = (np.ravel(x)[i] for x in (
                self.hermiticity_preserving, self.trace_preserving, self.completely_positive,
                self.min_choi_eigenvalue, self.hermiticity_violation, self.trace_violation))
            raise NotAChannel(
                f"{what} needs a channel: "
                f"hermiticity={hp} (viol {hv:.2e}), "
                f"trace={tp} (viol {tv:.2e}), "
                f"cp={cp} (min Choi eig {lam:.2e})"
            )


def _sup_norms(M: np.ndarray) -> np.ndarray:
    """The largest entry modulus of each matrix of a stack (or of one matrix)."""
    return np.abs(M).max(axis=(-2, -1))


def _dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def hermitian_basis_matrix(T: ChannelMatrix | ChannelStack) -> np.ndarray:
    """The matrix of T in the basis of hermitian_transform(d): the entries
    of a Pauli-basis T, U M U^dag for a matrix-unit one (for a stack, of
    every member).  T preserves Hermiticity exactly when this matrix is real."""
    if T.basis.tag is BasisTag.PAULI_NORMALIZED:
        return T.entries
    U = hermitian_transform(T.d)
    return U @ T.entries @ U.conj().T


def hermiticity_violation(T: ChannelMatrix) -> float:
    """Distance from Hermiticity preservation: the largest imaginary entry
    of hermitian_basis_matrix(T), the same test in either basis."""
    return sup_norm(hermitian_basis_matrix(T).imag)


def real_form(T: ChannelMatrix | ChannelStack, what: str) -> np.ndarray:
    """The real part of hermitian_basis_matrix(T) (of T.hermitian for a
    stack).  Raises NotHermiticityPreserving, with the message what and the
    violation of the first failing member, unless the largest imaginary entry
    of each matrix is within the check tolerance scaled to its largest
    entry."""
    M = T.hermitian if isinstance(T, ChannelStack) else hermitian_basis_matrix(T)
    viol = _sup_norms(M.imag)
    ok = viol <= check_tolerance(_sup_norms(M))
    if not ok.all():
        raise NotHermiticityPreserving(f"{what} (violation {np.ravel(viol)[~np.ravel(ok)][0]:.3e})")
    return M.real


def trace_violation(M: np.ndarray) -> float | np.ndarray:
    """Distance of a matrix-unit transfer matrix (or of each matrix of a
    stack) from trace preservation: the sup norm of M^dag omega - omega."""
    omega = omega_vector(_square_side(M[(0,) * (M.ndim - 2)]))
    return np.abs(_dagger(M) @ omega - omega).max(axis=-1)


def verify_channel(T: ChannelMatrix | ChannelStack) -> ChannelReport:
    """Check the three channel properties and report numeric witnesses, for
    one map or for every member of a stack.

    The tolerance is config.check_tolerance of the largest entry of
    hermitian_basis_matrix(T), so it does not depend on the basis T is
    given in: 1e-9 relative (floored at 1e-9 absolute), or MARKOVSCOPE_TOL
    in place of 1e-9 when that is set, e.g. to accept a noisy tomography
    estimate.  markovian_check and the other gates use the same value.
    """
    stacked = isinstance(T, ChannelStack)
    H = T.hermitian if stacked else hermitian_basis_matrix(T)
    eps = check_tolerance(_sup_norms(H))
    hp_viol = _sup_norms(H.imag)

    Tmu = T.entries
    if T.basis.tag is not BasisTag.MATRIX_UNITS:
        U = hermitian_transform(T.d)
        Tmu = U.conj().T @ Tmu @ U  # change_basis, for a stack as well
    tp_viol = trace_violation(Tmu)

    C = involution_gamma(Tmu)
    lam_min = np.linalg.eigvalsh((C + _dagger(C)) / 2).min(axis=-1)

    flags, values = (hp_viol <= eps, tp_viol <= eps, lam_min >= -eps), (lam_min, hp_viol, tp_viol, eps)
    if not stacked:
        flags, values = map(bool, flags), map(float, values)
    return ChannelReport(*flags, *values)


def compose(T2: ChannelMatrix, T1: ChannelMatrix) -> ChannelMatrix:
    """The map T2 after T1; its matrix is the product T2-hat T1-hat."""
    if T2.d != T1.d:
        raise DimensionMismatch(f"cannot compose maps with d = {T2.d} and d = {T1.d}")
    if T1.basis.tag is not T2.basis.tag:
        T1 = change_basis(T1, T2.basis)
    return ChannelMatrix(T2.entries @ T1.entries, T2.basis)


def mix(T1: ChannelMatrix, T2: ChannelMatrix, p: float) -> ChannelMatrix:
    """Convex combination p T1 + (1 - p) T2."""
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"mixing weight must lie in [0, 1], got {p}")
    if T1.d != T2.d:
        raise DimensionMismatch(f"cannot mix maps with d = {T1.d} and d = {T2.d}")
    if T2.basis.tag is not T1.basis.tag:
        T2 = change_basis(T2, T1.basis)
    return ChannelMatrix(p * T1.entries + (1.0 - p) * T2.entries, T1.basis)


def change_basis(T: ChannelMatrix, target: OperatorBasis) -> ChannelMatrix:
    if target.dimension != T.d:
        raise DimensionMismatch("target basis has a different dimension")
    if target.tag is T.basis.tag:
        return ChannelMatrix(T.entries, target)
    U = hermitian_transform(T.d)
    if target.tag is BasisTag.PAULI_NORMALIZED:
        return ChannelMatrix(U @ T.entries @ U.conj().T, target)
    return ChannelMatrix(U.conj().T @ T.entries @ U, target)


def determinant(T: ChannelMatrix) -> float:
    """det(T-hat), basis-independent: the determinant of real_form(T), so a
    map that does not preserve Hermiticity raises NotHermiticityPreserving."""
    return float(np.linalg.det(real_form(T, "the determinant needs a Hermiticity-preserving map")))


def apply_channel(T: ChannelMatrix, rho: np.ndarray | DensityMatrix) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        rho = rho.rho
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (T.d, T.d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match d = {T.d}")
    return unvec(as_matrix_units(T).entries @ vec(rho))


def kraus_from_choi(choi: ChoiMatrix) -> KrausSet:
    """Extract Kraus operators from the Choi eigendecomposition.

    Eigenvalues in [-eps, 0) are clamped to zero; anything below -eps means
    the map is not completely positive and raises.
    """
    C = choi.entries
    eps = check_tolerance(sup_norm(C))
    lam, vecs = np.linalg.eigh((C + C.conj().T) / 2)
    if lam.min() < -eps:
        raise NotAChannel(f"Choi matrix has eigenvalue {lam.min():.3e} below -{eps:.3e}")
    lam = np.clip(lam, 0.0, None)
    ops = []
    for k in range(lam.size):
        if lam[k] > eps:
            ops.append(np.sqrt(lam[k]) * unvec(vecs[:, k]))
    if not ops:
        # the zero map; keep the contract of at least one operator
        ops.append(np.zeros((choi.dimension, choi.dimension), dtype=complex))
    return KrausSet(tuple(ops))
