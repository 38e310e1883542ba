"""Time-dependent Markovianity for qubit channels.

A qubit channel can be reached by integrating some time-local generator of
valid form exactly when (for generic spectra) its determinant is positive and
the Lorentz-metric singular values satisfy s1^2 s4^2 >= s1 s2 s3 s4.  The s_i
are the square roots of the eigenvalues of T g T' g, where g is the metric
diag(1, -1, -1, -1), T is written in the normalized Pauli basis (a real 4x4
matrix for a Hermiticity-preserving map) and T' is its transpose, so g T' g
is the Lorentz adjoint of T.  Pairing T with its Lorentz adjoint is what
makes the construction the metric analogue of ordinary singular values; the
product of T with itself instead has complex eigenvalues for most non-normal
channels and supports no criterion.  The condition compares the extreme pair
against the middle pair, so it does not care whether s is sorted ascending
or descending; descending is used here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelMatrix, ChannelStack, real_form, verify_channel
from .config import LORENTZ_IMAG_TOL
from .errors import ComplexLorentzSpectrum, NotQubit

_G_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
# A computed det M within 8 eps times the product of the column norms of M
# (Hadamard's bound on |det M|) is rounding; the product is at most sqrt(2)
# for a channel.
_DET_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class LorentzSingularValues:
    """The Lorentz singular values and det T of a qubit map; for a
    ChannelStack, s has shape (n, 4) and the other fields shape (n,)."""

    s: tuple[float, float, float, float] | np.ndarray
    det_T: float | np.ndarray
    det_rounding: float | np.ndarray  # a |det_T| at or below this is rounding

    @property
    def td_markovian(self) -> bool | np.ndarray:
        """det T > det_rounding and s1^2 s4^2 >= s1 s2 s3 s4 (equality counts)."""
        s1, s2, s3, s4 = self.s if isinstance(self.s, tuple) else self.s.T
        return (self.det_T > self.det_rounding) & (
            s1 * s1 * s4 * s4 >= s1 * s2 * s3 * s4 - LORENTZ_IMAG_TOL)


@dataclass(frozen=True)
class TdReport:
    td_markovian: bool
    s: LorentzSingularValues


def lorentz_singular_values(T: ChannelMatrix | ChannelStack) -> LorentzSingularValues:
    """Square roots of the eigenvalues of T g T' g, sorted descending, and det T
    with its rounding level, for one map or every member of a stack (from
    its shared Hermitian-basis matrices); the map is not checked to be a
    channel.

    With det T at or below rounding the criterion is already decided, so
    complex or negative eigenvalues of T g T' g are then resolved best-effort
    (real parts, clipped at zero).  Above it they are an error, raised for
    the first such member of a stack: the channel is outside the generic
    family the criterion covers.
    """
    if T.d != 2:
        raise NotQubit(f"the divisibility criterion is for qubits, got d = {T.d}")
    M = real_form(T, "Lorentz singular values need a Hermiticity-preserving map")
    det_T = np.linalg.det(M)
    det_rounding = _DET_ROUNDING * np.prod(np.linalg.norm(M, axis=-2), axis=-1)
    vals = np.linalg.eigvals(M @ _G_METRIC @ M.swapaxes(-1, -2) @ _G_METRIC)

    # |Im v| or -Re v beyond LORENTZ_IMAG_TOL max(1, |v|)
    off_axis = np.maximum(np.abs(vals.imag), -vals.real) > LORENTZ_IMAG_TOL * np.maximum(1.0, np.abs(vals))
    bad = off_axis.any(axis=-1) & (det_T > det_rounding)
    if bad.any():
        raise ComplexLorentzSpectrum(
            f"T g T' g has eigenvalues {np.round(vals.reshape(-1, 4)[np.ravel(bad)][0], 9)} off the "
            "nonnegative axis while det > 0; the criterion is undefined for this "
            "non-generic channel"
        )
    s = np.sort(np.sqrt(np.maximum(vals.real, 0.0)), axis=-1)[..., ::-1]
    if M.ndim == 2:
        s, det_T, det_rounding = tuple(s.tolist()), float(det_T), float(det_rounding)
    return LorentzSingularValues(s=s, det_T=det_T, det_rounding=det_rounding)


def td_markovian_check(T: ChannelMatrix) -> TdReport:
    """LorentzSingularValues.td_markovian of a channel.  The criterion
    characterizes channels, so a map that is not one raises NotAChannel."""
    verify_channel(T).require("td_markovian_check")
    lsv = lorentz_singular_values(T)
    return TdReport(td_markovian=lsv.td_markovian, s=lsv)
