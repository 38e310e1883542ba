"""Generators of quantum dynamical semigroups.

A matrix L-hat is a valid generator exactly when three things hold: it
preserves Hermiticity, its adjoint kills the identity (trace preservation of
the flow), and it is conditionally completely positive.  The last condition
compresses the Choi-type matrix L-hat^Gamma to the orthogonal complement of
the maximally entangled vector and asks for positive semidefiniteness there.
Working on an explicit orthonormal basis of that complement (perp_isometry)
avoids the spurious zero modes a full-space projected form would have.

Valid generators decompose into a standard form

    L(rho) = i[rho, H] + sum_ab G_ab (F_a rho F_b^dag - {F_b^dag F_a, rho}/2)

with H Hermitian and G positive semidefinite over a traceless operator basis.
For qubits the F-basis is the plain Pauli set {sigma_x, sigma_y, sigma_z}, so
a single sigma_z jump with rate 1 reads G = diag(0, 0, 1); for d > 2 the
orthonormal traceless basis from perp_isometry is used instead.  The matrix
kappa bundles the Hamiltonian and the anticommutator part, kappa = iH +
phi*(1)/2, so kappa + kappa^dag is the adjoint of the CP part on the identity
and H = (kappa - kappa^dag)/(2i).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .bases import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    jump_basis,
    omega_vector,
    perp_isometry,
    readonly,
    sup_norm,
    unvec,
)
from .channels import (
    ChannelMatrix,
    OperatorBasis,
    _square_side,
    as_matrix_units,
    hermitian_basis_matrix,
    involution_gamma,
    real_form,
)
from .config import JUMP_RATE_CUTOFF, KAPPA_SLACK, REBUILD_RESIDUAL_TOL, check_tolerance
from .errors import InvalidForm, NotAGenerator, RangeError, StepFailure

STEP_TOL = 1e-8

class GeneratorMatrix(ChannelMatrix):
    """A candidate generator; whether it is valid is a checked property, not
    an invariant of the type."""


def trace_basis(d: int) -> tuple[np.ndarray, ...]:
    """The traceless operator basis the G-matrix refers to."""
    if d == 2:
        return (SIGMA_X, SIGMA_Y, SIGMA_Z)
    return jump_basis(d)


@dataclass(frozen=True)
class LindbladForm:
    """Standard-form data (H, G, kappa) of a generator.

    G is indexed by trace_basis(d); kappa is derived from H and G when not
    supplied.
    """

    H: np.ndarray
    G: np.ndarray
    kappa: np.ndarray | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        G = np.asarray(self.G, dtype=complex)
        kappa = None if self.kappa is None else np.asarray(self.kappa, dtype=complex)
        if not all(np.isfinite(M).all() for M in (H, G, kappa) if M is not None):
            raise RangeError("a Lindblad form must have finite entries")
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise InvalidForm(f"H must be square, got shape {H.shape}")
        d = H.shape[0]
        if G.shape != (d * d - 1, d * d - 1):
            raise InvalidForm(
                f"G must be {(d * d - 1)}x{(d * d - 1)} for d = {d}, got shape {G.shape}"
            )
        eps = check_tolerance(max(sup_norm(H), sup_norm(G)))
        if sup_norm(H - H.conj().T) > eps:
            raise InvalidForm("H is not Hermitian")
        if sup_norm(G - G.conj().T) > eps:
            raise InvalidForm("G is not Hermitian")
        if np.linalg.eigvalsh((G + G.conj().T) / 2).min() < -eps:
            raise InvalidForm("G has a negative eigenvalue; rates must be nonnegative")
        phi_star = _phi_star_identity(G, trace_basis(d), d)
        if kappa is None:
            kappa = 1j * H + phi_star / 2
        else:
            if kappa.shape != (d, d):
                raise InvalidForm(f"kappa must be {d}x{d}, got shape {kappa.shape}")
            if sup_norm(kappa + kappa.conj().T - phi_star) > KAPPA_SLACK * eps:
                raise InvalidForm("kappa + kappa^dag does not match the CP part on the identity")
        for name, M in (("H", H), ("G", G), ("kappa", kappa)):
            object.__setattr__(self, name, readonly(M))

    @property
    def d(self) -> int:
        return self.H.shape[0]

    def jump_decomposition(self) -> list[tuple[float, np.ndarray]]:
        """Diagonalize G into (rate, jump operator) pairs, largest rate first;
        rates at or below JUMP_RATE_CUTOFF are dropped."""
        ops = trace_basis(self.d)
        lam, U = np.linalg.eigh((self.G + self.G.conj().T) / 2)
        out = []
        for k in range(lam.size - 1, -1, -1):
            if lam[k] > JUMP_RATE_CUTOFF:
                J = sum(U[a, k] * ops[a] for a in range(len(ops)))
                out.append((float(lam[k]), J))
        return out


def _phi_star_identity(G: np.ndarray, ops: Sequence[np.ndarray], d: int) -> np.ndarray:
    """phi*(1) = sum_ab G_ab F_b^dag F_a, the adjoint of the CP part of the
    generator applied to the d x d identity."""
    M = np.zeros((d, d), dtype=complex)
    for a, Fa in enumerate(ops):
        for b, Fb in enumerate(ops):
            if G[a, b] != 0:
                M += G[a, b] * (Fb.conj().T @ Fa)
    return M


def _assemble(H: np.ndarray, G: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix-unit-basis L-hat for given H, rate matrix and jump basis.  No
    validation; callers wanting the checked path use generator_from_form."""
    d = H.shape[0]
    eye = np.eye(d)
    L = 1j * (np.kron(eye, H.T) - np.kron(H, eye))
    for a, Fa in enumerate(ops):
        for b, Fb in enumerate(ops):
            if G[a, b] != 0:
                L = L + G[a, b] * np.kron(Fa, Fb.conj())
    M = _phi_star_identity(G, ops, d)
    L = L - 0.5 * (np.kron(M, eye) + np.kron(eye, M.T))
    return L


def ccp_block(Q: np.ndarray) -> np.ndarray:
    """V^dag Q V with V = perp_isometry(d): the compression of a d^2 x d^2
    Choi-type matrix onto the complement of the entangled vector.  It acts
    on the last two axes, so Q may be a stack of matrices."""
    V = perp_isometry(_square_side(Q[(0,) * (Q.ndim - 2)]))
    return V.conj().T @ Q @ V


@dataclass(frozen=True)
class CcpReport:
    is_ccp: bool
    min_eigenvalue: float


def ccp_test(L: GeneratorMatrix) -> CcpReport:
    """Conditional complete positivity: compress L-hat^Gamma to the
    complement of the entangled vector and check for a negative eigenvalue.

    Hamiltonian and anticommutator terms vanish under the compression, so
    only the CP part of the generator is probed.
    """
    real_form(L, "ccp is only defined for Hermiticity-preserving generators")  # the gate alone
    A = ccp_block(involution_gamma(as_matrix_units(L).entries))
    A = (A + A.conj().T) / 2
    lam_min = float(np.linalg.eigvalsh(A).min())
    eps = check_tolerance(sup_norm(A))
    return CcpReport(is_ccp=lam_min >= -eps, min_eigenvalue=lam_min)


@dataclass(frozen=True)
class GeneratorReport:
    hermitian: bool
    unital_adjoint: bool
    ccp: bool
    hermiticity_violation: float
    unitality_violation: float
    ccp_min_eigenvalue: float

    @property
    def valid(self) -> bool:
        return self.hermitian and self.unital_adjoint and self.ccp


def is_lindblad_generator(L: GeneratorMatrix) -> GeneratorReport:
    """The three-part validity test for semigroup generators, each part
    within the check tolerance scaled to the largest entry of
    hermitian_basis_matrix(L), which also gives the Hermiticity test."""
    H = hermitian_basis_matrix(L)
    eps = check_tolerance(sup_norm(H))
    hp_viol = sup_norm(H.imag)
    hermitian = hp_viol <= eps

    Lmu = as_matrix_units(L).entries
    omega = omega_vector(L.d)
    unital_viol = sup_norm(Lmu.conj().T @ omega)
    unital = unital_viol <= eps

    if hermitian:
        ccp_min = ccp_test(L).min_eigenvalue
        ccp = ccp_min >= -eps
    else:
        ccp, ccp_min = False, float("nan")

    return GeneratorReport(
        hermitian=hermitian,
        unital_adjoint=unital,
        ccp=ccp,
        hermiticity_violation=hp_viol,
        unitality_violation=float(unital_viol),
        ccp_min_eigenvalue=float(ccp_min),
    )


def generator_from_form(form: LindbladForm) -> GeneratorMatrix:
    """Assemble the standard form into a matrix-unit-basis generator."""
    L = _assemble(form.H, form.G, trace_basis(form.d))
    return GeneratorMatrix(L, OperatorBasis.matrix_units(form.d))


def lindblad_decompose(L: GeneratorMatrix) -> LindbladForm:
    """Recover (H, G, kappa) from a valid generator.

    Writes L-hat^Gamma = P - |psi><omega| - |omega><psi| with P supported on
    the complement of the entangled vector (that choice of gauge makes G the
    plain compression), reads kappa off psi = vec(kappa), and fixes the free
    imaginary part of <omega|psi> to zero, which is the traceless-H gauge.
    """
    report = is_lindblad_generator(L)
    if not report.valid:
        raise NotAGenerator(
            "decomposition needs a valid generator "
            f"(hermitian={report.hermitian}, unital_adjoint={report.unital_adjoint}, "
            f"ccp={report.ccp})"
        )
    d = L.d
    Lmu = as_matrix_units(L).entries
    Q = involution_gamma(Lmu)
    Q = (Q + Q.conj().T) / 2

    Gj = ccp_block(Q)
    Gj = (Gj + Gj.conj().T) / 2

    omega = omega_vector(d)
    v = -(Q @ omega) / d
    v = v - omega * ((omega @ v) / d)
    re_overlap = -float(np.real(omega @ Q @ omega)) / (2 * d)
    psi = v + (re_overlap / d) * omega

    kappa = unvec(psi)
    H = (kappa - kappa.conj().T) / 2j
    H = (H + H.conj().T) / 2

    # Gj refers to jump_basis(d); J_a = sum_k S[a, k] F_k over F = trace_basis(d)
    J = np.reshape(jump_basis(d), (d * d - 1, d * d))
    F = np.reshape(trace_basis(d), (d * d - 1, d * d))
    S = (J @ F.conj().T) / np.sum(np.abs(F) ** 2, axis=1)
    G = S.T @ Gj @ S.conj()
    G = (G + G.conj().T) / 2

    form = LindbladForm(H=H, G=G, kappa=kappa)
    resid = sup_norm(generator_from_form(form).entries - Lmu)
    if resid > REBUILD_RESIDUAL_TOL * max(1.0, sup_norm(Lmu)):
        raise NotAGenerator(
            f"standard-form rebuild misses the input by {resid:.3e}; "
            "the matrix is not a generator within tolerance"
        )
    return form


def evolve(L: GeneratorMatrix, t: float) -> ChannelMatrix:
    """exp(t L-hat), in the basis the generator is given in."""
    if t < 0:
        raise RangeError(f"evolution time must be nonnegative, got {t}")
    return ChannelMatrix(expm(t * L.entries), L.basis)


def _rate_entries(value) -> tuple[np.ndarray, OperatorBasis | None]:
    if isinstance(value, GeneratorMatrix):
        return value.entries, value.basis
    return np.asarray(value, dtype=complex), None


def _ordered_product(rates: Callable, t_final: float, n: int) -> tuple[np.ndarray, OperatorBasis | None]:
    dt = t_final / n
    mids = (np.arange(n) + 0.5) * dt
    mats = []
    basis = None
    for tm in mids:
        M, b = _rate_entries(rates(float(tm)))
        basis = basis or b
        mats.append(M)
    steps = expm(np.stack(mats) * dt)
    out = np.eye(mats[0].shape[0], dtype=complex)
    for k in range(n):
        out = steps[k] @ out
    return out, basis


def evolve_time_dependent(
    rates: Callable[[float], GeneratorMatrix | np.ndarray],
    t_final: float,
    dt_max: float,
    tol: float = STEP_TOL,
    max_steps: int = 1 << 20,
) -> ChannelMatrix:
    """Time-ordered exponential of a generator family over [0, t_final].

    Midpoint product of per-step exponentials, each step a channel whenever
    the instantaneous generator is valid; the step is halved until two
    refinements agree within tol.
    """
    if not 0 < dt_max < math.inf:
        raise RangeError(f"dt_max must be finite and positive, got {dt_max}")
    if not 0 <= t_final < math.inf:
        raise RangeError(f"t_final must be finite and nonnegative, got {t_final}")
    n = max(1, math.ceil(t_final / dt_max))
    prev, basis = _ordered_product(rates, t_final, n)
    basis = basis or OperatorBasis.matrix_units(_square_side(prev))
    while True:
        n *= 2
        if n > max_steps:
            raise StepFailure(
                f"time-ordered product did not converge to {tol:.1e} within {max_steps} steps"
            )
        cur, _ = _ordered_product(rates, t_final, n)
        if sup_norm(cur - prev) <= tol:
            return ChannelMatrix(cur, basis)
        prev = cur
