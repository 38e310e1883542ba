"""Reference computations written without markovscope.

The benchmark builds its inputs and checks the program's outputs with these
functions, so a check never compares the program against itself.  Conventions
follow the documented ones: row-major vectorization, vec(rho)[i*d + j] =
rho[i, j], so a superoperator acting as rho -> A rho B has the matrix
kron(A, B.T); the normalized Pauli basis is P_a / sqrt(2).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import null_space

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
LORENTZ_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


# --- superoperators -------------------------------------------------------

def unitary_superop(U: np.ndarray) -> np.ndarray:
    """Matrix-unit transfer matrix of rho -> U rho U^dag."""
    return np.kron(U, U.conj())


def lindblad_superop(H: np.ndarray, jumps) -> np.ndarray:
    """Matrix-unit generator of rho -> -i[H, rho] + sum_k J rho J^dag - {J^dag J, rho}/2."""
    d = H.shape[0]
    eye = np.eye(d)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for J in jumps:
        JdJ = J.conj().T @ J
        L = L + np.kron(J, J.conj()) - 0.5 * (np.kron(JdJ, eye) + np.kron(eye, JdJ.T))
    return L


def flip(d: int) -> np.ndarray:
    F = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            F[a * d + b, b * d + a] = 1.0
    return F


def reshuffle(M: np.ndarray, d: int) -> np.ndarray:
    """<i,j|M^Gamma|k,l> = <i,k|M|j,l>: transfer matrix <-> Choi matrix."""
    return M.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def min_choi_eigenvalue(T: np.ndarray, d: int) -> float:
    C = reshuffle(T, d)
    return float(np.linalg.eigvalsh((C + C.conj().T) / 2).min())


def random_unitary(d: int, rng: np.random.Generator, angle: float) -> np.ndarray:
    """exp(-i angle K) for a random Hermitian K of unit spectral norm."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    K = (A + A.conj().T) / 2
    K = K / np.linalg.norm(K, 2)
    w, V = np.linalg.eigh(K)
    return (V * np.exp(-1j * angle * w)) @ V.conj().T


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph


def generic_generator(d: int, rng: np.random.Generator, h_scale: float, rate: float) -> np.ndarray:
    """Random traceless Hamiltonian of spectral norm h_scale plus d^2 - 1
    Gaussian jump operators, each scaled by sqrt(rate / d^3)."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2
    H = H - np.trace(H) / d * np.eye(d)
    H = H * (h_scale / np.linalg.norm(H, 2))
    jumps = []
    for _ in range(d * d - 1):
        J = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append(J * math.sqrt(rate / (d * d * d)))
    return lindblad_superop(H, jumps)


def energy_basis_generator(
    energies, rng: np.random.Generator, V: np.ndarray, rate: float
) -> np.ndarray:
    """Symmetric transitions |j><k|, |k><j| and dephasing |j><j| in the
    eigenbasis V of H = V diag(energies) V^dag.  Each coherence |j><k| is then
    an eigenvector of the generator with eigenvalue -i (E_j - E_k) - (decay),
    and the symmetric population block has a real spectrum, so exp(L) has
    exactly one conjugate pair per energy gap that is not a multiple of pi."""
    E = np.asarray(energies, dtype=float)
    d = E.size
    H = (V * E) @ V.conj().T
    rates = rng.uniform(0.2, 1.0, (d, d)) * rate
    rates = (rates + rates.T) / 2
    jumps = []
    for j in range(d):
        for k in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[j, k] = math.sqrt(rates[j, k])
            jumps.append(V @ op @ V.conj().T)
    return lindblad_superop(H, jumps)


# --- spectra --------------------------------------------------------------

def spectrum_summary(T: np.ndarray) -> tuple[int, bool, float]:
    """(number of conjugate pairs, any real eigenvalue <= 0, smallest eigenvalue gap)."""
    ev = np.linalg.eigvals(T)
    pairs = int((ev.imag > 1e-7).sum())
    nonpos_real = bool(np.any((np.abs(ev.imag) <= 1e-7) & (ev.real <= 1e-7)))
    return pairs, nonpos_real, _min_gap(ev)


def _min_gap(ev: np.ndarray) -> float:
    gaps = np.abs(ev[:, None] - ev[None, :])
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


def principal_log(T: np.ndarray) -> np.ndarray:
    ev, V = np.linalg.eig(T)
    return (V * np.log(ev)) @ np.linalg.inv(V)


def determinant_identity_gap(T: np.ndarray, d: int, mu: float, measure: float) -> float:
    """Gap in log det exp(L - mu P_perp) = log(det(T) M(T)), with P_perp the
    projector off the maximally entangled vector.  The left side is the sum of
    the eigenvalues of L - mu P_perp, which stays accurate where det(T) M(T)
    is far below the rounding of a determinant of exp(L - mu P_perp).  The
    winding terms are traceless, so the principal branch stands in for every
    branch."""
    w = np.eye(d).reshape(-1) / math.sqrt(d)
    p_perp = np.eye(d * d) - np.outer(w, w)
    lhs = float(np.linalg.eigvals(principal_log(T) - mu * p_perp).real.sum())
    rhs = float(np.log(np.abs(np.linalg.eigvals(T))).sum()) + math.log(measure)
    return abs(lhs - rhs)


def _lagrange_projectors(M: np.ndarray, lam: np.ndarray) -> list[np.ndarray]:
    n = lam.size
    out = []
    for k in range(n):
        P = np.eye(n, dtype=complex)
        for j in range(n):
            if j != k:
                P = P @ (M - lam[j] * np.eye(n)) / (lam[k] - lam[j])
        out.append(P)
    return out


def brute_force_mu(T: np.ndarray, d: int, m_max: int = 2) -> float | None:
    """mu_min by enumerating every branch in |m|_inf <= m_max, with spectral
    projectors from Lagrange interpolation.  None when two eigenvalues are
    too close for stable interpolation or one is real and nonpositive."""
    lam = np.linalg.eigvals(T)
    if _min_gap(lam) < 1e-3 or np.any((np.abs(lam.imag) < 1e-9) & (lam.real <= 0)):
        return None
    projs = _lagrange_projectors(T, lam)
    L0 = sum(np.log(z) * P for z, P in zip(lam, projs))
    F = flip(d)
    shifts = [2j * np.pi * (P - F @ P.conj() @ F) for z, P in zip(lam, projs) if z.imag > 1e-9]
    w = np.eye(d).reshape(-1).astype(complex) / math.sqrt(d)
    V = null_space(w.conj()[None, :])
    best = -np.inf
    for m in itertools.product(range(-m_max, m_max + 1), repeat=len(shifts)):
        Lm = L0 + sum(mc * D for mc, D in zip(m, shifts))
        A = V.conj().T @ reshuffle(Lm, d) @ V
        best = max(best, float(np.linalg.eigvalsh((A + A.conj().T) / 2).min()))
    return d * max(0.0, -best)


# --- qubits ---------------------------------------------------------------

def pauli_matrix(T: np.ndarray) -> np.ndarray:
    """Real Pauli-basis matrix <P_a, T(P_b)> / 2 of a Hermiticity-preserving
    qubit map given in matrix units."""
    B = np.array([P.reshape(-1) for P in PAULIS]) / math.sqrt(2)
    return (B.conj() @ T @ B.T).real


def lorentz_singular_values(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Descending square roots of the eigenvalues of M g M' g, and det M."""
    vals = np.linalg.eigvals(M @ LORENTZ_METRIC @ M.T @ LORENTZ_METRIC)
    s = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return s, float(np.linalg.det(M))


def td_markovian_margin(M: np.ndarray) -> tuple[bool, float]:
    """Divisibility criterion det > 0 and s1^2 s4^2 >= s1 s2 s3 s4, with the
    distance of the deciding quantity from its threshold."""
    s, det = lorentz_singular_values(M)
    if det <= 0:
        return False, abs(det)
    gap = s[0] * s[0] * s[3] * s[3] - s[0] * s[1] * s[2] * s[3]
    return bool(gap >= 0), min(abs(gap), det)


def transpose_approximation_pauli() -> np.ndarray:
    """rho -> (tr[rho] 1 + rho^T) / 3 in the Pauli basis."""
    return np.diag([1.0, 1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0])


def amplitude_damping_pauli(g: float) -> np.ndarray:
    """Amplitude damping with coherence factor g: x, y scale by g, z by g^2
    with the shift 1 - g^2 toward the ground state."""
    M = np.diag([1.0, g, g, g * g])
    M[3, 0] = 1.0 - g * g
    return M


def bloch_rotation_pauli(axis: int, angle: float) -> np.ndarray:
    """Right-handed rotation by `angle` about Bloch axis 0 (x), 1 (y) or 2 (z)."""
    n = np.zeros(3)
    n[axis] = 1.0
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    M = np.eye(4)
    M[1:, 1:] = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    return M


def jc_decay(t: float, omega: float, gamma: float) -> float:
    """G(t) = e^{-gamma t/2} [cosh(delta t/2) + (gamma/delta) sinh(delta t/2)],
    delta = sqrt(gamma^2 - 4 omega^2); real in both regimes."""
    delta = np.sqrt(complex(gamma * gamma - 4.0 * omega * omega))
    x = 0.5 * delta * t
    return float((np.exp(-0.5 * gamma * t) * (np.cosh(x) + gamma / delta * np.sinh(x))).real)


def jc_pauli(t: float, omega: float, gamma: float, alphas=(0.5, 1.0, 0.5)) -> np.ndarray:
    """[AD(|G(t)|) + sum_k alpha_k R_k(2 omega t)] / (1 + sum_k alpha_k)."""
    M = amplitude_damping_pauli(abs(jc_decay(t, omega, gamma)))
    for k, a in enumerate(alphas):
        M = M + a * bloch_rotation_pauli(k, 2.0 * omega * t)
    return M / (1.0 + sum(alphas))
