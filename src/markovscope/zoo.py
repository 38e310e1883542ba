"""Parameterized channels and generators: closed-form examples and seeded
random samplers.

The damped-oscillation family deserves a word.  Its backbone is amplitude
damping whose amplitude follows the decay function

    G(t) = e^{-gamma t/2} [cosh(delta t/2) + (gamma/delta) sinh(delta t/2)],
    delta = sqrt(gamma^2 - 4 omega^2),

which is monotone for strong damping and oscillates through zero for weak
damping (imaginary delta turns the hyperbolics into trigonometrics).  G is
real in both regimes; only its magnitude enters the damping factors, so the
backbone stays a channel across sign changes of G.  The optional weights
alpha_k admix coherent rotations at the oscillation frequency about the three
axes, modelling an environment that drives as well as damps: the channel is
the convex combination

    T(t) = [ AD(|G(t)|) + sum_k alpha_k R_k(2 omega t) ] / (1 + sum_k alpha_k)

with R_k the rotation channel by Bloch angle 2 omega t about axis k.  Every
member is manifestly CPTP, the unweighted case is the bare damping family,
and the weighted family alternates between Markovian windows and strongly
non-Markovian episodes as the damping and rotation time scales compete.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelMatrix, OperatorBasis, involution_gamma, mix
from .errors import DegenerateSample, RangeError
from .lindblad import GeneratorMatrix, _assemble, trace_basis


@dataclass(frozen=True)
class JCParams:
    """Damped-oscillation model parameters: coupling omega, decay gamma, and
    the rotation admixture weights (the unweighted family has all alphas 0)."""

    omega: float
    gamma: float
    alpha_x: float = 0.5
    alpha_y: float = 1.0
    alpha_z: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise RangeError(f"omega must be finite and positive, got {self.omega}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise RangeError(f"gamma must be finite and positive, got {self.gamma}")
        for name in ("alpha_x", "alpha_y", "alpha_z"):
            a = getattr(self, name)
            if not (math.isfinite(a) and a >= 0):
                raise RangeError(f"{name} must be finite and nonnegative, got {a}")

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (self.alpha_x, self.alpha_y, self.alpha_z)


def dephasing_channel(t: float) -> ChannelMatrix:
    """exp(t L) for L(rho) = sigma_z rho sigma_z - rho, in the Pauli basis."""
    if t < 0:
        raise RangeError(f"dephasing time must be nonnegative, got {t}")
    f = math.exp(-2.0 * t)
    return ChannelMatrix(np.diag([1.0, f, f, 1.0]).astype(complex), OperatorBasis.pauli())


def _plane_rotation(axis: int, angle: float) -> np.ndarray:
    """Pauli-basis matrix of conjugation by exp(-i (angle/2) sigma_axis):
    identity on (1, sigma_axis), rotation by angle in the remaining plane."""
    if not math.isfinite(angle):
        raise RangeError(f"rotation angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    M = np.eye(4)
    # cyclic: rotating about axis k sends sigma_{k+1} -> c sigma_{k+1} + s sigma_{k+2}
    j = 1 + (axis % 3)
    k = 1 + ((axis + 1) % 3)
    M[j, j] = c
    M[k, k] = c
    M[k, j] = s
    M[j, k] = -s
    return M


def rabi_unitary(theta: float) -> ChannelMatrix:
    """Conjugation by exp(-i theta sigma_x): a y-z Bloch rotation by 2 theta."""
    return ChannelMatrix(_plane_rotation(1, 2.0 * theta).astype(complex), OperatorBasis.pauli())


def figure2a_mixture(p: float) -> ChannelMatrix:
    """Convex combination of the quarter-period x-rotation (weight p) and unit
    dephasing (weight 1 - p); Markovian at both endpoints, not in between."""
    return mix(rabi_unitary(np.pi / 4), dephasing_channel(1.0), p)


def transpose_approximation() -> ChannelMatrix:
    """The channel rho -> (tr[rho] 1 + rho^T)/3: completely positive although
    built on transposition, with determinant -1/27."""
    return ChannelMatrix(
        np.diag([1.0, 1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0]).astype(complex),
        OperatorBasis.pauli(),
    )


def _delta(p: JCParams) -> complex:
    return complex(np.sqrt(complex(p.gamma * p.gamma - 4.0 * p.omega * p.omega)))


def jc_decay_function(t: float, p: JCParams) -> complex:
    """The damped-oscillation amplitude G(t); G(0) = 1, real in both regimes."""
    if t < 0:
        raise RangeError(f"time must be nonnegative, got {t}")
    delta = _delta(p)
    damp = np.exp(-0.5 * p.gamma * t)
    if abs(delta) < 1e-10:
        return complex(damp * (1.0 + 0.5 * p.gamma * t))
    x = 0.5 * delta * t
    return complex(damp * (np.cosh(x) + (p.gamma / delta) * np.sinh(x)))


def jc_decay_derivative(t: float, p: JCParams) -> complex:
    """dG/dt = -(2 omega^2 / delta) e^{-gamma t/2} sinh(delta t/2)."""
    if t < 0:
        raise RangeError(f"time must be nonnegative, got {t}")
    delta = _delta(p)
    damp = np.exp(-0.5 * p.gamma * t)
    if abs(delta) < 1e-10:
        return complex(-(p.omega**2) * t * damp)
    return complex(-(2.0 * p.omega**2 / delta) * damp * np.sinh(0.5 * delta * t))


def jc_local_rate(t: float, p: JCParams) -> float:
    """Instantaneous damping rate -2 Re[G'(t)/G(t)] of the backbone."""
    G = jc_decay_function(t, p)
    return float(-2.0 * np.real(jc_decay_derivative(t, p) / G))


# Pauli-basis dissipator of the lowering jump |0><1| at unit rate: transverse
# components decay at half the rate of the population difference.
_AD_DISSIPATOR = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 0.0],
        [0.0, 0.0, -0.5, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ],
    dtype=complex,
)


def jc_local_generator(t: float, p: JCParams) -> GeneratorMatrix:
    """Time-local generator of the unweighted backbone; integrating it over
    [0, t] reproduces the damping channel with amplitude G(t)."""
    return GeneratorMatrix(jc_local_rate(t, p) * _AD_DISSIPATOR, OperatorBasis.pauli())


def _amplitude_damping(g: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, g, 0.0, 0.0],
            [0.0, 0.0, g, 0.0],
            [1.0 - g * g, 0.0, 0.0, g * g],
        ],
        dtype=complex,
    )


def jc_channel(t: float, p: JCParams) -> ChannelMatrix:
    """The damped-oscillation snapshot at time t (see the module docstring).

    x and y components scale by |G(t)|, the z component by |G(t)|^2 with the
    matching shift toward the ground state; the weights admix rotations by
    Bloch angle 2 omega t.
    """
    g = abs(jc_decay_function(t, p))
    M = _amplitude_damping(g)
    total = 1.0
    for k, a in enumerate(p.alphas):
        if a > 0:
            M = M + a * _plane_rotation(k + 1, 2.0 * p.omega * t)
            total += a
    return ChannelMatrix(M / total, OperatorBasis.pauli())


def _rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_channel(d: int, seed) -> ChannelMatrix:
    """A random channel: Gaussian-induced positive matrix on the doubled
    space, normalized to the trace-preserving marginal, read as a Choi matrix.

    Deterministic for a fixed integer seed; a Generator may be passed instead
    to draw several samples from one stream.  This is the one-seed case of
    random_channels.
    """
    return ChannelMatrix(random_channels(d, [seed])[0], OperatorBasis.matrix_units(d))


def random_channels(d: int, seeds) -> np.ndarray:
    """The matrix-unit entries of random_channel(d, seed) for every seed, as
    one (len(seeds), d^2, d^2) array.

    Each seed (an integer or a Generator) gets its own stream, and each
    member draws its Gaussian matrix from it; everything after the draw is
    computed on the whole stack.  A member whose marginal is singular draws
    again from its own stream, up to 50 draws, so every member equals its
    one-seed result.
    """
    if not 2 <= d <= 8:
        raise RangeError(f"supported dimensions are 2 <= d <= 8, got {d}")
    rngs = [_rng_from(s) for s in seeds]
    n = d * d
    X = np.empty((len(rngs), n, n), dtype=complex)
    redraw = np.arange(len(rngs))
    for _ in range(50):
        for i in redraw:
            X[i] = rngs[i].standard_normal((n, n)) + 1j * rngs[i].standard_normal((n, n))
        W = X @ X.conj().swapaxes(-1, -2)
        B = np.einsum("...iaib->...ab", W.reshape(-1, d, d, d, d))
        lam, U = np.linalg.eigh((B + B.conj().swapaxes(-1, -2)) / 2)
        redraw = np.flatnonzero(lam.min(axis=-1) <= 1e-12 * lam.max(axis=-1))
        if not redraw.size:
            break
    else:
        raise DegenerateSample("50 consecutive draws had a singular marginal; giving up")
    Binvhalf = U @ (np.eye(d) / np.sqrt(lam)[:, None, :]) @ U.conj().swapaxes(-1, -2)
    # np.kron(np.eye(d), Binvhalf) of every member
    N = (np.eye(d)[:, None, :, None] * Binvhalf[:, None, :, None, :]).reshape(-1, n, n)
    choi = N @ W @ N.conj().swapaxes(-1, -2)
    return involution_gamma(choi)


def random_lindblad(d: int, seed, scale: float = 1.0) -> GeneratorMatrix:
    """A random valid generator: Gaussian traceless Hamiltonian plus a
    Wishart rate matrix, rescaled so the generator has spectral norm scale."""
    if not scale > 0:
        raise RangeError(f"scale must be positive, got {scale}")
    rng = _rng_from(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2
    H = H - (np.trace(H) / d) * np.eye(d)
    n1 = d * d - 1
    Y = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
    G = Y @ Y.conj().T / n1
    L = _assemble(H, G, trace_basis(d))
    norm = float(np.linalg.norm(L, 2))
    return GeneratorMatrix(L * (scale / norm), OperatorBasis.matrix_units(d))
