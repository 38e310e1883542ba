"""Eigenstructure, logarithm branches, fractional powers."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from markovscope.bases import flip_operator, hermitian_transform, omega_vector
from markovscope.channels import ChannelMatrix, OperatorBasis, as_matrix_units, mix
from markovscope.decision import markovian_check
from markovscope.errors import (
    BranchLengthMismatch,
    DefectiveMatrix,
    NegativeRealEigenvalue,
    NotHermiticityPreserving,
    RangeError,
    SingularChannel,
)
from markovscope.lindblad import evolve
from markovscope.spectral import (
    ClusterKind,
    SpectralData,
    branch_log,
    branch_shifts,
    eigendecompose,
    fractional_power,
    principal_log,
)
from markovscope.zoo import (
    dephasing_channel,
    figure2a_mixture,
    rabi_unitary,
    random_channel,
    random_lindblad,
    transpose_approximation,
)


def test_identity_is_one_cluster():
    S = eigendecompose(ChannelMatrix(np.eye(4), OperatorBasis.matrix_units(2)))
    assert len(S.clusters) == 1
    c = S.clusters[0]
    assert c.multiplicity == 4
    assert c.kind is ClusterKind.REAL_POSITIVE
    assert abs(c.value - 1.0) < 1e-14
    assert np.abs(c.projector - np.eye(4)).max() < 1e-12
    assert S.num_complex_pairs == 0


def test_dephasing_clusters():
    S = eigendecompose(dephasing_channel(1.0))
    assert sorted(c.multiplicity for c in S.clusters) == [2, 2]
    vals = sorted(c.value.real for c in S.clusters)
    assert abs(vals[0] - np.exp(-2.0)) < 1e-12
    assert abs(vals[1] - 1.0) < 1e-12


def test_projector_resolution_and_orthogonality():
    rng = np.random.default_rng(14)
    for seed in rng.integers(0, 10000, size=8):
        S = eigendecompose(random_channel(2, int(seed)))
        total = np.zeros((4, 4), dtype=complex)
        for j, cj in enumerate(S.clusters):
            total += cj.projector
            for k, ck in enumerate(S.clusters):
                prod = cj.projector @ ck.projector
                want = cj.projector if j == k else np.zeros((4, 4))
                assert np.abs(prod - want).max() < 1e-8
        assert np.abs(total - np.eye(4)).max() < 1e-8
        assert np.abs(S.reconstruct() - S.entries).max() < 1e-7


def test_conjugate_pair_bookkeeping():
    S = eigendecompose(figure2a_mixture(0.5))
    assert S.num_complex_pairs == 1
    cp, cm = S.pairs[0]
    assert S.clusters[cp].value.imag > 0
    partner = S.clusters[cp].projector.conj()
    # in the real basis of the spectral data the minus member is the plain
    # conjugate, exactly
    assert np.abs(partner - S.clusters[cm].projector).max() == 0.0
    assert S.clusters[cm].value == np.conj(S.clusters[cp].value)


def test_real_cluster_projectors_are_real():
    seen = 0
    for T in (figure2a_mixture(0.5), dephasing_channel(0.3), random_channel(2, 3), random_channel(3, 4)):
        for c in eigendecompose(T).clusters:
            if c.kind in (ClusterKind.REAL_POSITIVE, ClusterKind.REAL_NEGATIVE):
                assert np.abs(c.projector.imag).max() == 0.0
                seen += 1
    assert seen >= 5


def test_mixture_spectrum_frozen():
    S = eigendecompose(figure2a_mixture(0.5))
    vals = sorted((c.value for c in S.clusters), key=lambda z: (-z.real, -z.imag))
    assert abs(vals[0] - 1.0) < 1e-12
    assert abs(vals[1] - 0.5676676416183062) < 1e-12
    assert abs(vals[2] - (0.28383382080915304 + 0.45085716471409276j)) < 1e-12


def test_principal_log_reconstructs():
    for T in (dephasing_channel(0.4), figure2a_mixture(0.5), rabi_unitary(np.pi / 4)):
        S = eigendecompose(T)
        L = principal_log(S)
        assert np.abs(expm(L.entries) - as_matrix_units(T).entries).max() < 1e-7


def test_principal_log_refuses_singular():
    w = omega_vector(2)
    T = ChannelMatrix(np.outer(w, w) / 2.0, OperatorBasis.matrix_units(2))
    S = eigendecompose(T)
    assert S.has_kind(ClusterKind.ZERO)
    with pytest.raises(SingularChannel):
        principal_log(S)


def test_principal_log_refuses_negative_real():
    S = eigendecompose(transpose_approximation())
    assert S.has_kind(ClusterKind.REAL_NEGATIVE)
    with pytest.raises(NegativeRealEigenvalue):
        principal_log(S)


def test_branch_logs_reconstruct_for_all_small_windings():
    T = figure2a_mixture(0.5)
    Tmu = as_matrix_units(T).entries
    S = eigendecompose(T)
    for m in itertools.product(range(-3, 4), repeat=S.num_complex_pairs):
        L = branch_log(S, m)
        assert np.abs(expm(L.entries) - Tmu).max() < 1e-7


def test_branch_shift_is_traceless_and_hermiticity_compatible():
    S = eigendecompose(figure2a_mixture(0.5))
    (D,) = branch_shifts(S)
    assert abs(np.trace(D)) < 1e-12
    F = flip_operator(2)
    # F conj(D) F = -conj(2 pi i (P+ - P-)) flipped = D again
    assert np.abs(F @ D.conj() @ F - D).max() < 1e-10


def test_branch_trace_is_winding_independent():
    S = eigendecompose(figure2a_mixture(0.5))
    t0 = np.trace(branch_log(S, (0,)).entries)
    t3 = np.trace(branch_log(S, (3,)).entries)
    assert abs(t0 - t3) < 1e-12


def test_branch_length_mismatch():
    S = eigendecompose(figure2a_mixture(0.5))
    with pytest.raises(BranchLengthMismatch):
        branch_log(S, (0, 0))


def test_branch_index_must_be_integers():
    S = eigendecompose(figure2a_mixture(0.5))
    for m in (None, ("x",), 3):
        with pytest.raises(RangeError):
            branch_log(S, m)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
def test_fractional_power_rejects_non_finite_exponent(s):
    with pytest.raises(RangeError):
        fractional_power(dephasing_channel(1.0), s)


def test_fractional_power_identity_at_one():
    for T in (dephasing_channel(0.8), figure2a_mixture(0.5), random_channel(2, 3)):
        P = fractional_power(T, 1.0)
        assert P.basis == T.basis
        assert np.abs(P.entries - T.entries).max() < 1e-7


def test_fractional_power_dephasing_square():
    P = fractional_power(dephasing_channel(1.0), 2.0)
    assert np.abs(P.entries - dephasing_channel(2.0).entries).max() < 1e-10


def test_fractional_power_semigroup():
    for m in (None, (1,)):
        T = figure2a_mixture(0.5)
        H = fractional_power(T, 0.5, m)
        HH = as_matrix_units(H).entries @ as_matrix_units(H).entries
        assert np.abs(HH - as_matrix_units(T).entries).max() < 1e-6


def test_fractional_power_negative_warns():
    with pytest.warns(RuntimeWarning):
        P = fractional_power(dephasing_channel(0.5), -1.0)
    assert np.abs(as_matrix_units(P).entries @ as_matrix_units(dephasing_channel(0.5)).entries - np.eye(4)).max() < 1e-10


def test_defective_matrix_is_rejected():
    # real Pauli entries keep it Hermiticity-preserving; the (1,2) block is a
    # Jordan cell, so no eigenbasis exists
    M = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 1.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.3],
    ])
    T = ChannelMatrix(M, OperatorBasis.pauli())
    with pytest.raises(DefectiveMatrix):
        eigendecompose(T)


def test_non_hermiticity_preserving_rejected():
    T = ChannelMatrix(np.diag([1.0, 1j, -1j, 1.0]), OperatorBasis.pauli())
    with pytest.raises(NotHermiticityPreserving):
        eigendecompose(T)


def test_cluster_tolerance_merges_near_degenerate():
    g = 1e-12
    T = ChannelMatrix(np.diag([1.0, 1.0 - g, 0.5, 0.5 + g]), OperatorBasis.pauli())
    S = eigendecompose(T)
    assert sorted(c.multiplicity for c in S.clusters) == [2, 2]
    # a gap of 1e-6 is above the clustering threshold: all four stay apart
    g = 1e-6
    T = ChannelMatrix(np.diag([1.0, 1.0 - g, 0.5, 0.5 + g]), OperatorBasis.pauli())
    S = eigendecompose(T)
    assert len(S.clusters) == 4


def test_cluster_links_chains_of_close_eigenvalues():
    # neighbours are 4e-9 apart, inside the threshold 1e-8 * 0.5, but the
    # outer two are 8e-9 apart: the chain still makes one cluster of three
    T = ChannelMatrix(np.diag([1.0, 0.5, 0.5 + 4e-9, 0.5 + 8e-9]), OperatorBasis.pauli())
    S = eigendecompose(T)
    assert [c.multiplicity for c in S.clusters] == [1, 3]


def test_small_conjugate_pair_is_not_merged():
    # a +- b i with |2 b| far below 1e-8 but far above 1e-8 |a|: the pair is
    # resolved relative to its own modulus, not to the norm of the map
    a, b = -1e-5, 1e-9
    M = np.array([[1, 0, 0, 0], [0, a, -b, 0], [0, b, a, 0], [0, 0, 0, 0.5]])
    S = eigendecompose(ChannelMatrix(M, OperatorBasis.pauli()))
    assert S.num_complex_pairs == 1
    (cp, cm), = S.pairs
    assert abs(S.clusters[cp].value - complex(a, b)) <= 1e-20
    assert S.clusters[cm].value == S.clusters[cp].value.conjugate()
    assert not S.has_kind(ClusterKind.REAL_NEGATIVE)


def test_spectral_data_is_immutable():
    S = eigendecompose(dephasing_channel(1.0))
    with pytest.raises(ValueError):
        S.clusters[0].projector[0, 0] = 9.0
    with pytest.raises(ValueError):
        S.entries[0, 0] = 9.0


def _haar(d, seed):
    return unitary_group.rvs(d, random_state=np.random.default_rng(seed))


_seeds = st.integers(0, 2**31 - 1)


@st.composite
def _covariance_inputs(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["random", "exp", "mixture", "unitary"]))
    seed = draw(_seeds)
    if kind == "random":
        return random_channel(d, seed)
    if kind == "unitary":  # every pair has modulus 1: clusters tie in modulus
        U = _haar(d, seed)
        return ChannelMatrix(np.kron(U, U.conj()), OperatorBasis.matrix_units(d))
    E = evolve(random_lindblad(d, seed), draw(st.floats(0.1, 4.0)))
    return E if kind == "exp" else mix(E, random_channel(d, seed), 0.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=_covariance_inputs(), useed=_seeds)
def test_spectral_data_is_unitarily_covariant(T, useed):
    # conjugating T by W = U (x) conj(U) keeps every cluster and moves each
    # projector P, in the Hermitian basis of the spectral data, to O P O^T
    # with O = H W H^dag, a real orthogonal matrix
    U = _haar(T.d, useed)
    W = np.kron(U, U.conj())
    H = hermitian_transform(T.d)
    O = (H @ W @ H.conj().T).real
    M = W @ as_matrix_units(T).entries @ W.conj().T
    moved = ChannelMatrix(M, OperatorBasis.matrix_units(T.d))
    S, S2 = eigendecompose(T), eigendecompose(moved)
    # clusters are matched by value: equal moduli are ordered by rounding
    match = [int(np.argmin([abs(c2.value - c.value) for c2 in S2.clusters])) for c in S.clusters]
    assert sorted(match) == list(range(len(S2.clusters)))
    for c, k in zip(S.clusters, match):
        c2 = S2.clusters[k]
        assert abs(c2.value - c.value) <= 1e-8
        assert (c2.multiplicity, c2.kind) == (c.multiplicity, c.kind)
        assert np.abs(c2.projector - O @ c.projector @ O.T).max() <= 1e-8
    assert sorted((match[a], match[b]) for a, b in S.pairs) == sorted(S2.pairs)
    assert abs(markovian_check(moved).measure - markovian_check(T).measure) <= 1e-9
