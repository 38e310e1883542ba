import numpy as np
import pytest

from markovscope.bases import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    flip_operator,
    hermitian_transform,
    omega_vector,
    unvec,
    vec,
)
from markovscope.channels import (
    BasisTag,
    ChannelMatrix,
    ChoiMatrix,
    DensityMatrix,
    KrausSet,
    OperatorBasis,
    apply_channel,
    as_matrix_units,
    change_basis,
    choi_of,
    compose,
    determinant,
    hermiticity_violation,
    involution_gamma,
    kraus_from_choi,
    mix,
    real_form,
    transfer_from_kraus,
    verify_channel,
)
from markovscope.errors import (
    DimensionMismatch,
    InvalidForm,
    NotASquareOfSquare,
    NotAChannel,
    NotHermiticityPreserving,
    RangeError,
)
from markovscope.lindblad import (
    GeneratorMatrix,
    LindbladForm,
    ccp_block,
    evolve,
    evolve_time_dependent,
    is_lindblad_generator,
)
from markovscope.qubit import td_markovian_check
from markovscope.zoo import dephasing_channel, random_channel, random_lindblad, transpose_approximation

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_vec_is_row_major():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(rho), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(unvec(vec(rho)), rho)


def test_transfer_of_conjugation_is_kron():
    # rho -> X rho X has transfer matrix X (x) conj(X) in the matrix-unit basis
    T = transfer_from_kraus(KrausSet((SX,)))
    assert np.abs(T.entries - np.kron(SX, SX.conj())).max() == 0.0
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    out = unvec(T.entries @ vec(rho))
    assert np.abs(out - SX @ rho @ SX).max() < 1e-15


def test_gamma_is_an_involution():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        M = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        assert np.abs(involution_gamma(involution_gamma(M)) - M).max() == 0.0


def test_gamma_and_ccp_block_act_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        X = rng.normal(size=(3, d * d, d * d)) + 1j * rng.normal(size=(3, d * d, d * d))
        G = involution_gamma(X)
        assert all((G[k] == involution_gamma(X[k])).all() for k in range(3))
        B = ccp_block(G)
        assert all(np.abs(B[k] - ccp_block(G[k])).max() < 1e-14 for k in range(3))


def test_choi_of_identity():
    T = ChannelMatrix(np.eye(4), OperatorBasis.matrix_units(2))
    C = choi_of(T)
    w = np.sort(np.linalg.eigvalsh(C.entries))
    assert np.abs(w - np.array([0.0, 0.0, 0.0, 2.0])).max() < 1e-14
    # trace equals the dimension for a trace-preserving map
    assert abs(np.trace(C.entries) - 2.0) < 1e-14


def test_choi_of_transpose_map_is_the_flip():
    F = flip_operator(2)
    T = ChannelMatrix(F, OperatorBasis.matrix_units(2))
    C = choi_of(T)
    assert np.abs(C.entries - F).max() < 1e-15
    w = np.sort(np.linalg.eigvalsh(C.entries))
    assert np.abs(w - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-14


def test_verify_channel_identity():
    rep = verify_channel(ChannelMatrix(np.eye(4), OperatorBasis.matrix_units(2)))
    assert rep.hermiticity_preserving
    assert rep.trace_preserving
    assert rep.completely_positive
    assert rep.is_channel
    assert rep.min_choi_eigenvalue > -1e-12


def test_verify_channel_transpose_map():
    # positive but not completely positive
    rep = verify_channel(ChannelMatrix(flip_operator(2), OperatorBasis.matrix_units(2)))
    assert rep.hermiticity_preserving
    assert rep.trace_preserving
    assert not rep.completely_positive
    assert abs(rep.min_choi_eigenvalue + 1.0) < 1e-12
    assert not rep.is_channel


def test_verify_channel_in_pauli_basis():
    rep = verify_channel(transpose_approximation())
    assert rep.is_channel
    rep = verify_channel(dephasing_channel(0.7))
    assert rep.is_channel


def test_verify_rejects_scaled_identity():
    rep = verify_channel(ChannelMatrix(2.0 * np.eye(4), OperatorBasis.matrix_units(2)))
    assert rep.hermiticity_preserving
    assert not rep.trace_preserving


def test_compose_is_matrix_product():
    rng = np.random.default_rng(11)
    A = random_channel(2, 5)
    B = random_channel(2, 6)
    C = compose(A, B)
    assert np.abs(C.entries - A.entries @ B.entries).max() < 1e-15
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    lhs = apply_channel(A, apply_channel(B, DensityMatrix(rho)))
    rhs = apply_channel(C, DensityMatrix(rho))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_compose_converts_bases():
    A = dephasing_channel(0.3)        # Pauli basis
    B = random_channel(2, 9)          # matrix units
    C = compose(A, B)
    ref = as_matrix_units(A).entries @ B.entries
    assert np.abs(as_matrix_units(C).entries - ref).max() < 1e-13


def test_mix_endpoints_and_range():
    A = random_channel(2, 1)
    B = random_channel(2, 2)
    assert np.abs(mix(A, B, 1.0).entries - A.entries).max() == 0.0
    assert np.abs(mix(A, B, 0.0).entries - B.entries).max() == 0.0
    M = mix(A, B, 0.25)
    assert np.abs(M.entries - 0.25 * A.entries - 0.75 * B.entries).max() < 1e-16
    with pytest.raises(RangeError):
        mix(A, B, 1.5)
    with pytest.raises(RangeError):
        mix(A, B, -0.1)


def test_determinant_real_and_complex():
    assert abs(determinant(ChannelMatrix(np.eye(4), OperatorBasis.matrix_units(2))) - 1.0) < 1e-15
    # a non-Hermiticity-preserving map can have a complex determinant
    bad = ChannelMatrix(np.diag([1.0, 1j, 1.0, 1.0]), OperatorBasis.matrix_units(2))
    with pytest.raises(NotHermiticityPreserving):
        determinant(bad)


def test_qubit_determinant_is_the_lorentz_det_bit_for_bit():
    chans = [random_channel(2, s) for s in range(40)]
    chans += [change_basis(T, OperatorBasis.pauli()) for T in chans[:10]]
    for T in chans:
        assert determinant(T) == td_markovian_check(T).s.det_T


def test_determinant_invariant_under_basis_change():
    T = random_channel(2, 33)
    Tp = change_basis(T, OperatorBasis.pauli())
    assert abs(determinant(T) - determinant(Tp)) < 1e-12


def test_change_basis_round_trip():
    T = random_channel(2, 17)
    back = change_basis(change_basis(T, OperatorBasis.pauli()), OperatorBasis.matrix_units(2))
    assert np.abs(back.entries - T.entries).max() < 1e-14
    assert back.basis.tag is BasisTag.MATRIX_UNITS


def test_pauli_entries_real_iff_hermiticity_preserving():
    T = change_basis(random_channel(2, 21), OperatorBasis.pauli())
    assert np.abs(T.entries.imag).max() < 1e-13


def test_hermitian_transform_is_the_pauli_change_at_d2():
    paulis = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
    U = np.array([(P / np.sqrt(2)).conj().reshape(-1) for P in paulis])
    assert hermitian_transform(2).tobytes() == U.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_transform_is_a_unitary_onto_a_hermitian_basis(d):
    U = hermitian_transform(d)
    assert np.abs(U @ U.conj().T - np.eye(d * d)).max() < 1e-15
    for row in U:
        G = row.conj().reshape(d, d)
        assert np.array_equal(G, G.conj().T)
    # a Hermiticity-preserving map is real in this basis, and one that is not
    # preserving is not
    T = as_matrix_units(random_channel(d, 5)).entries
    assert np.abs((U @ T @ U.conj().T).imag).max() < 1e-14
    T = T + 1e-3j * np.eye(d * d)
    assert np.abs((U @ T @ U.conj().T).imag).max() > 1e-4


def test_kraus_choi_round_trip():
    for d, seed in ((2, 4), (3, 4), (4, 8)):
        T = random_channel(d, seed)
        ks = kraus_from_choi(choi_of(T))
        assert len(ks.operators) <= d * d
        T2 = transfer_from_kraus(ks)
        assert np.abs(T2.entries - T.entries).max() < 1e-9
        # completeness sum K^dag K = 1
        acc = sum(K.conj().T @ K for K in ks.operators)
        assert np.abs(acc - np.eye(d)).max() < 1e-10


def test_kraus_from_choi_rejects_negative():
    C = ChoiMatrix(flip_operator(2), 2)
    with pytest.raises(NotAChannel):
        kraus_from_choi(C)


def test_kraus_set_validates_count_and_shape():
    with pytest.raises(DimensionMismatch):
        KrausSet((np.eye(2), np.eye(3)))
    ops = tuple(np.eye(2) for _ in range(5))
    with pytest.raises(InvalidForm):
        KrausSet(ops)


def test_channel_matrix_shape_validation():
    with pytest.raises(NotASquareOfSquare):
        ChannelMatrix(np.eye(5), OperatorBasis.matrix_units(2))
    with pytest.raises(DimensionMismatch):
        ChannelMatrix(np.eye(9), OperatorBasis.matrix_units(2))


def test_density_matrix_validation():
    with pytest.raises(InvalidForm):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))   # not Hermitian
    with pytest.raises(InvalidForm):
        DensityMatrix(np.array([[0.8, 0.0], [0.0, 0.4]]))   # trace 1.2
    with pytest.raises(InvalidForm):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert abs(np.trace(rho.rho) - 1.0) < 1e-15


def test_apply_dephasing_kills_coherences():
    rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    out = apply_channel(dephasing_channel(50.0), rho)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-12


def test_operator_basis_elements():
    mu = OperatorBasis.matrix_units(2).elements()
    assert len(mu) == 4
    assert np.array_equal(mu[1], np.array([[0.0, 1.0], [0.0, 0.0]]))
    pl = OperatorBasis.pauli().elements()
    assert len(pl) == 4
    for P in pl:
        assert abs(np.trace(P.conj().T @ P) - 1.0) < 1e-15
    assert np.abs(pl[0] - np.eye(2) / np.sqrt(2)).max() < 1e-15


def test_trace_preservation_as_fixed_left_vector():
    T = random_channel(3, 12)
    w = omega_vector(3)
    assert np.abs(T.entries.conj().T @ w - w).max() < 1e-12


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChannelMatrix(np.full((4, 4), _NAN), OperatorBasis.pauli()),
        lambda: ChannelMatrix(np.diag([1.0, _INF, 1.0, 1.0]), OperatorBasis.matrix_units(2)),
        lambda: GeneratorMatrix(np.full((4, 4), _INF), OperatorBasis.matrix_units(2)),
        lambda: evolve(random_lindblad(2, 1), _NAN),
        lambda: random_lindblad(2, 1, scale=_INF),
        lambda: DensityMatrix(np.full((2, 2), _NAN)),
        lambda: evolve_time_dependent(lambda t: random_lindblad(2, 1), _NAN, 0.1),
        lambda: evolve_time_dependent(lambda t: random_lindblad(2, 1), _INF, 0.1),
        lambda: evolve_time_dependent(lambda t: random_lindblad(2, 1), 1.0, _NAN),
        lambda: evolve_time_dependent(lambda t: random_lindblad(2, 1), 1.0, _INF),
        # at the parent kraus_from_choi of this matrix raised numpy's LinAlgError
        lambda: kraus_from_choi(ChoiMatrix(np.full((4, 4), _NAN), 2)),
        lambda: KrausSet((np.full((2, 2), _NAN),)),
        # at the parent these built a NaN kappa, or kept an infinite one
        lambda: LindbladForm(np.full((2, 2), _NAN), np.eye(3)),
        lambda: LindbladForm(np.zeros((2, 2)), np.eye(3), np.full((2, 2), _INF)),
    ],
    ids=[
        "channel-nan", "channel-inf", "generator-inf", "evolve-nan-time", "lindblad-inf-scale",
        "state-nan", "td-nan-t-final", "td-inf-t-final", "td-nan-dt-max", "td-inf-dt-max",
        "choi-nan", "kraus-nan", "form-nan", "form-inf-kappa",
    ],
)
def test_non_finite_input_is_a_range_error(build):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(RangeError):
            build()


# A 6e-10 imaginary defect on the sigma_x and sigma_y diagonal entries of a
# Pauli-basis dephasing channel: a flip test F conj(M) F - M on the
# matrix-unit copy reads 1.2e-9, twice the Pauli value, and would reject
# that copy alone.  CI writes this map to a file in each basis.
_FLIP_DOUBLED = dephasing_channel(1.0).entries + 6e-10j * np.diag([0.0, 1.0, 1.0, 0.0])


def _defective_pauli_entries(clean, rng):
    """clean, a real Pauli-basis matrix, plus an imaginary defect whose
    largest entry lies between 1e-10 and 1e-8 times max(1, sup|clean|)."""
    size = 10 ** rng.uniform(-10, -8) * max(1.0, np.abs(clean).max())
    return clean + 1j * size * rng.uniform(-1.0, 1.0, clean.shape)


def _both_bases(E, kind):
    P = kind(E, OperatorBasis.pauli())
    M = kind(change_basis(P, OperatorBasis.matrix_units(2)).entries, OperatorBasis.matrix_units(2))
    return P, M


def _real_form_passes_in_both(P, M):
    """Whether real_form accepts the two copies, which must agree, as must
    their Hermiticity violations up to rounding."""
    assert abs(hermiticity_violation(P) - hermiticity_violation(M)) <= 1e-14
    passed = []
    for T in (P, M):
        try:
            real_form(T, "test")
            passed.append(True)
        except NotHermiticityPreserving:
            passed.append(False)
    assert passed[0] == passed[1]
    return passed[0]


def test_channel_validation_is_the_same_in_either_basis():
    rng = np.random.default_rng(19)
    clean = [change_basis(random_channel(2, k), OperatorBasis.pauli()).entries.real for k in range(200)]
    maps = [_FLIP_DOUBLED] + [_defective_pauli_entries(R, rng) for R in clean]
    seen = set()
    for E in maps:
        P, M = _both_bases(E, ChannelMatrix)
        rp, rm = verify_channel(P), verify_channel(M)
        assert rp.hermiticity_preserving == rm.hermiticity_preserving
        assert abs(rp.tolerance - rm.tolerance) <= 1e-24
        assert _real_form_passes_in_both(P, M) == rp.hermiticity_preserving
        seen.add(rp.hermiticity_preserving)
    assert seen == {True, False}  # the defects span the gate


def test_generator_validation_is_the_same_in_either_basis():
    rng = np.random.default_rng(19)
    seen = set()
    for k in range(200):
        L = random_lindblad(2, k)
        E = _defective_pauli_entries(change_basis(L, OperatorBasis.pauli()).entries.real, rng)
        P, M = _both_bases(E, GeneratorMatrix)
        hp, hm = is_lindblad_generator(P).hermitian, is_lindblad_generator(M).hermitian
        assert hp == hm
        assert _real_form_passes_in_both(P, M) == hp
        seen.add(hp)
    assert seen == {True, False}
