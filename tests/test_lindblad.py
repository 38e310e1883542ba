import numpy as np
import pytest
from scipy.linalg import expm

from markovscope.bases import SIGMA_X, SIGMA_Y, SIGMA_Z, omega_vector
from markovscope.channels import ChannelMatrix, OperatorBasis, as_matrix_units, verify_channel
from markovscope.errors import (
    InvalidForm,
    NotAGenerator,
    NotHermiticityPreserving,
    RangeError,
    StepFailure,
)
from markovscope.lindblad import (
    GeneratorMatrix,
    LindbladForm,
    ccp_test,
    evolve,
    evolve_time_dependent,
    generator_from_form,
    is_lindblad_generator,
    lindblad_decompose,
    trace_basis,
)
from markovscope.spectral import eigendecompose, principal_log
from markovscope.zoo import (
    JCParams,
    dephasing_channel,
    jc_channel,
    jc_local_generator,
    random_lindblad,
)


def test_trace_basis_qubit_is_pauli():
    ops = trace_basis(2)
    assert np.abs(ops[0] - SIGMA_X).max() == 0.0
    assert np.abs(ops[1] - SIGMA_Y).max() == 0.0
    assert np.abs(ops[2] - SIGMA_Z).max() == 0.0


def test_trace_basis_is_traceless_orthogonal():
    # qubit: plain Pauli matrices, norm^2 = 2; larger d: unit-norm operators
    for d in (2, 3, 4):
        ops = trace_basis(d)
        norm2 = 2.0 if d == 2 else 1.0
        assert len(ops) == d * d - 1
        for a, A in enumerate(ops):
            assert abs(np.trace(A)) < 1e-13
            for b, B in enumerate(ops):
                hs = np.trace(A.conj().T @ B)
                assert abs(hs - (norm2 if a == b else 0.0)) < 1e-10


def test_dephasing_form_round_trip():
    H = np.zeros((2, 2))
    G = np.diag([0.0, 0.0, 1.0])
    form = LindbladForm(H, G)
    L = generator_from_form(form)
    T = evolve(L, 1.0)
    assert np.abs(as_matrix_units(T).entries - as_matrix_units(dephasing_channel(1.0)).entries).max() < 1e-12
    jumps = form.jump_decomposition()
    assert len(jumps) == 1
    rate, J = jumps[0]
    assert abs(rate - 1.0) < 1e-14
    assert np.abs(J @ J - np.eye(2)).max() < 1e-14   # sigma_z up to phase


def test_form_validation():
    with pytest.raises(InvalidForm):
        LindbladForm(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((3, 3)))
    with pytest.raises(InvalidForm):
        LindbladForm(np.zeros((2, 2)), np.zeros((8, 8)))
    with pytest.raises(InvalidForm):
        LindbladForm(np.zeros((2, 2)), np.diag([1.0, -0.5, 0.0]))
    with pytest.raises(InvalidForm):
        LindbladForm(np.zeros((2, 2)), np.diag([0.0, 0.0, 1.0]), kappa=np.zeros((2, 2)))


def test_kappa_consistency():
    form = LindbladForm(np.zeros((2, 2)), np.diag([0.0, 0.0, 1.0]))
    # kappa + kappa^dag = sum G_ab F_b^dag F_a = identity here
    assert np.abs(form.kappa + form.kappa.conj().T - np.eye(2)).max() < 1e-14


def test_commutator_generator_decomposes_to_pure_hamiltonian():
    S = eigendecompose(ChannelMatrix(
        expm(1j * (np.kron(np.eye(2), SIGMA_X.T) - np.kron(SIGMA_X, np.eye(2)))),
        OperatorBasis.matrix_units(2)))
    L = principal_log(S)
    rep = is_lindblad_generator(L)
    assert rep.valid and rep.hermitian and rep.unital_adjoint and rep.ccp
    form = lindblad_decompose(L)
    assert np.abs(form.H - (-SIGMA_X)).max() < 1e-10 or np.abs(form.H - SIGMA_X).max() < 1e-10
    assert np.abs(form.G).max() < 1e-10


def test_ccp_orientation_of_near_identity_contractions():
    # shrinking x, y a little and z a lot stays a semigroup element; the
    # reverse assignment does not
    good = ChannelMatrix(np.diag([1.0, 0.9, 0.9, 0.99]), OperatorBasis.pauli())
    bad = ChannelMatrix(np.diag([1.0, 0.99, 0.99, 0.9]), OperatorBasis.pauli())
    L_good = principal_log(eigendecompose(good))
    L_bad = principal_log(eigendecompose(bad))
    assert is_lindblad_generator(L_good).valid
    rep = is_lindblad_generator(L_bad)
    assert not rep.valid
    assert rep.hermitian and rep.unital_adjoint and not rep.ccp
    c = ccp_test(L_bad)
    assert not c.is_ccp
    # solving the diagonal log rates gives the z jump log(0.9)/2 - log(0.99)
    assert abs(c.min_eigenvalue - (np.log(0.9) / 2 - np.log(0.99))) < 1e-12


def test_is_lindblad_generator_witnesses():
    # trace( L(rho) ) != 0: adjoint does not fix the identity
    L = GeneratorMatrix(-np.eye(4), OperatorBasis.matrix_units(2))
    rep = is_lindblad_generator(L)
    assert rep.hermitian and not rep.unital_adjoint and not rep.valid
    w = omega_vector(2)
    assert np.abs(L.entries.conj().T @ w + w).max() < 1e-14


def test_ccp_test_requires_hermiticity_preservation():
    L = GeneratorMatrix(np.diag([0.0, 1j, 1j, 0.0]), OperatorBasis.matrix_units(2))
    with pytest.raises(NotHermiticityPreserving):
        ccp_test(L)


def test_decompose_round_trip_random():
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(18):
        d = (2, 3, 4)[k % 3]
        L = random_lindblad(d, int(rng.integers(1 << 30)), scale=1.0)
        form = lindblad_decompose(L)
        L2 = generator_from_form(form)
        worst = max(worst, np.abs(L2.entries - L.entries).max())
    assert worst < 1e-8


def test_decompose_rejects_invalid():
    bad = ChannelMatrix(np.diag([1.0, 0.99, 0.99, 0.9]), OperatorBasis.pauli())
    L = principal_log(eigendecompose(bad))
    with pytest.raises(NotAGenerator):
        lindblad_decompose(L)


def test_evolve_zero_time_and_range():
    L = random_lindblad(2, 77)
    T = evolve(L, 0.0)
    assert np.abs(T.entries - np.eye(4)).max() < 1e-14
    assert verify_channel(evolve(L, 2.5)).is_channel
    with pytest.raises(RangeError):
        evolve(L, -0.1)


def test_ordered_product_constant_rate_matches_evolve():
    L = random_lindblad(2, 99, scale=0.8)
    T1 = evolve_time_dependent(lambda s: L, 1.3, dt_max=0.1)
    T2 = evolve(L, 1.3)
    assert np.abs(T1.entries - T2.entries).max() < 1e-9
    # no time: the same product of zero steps is the identity, bit for bit
    T0 = evolve_time_dependent(lambda s: L, 0.0, dt_max=0.1)
    assert T0.basis == L.basis
    assert T0.entries.tobytes() == np.eye(4, dtype=complex).tobytes()


def test_ordered_product_matches_closed_form_decay():
    # the commuting family of local decay generators integrates to the
    # closed-form backbone channel
    p = JCParams(omega=0.2, gamma=0.35, alpha_x=0.0, alpha_y=0.0, alpha_z=0.0)
    for t in (0.5, 2.0):
        T_num = evolve_time_dependent(lambda s: jc_local_generator(s, p), t, dt_max=0.05)
        T_ref = jc_channel(t, p)
        assert np.abs(as_matrix_units(T_num).entries - as_matrix_units(T_ref).entries).max() < 1e-7


def test_ordered_product_step_failure():
    p = JCParams(omega=0.2, gamma=0.35, alpha_x=0.0, alpha_y=0.0, alpha_z=0.0)
    with pytest.raises(StepFailure):
        evolve_time_dependent(lambda s: jc_local_generator(s, p), 5.0, dt_max=5.0, max_steps=4)


def test_random_lindblad_is_valid_and_scaled():
    for d, seed in ((2, 0), (2, 5), (3, 9)):
        L = random_lindblad(d, seed, scale=0.7)
        assert is_lindblad_generator(L).valid
        assert abs(np.linalg.norm(L.entries, 2) - 0.7) < 1e-10


def test_generator_matrix_immutable():
    L = random_lindblad(2, 1)
    with pytest.raises(ValueError):
        L.entries[0, 0] = 5.0


def test_check_tolerance_setting_reaches_every_generator_gate(monkeypatch):
    L = random_lindblad(2, 1)
    E = L.entries.copy()
    E[0, 1] += 1e-6j
    L = GeneratorMatrix(E, L.basis)

    monkeypatch.delenv("MARKOVSCOPE_TOL", raising=False)
    report = is_lindblad_generator(L)
    assert (report.hermitian, report.ccp) == (False, False)
    with pytest.raises(NotHermiticityPreserving):
        ccp_test(L)

    # ccp_test's own Hermiticity gate reads the same setting as the report
    monkeypatch.setenv("MARKOVSCOPE_TOL", "1e-3")
    report = is_lindblad_generator(L)
    assert (report.hermitian, report.ccp) == (True, True)
    assert ccp_test(L).min_eigenvalue == report.ccp_min_eigenvalue
