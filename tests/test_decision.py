"""Branch search and the Markovianity verdict."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from markovscope import decision
from markovscope.bases import omega_vector
from markovscope.channels import (
    ChannelMatrix,
    ChannelStack,
    OperatorBasis,
    as_matrix_units,
    mix,
    verify_channel,
)
from markovscope.decision import (
    Verdict,
    branch_search,
    build_a_matrices,
    markovian_check,
    markovian_checks,
    markovianity_measure,
    mu_min,
)
from markovscope.errors import MarkovscopeError, NotAChannel, RangeError
from markovscope.lindblad import GeneratorMatrix, _assemble, trace_basis
from markovscope.spectral import ClusterKind, branch_sum, eigendecompose
from markovscope.zoo import (
    JCParams,
    dephasing_channel,
    figure2a_mixture,
    jc_channel,
    jc_decay_function,
    rabi_unitary,
    random_channel,
    random_lindblad,
    transpose_approximation,
)
from markovscope.lindblad import evolve
from markovscope.qubit import td_markovian_check

FROZEN_MU_HALF_MIX = 0.40126269753636545
FROZEN_MEASURE_HALF_MIX = 0.3000554186331298


def _branch_rows(C, m_max):
    return list(map(tuple, decision._branch_table(C, m_max).tolist()))


def test_branch_candidates_shell_order():
    seq = _branch_rows(1, 2)
    assert seq == [(0,), (-1,), (1,), (-2,), (2,)]
    seq2 = _branch_rows(2, 1)
    assert seq2[0] == (0, 0)
    assert seq2[1:] == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def test_branch_sum():
    A0 = np.diag([1.0, 2.0])
    A1 = np.diag([0.5, -0.5])
    assert np.abs(branch_sum(A0, np.array([A1]), [(3,)])[0] - (A0 + 3 * A1)).max() == 0.0


def test_branch_search_piecewise_linear_toy():
    # f(m) = min(-1 + m, -m): the integers 0 and 1 tie at -1, and the first
    # maximum in shell order wins
    A = np.array([np.diag([-1.0, 0.0]), np.diag([1.0, -1.0])])
    assert branch_search(A, m_max=2, tol=1e-9) == ((0,), -1.0, None)


def test_branch_search_flat_direction():
    A = np.array([np.diag([-2.0, 1.0]), np.zeros((2, 2))])
    assert branch_search(A, m_max=2, tol=1e-9) == ((0,), -2.0, None)


def test_branch_search_witness_precedes_best():
    # f(m) = min(-0.5 + m, 5 - m): m = 1 is the first feasible branch in
    # shell order, m = 2 the best one
    A = np.array([np.diag([-0.5, 5.0]), np.diag([1.0, -1.0])])
    assert branch_search(A, m_max=2, tol=1e-9) == ((2,), 1.5, (1,))


def _scalar_branch_search(A, m_max, tol):
    best_m, best_v, witness = None, -np.inf, None
    for m in _branch_rows(len(A) - 1, m_max):
        v = float(np.linalg.eigvalsh(branch_sum(A[0], A[1:], [m])[0]).min())
        if v > best_v:
            best_m, best_v = m, v
        if witness is None and v >= -tol:
            witness = m
    return best_m, best_v, witness


_seeds = st.integers(0, 2**31 - 1)
_qubit_channels = st.builds(random_channel, st.just(2), _seeds)
_qutrit_semigroup = st.builds(
    lambda seed, t: evolve(random_lindblad(3, seed), t), _seeds, st.floats(0.1, 8.0)
)
_qutrit_mixtures = st.builds(mix, _qutrit_semigroup, _qutrit_semigroup, st.floats(0.3, 0.7))


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    T=st.one_of(_qubit_channels, _qutrit_semigroup, _qutrit_mixtures),
    block=st.sampled_from([1, 7, decision.SEARCH_BLOCK, 256]),
)
def test_branch_search_matches_scalar_enumeration(T, block):
    try:
        A = build_a_matrices(eigendecompose(T))
    except MarkovscopeError:
        assume(False)
    tol = 1e-7 * (1.0 + float(np.linalg.norm(A[0], 2)))
    with mock.patch.object(decision, "SEARCH_BLOCK", block):
        assert branch_search(A, 2, tol) == _scalar_branch_search(A, 2, tol)


def _hermitian(rng, n, integer):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if integer:  # exact sums, so ties between branches are exact
        X = np.round(2 * X)
    return X + X.conj().T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=_seeds,
    n=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["random", "duplicate", "negated", "zero"]), max_size=4),
    integer=st.booleans(),
    shift=st.floats(-3.0, 3.0),
    m_max=st.integers(0, 3),
    tol=st.sampled_from([0.0, 1e-9, 0.5]),
    block=st.sampled_from([1, 7, decision.SEARCH_BLOCK, 256]),
)
def test_pruned_search_matches_scalar_enumeration_on_hermitian_matrices(
    seed, n, kinds, integer, shift, m_max, tol, block
):
    # duplicated, negated and zero A_c give flat directions and tied branches
    rng = np.random.default_rng(seed)
    A0 = _hermitian(rng, n, integer) + shift * np.eye(n)
    Ac = []
    for kind in kinds:
        if kind == "random" or not Ac:
            Ac.append(_hermitian(rng, n, integer))
        elif kind == "zero":
            Ac.append(np.zeros((n, n)))
        else:
            B = Ac[rng.integers(len(Ac))]
            Ac.append(B if kind == "duplicate" else -B)
    A = np.array([A0, *Ac])
    with mock.patch.object(decision, "SEARCH_BLOCK", block):
        assert branch_search(A, m_max, tol) == _scalar_branch_search(A, m_max, tol)


def test_pruned_search_skips_most_of_a_seven_pair_box():
    A = build_a_matrices(eigendecompose(evolve(random_lindblad(4, 2), 1.0)))
    assert len(A) - 1 == 7  # 5^7 = 78,125 branches at m_max = 2
    tol = 1e-7 * (1.0 + float(np.linalg.norm(A[0], 2)))
    evaluated = products = 0
    eigvalsh, least_cut = np.linalg.eigvalsh, decision._least_cut

    def counting(a, *args, **kwargs):
        nonlocal evaluated
        evaluated += len(a)
        return eigvalsh(a, *args, **kwargs)

    def counting_cuts(*args):
        nonlocal products
        products += 1
        return least_cut(*args)

    with mock.patch.object(np.linalg, "eigvalsh", counting), \
            mock.patch.object(decision, "_least_cut", counting_cuts):
        result = branch_search(A, 2, tol)
    assert evaluated <= 2000
    # a walk that filters each of the 2,442 blocks of 32 rows alone needs
    # one product per block; the galloping window skips pruned runs
    assert products <= 100
    assert result == _scalar_branch_search(A, 2, tol)


def _energy_basis_channel(d, seed, mixed):
    """exp(L) for symmetric transitions |j><k| in the eigenbasis of a random
    Hamiltonian, one conjugate pair per energy gap; mixed with a unitary
    channel diagonal in the same basis when mixed is set."""
    rng = np.random.default_rng([d, seed])
    V = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    E = np.sort(rng.uniform(0.0, 2.6, d))
    H = (V * E) @ V.conj().T
    rates = rng.uniform(0.02, 0.2, (d, d))
    eye = np.eye(d)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for j in range(d):
        for k in range(d):
            J = np.sqrt(rates[j, k] + rates[k, j]) * np.outer(V[:, j], V[:, k].conj())
            JdJ = J.conj().T @ J
            L = L + np.kron(J, J.conj()) - (np.kron(JdJ, eye) + np.kron(eye, JdJ.T)) / 2
    T = evolve(GeneratorMatrix(L, OperatorBasis.matrix_units(d)), 1.0)
    if not mixed:
        return T
    U = (V * np.exp(-1j * rng.uniform(0.0, 2.6, d))) @ V.conj().T
    return mix(T, ChannelMatrix(np.kron(U, U.conj()), OperatorBasis.matrix_units(d)), 0.5)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("mixed", [False, True])
def test_reports_do_not_depend_on_the_search_block(d, mixed):
    # energy-basis inputs have flat f and tied branches, where the first
    # maximum in shell order is the most fragile part of the report
    for seed in range(3):
        T = _energy_basis_channel(d, seed, mixed)
        reports = []
        for block in (decision.SEARCH_BLOCK, 256):
            with mock.patch.object(decision, "SEARCH_BLOCK", block):
                reports.append(markovian_check(T))
        assert reports[0].verdict in (Verdict.MARKOVIAN, Verdict.NOT_MARKOVIAN)
        assert reports[0] == reports[1]


def test_dephasing_is_markovian():
    r = markovian_check(dephasing_channel(1.0))
    assert r.verdict is Verdict.MARKOVIAN
    assert r.witness_branch == ()
    assert r.mu_min == 0.0
    assert r.measure == 1.0


def test_unitary_is_markovian_with_principal_witness():
    r = markovian_check(rabi_unitary(np.pi / 4))
    assert r.verdict is Verdict.MARKOVIAN
    assert r.witness_branch == (0,)
    assert r.measure == 1.0


def test_half_mixture_frozen_values():
    r = markovian_check(figure2a_mixture(0.5))
    assert r.verdict is Verdict.NOT_MARKOVIAN
    assert r.witness_branch is None
    assert r.best_branch == (0,)
    assert abs(r.mu_min - FROZEN_MU_HALF_MIX) < 1e-10
    assert abs(r.measure - FROZEN_MEASURE_HALF_MIX) < 1e-10
    # d = 2: measure = exp(-3 mu)
    assert abs(r.measure - np.exp(-3.0 * r.mu_min)) < 1e-14
    assert abs(r.max_min_eigenvalue + r.mu_min / 2.0) < 1e-12


def test_wrappers_match_report():
    T = figure2a_mixture(0.37)
    r = markovian_check(T)
    assert mu_min(T) == r.mu_min
    assert markovianity_measure(T) == r.measure


def test_transpose_approximation_has_no_hermitian_log():
    r = markovian_check(transpose_approximation())
    assert r.verdict is Verdict.NO_HERMITIAN_LOG
    assert r.measure == 0.0
    assert np.isinf(r.mu_min)
    assert r.witness_branch is None


def test_singular_map_verdict():
    w = omega_vector(2)
    T = ChannelMatrix(np.outer(w, w) / 2.0, OperatorBasis.matrix_units(2))
    r = markovian_check(T)
    assert r.verdict is Verdict.SINGULAR
    assert r.measure == 0.0


def test_budget_guard_reports_unsupported():
    # strong coherent part, 4 complex pairs; m_max = 11 would need 23^4 branches
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = (A + A.conj().T) / 2
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    G = 0.02 * (B @ B.conj().T) / 8
    L = GeneratorMatrix(_assemble(3.0 * H, G, trace_basis(3)), OperatorBasis.matrix_units(3))
    T = evolve(L, 1.0)
    assert eigendecompose(T).num_complex_pairs == 4
    assert markovian_check(T, m_max=2).verdict is Verdict.MARKOVIAN
    r = markovian_check(T, m_max=11)
    assert r.verdict is Verdict.UNSUPPORTED_SPECTRUM


def jordan_channel(b):
    """A CP qubit channel whose Pauli-basis transfer matrix has a Jordan
    block at the eigenvalue 0.5."""
    E = np.array([[1, 0, 0, 0], [0, 0.5, b, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.3]])
    return ChannelMatrix(E, OperatorBasis.pauli())


@pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
def test_defective_spectrum_is_unsupported_with_its_reason(b):
    # at the parent, b = 0.05 and 0.1 raised DefectiveMatrix out of the check
    T = jordan_channel(b)
    assert verify_channel(T).is_channel
    with pytest.raises(MarkovscopeError) as exc:
        eigendecompose(T)
    r = markovian_check(T)
    assert r.verdict is Verdict.UNSUPPORTED_SPECTRUM
    assert r.diagnostics == str(exc.value)
    assert r.witness_branch is None and r.best_branch is None
    assert np.isinf(r.mu_min) and r.measure == 0.0


def test_not_a_channel_rejected():
    T = ChannelMatrix(2.0 * np.eye(4), OperatorBasis.matrix_units(2))
    with pytest.raises(NotAChannel):
        markovian_check(T)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m_max": -1},
        {"m_max": 1.5},
        {"m_max": True},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1.0},
    ],
)
def test_check_rejects_bad_search_settings(kwargs):
    # at the parent, m_max = -1 called dephasing MARKOVIAN after searching no
    # branch, and tol = nan or -1 called it NOT_MARKOVIAN with measure 1
    for T in (dephasing_channel(1.0), figure2a_mixture(0.5)):
        with pytest.raises(RangeError):
            markovian_check(T, **kwargs)


def test_tolerance_knob_can_flip_a_verdict():
    T = figure2a_mixture(0.5)
    assert markovian_check(T).verdict is Verdict.NOT_MARKOVIAN
    # the best branch sits at lambda_min ~ -0.2, so a huge tolerance accepts it
    assert markovian_check(T, tol=0.25).verdict is Verdict.MARKOVIAN


# exp(tL) for a qubit generator of spectral norm scale, with t * scale <= 30,
# where the smallest eigenvalues fall to about e^-30, far below the norm
_qubit_semigroup = st.builds(
    lambda seed, scale, ts: evolve(random_lindblad(2, seed, scale), ts / scale),
    _seeds,
    st.floats(0.05, 5.0),
    st.floats(0.0, 30.0),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(T=_qubit_semigroup, seed=_seeds, theta=st.floats(0.0, np.pi))
def test_qubit_semigroups_are_markovian_and_markovian_implies_td_markovian(T, seed, theta):
    r = markovian_check(T)
    assert r.verdict is Verdict.MARKOVIAN
    assert r.mu_min <= 1e-6
    for X in (T, mix(T, random_channel(2, seed), 0.5), mix(T, rabi_unitary(theta), 0.5)):
        if markovian_check(X).verdict is Verdict.MARKOVIAN:
            assert td_markovian_check(X).td_markovian


# (d, seed, scale, t * scale) of exp(tL) draws with eigenvalues near zero.
# The first 18 are the qubit draws of 3,000 from default_rng(11), taken as
# seed = integers(0, 2**31 - 1), scale = uniform(0.05, 5) and t * scale =
# uniform(0, 18), that defeat a conjugate pairing matched within a tolerance.
# The others are members of the exp(tL) sets of ROADMAP.md, seed =
# integers(0, 2**31), scale = uniform(0.05, 5) and t * scale = uniform(0,
# t_max), which an absolute clustering threshold called NO_HERMITIAN_LOG or
# NOT_MARKOVIAN: five of the (d, N, t_max, rng) = (3, 600, 25,
# default_rng(128)) set, nine of the (2, 3000, 30, default_rng(12)) set and
# one draw whose conjugate pair -1.36e-8 +- 4.98e-9 i merged into one
# negative real cluster
_PAIRING_FAILURES = [
    (2, 71027349, 2.371095408941299, 16.310418100120092),
    (2, 1966758266, 3.9162213758217934, 16.69504674808229),
    (2, 730321315, 0.8085546258525617, 15.77621894806279),
    (2, 1444153727, 3.3939961990353473, 17.34326423565497),
    (2, 2083098438, 3.095707407105444, 16.46046370971188),
    (2, 684934369, 2.396529970860321, 16.963204937301533),
    (2, 1303022046, 1.9487283444790626, 17.28594612544142),
    (2, 1747915571, 1.7196146790320825, 17.39450626851022),
    (2, 632878482, 0.8958545708466512, 17.214458625432243),
    (2, 2064750226, 1.1229412609046203, 17.013177415730894),
    (2, 1910687418, 4.364203417612111, 17.514032270036488),
    (2, 1850553481, 0.1710542468214668, 16.974055696361905),
    (2, 2043951778, 0.9518713931804609, 17.511243426216428),
    (2, 694166130, 1.4852573661043542, 17.58059435143729),
    (2, 1671165514, 1.8460802347668814, 17.048491013163844),
    (2, 1192003294, 2.0957107937820747, 17.85580745185368),
    (2, 1120055061, 2.275465339745855, 17.574925529072587),
    (2, 41286062, 4.142847616778715, 17.96907443071022),
    (3, 388417083, 0.7693977127887525, 24.27852794392115),
    (3, 974400933, 4.540619590622739, 14.570563668220254),
    (3, 1963803131, 4.036991920470123, 21.857133615061677),
    (3, 1852967444, 4.706264580115228, 20.130042475187768),
    (3, 1959061652, 2.3226839715629977, 22.59647167066085),
    (2, 1199054898, 4.4062499944026206, 22.42930618867653),
    (2, 635268876, 3.034205600485183, 21.24373058015676),
    (2, 690662124, 3.1099920290089296, 17.195233550067687),
    (2, 1270012274, 0.05759779842215685, 22.513484255817996),
    (2, 1138338090, 4.270436140971027, 26.12883521734835),
    (2, 1488542583, 1.553727305628556, 24.686393130117334),
    (2, 1157302002, 2.2749080663817867, 19.2332224914599),
    (2, 2071045795, 4.248770088957914, 25.729858341054577),
    (2, 1209614322, 3.399189613825947, 20.335416873765162),
    (2, 1564814933, 4.107799921535566, 23.654401669946907),
]


@pytest.mark.parametrize(
    "d,seed,scale,ts", _PAIRING_FAILURES, ids=[f"{s}-{x}-{t}" for _, s, x, t in _PAIRING_FAILURES]
)
def test_semigroups_with_tiny_eigenvalues_are_markovian(d, seed, scale, ts):
    r = markovian_check(evolve(random_lindblad(d, seed, scale), ts / scale))
    assert r.verdict is Verdict.MARKOVIAN
    assert r.mu_min <= 1e-6


@pytest.mark.parametrize("t", [27.2, 27.25])
def test_eigenvalue_far_below_the_norm_is_resolved(t):
    # amplitude damping with det ~ 1e-18: its eigenvalue |G(t)|^2 ~ 1e-9 lies
    # above the rounding floor, so it is resolved, not zero, and the channel
    # is exp(L)
    p = JCParams(0.2, 0.35, 0, 0, 0)
    T = jc_channel(t, p)
    S = eigendecompose(T)
    g2 = abs(jc_decay_function(t, p)) ** 2
    assert 1e-10 < g2 < 1e-8
    assert not S.has_kind(ClusterKind.ZERO)
    assert any(
        c.kind is ClusterKind.REAL_POSITIVE and abs(c.value - g2) <= 1e-6 * g2
        for c in S.clusters
    )
    r = markovian_check(T)
    assert r.verdict is Verdict.MARKOVIAN
    assert r.mu_min == 0.0


def test_semigroup_elements_are_markovian():
    rng = np.random.default_rng(6)
    for k in range(10):
        d = 2 if k % 2 == 0 else 3
        L = random_lindblad(d, int(rng.integers(1 << 30)), scale=1.0)
        r = markovian_check(evolve(L, 1.0))
        assert r.verdict is Verdict.MARKOVIAN
        assert r.mu_min <= 1e-6


def test_measure_bounds_on_random_channels():
    for seed in range(25):
        T = random_channel(2, seed)
        r = markovian_check(T)
        assert 0.0 <= r.measure <= 1.0
        if r.verdict is Verdict.NOT_MARKOVIAN:
            assert r.mu_min > 0.0


def test_build_a_matrices_shapes():
    T = figure2a_mixture(0.5)
    A = build_a_matrices(eigendecompose(T))
    assert A.shape == (2, 3, 3)
    assert not A.flags.writeable
    assert np.abs(A - A.conj().swapaxes(1, 2)).max() < 1e-12


def test_check_tolerance_setting_reaches_channel_validation(monkeypatch):
    T = dephasing_channel(1.0)
    E = T.entries.copy()
    E[0, 0] += 1e-6  # trace defect
    T = ChannelMatrix(E, T.basis)

    monkeypatch.delenv("MARKOVSCOPE_TOL", raising=False)
    assert not verify_channel(T).trace_preserving
    with pytest.raises(NotAChannel):
        markovian_check(T)

    monkeypatch.setenv("MARKOVSCOPE_TOL", "1e-3")
    assert verify_channel(T).is_channel
    assert markovian_check(T).verdict is Verdict.MARKOVIAN


@pytest.mark.parametrize(
    "T, mu_clean", [(dephasing_channel(1.0), 0.0), (random_channel(2, 3), 0.8302554073969682)]
)
def test_hermiticity_noise_admitted_by_the_tolerance_is_projected_out(T, mu_clean, monkeypatch):
    # a 1e-6 Hermiticity defect passes validation under MARKOVSCOPE_TOL=1e-3;
    # eigendecompose then works on the real part of its Hermitian-basis matrix
    monkeypatch.setenv("MARKOVSCOPE_TOL", "1e-3")
    M = as_matrix_units(T).entries.copy()
    M[1, 2] += 1e-6j
    r = markovian_check(ChannelMatrix(M, OperatorBasis.matrix_units(2)))
    assert r.verdict is Verdict.NOT_MARKOVIAN
    assert abs(r.mu_min - mu_clean) < 1e-4


# --- the stacked pass: markovian_checks against markovian_check --------------

def _reset_channel(d):
    """rho -> tr(rho) |0><0|: a singular channel."""
    E = np.zeros((d * d, d * d))
    E[0, :: d + 1] = 1.0
    return ChannelMatrix(E, OperatorBasis.matrix_units(d))


def _member(d, kind, seed, x):
    """One stack member of dimension d, in matrix units."""
    if kind == "random":
        T = random_channel(d, seed)
    elif kind == "exp":
        T = evolve(random_lindblad(d, seed, 0.05 + 3 * x), 5 * x)
    elif kind == "reset":
        T = _reset_channel(d)
    elif kind == "dephasing":  # d = 2 from here on
        T = dephasing_channel(2 * x)
    elif kind == "identity":
        T = ChannelMatrix(np.eye(4), OperatorBasis.pauli())
    elif kind == "rabi":
        T = rabi_unitary(4 * x)
    elif kind == "transpose":
        T = transpose_approximation()
    else:  # a Jordan block: fails a spectral check and is run again alone
        T = jordan_channel(0.05 + 0.15 * x)
    return as_matrix_units(T)


_KINDS_ANY_D = ["random", "exp", "reset"]
_KINDS_QUBIT = _KINDS_ANY_D + ["dephasing", "identity", "rabi", "transpose", "jordan"]


@st.composite
def _stacks(draw):
    d = draw(st.sampled_from([2, 2, 3]))
    kinds = _KINDS_QUBIT if d == 2 else _KINDS_ANY_D
    specs = draw(st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 10**6), st.floats(0.0, 1.0)),
        min_size=1, max_size=12 if d == 2 else 6,
    ))
    return d, [_member(d, *spec) for spec in specs]


def _fields(r):
    """A report as a tuple in which NaN equals NaN."""
    return tuple("nan" if isinstance(v, float) and np.isnan(v) else v for v in r.__dict__.values())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stacks())
def test_stacked_reports_equal_the_one_member_call_at_every_chunk_size(stack):
    d, members = stack
    T = ChannelStack(np.array([M.entries for M in members]), OperatorBasis.matrix_units(d))
    alone = [_fields(markovian_check(M)) for M in members]
    for size in (1, 3, 64):
        with mock.patch.object(decision, "CHUNK_ENTRIES", size * d**6):
            assert decision.chunk_size(d) == size
            assert [_fields(r) for r in markovian_checks(T)] == alone


@settings(max_examples=15, deadline=None)
@given(_stacks(), st.data())
def test_first_non_channel_of_a_stack_raises_the_one_member_error(stack, data):
    d, members = stack
    bad = [ChannelMatrix(2.0 * np.eye(d * d), OperatorBasis.matrix_units(d)),
           ChannelMatrix(np.eye(d * d)[::-1], OperatorBasis.matrix_units(d))]
    for M in bad:
        members.insert(data.draw(st.integers(0, len(members))), M)
    first = next(M for M in members if not verify_channel(M).is_channel)
    with pytest.raises(NotAChannel) as alone:
        markovian_check(first)
    T = ChannelStack(np.array([M.entries for M in members]), OperatorBasis.matrix_units(d))
    with mock.patch.object(decision, "CHUNK_ENTRIES", 3 * d**6):
        with pytest.raises(NotAChannel) as stacked:
            markovian_checks(T)
    assert str(stacked.value) == str(alone.value)
