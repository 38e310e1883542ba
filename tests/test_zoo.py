"""The worked channel families and the samplers."""
import numpy as np
import pytest

from markovscope.channels import (
    BasisTag,
    as_matrix_units,
    change_basis,
    compose,
    determinant,
    verify_channel,
)
from markovscope.decision import Verdict, markovian_check, markovianity_measure
from markovscope.errors import RangeError
from markovscope.lindblad import is_lindblad_generator
from markovscope.zoo import (
    JCParams,
    dephasing_channel,
    figure2a_mixture,
    jc_channel,
    jc_decay_derivative,
    jc_decay_function,
    jc_local_generator,
    jc_local_rate,
    rabi_unitary,
    random_channel,
    random_channels,
    random_lindblad,
    transpose_approximation,
)


def test_dephasing_matrix_and_semigroup():
    T = dephasing_channel(1.0)
    assert T.basis.tag is BasisTag.PAULI_NORMALIZED
    assert np.abs(T.entries - np.diag([1.0, np.exp(-2.0), np.exp(-2.0), 1.0])).max() < 1e-15
    AB = compose(dephasing_channel(0.4), dephasing_channel(0.6))
    assert np.abs(AB.entries - dephasing_channel(1.0).entries).max() < 1e-14
    with pytest.raises(RangeError):
        dephasing_channel(-0.5)


def test_rabi_unitary_group_law():
    A = compose(rabi_unitary(0.3), rabi_unitary(0.5))
    assert np.abs(A.entries - rabi_unitary(0.8).entries).max() < 1e-12
    rep = verify_channel(rabi_unitary(1.1))
    assert rep.is_channel
    assert abs(determinant(rabi_unitary(1.1)) - 1.0) < 1e-12
    # a rotation leaves the x axis alone for the generator's own axis
    M = rabi_unitary(2 * np.pi).entries
    assert np.abs(M - np.eye(4)).max() < 1e-12


def test_figure2a_mixture_interpolates():
    assert np.abs(figure2a_mixture(0.0).entries - dephasing_channel(1.0).entries).max() < 1e-15
    assert np.abs(figure2a_mixture(1.0).entries - rabi_unitary(np.pi / 4).entries).max() < 1e-15
    M = figure2a_mixture(0.3)
    want = 0.3 * rabi_unitary(np.pi / 4).entries + 0.7 * dephasing_channel(1.0).entries
    assert np.abs(M.entries - want).max() < 1e-15
    assert verify_channel(M).is_channel
    with pytest.raises(RangeError):
        figure2a_mixture(1.01)


def test_measure_dips_between_markovian_endpoints():
    assert markovianity_measure(figure2a_mixture(0.0)) == 1.0
    assert markovianity_measure(figure2a_mixture(1.0)) == 1.0
    assert markovianity_measure(figure2a_mixture(0.25)) < 0.999


def test_transpose_approximation_matrix():
    T = transpose_approximation()
    assert T.basis.tag is BasisTag.PAULI_NORMALIZED
    assert np.abs(T.entries - np.diag([1.0, 1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0])).max() == 0.0
    assert verify_channel(T).is_channel
    assert abs(determinant(T) + 1.0 / 27.0) < 1e-15


def test_jc_params_validation():
    with pytest.raises(RangeError):
        JCParams(omega=-0.1, gamma=0.5)
    with pytest.raises(RangeError):
        JCParams(omega=0.1, gamma=-0.5)
    with pytest.raises(RangeError):
        JCParams(omega=0.1, gamma=0.5, alpha_x=-1.0)
    p = JCParams(omega=0.2, gamma=0.35)
    assert p.alphas == (0.5, 1.0, 0.5)


def test_decay_function_basics():
    p = JCParams(omega=0.2, gamma=0.35)
    assert abs(jc_decay_function(0.0, p) - 1.0) < 1e-15
    # underdamped: the envelope crosses zero eventually
    ts = np.linspace(0.0, 35.0, 2000)
    vals = np.array([jc_decay_function(t, p).real for t in ts])
    assert vals.min() < 0.0
    # overdamped: monotone decay, no zero
    po = JCParams(omega=0.05, gamma=1.0)
    vo = np.array([jc_decay_function(t, po).real for t in ts])
    assert vo.min() > 0.0
    assert np.all(np.diff(vo) < 1e-12)


def test_decay_function_critical_damping_is_continuous():
    pc = JCParams(omega=0.5, gamma=1.0)
    pe = JCParams(omega=0.5, gamma=1.0 + 1e-9)
    for t in (0.5, 2.0, 7.0):
        assert abs(jc_decay_function(t, pc) - jc_decay_function(t, pe)) < 1e-6


def test_decay_derivative_matches_finite_difference():
    p = JCParams(omega=0.2, gamma=0.35)
    h = 1e-6
    for t in (0.3, 1.7, 4.0):
        fd = (jc_decay_function(t + h, p) - jc_decay_function(t - h, p)) / (2 * h)
        assert abs(jc_decay_derivative(t, p) - fd) < 1e-8


def test_local_rate_goes_negative_for_underdamped():
    p = JCParams(omega=0.5, gamma=0.35)
    rates = [jc_local_rate(t, p) for t in np.linspace(0.1, 10.0, 300)]
    assert min(rates) < 0.0
    po = JCParams(omega=0.05, gamma=1.0)
    rates_o = [jc_local_rate(t, po) for t in np.linspace(0.1, 10.0, 300)]
    assert min(rates_o) > 0.0


def test_local_generator_tracks_rate_sign():
    p = JCParams(omega=0.5, gamma=0.35)
    ts = np.linspace(0.1, 10.0, 120)
    signs = set()
    for t in ts:
        L = jc_local_generator(float(t), p)
        signs.add(is_lindblad_generator(L).valid)
    assert signs == {True, False}


def test_jc_channel_is_cptp_everywhere():
    for pars in (JCParams(omega=0.2, gamma=0.35),
                 JCParams(omega=0.2, gamma=0.35, alpha_x=0.0, alpha_y=0.0, alpha_z=0.0),
                 JCParams(omega=0.05, gamma=1.0)):
        for t in np.arange(0.0, 12.0, 0.5):
            assert verify_channel(jc_channel(float(t), pars)).is_channel


def test_jc_channel_at_zero_time():
    p = JCParams(omega=0.2, gamma=0.35)
    assert np.abs(jc_channel(0.0, p).entries - np.eye(4)).max() < 1e-14


def test_jc_backbone_without_mixing():
    p0 = JCParams(omega=0.2, gamma=0.35, alpha_x=0.0, alpha_y=0.0, alpha_z=0.0)
    g = abs(jc_decay_function(3.0, p0))
    M = jc_channel(3.0, p0).entries
    want = np.diag([1.0, g, g, g * g])
    want[3, 0] = 1.0 - g * g
    assert np.abs(M - want).max() < 1e-13


def test_jc_channel_singular_where_decay_vanishes():
    # first zero of the decay envelope for these parameters
    t_star = 27.226888500691746
    p0 = JCParams(omega=0.2, gamma=0.35, alpha_x=0.0, alpha_y=0.0, alpha_z=0.0)
    assert abs(jc_decay_function(t_star, p0)) < 1e-12
    r = markovian_check(jc_channel(t_star, p0))
    assert r.verdict is Verdict.SINGULAR


def test_jc_measure_dips_and_returns():
    p = JCParams(omega=0.2, gamma=0.35)
    early = markovianity_measure(jc_channel(2.0, p))
    dip = markovianity_measure(jc_channel(7.6, p))
    back = markovianity_measure(jc_channel(12.0, p))
    assert early >= 1.0 - 1e-6
    assert dip < 0.5
    assert back >= 1.0 - 1e-6


def test_random_channel_is_cptp_all_dims():
    for d in range(2, 9):
        rep = verify_channel(random_channel(d, 7))
        assert rep.is_channel


def test_random_channel_deterministic_and_distinct():
    A = random_channel(2, 42)
    B = random_channel(2, 42)
    C = random_channel(2, 43)
    assert np.abs(A.entries - B.entries).max() == 0.0
    assert np.abs(A.entries - C.entries).max() > 1e-3


def test_random_channel_range():
    with pytest.raises(RangeError):
        random_channel(1, 0)
    with pytest.raises(RangeError):
        random_channel(9, 0)


def test_random_lindblad_scale():
    with pytest.raises(RangeError):
        random_lindblad(2, 0, scale=0.0)
    L = random_lindblad(3, 4, scale=0.25)
    assert abs(np.linalg.norm(L.entries, 2) - 0.25) < 1e-10
    assert is_lindblad_generator(L).valid


def test_random_channels_stack_the_one_seed_draws():
    seeds = [3, 10**12 + 7, 0, 3]
    for d in (2, 3):
        stack = random_channels(d, seeds)
        assert stack.shape == (len(seeds), d * d, d * d)
        for E, s in zip(stack, seeds):
            assert np.array_equal(E, random_channel(d, s).entries)
    # one Generator passed twice draws twice from its stream, in order
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    pair = random_channels(2, [rng_a, rng_a])
    assert np.array_equal(pair[0], random_channel(2, rng_b).entries)
    assert np.array_equal(pair[1], random_channel(2, rng_b).entries)


class _ZeroFirstDraw(np.random.Generator):
    """The Generator of default_rng(seed), except that its first Gaussian
    draw (two calls: real and imaginary parts) is all zeros, so the first
    marginal is singular."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.zeros = 2

    def standard_normal(self, shape):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(shape)
        return super().standard_normal(shape)


def test_a_singular_marginal_redraws_from_its_own_generator():
    stack = random_channels(2, [11, _ZeroFirstDraw(5), 12])
    assert np.array_equal(stack[1], random_channel(2, 5).entries)
    assert np.array_equal(stack[0], random_channel(2, 11).entries)
    assert np.array_equal(stack[2], random_channel(2, 12).entries)
    assert np.array_equal(random_channel(2, _ZeroFirstDraw(5)).entries, stack[1])
