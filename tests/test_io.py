import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovscope import cli
from markovscope.channels import (
    BasisTag,
    OperatorBasis,
    change_basis,
    choi_of,
    kraus_from_choi,
    verify_channel,
)
from markovscope.decision import markovian_check
from markovscope.errors import ParseError
from markovscope.io import (
    channel_from_dict,
    channel_to_dict,
    choi_to_dict,
    generator_from_dict,
    load_channel,
    matrix_from_json,
    matrix_to_json,
    report_to_dict,
    save_channel,
    spectral_to_dict,
    td_report_to_dict,
)
from markovscope.lindblad import GeneratorMatrix, evolve
from markovscope.qubit import td_markovian_check
from markovscope.spectral import eigendecompose
from markovscope.zoo import (
    dephasing_channel,
    figure2a_mixture,
    random_channel,
    random_lindblad,
    transpose_approximation,
)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_json(matrix_to_json(M), 4, "test")
    assert np.abs(back - M).max() == 0.0


def test_matrix_json_rejects_bad_entries():
    with pytest.raises(ParseError):
        matrix_from_json([[1.0]], 1, "test")            # scalar, not [re, im]
    with pytest.raises(ParseError):
        matrix_from_json([[[np.inf, 0.0]]], 1, "test")  # non-finite
    with pytest.raises(ParseError):
        matrix_from_json([[[1.0, 0.0]]], 2, "test")     # wrong shape


def test_matrix_json_keeps_the_sign_of_a_negative_zero():
    M = matrix_from_json([[[-0.0, 1.0], [2, -0.0]], [[0.5, 0.0], [-1.5, 3]]], 2, "test")
    assert np.signbit(M[0, 0].real) and not np.signbit(M[0, 0].imag)
    assert np.signbit(M[0, 1].imag) and M[0, 1].real == 2.0
    assert M[1, 1] == complex(-1.5, 3.0)


@pytest.mark.parametrize("bad", [True, "1.0", None])
def test_matrix_json_rejects_a_non_number_with_the_entry_named(bad):
    # bool is an int in Python and "1.0" converts to a float in numpy:
    # both must still be refused, with the message of the entry by entry check
    data = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]]
    with pytest.raises(ParseError, match=r"^test\[1\]\[1\]: expected a \[re, im\] pair, got "):
        matrix_from_json(data, 2, "test")


# random channels (mostly without a Hermitian logarithm) and semigroup
# snapshots exp(L/2) (Markovian), at every dimension the file format serves
_channels = st.builds(
    lambda d, seed, semigroup: (
        evolve(random_lindblad(d, seed), 0.5) if semigroup else random_channel(d, seed)
    ),
    d=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**31 - 1),
    semigroup=st.booleans(),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=_channels, form=st.sampled_from(["matrix_units", "pauli", "choi"]))
def test_channel_file_round_trip(T, form):
    assume(form != "pauli" or T.d == 2)  # the Pauli basis exists only for qubits
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chan.json")
        if form == "choi":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(choi_to_dict(choi_of(T)), fh)
        else:
            T = change_basis(T, OperatorBasis(BasisTag(form), T.d))
            save_channel(T, path)
        back = load_channel(path)
        assert back.basis == T.basis
        assert back.entries.tobytes() == T.entries.tobytes()

        out = StringIO()
        with redirect_stdout(out):
            assert cli.main(["check", path, "--json"]) == 0
    expected = json.loads(json.dumps(report_to_dict(markovian_check(T))))
    assert json.loads(out.getvalue()) == expected


def test_pauli_transfer_round_trip():
    T = transpose_approximation()
    back = channel_from_dict(channel_to_dict(T))
    assert back.basis == T.basis
    assert np.abs(back.entries - T.entries).max() == 0.0


def test_kraus_representation_parses():
    T = random_channel(2, 8)
    ks = kraus_from_choi(choi_of(T))
    obj = {
        "dimension": 2,
        "representation": "kraus",
        "basis": "matrix_units",
        "data": [matrix_to_json(K) for K in ks.operators],
    }
    back = channel_from_dict(obj)
    assert np.abs(back.entries - T.entries).max() < 1e-9


def test_choi_representation_parses():
    T = random_channel(2, 15)
    back = channel_from_dict(choi_to_dict(choi_of(T)))
    assert np.abs(back.entries - T.entries).max() < 1e-13


def test_generator_round_trip():
    L = random_lindblad(2, 3)
    obj = {
        "dimension": 2,
        "representation": "generator",
        "basis": "matrix_units",
        "data": matrix_to_json(L.entries),
    }
    back = generator_from_dict(obj)
    assert isinstance(back, GeneratorMatrix)
    assert np.abs(back.entries - L.entries).max() == 0.0
    with pytest.raises(ParseError):
        channel_from_dict(obj)
    with pytest.raises(ParseError):
        generator_from_dict(channel_to_dict(random_channel(2, 1)))


def test_header_validation():
    good = channel_to_dict(random_channel(2, 2))
    for mutate in (
        lambda o: o.pop("dimension"),
        lambda o: o.update(dimension=0),
        lambda o: o.update(dimension=True),
        lambda o: o.update(representation="unitary"),
        lambda o: o.update(basis="gell_mann"),
    ):
        obj = dict(good)
        mutate(obj)
        with pytest.raises(ParseError):
            channel_from_dict(obj)
    with pytest.raises(ParseError):
        channel_from_dict("not a dict")


def test_kraus_and_choi_require_matrix_units():
    obj = {"dimension": 2, "representation": "choi", "basis": "pauli", "data": []}
    with pytest.raises(ParseError):
        channel_from_dict(obj)


def test_load_channel_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(ParseError):
        load_channel(str(path))


def test_report_serialization_finite():
    r = markovian_check(figure2a_mixture(0.5))
    obj = report_to_dict(r)
    json.dumps(obj)
    assert obj["schema"] == 1
    assert obj["verdict"] == "NOT_MARKOVIAN"
    assert obj["witness_branch"] is None
    assert obj["best_branch"] == [0]
    assert abs(obj["mu_min"] - r.mu_min) < 1e-15


def test_report_serialization_infinite_mu():
    r = markovian_check(transpose_approximation())
    obj = report_to_dict(r)
    json.dumps(obj)
    assert obj["verdict"] == "NO_HERMITIAN_LOG"
    assert obj["mu_min"] is None          # inf is not JSON
    assert obj["measure"] == 0.0


def test_td_report_serialization():
    obj = td_report_to_dict(td_markovian_check(dephasing_channel(1.0)))
    json.dumps(obj)
    assert obj["td_markovian"] is True
    assert len(obj["s"]) == 4
    assert abs(obj["det"] - np.exp(-4.0)) < 1e-14


def test_spectral_serialization():
    S = eigendecompose(figure2a_mixture(0.5))
    obj = spectral_to_dict(S)
    json.dumps(obj)
    assert len(obj["clusters"]) == 4
    assert obj["pairs"] == [[2, 3]]
    assert "projector" not in obj["clusters"][0]
    obj2 = spectral_to_dict(S, include_projectors=True)
    assert "projector" in obj2["clusters"][0]


def test_saved_channel_still_verifies(tmp_path):
    T = random_channel(2, 30)
    path = tmp_path / "c.json"
    save_channel(T, str(path))
    back = load_channel(str(path))
    assert verify_channel(back).is_channel
