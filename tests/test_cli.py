"""Command-line behavior: output schemas, CSV shape, exit codes.

Most tests drive cli.main(argv) in process and read the captured stdout;
one subprocess test confirms the module entry point wires up to the same
function.
"""
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import markovscope
from markovscope import channels, cli, errors
from markovscope.channels import ChannelMatrix, ChannelStack, OperatorBasis, verify_channel
from markovscope.io import channel_to_dict, load_channel, save_channel
from markovscope.zoo import (
    dephasing_channel,
    figure2a_mixture,
    rabi_unitary,
    random_channel,
)

CSV_HEADER = "param,markovian,mu_min,measure,td_markovian,det"

REPORT_KEYS = {
    "schema",
    "verdict",
    "dimension",
    "witness_branch",
    "best_branch",
    "max_min_eigenvalue",
    "mu_min",
    "measure",
    "m_max",
    "diagnostics",
}

MU_HALF_MIX = 0.40126269753636545
MEASURE_HALF_MIX = 0.3000554186331298


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def decode_matrix(data):
    return np.array([[complex(re, im) for re, im in row] for row in data])


def test_check_json_markovian(capsys):
    code, out, _ = run_cli(capsys, ["check", "--model", "dephasing", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == REPORT_KEYS
    assert obj["verdict"] == "MARKOVIAN"
    assert obj["measure"] == 1.0
    assert obj["mu_min"] == 0.0
    assert obj["witness_branch"] == []
    assert obj["dimension"] == 2


def test_check_json_not_markovian(capsys):
    code, out, _ = run_cli(
        capsys, ["check", "--model", "figure2a", "--param", "p=0.5", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NOT_MARKOVIAN"
    assert np.abs(obj["mu_min"] - MU_HALF_MIX) < 1e-12
    assert np.abs(obj["measure"] - MEASURE_HALF_MIX) < 1e-12
    assert np.abs(obj["measure"] - np.exp(-3.0 * obj["mu_min"])) < 1e-15
    assert obj["witness_branch"] is None
    assert obj["best_branch"] is not None


def test_check_human_markovian(capsys):
    code, out, _ = run_cli(capsys, ["check", "--model", "rabi", "--param", "theta=0.3"])
    assert code == 0
    assert "verdict: MARKOVIAN" in out
    assert "measure: 1\n" in out
    assert "mu_min: 0\n" in out
    assert "witness branch: [0]" in out
    assert "diagnostics:" in out


def test_check_dump_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check", "--model", "figure2a", "--param", "p=0.5", "--json", "--dump-spectrum"],
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["spectrum"]["clusters"]) == 4
    assert obj["spectrum"]["pairs"] == [[2, 3]]


def test_check_dump_spectrum_human(capsys):
    code, out, _ = run_cli(
        capsys, ["check", "--model", "figure2a", "--param", "p=0.5", "--dump-spectrum"]
    )
    assert code == 0
    assert "verdict: NOT_MARKOVIAN" in out
    assert "witness branch" not in out
    assert "cluster 0:" in out
    assert "conjugate pairs: [[2, 3]]" in out


def test_check_file_input(tmp_path, capsys):
    path = tmp_path / "chan.json"
    save_channel(dephasing_channel(0.7), str(path))
    code, out, _ = run_cli(capsys, ["check", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "MARKOVIAN"


def test_measure_human(capsys):
    code, out, _ = run_cli(capsys, ["measure", "--model", "figure2a", "--param", "p=0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("measure: 0.300055")
    assert lines[1].startswith("mu_min: 0.401262")


def test_tdcheck_json(capsys):
    code, out, _ = run_cli(capsys, ["tdcheck", "--model", "dephasing", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"schema", "td_markovian", "s", "det"}
    assert obj["td_markovian"] is True
    assert np.abs(np.array(obj["s"]) - [1.0, 1.0, np.exp(-2.0), np.exp(-2.0)]).max() < 1e-12
    assert np.abs(obj["det"] - np.exp(-4.0)) < 1e-12


def test_tdcheck_human(capsys):
    code, out, _ = run_cli(capsys, ["tdcheck", "--model", "transpose_approx"])
    assert code == 0
    assert "td_markovian: false" in out
    assert "det: -0.037037" in out


def test_scan_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scan", "--model", "figure2a", "--start", "0", "--stop", "0.1", "--step", "0.05"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    params = [float(row.split(",")[0]) for row in lines[1:]]
    assert np.abs(np.array(params) - [0.0, 0.05, 0.1]).max() < 1e-12
    first = lines[1].split(",")
    assert first[1] == "1"
    assert first[4] == "1"


def test_scan_single_point(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scan", "--model", "figure2a", "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "0.5"
    assert row[1] == "0"
    assert np.abs(float(row[3]) - MEASURE_HALF_MIX) < 1e-10


def test_scan_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        ["scan", "--model", "jc", "--start", "0.2", "--stop", "1.0", "--step", "0.4",
         "-o", str(out_path)],
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_scan_rejects_bad_grid(capsys):
    code, _, err = run_cli(
        capsys,
        ["scan", "--model", "dephasing", "--start", "2.0", "--stop", "1.0", "--step", "0.5"],
    )
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(
        capsys,
        ["scan", "--model", "dephasing", "--start", "0.0", "--stop", "1.0", "--step", "0"],
    )
    assert code == 1
    assert "error:" in err


def test_scan_grid_row_bound(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 5)
    assert cli._scan_grid(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(errors.ParseError, match="more than 5 rows"):
        cli._scan_grid(0.0, 1.25, 0.25)


def _validated_members(*mocks):
    """Maps validated through the wrapped verify_channel: one per call on a
    map, one per member on a ChannelStack."""
    return sum(len(c.args[0]) if isinstance(c.args[0], ChannelStack) else 1
               for m in mocks for c in m.call_args_list)


def test_each_channel_is_validated_once(capsys):
    # markovian_check validates; the TD column reuses that validation.  A
    # sample validates each chunk in one call, one validation per member.
    with mock.patch("markovscope.decision.verify_channel", wraps=verify_channel) as mk, \
            mock.patch("markovscope.qubit.verify_channel", wraps=verify_channel) as td:
        code, out, _ = run_cli(
            capsys, ["scan", "--model", "jc", "--start", "0.5", "--stop", "1.5", "--step", "0.5"]
        )
        assert code == 0 and len(out.strip().splitlines()) == 4
        assert _validated_members(mk, td) == 3
        cli.sample_fractions(2, 70, 11)  # chunks of 64 and 6
        assert _validated_members(mk, td) == 3 + 70
        assert mk.call_count + td.call_count == 3 + 2


def test_hermitian_basis_matrix_is_computed_once_per_row_and_per_chunk(capsys):
    # a scan row: markovian_check (validation and eig share one), the Lorentz
    # values and the determinant; a sample: one per chunk, shared by
    # validation, eig and the Lorentz values
    with mock.patch("markovscope.channels.hermitian_basis_matrix",
                    wraps=channels.hermitian_basis_matrix) as hbm:
        code, _, _ = run_cli(
            capsys, ["scan", "--model", "jc", "--start", "0.5", "--stop", "1.5", "--step", "0.5"]
        )
        assert code == 0 and hbm.call_count == 3 * 3
        hbm.reset_mock()
        cli.sample_fractions(2, 70, 11)
        assert hbm.call_count == 2


def test_scan_needs_sweep_param(capsys):
    code, _, err = run_cli(
        capsys,
        ["scan", "--model", "transpose_approx", "--start", "0", "--stop", "1", "--step", "0.5"],
    )
    assert code == 1
    assert "error:" in err


def test_sample_json(capsys):
    code, out, _ = run_cli(capsys, ["sample", "--d", "2", "--n", "40", "--seed", "7"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {
        "schema",
        "d",
        "n",
        "seed",
        "fraction_markovian",
        "fraction_td_markovian",
        "fraction_markovian_and_not_td",
    }
    assert obj["d"] == 2 and obj["n"] == 40 and obj["seed"] == 7
    assert 0.0 <= obj["fraction_markovian"] <= 1.0
    assert 0.0 <= obj["fraction_td_markovian"] <= 1.0
    assert obj["fraction_markovian_and_not_td"] == 0.0


def test_sample_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["sample", "--n", "30", "--seed", "3"])
    code2, out2, _ = run_cli(capsys, ["sample", "--n", "30", "--seed", "3"])
    assert code1 == 0 and code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_sample_qutrit_omits_td(capsys):
    code, out, _ = run_cli(capsys, ["sample", "--d", "3", "--n", "6", "--seed", "11"])
    assert code == 0
    obj = json.loads(out)
    assert obj["fraction_td_markovian"] is None
    assert obj["fraction_markovian_and_not_td"] is None
    assert 0.0 <= obj["fraction_markovian"] <= 1.0


def test_power_identity_exponent(capsys):
    code, out, _ = run_cli(
        capsys, ["power", "--model", "figure2a", "--param", "p=0.3", "--s", "1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == "pauli"
    M = decode_matrix(obj["data"])
    assert np.abs(M - figure2a_mixture(0.3).entries).max() < 1e-7


def test_power_semigroup_square(capsys):
    code, out, _ = run_cli(capsys, ["power", "--model", "dephasing", "--s", "2"])
    assert code == 0
    M = decode_matrix(json.loads(out)["data"])
    assert np.abs(M - dephasing_channel(2.0).entries).max() < 1e-9


def test_power_branch_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["power", "--model", "rabi", "--param", "theta=0.3", "--s", "0.5", "--branch", "0"],
    )
    assert code == 0
    M = decode_matrix(json.loads(out)["data"])
    assert np.abs(M - rabi_unitary(0.15).entries).max() < 1e-9


def test_power_file_round_trip(tmp_path, capsys):
    out_path = tmp_path / "half.json"
    code, _, _ = run_cli(
        capsys, ["power", "--model", "dephasing", "--s", "0.5", "-o", str(out_path)]
    )
    assert code == 0
    half = load_channel(str(out_path))
    assert np.abs(half.entries - dephasing_channel(0.5).entries).max() < 1e-9


def test_exit_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["check", str(bad)])
    assert code == 1
    assert "error:" in err

    code, _, _ = run_cli(capsys, ["check"])
    assert code == 1

    code, _, _ = run_cli(capsys, ["check", "--model", "dephasing", "--param", "t"])
    assert code == 1

    code, _, _ = run_cli(capsys, ["check", "--model", "dephasing", "--param", "t=abc"])
    assert code == 1


def test_exit_not_qubit(tmp_path, capsys):
    path = tmp_path / "qutrit.json"
    save_channel(random_channel(3, 5), str(path))
    code, _, err = run_cli(capsys, ["tdcheck", str(path)])
    assert code == 1
    assert "error:" in err


def test_exit_branch_mismatch(capsys):
    code, _, err = run_cli(
        capsys,
        ["power", "--model", "rabi", "--param", "theta=0.3", "--s", "0.5",
         "--branch", "0", "1"],
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--model", "dephasing", "--s", "1e308"],
        ["power", "--model", "rabi", "--s", "1e300"],
        ["power", "--model", "rabi", "--s", "1e20"],
        ["power", "--model", "rabi", "--s", "1e12"],
    ],
)
def test_power_overflow_exits_1(capsys, argv):
    # s L overflows for dephasing and exp(s L) is NaN for rabi at 1e300; at
    # 1e20 and 1e12 exp(s L) is finite but not trace preserving (all zeros,
    # and a (0, 0) entry of 0.99938): no matrix is written
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: exponent")


def test_exit_numerical(capsys):
    code, _, err = run_cli(capsys, ["power", "--model", "transpose_approx", "--s", "0.5"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
def test_defective_spectrum_is_a_verdict_but_has_no_power(b, tmp_path, capsys):
    # a CP qubit channel with a Jordan block at the eigenvalue 0.5
    path = tmp_path / "jordan.json"
    E = np.array([[1, 0, 0, 0], [0, 0.5, b, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.3]])
    save_channel(ChannelMatrix(E, OperatorBasis.pauli()), str(path))
    for command in ("check", "measure"):
        code, out, err = run_cli(capsys, [command, str(path), "--json"])
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "UNSUPPORTED_SPECTRUM"
    code, out, err = run_cli(capsys, ["power", str(path), "--s", "0.5"])
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_exit_not_a_channel(tmp_path, capsys):
    path = tmp_path / "double.json"
    T = ChannelMatrix(2.0 * np.eye(4), OperatorBasis.matrix_units(2))
    save_channel(T, str(path))
    for command in ("check", "tdcheck"):  # tdcheck exited 0 at the parent
        code, _, err = run_cli(capsys, [command, str(path)])
        assert code == 3
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "dephasing", "--param", "t=nan"],
        ["check", "--model", "rabi", "--param", "theta=inf"],
        ["scan", "--model", "dephasing", "--start", "0", "--stop", "nan", "--step", "0.5"],
        ["scan", "--model", "dephasing", "--start", "0", "--stop", "inf", "--step", "0.5"],
        ["check", "--model", "dephasing", "--tol", "nan"],
        ["check", "--model", "dephasing", "--tol", "-1"],
        ["check", "--model", "dephasing", "--m-max", "-1"],
        ["check", "--model", "figure2a", "--m-max", "-1"],
        ["power", "--model", "dephasing", "--s", "nan"],
        ["check", "FILE", "--model", "figure2a"],
        # a winding number beyond the float range
        ["power", "--model", "rabi", "--param", "theta=0.3", "--s", "0.5", "--branch", "1" + "0" * 400],
        ["sample", "--seed", "-1", "--n", "3"],
        # finite, but the rotation angle 2 theta overflows
        ["check", "--model", "rabi", "--param", "theta=1e308"],
        # a map on 1 x 1 matrices; at the parent a numpy traceback
        ["check", "ONE"],
        ["measure", "ONE"],
        # the row count overflows (at the parent an OverflowError traceback)
        ["scan", "--model", "dephasing", "--start=-1e308", "--stop=1e308", "--step=1"],
        # 10^12 rows (at the parent a list that grew until memory ran out)
        ["scan", "--model", "dephasing", "--start", "0", "--stop", "1", "--step", "1e-12"],
    ],
)
def test_invalid_inputs_exit_1(argv, tmp_path, capsys):
    path, one = tmp_path / "chan.json", tmp_path / "one.json"
    save_channel(dephasing_channel(0.7), str(path))
    one.write_text('{"dimension": 1, "representation": "transfer", "data": [[[1.0, 0.0]]]}')
    argv = [{"FILE": str(path), "ONE": str(one)}.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("n, seed", [(True, 1), (3, -1), (3, 1.5), (3, True), (2.0, 1)])
def test_sample_fractions_rejects_bad_count_or_seed(n, seed):
    with pytest.raises(errors.RangeError):
        cli.sample_fractions(2, n, seed)


EXIT_CODES = {
    "MarkovscopeError": 2,
    "InputError": 1,
    "DimensionMismatch": 1,
    "NotASquareOfSquare": 1,
    "UnsupportedBasis": 1,
    "RangeError": 1,
    "NotQubit": 1,
    "InvalidForm": 1,
    "BranchLengthMismatch": 1,
    "ParseError": 1,
    "DefectiveMatrix": 2,
    "StepFailure": 2,
    "ComplexLorentzSpectrum": 2,
    "DegenerateSample": 2,
    "NotAChannel": 3,
    "SingularChannel": 2,
    "NegativeRealEigenvalue": 2,
    "NotHermiticityPreserving": 3,
    "NotAGenerator": 2,
}


def test_every_error_carries_its_exit_code(capsys, monkeypatch):
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.MarkovscopeError)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES
    for name, cls in classes.items():

        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_check", fail)
        assert run_cli(capsys, ["check", "--model", "dephasing"]) == (EXIT_CODES[name], "", "error: boom\n")


def test_tol_flag_loosens_verdict(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check", "--model", "figure2a", "--param", "p=0.5", "--tol", "0.25", "--json"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "MARKOVIAN"


def test_tol_env_var(tmp_path, capsys, monkeypatch):
    obj = channel_to_dict(dephasing_channel(1.0))
    obj["data"][0][0] = [1.0 + 1e-6, 0.0]
    path = tmp_path / "offtp.json"
    path.write_text(json.dumps(obj), encoding="utf-8")

    monkeypatch.delenv("MARKOVSCOPE_TOL", raising=False)
    code, _, err = run_cli(capsys, ["check", str(path)])
    assert code == 3
    assert "error:" in err

    monkeypatch.setenv("MARKOVSCOPE_TOL", "1e-3")
    code, _, _ = run_cli(capsys, ["check", str(path), "--json"])
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_tol_env_var_must_be_finite_positive(value, capsys, monkeypatch):
    monkeypatch.setenv("MARKOVSCOPE_TOL", value)
    code, out, err = run_cli(capsys, ["check", "--model", "dephasing"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: MARKOVSCOPE_TOL must be a finite positive number")


def child_env():
    """The environment of a child process that finds the package this test
    imported, installed or not."""
    src = os.path.dirname(os.path.dirname(markovscope.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "markovscope.cli", "check", "--model", "dephasing", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "MARKOVIAN"


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--model", "dephasing", "--s", "0.5"],
        ["check", "--model", "dephasing", "--json"],
        ["scan", "--model", "figure2a", "--start", "0", "--stop", "1", "--step", "0.1"],
        ["sample", "--n", "5"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # at the parent, each of these exited 1 with "error: [Errno 32] Broken pipe"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "markovscope.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            timeout=120,
            env=child_env(),
        )
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""
