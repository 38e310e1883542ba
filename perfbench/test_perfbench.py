"""Tests for the benchmark's reference code, against closed forms, and a
quick end-to-end run of every workload."""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qubit-sample", "jc-scan", "qudit-check")
END_TO_END = {"channels_per_s", "latency_ms_p50", "setup_s", "peak_rss_mb"}


def test_transpose_approximation_lorentz_values():
    s, det = ref.lorentz_singular_values(ref.transpose_approximation_pauli())
    assert np.allclose(s, [1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    assert abs(det + 1 / 27) < 1e-15
    assert ref.td_markovian_margin(ref.transpose_approximation_pauli())[0] is False


@pytest.mark.parametrize("g", [0.9, 0.5, 0.1, 0.005])
def test_amplitude_damping_lorentz_values(g):
    # M g M' g is a defective matrix here, so its eigenvalues come out with
    # errors near the square root of the rounding unit
    s, det = ref.lorentz_singular_values(ref.amplitude_damping_pauli(g))
    assert np.allclose(s, [g] * 4, rtol=1e-6, atol=0)
    assert math.isclose(det, g**4, rel_tol=1e-12)
    # s1^2 s4^2 = s1 s2 s3 s4: exactly on the boundary of the criterion
    assert ref.td_markovian_margin(ref.amplitude_damping_pauli(g))[1] < 1e-6


@pytest.mark.parametrize("omega,gamma", [(0.2, 0.35), (0.5, 0.35), (0.1, 1.0)])
def test_jc_matrix_is_identity_at_zero(omega, gamma):
    assert ref.jc_decay(0.0, omega, gamma) == 1.0
    assert np.allclose(ref.jc_pauli(0.0, omega, gamma), np.eye(4), atol=1e-15)
    assert np.allclose(ref.jc_pauli(0.0, omega, gamma, (0, 0, 0)), np.eye(4), atol=1e-15)


def test_bloch_rotation_turns_y_into_z_about_x():
    R = ref.bloch_rotation_pauli(0, math.pi / 2)
    assert np.allclose(R @ [0, 0, 1, 0], [0, 0, 0, 1], atol=1e-15)


def test_pauli_matrix_of_a_unitary_channel_is_a_rotation():
    U = ref.haar_unitary(2, np.random.default_rng(3))
    M = ref.pauli_matrix(ref.unitary_superop(U))
    assert np.allclose(M[0], [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(M[1:, 1:] @ M[1:, 1:].T, np.eye(3), atol=1e-12)
    assert math.isclose(np.linalg.det(M), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_semigroup_elements_are_channels(d):
    rng = np.random.default_rng(d)
    L = ref.generic_generator(d, rng, 1.0, 0.3)
    T = expm(L)
    trace_covector = np.eye(d).reshape(-1)
    assert np.allclose(trace_covector @ T, trace_covector, atol=1e-12)
    assert ref.min_choi_eigenvalue(T, d) > -1e-12
    assert np.allclose(ref.flip(d) @ T @ ref.flip(d), T.conj(), atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_energy_basis_generator_has_one_pair_per_gap(d):
    rng = np.random.default_rng(10 + d)
    E = np.linspace(0.0, 2.4, d)
    T = expm(ref.energy_basis_generator(E, rng, ref.haar_unitary(d, rng), 0.2))
    pairs, nonpos, _ = ref.spectrum_summary(T)
    assert pairs == d * (d - 1) // 2 and not nonpos


def test_pi_gap_gives_a_double_negative_eigenvalue():
    rng = np.random.default_rng(1)
    E = (0.0, math.pi, 2.0)
    T = expm(ref.energy_basis_generator(E, rng, ref.haar_unitary(3, rng), 0.05))
    ev = np.linalg.eigvals(T)
    negative = ev[(np.abs(ev.imag) < 1e-7) & (ev.real < 0)]
    assert negative.size == 2 and abs(negative[0] - negative[1]) < 1e-9


def test_brute_force_mu_is_zero_on_a_semigroup_element():
    rng = np.random.default_rng(5)
    T = expm(ref.generic_generator(3, rng, 1.0, 0.3))
    assert ref.brute_force_mu(T, 3) <= 1e-9


def test_determinant_identity_holds_with_the_measure_formula():
    rng = np.random.default_rng(6)
    T = expm(ref.generic_generator(3, rng, 1.0, 0.3))
    mu = 0.01
    assert ref.determinant_identity_gap(T, 3, mu, math.exp(mu * (1 - 9))) < 1e-9
    assert ref.determinant_identity_gap(T, 3, mu, 1.0) > 1e-3


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_end_to_end(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", "0", "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1


def test_quick_traced_run_reports_layers():
    proc = _run(["--workload", "jc-scan", "--seed", "3", "--seconds", "0.5",
                 "--trace", "1", "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == declared
    assert metrics["channels.verify_channel.calls_per_channel"]["value"] > 0
    assert metrics["channels.determinant.ms_per_channel"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "qubit-sample", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
