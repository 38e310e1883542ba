"""Write the comparison corpus: one canonical JSON line per decided input.

    PYTHONPATH=src python tests/corpus.py > corpus.jsonl

Every input is built from markovscope alone with fixed seeds, so two commits
decide the same inputs, and `diff` of their two files lists every report
that moved.  The families are the exp(tL) recipes at d = 2, 3 and 4 (every
member is exp(L) for a valid L), random channels, unitary rotations mixed
with random channels, and the Jordan-block, rotation, figure-2a, damped
oscillation, transpose and reset channels.  Each is decided one map at a
time ("one" lines) and once more as one markovian_checks stack per dimension
("stacked" lines); a last d = 3 stack at m_max = 11 meets the branch budget
("budget" lines).  A line holds the report's verdict, witness, best_branch,
max_min_eigenvalue, mu_min, measure and diagnostics and, for a qubit, the
Lorentz values.  Floats are written by repr, so equal lines mean equal bits.
pytest does not collect this file.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from markovscope import (
    ChannelMatrix,
    ChannelStack,
    JCParams,
    MarkovscopeError,
    OperatorBasis,
    dephasing_channel,
    evolve,
    figure2a_mixture,
    jc_channel,
    lorentz_singular_values,
    markovian_check,
    markovian_checks,
    mix,
    rabi_unitary,
    random_channel,
    random_lindblad,
    transpose_approximation,
)
from markovscope.channels import as_matrix_units


def exp_tl(d: int, n: int, t_max: float, k: int) -> list[ChannelMatrix]:
    """The (d, n, t_max, k) exp(tL) set of ROADMAP.md."""
    rng = np.random.default_rng(k)
    out = []
    for _ in range(n):
        seed = int(rng.integers(0, 2**31))
        scale = rng.uniform(0.05, 5)
        ts = rng.uniform(0, t_max)
        out.append(evolve(random_lindblad(d, seed, scale), ts / scale))
    return out


def jordan_channel(b: float) -> ChannelMatrix:
    """A qubit channel with a Jordan block at the eigenvalue 0.5 (Pauli basis)."""
    E = np.array([[1, 0, 0, 0], [0, 0.5, b, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.3]])
    return ChannelMatrix(E, OperatorBasis.pauli())


def reset_channel(d: int) -> ChannelMatrix:
    """rho -> tr(rho) |0><0|: a singular channel."""
    E = np.zeros((d * d, d * d))
    E[0, :: d + 1] = 1.0
    return ChannelMatrix(E, OperatorBasis.matrix_units(d))


def families() -> dict[str, list[ChannelMatrix]]:
    grid = np.linspace(0.0, 1.0, 51)
    jc = JCParams(omega=0.2, gamma=0.35)
    return {
        "exp-d2": exp_tl(2, 400, 30, 12),
        "exp-d3": exp_tl(3, 120, 25, 128),
        "exp-d4": exp_tl(4, 30, 25, 4),
        "random-d2": [random_channel(2, s) for s in range(600)],
        "random-d3": [random_channel(3, s) for s in range(150)],
        "random-d4": [random_channel(4, s) for s in range(20)],
        "rabi-mix": [mix(rabi_unitary(4 * p), random_channel(2, 1000 + s), p)
                     for s, p in enumerate(grid)],
        "jordan": [jordan_channel(b) for b in (0.01, 0.05, 0.1, 0.2, 0.4)],
        "rabi": [rabi_unitary(np.pi * x) for x in grid] + [rabi_unitary(np.pi / 2)],
        "figure2a": [figure2a_mixture(p) for p in grid],
        "jc": [jc_channel(t, jc) for t in np.arange(0.0, 30.0, 0.25)]
              + [jc_channel(t, JCParams(0.2, 0.35, 0.0, 0.0, 0.0)) for t in (27.2, 27.25)],
        "dephasing": [dephasing_channel(4 * x) for x in grid],
        "transpose": [transpose_approximation()],
        "reset": [reset_channel(d) for d in (2, 3, 4)],
    }


def _fields(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "witness": report.witness_branch,
        "best_branch": report.best_branch,
        "max_min_eigenvalue": report.max_min_eigenvalue,
        "mu_min": report.mu_min,
        "measure": report.measure,
        "diagnostics": report.diagnostics,
    }


def _lorentz(T: ChannelMatrix) -> dict:
    try:
        s = lorentz_singular_values(T)
    except MarkovscopeError as exc:
        return {"lorentz_error": f"{type(exc).__name__}: {exc}"}
    return {"lorentz": [*s.s, s.det_T, s.det_rounding], "td_markovian": bool(s.td_markovian)}


def _line(kind: str, family: str, i: int, fields: dict) -> str:
    return json.dumps({"kind": kind, "family": family, "i": i, **fields})


def _stacked(kind: str, members: list, out, m_max: int = 2) -> None:
    """Decide the (family, index, map) members, all of one dimension, as one stack."""
    d = members[0][2].d
    T = ChannelStack(np.array([M.entries for _, _, M in members]), OperatorBasis.matrix_units(d))
    for (name, i, _), report in zip(members, markovian_checks(T, m_max=m_max)):
        print(_line(kind, name, i, _fields(report)), file=out)


def main(out=sys.stdout) -> None:
    inputs = {name: [as_matrix_units(T) for T in Ts] for name, Ts in families().items()}
    by_d: dict[int, list[tuple[str, int, ChannelMatrix]]] = {}
    for name, Ts in inputs.items():
        for i, T in enumerate(Ts):
            fields = _fields(markovian_check(T))
            if T.d == 2:
                fields.update(_lorentz(T))
            print(_line("one", name, i, fields), file=out)
            by_d.setdefault(T.d, []).append((name, i, T))
    for d in sorted(by_d):
        _stacked("stacked", by_d[d], out)
    # exp(L) members with 4 pairs meet the budget at m_max = 11; random ones
    # without a logarithm are refused before it
    budget = [(name, i, inputs[name][i]) for i in range(30) for name in ("exp-d3", "random-d3")]
    _stacked("budget", budget, out, m_max=11)


if __name__ == "__main__":
    main()
