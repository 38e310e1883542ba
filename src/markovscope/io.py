"""JSON file formats for channels, generators and analysis reports.

A map on disk is an object

    {"dimension": d,
     "representation": "kraus" | "choi" | "transfer" | "generator",
     "basis": "matrix_units" | "pauli",
     "data": ...}

with every complex entry written as a two-element array [re, im].  For the
kraus representation, data is a list of d x d matrices (basis must be
matrix_units, and so it must for choi, whose index convention is tied to the
matrix-unit ordering).  For transfer and generator, data is one d^2 x d^2
matrix in the declared basis.  NaN or infinite entries are rejected.
"""
from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .channels import (
    BasisTag,
    ChannelMatrix,
    ChoiMatrix,
    KrausSet,
    OperatorBasis,
    involution_gamma,
    transfer_from_kraus,
)
from .decision import MarkovReport
from .errors import ParseError
from .lindblad import GeneratorMatrix
from .qubit import TdReport
from .spectral import SpectralData

SCHEMA_VERSION = 1

_BASIS_NAMES = {"matrix_units": BasisTag.MATRIX_UNITS, "pauli": BasisTag.PAULI_NORMALIZED}


def _encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _decode_complex(entry: Any, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise ParseError(f"{where}: expected a [re, im] pair, got {entry!r}")
    re, im = float(entry[0]), float(entry[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"{where}: non-finite entry {entry!r}")
    return complex(re, im)


def matrix_to_json(M: np.ndarray) -> list[list[list[float]]]:
    M = np.asarray(M, dtype=complex)
    return [[_encode_complex(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def _plain_matrix(data: Any, n: int) -> np.ndarray | None:
    """data as an (n, n) complex matrix when it is a list of n lists of n
    [re, im] pairs of finite ints and floats, else None."""
    if type(data) is not list or len(data) != n:
        return None
    if set(map(type, data)) != {list} or set(map(len, data)) != {n}:
        return None
    entries = list(chain.from_iterable(data))
    if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) != {2}:
        return None
    scalars = list(chain.from_iterable(entries))
    if not set(map(type, scalars)) <= {int, float}:  # no bool, str or None
        return None
    try:
        parts = np.array(scalars, dtype=float).reshape(n, n, 2)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(parts).all():
        return None
    # the parts are set apart: re + 1j * im would turn a -0.0 real part into 0.0
    M = np.empty((n, n), dtype=complex)
    M.real = parts[..., 0]
    M.imag = parts[..., 1]
    return M


def matrix_from_json(data: Any, n: int, where: str) -> np.ndarray:
    M = _plain_matrix(data, n)
    if M is not None:
        return M
    # the entry by entry decoding names the first bad entry
    if not isinstance(data, list) or len(data) != n:
        raise ParseError(f"{where}: expected {n} rows, got {len(data) if isinstance(data, list) else type(data).__name__}")
    M = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i} is not a list of {n} entries")
        for j, entry in enumerate(row):
            M[i, j] = _decode_complex(entry, f"{where}[{i}][{j}]")
    return M


def _parse_header(obj: Any) -> tuple[int, str, BasisTag]:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("dimension", "representation", "data"):
        if key not in obj:
            raise ParseError(f"missing required key {key!r}")
    d = obj["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError(f"dimension must be a positive integer, got {d!r}")
    rep = obj["representation"]
    if rep not in ("kraus", "choi", "transfer", "generator"):
        raise ParseError(f"unknown representation {rep!r}")
    basis_name = obj.get("basis", "matrix_units")
    if basis_name not in _BASIS_NAMES:
        raise ParseError(f"unknown basis {basis_name!r}")
    tag = _BASIS_NAMES[basis_name]
    if rep in ("kraus", "choi") and tag is not BasisTag.MATRIX_UNITS:
        raise ParseError(f"representation {rep!r} is tied to the matrix_units convention")
    return d, rep, tag


def channel_from_dict(obj: Any) -> ChannelMatrix:
    d, rep, tag = _parse_header(obj)
    if rep == "generator":
        raise ParseError("this file holds a generator, not a channel")
    data = obj["data"]
    if rep == "kraus":
        if not isinstance(data, list) or not data:
            raise ParseError("kraus data must be a nonempty list of matrices")
        ops = tuple(matrix_from_json(K, d, f"kraus[{a}]") for a, K in enumerate(data))
        return transfer_from_kraus(KrausSet(ops))
    M = matrix_from_json(data, d * d, rep)
    if rep == "choi":
        return ChannelMatrix(involution_gamma(M), OperatorBasis.matrix_units(d))
    return ChannelMatrix(M, OperatorBasis(tag, d))


def generator_from_dict(obj: Any) -> GeneratorMatrix:
    d, rep, tag = _parse_header(obj)
    if rep != "generator":
        raise ParseError(f"expected a generator file, got representation {rep!r}")
    M = matrix_from_json(obj["data"], d * d, rep)
    return GeneratorMatrix(M, OperatorBasis(tag, d))


def load_channel(path: str) -> ChannelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return channel_from_dict(obj)


def channel_to_dict(T: ChannelMatrix) -> dict:
    return {
        "dimension": T.d,
        "representation": "transfer",
        "basis": T.basis.tag.value,
        "data": matrix_to_json(T.entries),
    }


def save_channel(T: ChannelMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(T), fh)
        fh.write("\n")


def choi_to_dict(C: ChoiMatrix) -> dict:
    return {
        "dimension": C.dimension,
        "representation": "choi",
        "basis": "matrix_units",
        "data": matrix_to_json(C.entries),
    }


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def report_to_dict(report: MarkovReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "verdict": report.verdict.value,
        "dimension": report.dimension,
        "witness_branch": None if report.witness_branch is None else list(report.witness_branch),
        "best_branch": None if report.best_branch is None else list(report.best_branch),
        "max_min_eigenvalue": _finite_or_none(report.max_min_eigenvalue),
        "mu_min": _finite_or_none(report.mu_min),
        "measure": float(report.measure),
        "m_max": report.m_max,
        "diagnostics": report.diagnostics,
    }


def td_report_to_dict(report: TdReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "td_markovian": report.td_markovian,
        "s": [float(x) for x in report.s.s],
        "det": float(report.s.det_T),
    }


def spectral_to_dict(S: SpectralData, include_projectors: bool = False) -> dict:
    clusters = []
    for c in S.clusters:
        entry = {
            "value": _encode_complex(c.value),
            "multiplicity": c.multiplicity,
            "kind": c.kind.value,
        }
        if include_projectors:
            entry["projector"] = matrix_to_json(c.projector)
        clusters.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "dimension": S.dimension,
        "clusters": clusters,
        "pairs": [list(pq) for pq in S.pairs],
    }
