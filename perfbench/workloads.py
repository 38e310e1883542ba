"""The benchmark's workloads: inputs derived from the seed, the timed
operations, and the checks of their outputs.

A workload hands out rounds of operations.  Every round of a workload has
the same make-up, so the share of failed operations is the same in every
run.  An operation is one call into a public entry point of markovscope:
`cli.sample_fractions` or `cli.main`.  Checks run after the timed region and
compare the outputs with the reference code in `reference.py` and with
properties of the method, never with a stored copy of earlier output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.linalg import expm

import reference as ref

# Markovian and TD-Markovian shares of random qubit channels, from 20,000
# samples on seeds 900000..900039 that no workload seed reaches.
QUBIT_MARKOVIAN_RATE = 0.0200
QUBIT_TD_RATE = 0.169
# td_markovian_check compares det T with this absolute threshold.
TD_DET_THRESHOLD = 1e-9


@dataclass
class Op:
    """One timed call.  `label` names the input class; `spec` holds what the
    check needs to know about the input."""

    label: str
    channels: int
    call: Callable[[], Any]
    spec: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured; looked up at call time so a
    tracer wrapping cli.main sees the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _same_outputs(results, check: CheckResult) -> dict[int, Any]:
    """First output of each distinct operation; later repeats must match it."""
    first: dict[int, Any] = {}
    for op, out, _ in results:
        key = id(op)
        if key not in first:
            first[key] = out
        else:
            check.expect(out == first[key], f"{op.label}: output changed between rounds")
    return first


class Workload:
    name = ""

    def __init__(self, ms, seed: int, workdir: str, quick: bool):
        self.ms = ms  # dict of markovscope modules by short name
        self.seed = seed
        self.workdir = workdir
        self.quick = quick

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, results) -> CheckResult:
        raise NotImplementedError


# --- qubit-sample ---------------------------------------------------------

class QubitSample(Workload):
    """Batches of B random qubit channels through cli.sample_fractions, one
    batch per round, on consecutive seeds."""

    name = "qubit-sample"

    def __init__(self, ms, seed, workdir, quick):
        super().__init__(ms, seed, workdir, quick)
        self.batch = 20 if quick else 250
        self.first_seed = 10_000 * (seed % 100_000) + 1

    def round(self, index):
        cli, batch, seed_k = self.ms["cli"], self.batch, self.first_seed + index
        return [Op("batch", batch, lambda: cli.sample_fractions(2, batch, seed_k), {"seed": seed_k})]

    def check(self, results):
        check = CheckResult()
        n = n_mk = n_td = 0
        for op, out, _ in results:
            b = self.batch
            check.expect(
                out["d"] == 2 and out["n"] == b and out["seed"] == op.spec["seed"],
                f"batch {op.spec['seed']}: header {out}",
            )
            check.expect(
                out["fraction_markovian_and_not_td"] == 0,
                f"batch {op.spec['seed']}: Markovian but not TD-Markovian "
                f"{out['fraction_markovian_and_not_td']}",
            )
            n += b
            n_mk += round(out["fraction_markovian"] * b)
            n_td += round(out["fraction_td_markovian"] * b)
        for what, count, rate in (("Markovian", n_mk, QUBIT_MARKOVIAN_RATE), ("TD", n_td, QUBIT_TD_RATE)):
            band = 6.0 * math.sqrt(rate * (1 - rate) / n) + 1.0 / n
            check.expect(
                abs(count / n - rate) <= band,
                f"pooled {what} share {count / n:.4f} outside {rate} +- {band:.4f} (n = {n})",
            )
        self._recount(results[0], check)
        return check

    def _recount(self, first, check: CheckResult) -> None:
        """Recount one batch channel by channel: TD-Markovian with the
        reference Lorentz singular values, Markovian with markovian_check."""
        op, out, _ = first
        zoo, decision = self.ms["zoo"], self.ms["decision"]
        b = self.batch
        child_seeds = np.random.SeedSequence(op.spec["seed"]).generate_state(b, dtype=np.uint64)
        td = mk = borderline = 0
        for s in child_seeds:
            T = zoo.random_channel(2, int(s))
            ok, margin = ref.td_markovian_margin(ref.pauli_matrix(np.asarray(T.entries)))
            td += ok
            borderline += margin < 1e-6
            mk += decision.markovian_check(T).verdict is decision.Verdict.MARKOVIAN
        check.expect(
            abs(td - round(out["fraction_td_markovian"] * b)) <= borderline,
            f"batch {op.spec['seed']}: reference counts {td} TD-Markovian, "
            f"report says {out['fraction_td_markovian'] * b:.0f}",
        )
        check.expect(
            mk == round(out["fraction_markovian"] * b),
            f"batch {op.spec['seed']}: per-channel count {mk} Markovian, "
            f"report says {out['fraction_markovian'] * b:.0f}",
        )


# --- jc-scan --------------------------------------------------------------

@dataclass(frozen=True)
class Scan:
    label: str
    omega: float
    gamma: float
    alphas: tuple[float, float, float]
    start: float
    step: float
    rows: int
    params: tuple[str, ...]  # --param items passed to the CLI

    def argv(self) -> list[str]:
        stop = self.start + (self.rows - 0.5) * self.step
        argv = ["scan", "--model", "jc", "--start", repr(self.start),
                "--stop", repr(stop), "--step", repr(self.step)]
        for p in self.params:
            argv += ["--param", p]
        return argv

    def times(self) -> np.ndarray:
        return np.array([self.start + k * self.step for k in range(self.rows)])


class JcScan(Workload):
    """Three scans of the damped-oscillation model per round: the default
    weights and a stronger coupling on seed-shifted grids, and the unweighted
    backbone on a fixed grid."""

    name = "jc-scan"
    HEADER = "param,markovian,mu_min,measure,td_markovian,det"

    def __init__(self, ms, seed, workdir, quick):
        super().__init__(ms, seed, workdir, quick)
        rng = np.random.default_rng([seed, 2])
        rows, step = (60, 0.5) if quick else (600, 0.05)
        omega = round(float(rng.uniform(0.45, 0.6)), 6)
        default_alphas = (0.5, 1.0, 0.5)
        self.scans = [
            Scan("default", 0.2, 0.35, default_alphas,
                 round(float(rng.uniform(0.01, 0.05)), 6), step, rows, ()),
            Scan("strong", omega, 0.35, default_alphas,
                 round(float(rng.uniform(0.01, 0.05)), 6), step, rows, (f"omega={omega!r}",)),
            # Fixed inputs: this scan fails every time until td_markovian_check
            # stops comparing det T with an absolute threshold.
            Scan("backbone", 0.2, 0.35, (0.0, 0.0, 0.0), step, step, rows,
                 ("alpha_x=0", "alpha_y=0", "alpha_z=0")),
        ]
        cli = self.ms["cli"]
        self.ops = [
            Op(s.label, s.rows, lambda argv=s.argv(): run_cli(cli, argv), {"scan": s})
            for s in self.scans
        ]

    def round(self, index):
        return self.ops

    def check(self, results):
        check = CheckResult()
        first = _same_outputs(results, check)
        faulty = {}
        for op in self.ops:
            faulty[op.label] = self._check_scan(op.spec["scan"], first[id(op)], check)
        for op, _, _ in results:
            check.failed += faulty[op.label]
        return check

    def _check_scan(self, s: Scan, output, check: CheckResult) -> bool:
        """Check one scan; True when it shows only the known threshold fault
        (allowed on the backbone alone)."""
        code, text = output
        lines = text.strip().split("\n")
        if not check.expect(code == 0 and lines[0] == self.HEADER and len(lines) == s.rows + 1,
                            f"{s.label}: exit {code}, {len(lines) - 1} rows, first line {lines[0]!r}"):
            return False
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        t, mk, mu, M, td, det = table.T
        ts = s.times()
        check.expect(np.allclose(t, ts, rtol=1e-9, atol=1e-9), f"{s.label}: grid differs")
        check.expect(bool(np.all((M >= 0) & (M <= 1))), f"{s.label}: measure outside [0, 1]")
        markov = mk == 1
        check.expect(bool(np.all(mu[markov] == 0) and np.all(M[markov] == 1)),
                     f"{s.label}: a Markovian row has mu_min != 0 or measure != 1")
        with np.errstate(over="ignore"):
            expected_M = np.exp(-3.0 * mu[~markov])
        check.expect(bool(np.allclose(M[~markov], expected_M, rtol=1e-9, atol=1e-12)
                          and np.all(mu[~markov] > 0)),
                     f"{s.label}: measure != exp(-3 mu_min) on a non-Markovian row")
        ref_det = np.array([np.linalg.det(ref.jc_pauli(x, s.omega, s.gamma, s.alphas)) for x in ts])
        worst = float(np.max(np.abs(det - ref_det) / (1e-10 + np.abs(ref_det))))
        check.expect(worst <= 1e-8, f"{s.label}: det column off the reference by {worst:.2e}")

        not_td = markov & (td == 0)
        threshold_rows = not_td & (det <= TD_DET_THRESHOLD)
        check.expect(not np.any(not_td & ~threshold_rows),
                     f"{s.label}: Markovian but not TD-Markovian at t = {t[not_td & ~threshold_rows]}")
        if s.label == "default":
            dip = int(np.argmin(M))
            check.expect(M[0] >= 1 - 1e-6 and M[dip] < 1 - 1e-3 and M[dip + 1:].max() >= 1 - 1e-6,
                         f"default: no dip and revival (M[0] = {M[0]}, min {M[dip]} at t = {t[dip]})")
        if s.label == "backbone":
            G2 = np.array([ref.jc_decay(x, s.omega, s.gamma) ** 2 for x in ts])
            check.expect(bool(np.all(markov[G2 > 1e-6])),
                         f"backbone: not Markovian at t = {t[(G2 > 1e-6) & ~markov]}")
            return bool(np.any(threshold_rows))
        check.expect(not np.any(threshold_rows), f"{s.label}: Markovian but not TD-Markovian")
        return False


# --- qudit checks ---------------------------------------------------------

def _energies(d: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct energies in [0, 2.6]: every gap lies in (0.15, 2.6), well away
    from 0 and pi."""
    while True:
        E = np.sort(rng.uniform(0.0, 2.6, d))
        if np.diff(E).min() > 0.15:
            return E


def _draw(label: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """exp(L), or a mixture p U + (1 - p) exp(L) with a unitary channel U."""
    if label.startswith("energy"):
        V = ref.haar_unitary(d, rng)
        T = expm(ref.energy_basis_generator(_energies(d, rng), rng, V, rng.uniform(0.05, 0.3)))
        # diagonal in the same basis, so the mixture keeps one pair per gap
        U = (V * np.exp(-1j * rng.uniform(0.0, 2.6, d))) @ V.conj().T
    else:
        T = expm(ref.generic_generator(d, rng, rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.6)))
        U = ref.random_unitary(d, rng, rng.uniform(0.5, 2.5))
    if label.endswith("-exp"):
        return T
    p = rng.uniform(0.2, 0.8)
    return p * ref.unitary_superop(U) + (1 - p) * T


def pi_gap_channel(d: int, variant: int) -> np.ndarray:
    """exp(L) for a Hamiltonian with one eigenvalue gap of exactly pi, from
    fixed seeds: Markovian by construction, with a doubly degenerate negative
    eigenvalue that markovian_check rejects."""
    energies = {
        (3, 0): (0.0, math.pi, 2.0),
        (3, 1): (0.3, 1.4, 0.3 + math.pi),
        (4, 0): (0.0, 0.9, math.pi, 2.2),
    }[(d, variant)]
    rng = np.random.default_rng(7100 + 10 * d + variant)
    return expm(ref.energy_basis_generator(energies, rng, ref.haar_unitary(d, rng), 0.05))


# (dimension, label, count per round, complex pairs).  The d = 3 checks are
# most of each round, so the median latency is a d = 3 check, while the three
# expensive d = 4 branch searches take most of the round's time.  pi-gap
# inputs have a negative eigenvalue and one pair fewer than energy gaps.
MAKEUP = [
    (3, "generic-exp", 6, 4), (3, "energy-exp", 4, 3), (3, "generic-mixture", 6, 4), (3, "pi-gap", 2, 2),
    (4, "energy-exp", 1, 6), (4, "energy-mixture", 1, 6), (4, "generic-exp", 1, 7), (4, "pi-gap", 1, 5),
]
QUICK_MAKEUP = [
    (3, "generic-exp", 1, 4), (3, "energy-exp", 1, 3), (3, "generic-mixture", 1, 4), (3, "pi-gap", 1, 2),
    (4, "energy-exp", 1, 6), (4, "pi-gap", 1, 5),
]


def _save(T: np.ndarray, d: int, path: str) -> None:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in T]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": d, "representation": "transfer",
                   "basis": "matrix_units", "data": data}, fh)


def _accepted(label: str, d: int, pairs: int, rng) -> np.ndarray:
    """Draw until the spectrum has the wanted number of conjugate pairs, no
    real eigenvalue <= 0 and no two eigenvalues closer than 1e-2."""
    for _ in range(1000):
        T = _draw(label, d, rng)
        n_pairs, nonpos, gap = ref.spectrum_summary(T)
        if n_pairs == pairs and not nonpos and gap > 1e-2 and ref.min_choi_eigenvalue(T, d) > 1e-9:
            return T
    raise RuntimeError(f"no d = {d} {label} input with {pairs} pairs in 1000 draws")


class QuditCheck(Workload):
    """`check FILE --json` on d = 3 and d = 4 channel files written during
    set-up."""

    name = "qudit-check"

    def __init__(self, ms, seed, workdir, quick):
        super().__init__(ms, seed, workdir, quick)
        rng = np.random.default_rng([seed, 3])
        cli = self.ms["cli"]
        self.ops = []
        for d, label, count, pairs in QUICK_MAKEUP if quick else MAKEUP:
            for k in range(count):
                T = pi_gap_channel(d, k) if label == "pi-gap" else _accepted(label, d, pairs, rng)
                path = os.path.join(workdir, f"d{d}-{label}-{k}.json")
                _save(T, d, path)
                argv = ["check", path, "--json"]
                self.ops.append(Op(f"d{d}-{label}", 1, lambda argv=argv: run_cli(cli, argv),
                                   {"T": T, "d": d, "kind": label, "pairs": pairs}))

    def round(self, index):
        return self.ops

    def check(self, results):
        check = CheckResult()
        first = _same_outputs(results, check)
        faulty = {id(op): self._check_report(op, first[id(op)], check) for op in self.ops}
        check.failed = sum(faulty[id(op)] for op, _, _ in results)
        self._check_invariance(check)
        return check

    def _check_report(self, op: Op, output, check: CheckResult) -> bool:
        """True when the report shows the known fault on a pi-gap input."""
        code, text = output
        d, T, kind = op.spec["d"], op.spec["T"], op.spec["kind"]
        try:
            rep = json.loads(text)
        except json.JSONDecodeError:
            check.expect(False, f"{op.label}: exit {code}, output {text[:200]!r}")
            return False
        verdict, mu, M = rep["verdict"], rep["mu_min"], rep["measure"]
        check.expect(code == 0 and rep["dimension"] == d, f"{op.label}: exit {code}, d {rep['dimension']}")
        if kind == "pi-gap" and verdict == "NO_HERMITIAN_LOG" and M == 0.0:
            return True
        if kind in ("generic-exp", "energy-exp", "pi-gap"):
            check.expect(verdict == "MARKOVIAN" and mu is not None and mu <= 1e-6 and M == 1.0,
                         f"{op.label}: exp(L) reported {verdict}, mu_min {mu}")
            return False
        if not check.expect(verdict in ("MARKOVIAN", "NOT_MARKOVIAN"),
                            f"{op.label}: verdict {verdict} for a spectrum with "
                            f"{op.spec['pairs']} pairs and no negative eigenvalue"):
            return False
        if verdict == "MARKOVIAN":
            check.expect(mu == 0 and M == 1.0, f"{op.label}: MARKOVIAN with mu {mu}, M {M}")
        else:
            check.expect(mu > 0 and math.isclose(M, math.exp(mu * (1 - d * d)), rel_tol=1e-9),
                         f"{op.label}: measure {M} != exp(mu_min (1 - d^2)) with mu {mu}")
            gap = ref.determinant_identity_gap(T, d, mu, M)
            check.expect(gap <= 1e-6, f"{op.label}: log-determinant identity off by {gap:.2e}")
        if d == 3:
            bf = ref.brute_force_mu(T, d)
            check.expect(bf is None or abs(bf - mu) <= 1e-5,
                         f"{op.label}: brute-force mu {bf} vs reported {mu}")
        return False

    def _check_invariance(self, check: CheckResult) -> None:
        """The measure is unchanged under conjugation by U (x) conj(U), on two
        d = 3 mixtures and one d = 4 semigroup element."""
        channels, decision = self.ms["channels"], self.ms["decision"]
        rng = np.random.default_rng([self.seed, 9])
        picks = [op for op in self.ops if op.label == "d3-generic-mixture"][:2]
        picks += [op for op in self.ops if op.label == "d4-energy-exp"][:1]
        for op in picks:
            T, d = op.spec["T"], op.spec["d"]
            basis = channels.OperatorBasis.matrix_units(d)
            base = decision.markovian_check(channels.ChannelMatrix(T, basis)).measure
            W = ref.unitary_superop(ref.haar_unitary(d, rng))
            moved = decision.markovian_check(
                channels.ChannelMatrix(W @ T @ W.conj().T, basis)).measure
            check.expect(abs(moved - base) <= 1e-7,
                         f"{op.label}: measure {base} moves to {moved} under conjugation")


WORKLOADS = {w.name: w for w in (QubitSample, JcScan, QuditCheck)}
