"""The snapshot decision: is one channel consistent with a time-independent
Markovian evolution, and if not, how far off is it.

Every Hermiticity-preserving logarithm branch L_m differs from the principal
one by winding terms on the complex eigenvalue pairs, and only the
conditional-complete-positivity test depends on the branch.  Compressing the
relevant Choi-type matrices once to the complement of the entangled vector,

    A_0 = compress(L_0^Gamma),   A_c = compress((U^dag (-4 pi Im(P_c)) U)^Gamma),

with P_c the projector of the upper member of pair c in the Hermitian basis
of U = hermitian_transform(d) (spectral.branch_shifts), turns the branch
search into integer optimization of the concave function
f(m) = lambda_min(A_0 + sum_c m_c A_c).  For any unit vector v,
f(m) <= v^dag A(m) v, which is linear in m, so the minimum eigenvectors of
evaluated branches bound f everywhere; the search skips every branch whose
bound lies below the best value found, which cannot change its result
(branch_search).  The box is evaluated in blocks of SEARCH_BLOCK rows, and
the bound is tested on windows of whole blocks, one product per window; a
window in which every row is skipped doubles the next one, so a pruned run
of the box costs a few products and no eigvalsh.  The map is Markovian
exactly when some integer vector makes f nonnegative; otherwise the worst
eigenvalue gap converts into the least admixture of isotropic noise that
would repair the best branch, mu_min = d * max(0, -max_m f(m)), and into the
measure M(T) = exp[mu_min (1 - d^2)].

Maps with a zero or negative real eigenvalue receive their own verdicts (and
measure 0).  A singular map has no logarithm; NO_HERMITIAN_LOG is exact only
when the negative eigenvalue has odd multiplicity, since at even multiplicity
real logarithms can exist (Culver 1966) and are not yet searched.  A spectrum
that cannot be decided is UNSUPPORTED_SPECTRUM, with the reason in the
diagnostics.

The decision runs on a chunk of maps of one dimension at a time, stacked as
(n, d^2, d^2) arrays (channels.ChannelStack): validation, the spectral stage
(spectral._decompose), the principal log and its expm check, compression,
and the branch search, with one eigvalsh call for every member whose box
fits one SEARCH_BLOCK (up to 2 complex pairs at m_max = 2, so every qubit)
and branch_search per member otherwise.  A chunk holds chunk_size(d) maps,
at most CHUNK_ENTRIES projector entries.  The chunk is validated once and
decided in one pass: a member that fails a check, or has a zero or negative
real cluster, or a box beyond the budget, gets the exception of the first
such check as its reason and leaves the later stages, and
_PRE_SEARCH_VERDICTS turns the reason into its report.  markovian_check is
the one-member case: every stage is written once, and a member's report
does not depend on the chunk it is decided in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bases import readonly
from .channels import ChannelMatrix, ChannelStack, involution_gamma, verify_channel
from .config import COMPRESSION_RESIDUAL_TOL, CUT_SLACK, MARKOV_TOL
from .errors import (
    DefectiveMatrix,
    MarkovscopeError,
    NegativeRealEigenvalue,
    RangeError,
    SingularChannel,
)
from .lindblad import ccp_block
from .spectral import (
    SpectralData,
    _branch_shifts,
    _decompose,
    _principal_logs,
    _refusals,
    _refuse,
    branch_shifts,
    branch_sum,
    principal_log,
)

MAX_BRANCH_CANDIDATES = 250_000
# Branch candidates stacked into one eigvalsh call; bounds the search memory.
# Small blocks let the cuts of the first ones prune the rest of a box.
SEARCH_BLOCK = 32
# Matrices of each evaluated block whose minimum eigenvectors become cuts.
CUTS_PER_BLOCK = 8
# The newest cuts kept; bounds the pruning cost of a row.
MAX_CUTS = 64
# The widest window of rows filtered by one cut product: about 0.5 MB of
# cut values at MAX_CUTS cuts.
WINDOW_ROWS = 1024


class Verdict(Enum):
    MARKOVIAN = "MARKOVIAN"
    NOT_MARKOVIAN = "NOT_MARKOVIAN"
    NO_HERMITIAN_LOG = "NO_HERMITIAN_LOG"
    SINGULAR = "SINGULAR"
    UNSUPPORTED_SPECTRUM = "UNSUPPORTED_SPECTRUM"


@dataclass(frozen=True)
class MarkovReport:
    verdict: Verdict
    dimension: int
    witness_branch: tuple[int, ...] | None
    best_branch: tuple[int, ...] | None
    max_min_eigenvalue: float
    mu_min: float
    measure: float
    m_max: int
    diagnostics: str


def _compress(L0: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, dict[int, MarkovscopeError]]:
    """Compress the principal logs L0 (n, d^2, d^2) and the winding terms
    shifts (n, C, d^2, d^2) of n maps: the stacks [A_0, A_1, ..., A_C] of
    shape (n, 1 + C, k, k), and the reason of each member that fails.

    Each compressed matrix must be Hermitian to COMPRESSION_RESIDUAL_TOL of
    its largest entry and is replaced by its Hermitian part.
    """
    A = ccp_block(involution_gamma(np.concatenate([L0[:, None], shifts], axis=1)))
    AH = A.conj().swapaxes(-1, -2)
    resid = np.abs(A - AH).max(axis=(-2, -1))
    bad = resid > COMPRESSION_RESIDUAL_TOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))

    def error(i):
        k = int(np.flatnonzero(bad[i])[0])
        return DefectiveMatrix(
            f"compressed {'principal log' if k == 0 else f'winding term {k - 1}'} has "
            f"anti-Hermitian residual {resid[i, k]:.3e}; "
            "spectral projectors are too inaccurate to decide"
        )

    return (A + AH) / 2, _refuse({}, bad.any(axis=1), error)


def build_a_matrices(S: SpectralData) -> np.ndarray:
    """Compress the principal log and the per-pair winding terms: the
    read-only stack [A_0, A_1, ..., A_C] of shape (1 + C, k, k), the
    one-member case of the stacked compression."""
    A, reasons = _compress(principal_log(S).entries[None], branch_shifts(S)[None])
    if reasons:
        raise reasons[0]
    return readonly(A[0])


def _int_dtype(bound: int) -> np.dtype:
    """The smallest signed integer type that holds +-bound."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= bound)


@lru_cache(maxsize=8)
def _branch_table(C: int, m_max: int) -> np.ndarray:
    """Every integer vector with |m|_inf <= m_max as the rows of one
    read-only array, by increasing shell and lexicographically inside each
    shell.  The zero vector comes first.  A box of more than
    MAX_BRANCH_CANDIDATES rows raises RangeError."""
    side = 2 * m_max + 1
    if side**C > MAX_BRANCH_CANDIDATES:
        raise RangeError(
            f"{C} complex pairs give {side**C} branch candidates, "
            f"beyond the supported budget of {MAX_BRANCH_CANDIDATES}"
        )
    box = np.indices((side,) * C, dtype=_int_dtype(2 * m_max)).reshape(C, side**C).T
    box = (box - m_max).astype(_int_dtype(m_max))
    # np.indices is lexicographic; a stable sort by shell keeps that order inside each shell
    table = box[np.argsort(np.abs(box).max(axis=1, initial=0), kind="stable")]
    table.flags.writeable = False
    return table


def _least_cut(cut_g: np.ndarray, cut_b: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The least cut min_k (g_k . m + b_k) of every row m of ms: one product
    with every kept cut."""
    return (cut_g @ ms.T + cut_b[:, None]).min(axis=0)


def branch_search(
    A: np.ndarray, m_max: int, tol: float
) -> tuple[tuple[int, ...], float, tuple[int, ...] | None]:
    """Maximize f(m) = lambda_min(A_0 + sum_c m_c A_c) over the box
    |m|_inf <= m_max, for the stack A = [A_0, A_1, ..., A_C].

    Returns the best branch (the first maximum in shell order), its value,
    and the first branch in shell order with f(m) >= -tol, or None when no
    branch is feasible.  The box is one integer table (_branch_table, which
    refuses more than MAX_BRANCH_CANDIDATES branches), evaluated in blocks
    of SEARCH_BLOCK rows; the branches of a block are summed by branch_sum
    and stacked into a single eigvalsh call.

    Branches whose bound cannot beat the best value so far are skipped.
    For any unit vector v, f(m) <= v^dag A(m) v = b + g . m with
    b = v^dag A_0 v and g_c = v^dag A_c v, a cut linear in m.  After each
    evaluated block, when blocks remain, the minimum eigenvectors of its
    CUTS_PER_BLOCK best matrices give new cuts (the newest MAX_CUTS are
    kept).  A later branch whose least cut lies below the best value by
    more than a rounding-level slack (CUT_SLACK) is dropped.  The cuts
    filter a window of whole blocks in one product (_least_cut); while
    every row of the window is dropped, the walk moves past it and doubles
    the window, up to WINDOW_ROWS rows.  The survivors of the first block
    with any are evaluated, and the window starts again at one block.
    Skipping a window changes nothing: no evaluation happens in it, so the
    cuts and the best value that dropped its rows are the ones that would
    have filtered each of its blocks in turn.

    The result is that of evaluating every branch, whatever SEARCH_BLOCK
    is: a dropped m has f(m) < best_v, so it is not a new first maximum;
    while no witness exists every evaluated value is below -tol, so
    best_v < -tol and it is not a witness either.  The surviving branches
    get their values from the same sum and the same eigvalsh as without
    pruning.
    """
    A0, Ac = A[0], A[1:]
    table = _branch_table(len(Ac), m_max)
    scale = 1.0 + np.linalg.norm(A0) + m_max * sum(np.linalg.norm(M) for M in Ac)
    slack = CUT_SLACK * np.finfo(float).eps * len(A0) * scale
    max_width = SEARCH_BLOCK * max(1, WINDOW_ROWS // SEARCH_BLOCK)
    cut_b, cut_g = np.empty(0), np.empty((0, len(Ac)))
    best_m, best_v, witness = None, -np.inf, None
    start, width = 0, SEARCH_BLOCK
    while start < len(table):
        window = table[start:start + width]
        if cut_b.size:
            keep = _least_cut(cut_g, cut_b, window) >= best_v - slack
            if not keep.any():
                start += len(window)
                width = min(2 * width, max_width)
                continue
            first = int(np.argmax(keep)) // SEARCH_BLOCK * SEARCH_BLOCK
            start += first
            ms = window[first:first + SEARCH_BLOCK][keep[first:first + SEARCH_BLOCK]]
        else:
            ms = window
        stack = branch_sum(A0, Ac, ms)
        vals = np.linalg.eigvalsh(stack).min(axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_m, best_v = tuple(ms[k].tolist()), float(vals[k])
        if witness is None:
            feasible = np.flatnonzero(vals >= -tol)
            if feasible.size:
                witness = tuple(ms[feasible[0]].tolist())
        start, width = start + SEARCH_BLOCK, SEARCH_BLOCK
        if start < len(table):
            top = np.argsort(vals)[-CUTS_PER_BLOCK:]
            v = np.linalg.eigh(stack[top])[1][:, :, 0]
            b = np.einsum("ki,ij,kj->k", v.conj(), A0, v).real
            g = np.einsum("ki,cij,kj->kc", v.conj(), Ac, v).real
            cut_b = np.concatenate([cut_b, b])[-MAX_CUTS:]
            cut_g = np.concatenate([cut_g, g])[-MAX_CUTS:]
    return best_m, best_v, witness


def _search_stack(A: np.ndarray, m_max: int, tols: np.ndarray) -> list[tuple]:
    """branch_search of every stack A[i] = [A_0, ..., A_C] of A, shape
    (n, 1 + C, k, k), whose box fits one SEARCH_BLOCK: every branch of
    every member in one eigvalsh call.  With one block branch_search
    evaluates every branch and makes no cut, so the results are its own."""
    table = _branch_table(A.shape[1] - 1, m_max)
    vals = np.linalg.eigvalsh(branch_sum(A[:, 0], A[:, 1:], table)).min(axis=-1)
    best = vals.argmax(axis=1)
    feasible = vals >= -tols[:, None]
    first = feasible.argmax(axis=1)
    return [
        (tuple(table[b].tolist()), float(v[b]), tuple(table[f].tolist()) if ok[f] else None)
        for v, b, ok, f in zip(vals, best, feasible, first)
    ]


# Every failure before the branch search, and its verdict; the exception's
# message is the report's diagnostics.  A new reason to refuse a spectrum is
# one row here.
_PRE_SEARCH_VERDICTS = {
    DefectiveMatrix: Verdict.UNSUPPORTED_SPECTRUM,
    RangeError: Verdict.UNSUPPORTED_SPECTRUM,  # the box exceeds MAX_BRANCH_CANDIDATES
    SingularChannel: Verdict.SINGULAR,
    NegativeRealEigenvalue: Verdict.NO_HERMITIAN_LOG,
}

# Projector entries n (d^2)^3 in one stacked pass, which bounds its memory:
# 64 qubit channels, 5 at d = 3 and 1 from d = 4 on.
CHUNK_ENTRIES = 4096


def chunk_size(d: int) -> int:
    """The number of maps of dimension d decided in one stacked pass."""
    return max(1, CHUNK_ENTRIES // d**6)


def _report(d, m_max, verdict, witness, best, best_v, mu, diagnostics) -> MarkovReport:
    return MarkovReport(
        verdict=verdict,
        dimension=d,
        witness_branch=witness,
        best_branch=best,
        max_min_eigenvalue=best_v,
        mu_min=mu,
        measure=math.exp(mu * (1 - d * d)),  # exactly 1 at mu = 0 and 0 at mu = inf
        m_max=m_max,
        diagnostics=diagnostics,
    )


def _refused(d: int, m_max: int, exc: Exception) -> MarkovReport:
    return _report(d, m_max, _PRE_SEARCH_VERDICTS[type(exc)], None, None, math.nan, math.inf, str(exc))


def _decide(T: ChannelStack, m_max: int, tol: float | None) -> list[MarkovReport]:
    """The reports of one chunk, in one pass.  Each stage records the reason
    of every member that fails one of its checks, the exception of the
    first check it fails, and the later stages run on the members without
    one; _PRE_SEARCH_VERDICTS turns each reason into its member's report."""
    verify_channel(T).require("markovian_check")
    d = T.d
    reports: list[MarkovReport | None] = [None] * len(T)
    # T is validated, and real_form's Hermiticity gate is verify_channel's test
    S, reasons = _decompose(T.hermitian.real)
    reasons = {**_refusals(S), **reasons}  # a failed spectral check comes first
    keep = np.ones(len(T), dtype=bool)
    keep[list(reasons)] = False
    if keep.any():
        idx = np.flatnonzero(keep)
        S = S.take(keep)
        L0, later = _principal_logs(S)
        A, failed = _compress(L0, _branch_shifts(S))
        later = {**failed, **later}  # the expm check of the log comes first
        pairs = (S.pairs[:, :, 0] >= 0).sum(axis=1)
        if tol is None:  # ||A_0||_2, the largest singular value
            tols = MARKOV_TOL * (1.0 + np.linalg.svd(A[:, 0], compute_uv=False)[:, 0])
        else:
            tols = np.full(len(idx), float(tol))
        searched = np.ones(len(idx), dtype=bool)
        searched[list(later)] = False
        for C in sorted(set(pairs[searched].tolist())):
            group = np.flatnonzero(searched & (pairs == C))
            if (2 * m_max + 1) ** C <= SEARCH_BLOCK:
                results = _search_stack(A[group, :1 + C], m_max, tols[group])
            else:
                try:
                    results = [branch_search(A[j, :1 + C], m_max, tols[j]) for j in group]
                except RangeError as exc:  # a box of C pairs beyond MAX_BRANCH_CANDIDATES
                    later.update(dict.fromkeys(group.tolist(), exc))
                    continue
            for j, (best, best_v, witness) in zip(group, results):
                if witness is not None:
                    reports[idx[j]] = _report(
                        d, m_max, Verdict.MARKOVIAN, witness, best, best_v, 0.0,
                        f"valid generator at branch m = {witness} "
                        f"(searched |m|_inf <= {m_max}, {C} complex pairs)",
                    )
                else:
                    reports[idx[j]] = _report(
                        d, m_max, Verdict.NOT_MARKOVIAN, None, best, best_v, d * max(0.0, -best_v),
                        f"no valid branch in |m|_inf <= {m_max} ({C} complex pairs); "
                        f"best lambda_min = {best_v:.6e} at m = {best}",
                    )
        reasons.update({int(idx[j]): exc for j, exc in later.items()})
    for i, exc in reasons.items():
        reports[i] = _refused(d, m_max, exc)
    return reports


def markovian_checks(
    T: ChannelStack,
    m_max: int = 2,
    tol: float | None = None,
) -> list[MarkovReport]:
    """markovian_check of every member of a stack, in order, chunk_size(d)
    members per stacked pass.  The first member that is not a channel raises
    the NotAChannel of markovian_check."""
    if isinstance(m_max, bool) or not isinstance(m_max, int) or m_max < 0:
        raise RangeError(f"m_max must be an integer >= 0, got {m_max!r}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise RangeError(f"tol must be None or a finite number >= 0, got {tol!r}")
    size = chunk_size(T.d)
    if len(T) <= size:
        return _decide(T, m_max, tol)
    return [r for start in range(0, len(T), size) for r in _decide(T[start:start + size], m_max, tol)]


def markovian_check(
    T: ChannelMatrix,
    m_max: int = 2,
    tol: float | None = None,
) -> MarkovReport:
    """Search the logarithm branches of a channel for a valid generator: the
    one-member case of markovian_checks.

    Every dimension takes the same path: the box |m|_inf <= m_max is
    enumerated once, shell by shell (branch_search).  The best branch is the
    first maximum of f in that order, and the witness reported on success is
    the first feasible branch, so results are deterministic.  Branches whose
    certified bound v^dag A(m) v cannot beat the best value so far are
    skipped: such a branch is neither a new first maximum nor, since every
    value before the first witness is below -tol, a witness, so the report
    equals that of evaluating every branch.

    A map that fails a check before the search, or whose box is larger than
    MAX_BRANCH_CANDIDATES, has the exception of that check as its reason:
    the report gets the verdict _PRE_SEARCH_VERDICTS gives it, the message
    as its diagnostics, mu_min infinite and measure 0.  A defective spectrum
    or a box beyond the budget is UNSUPPORTED_SPECTRUM, and a map without a
    Hermiticity-preserving logarithm gets the verdict of the exception
    principal_log raises.
    """
    return markovian_checks(ChannelStack.of(T), m_max, tol)[0]


def mu_min(
    T: ChannelMatrix,
    m_max: int = 2,
    tol: float | None = None,
) -> float:
    """Least isotropic noise rate repairing the best branch; 0 for Markovian
    channels, infinite when no logarithm family exists or the spectrum is
    UNSUPPORTED_SPECTRUM."""
    return markovian_check(T, m_max=m_max, tol=tol).mu_min


def markovianity_measure(
    T: ChannelMatrix,
    m_max: int = 2,
    tol: float | None = None,
) -> float:
    """M(T) = exp[mu_min (1 - d^2)] in [0, 1]; exactly 1 for Markovian
    channels and exactly 0 when no Hermiticity-preserving logarithm exists or
    the spectrum is UNSUPPORTED_SPECTRUM."""
    return markovian_check(T, m_max=m_max, tol=tol).measure
