"""Command-line surface.

Every subcommand is a thin shell over one library call; the numbers printed
are the library results unmodified.  A completed analysis exits 0, whatever
the verdict, and so does one whose reader closes the output pipe early; an
error exits with the code its exception carries (see markovscope.errors).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .channels import ChannelMatrix, ChannelStack, OperatorBasis, determinant
from .decision import Verdict, chunk_size, markovian_check, markovian_checks
from .errors import MarkovscopeError, ParseError, RangeError
from .io import (
    channel_to_dict,
    load_channel,
    report_to_dict,
    spectral_to_dict,
    td_report_to_dict,
)
from .qubit import lorentz_singular_values, td_markovian_check
from .spectral import eigendecompose, fractional_power
from .zoo import (
    JCParams,
    dephasing_channel,
    figure2a_mixture,
    jc_channel,
    rabi_unitary,
    random_channels,
    transpose_approximation,
)


def _model_jc(
    t: float,
    omega: float,
    gamma: float,
    alpha_x: float,
    alpha_y: float,
    alpha_z: float,
) -> ChannelMatrix:
    return jc_channel(
        t,
        JCParams(omega=omega, gamma=gamma, alpha_x=alpha_x, alpha_y=alpha_y, alpha_z=alpha_z),
    )


# model name -> (builder, default parameters); scan sweeps the first parameter
# unless --sweep names another
MODELS = {
    "dephasing": (dephasing_channel, {"t": 1.0}),
    "rabi": (rabi_unitary, {"theta": np.pi / 4}),
    "figure2a": (figure2a_mixture, {"p": 0.5}),
    "jc": (
        _model_jc,
        {"t": 1.0, "omega": 0.2, "gamma": 0.35, "alpha_x": 0.5, "alpha_y": 1.0, "alpha_z": 0.5},
    ),
    "transpose_approx": (transpose_approximation, {}),
}

def _parse_params(items: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ParseError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ParseError(f"--param {key}: {value!r} is not a number") from exc
        if not math.isfinite(out[key]):
            raise ParseError(f"--param {key}: {value!r} is not a finite number")
    return out


def _build_model(name: str, params: dict[str, float]) -> ChannelMatrix:
    try:
        builder, defaults = MODELS[name]
    except KeyError as exc:
        raise ParseError(f"unknown model {name!r}; choices: {', '.join(sorted(MODELS))}") from exc
    try:
        return builder(**{**defaults, **params})
    except TypeError as exc:
        raise ParseError(f"bad parameters for model {name!r}: {exc}") from exc


def _load_input(args) -> ChannelMatrix:
    if args.model is not None and args.file is not None:
        raise ParseError("provide a channel file or --model NAME, not both")
    if args.model is not None:
        return _build_model(args.model, _parse_params(args.param))
    if args.file is not None:
        return load_channel(args.file)
    raise ParseError("provide a channel file or --model NAME")


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def cmd_check(args) -> int:
    T = _load_input(args)
    report = markovian_check(T, m_max=args.m_max, tol=args.tol)
    payload = report_to_dict(report)
    spectrum = None
    if args.dump_spectrum:
        try:
            spectrum = spectral_to_dict(eigendecompose(T))
        except MarkovscopeError as exc:
            spectrum = {"error": str(exc)}
        payload["spectrum"] = spectrum
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"verdict: {report.verdict.value}")
    print(f"measure: {_fmt(report.measure)}")
    print(f"mu_min: {_fmt(report.mu_min)}")
    if report.witness_branch is not None:
        print(f"witness branch: {list(report.witness_branch)}")
    print(f"diagnostics: {report.diagnostics}")
    if spectrum is not None and "clusters" in spectrum:
        for k, c in enumerate(spectrum["clusters"]):
            re, im = c["value"]
            print(
                f"cluster {k}: value = {re:+.9g}{im:+.9g}j, "
                f"multiplicity = {c['multiplicity']}, kind = {c['kind']}"
            )
        if spectrum["pairs"]:
            print(f"conjugate pairs: {spectrum['pairs']}")
    elif spectrum is not None:
        print(f"spectrum unavailable: {spectrum['error']}")
    return 0


def cmd_measure(args) -> int:
    T = _load_input(args)
    report = markovian_check(T, m_max=args.m_max, tol=args.tol)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
        return 0
    print(f"measure: {_fmt(report.measure)}")
    print(f"mu_min: {_fmt(report.mu_min)}")
    return 0


def cmd_tdcheck(args) -> int:
    T = _load_input(args)
    report = td_markovian_check(T)
    if args.json:
        print(json.dumps(td_report_to_dict(report), indent=2))
        return 0
    print(f"td_markovian: {'true' if report.td_markovian else 'false'}")
    print(f"s: {' '.join(_fmt(x) for x in report.s.s)}")
    print(f"det: {_fmt(report.s.det_T)}")
    return 0


# far above any scan worth printing; a grid beyond it is a typo, not a job
MAX_SCAN_ROWS = 10**6


def _scan_grid(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParseError(f"--start, --stop and --step must be finite, got {start}, {stop}, {step}")
    if step <= 0:
        raise ParseError(f"--step must be positive, got {step}")
    if start > stop:
        raise ParseError(f"--start {start} exceeds --stop {stop}")
    steps = (stop - start) / step + 1e-9  # inf when the span overflows
    if not steps < MAX_SCAN_ROWS:
        raise ParseError(
            f"--start {start} to --stop {stop} by --step {step} is more than {MAX_SCAN_ROWS} rows"
        )
    count = int(math.floor(steps)) + 1
    return [start + k * step for k in range(count)]


def cmd_scan(args) -> int:
    fixed = _parse_params(args.param)
    sweep = args.sweep or next(iter(MODELS[args.model][1]), None)
    if sweep is None:
        raise ParseError(f"model {args.model!r} has no sweep parameter; pass --sweep")
    if sweep in fixed:
        raise ParseError(f"--param {sweep} fixes the swept parameter; "
                         "its values come from --start, --stop and --step")
    lines = ["param,markovian,mu_min,measure,td_markovian,det"]
    for value in _scan_grid(args.start, args.stop, args.step):
        T = _build_model(args.model, {**fixed, sweep: value})
        report = markovian_check(T, m_max=args.m_max)
        td = lorentz_singular_values(T).td_markovian  # T validated by markovian_check
        det = determinant(T)
        lines.append(
            f"{value:.10g},{1 if report.verdict is Verdict.MARKOVIAN else 0},"
            f"{_fmt(report.mu_min)},{_fmt(report.measure)},"
            f"{1 if td else 0},{_fmt(det)}"
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def sample_fractions(d: int, n: int, seed: int) -> dict:
    """Monte Carlo fractions of Markovian and TD-Markovian channels.

    Each sample gets its own child seed from one seed sequence, so the result
    depends only on (d, n, seed).  The channels are drawn, decided and (for
    qubits) put through the Lorentz criterion chunk_size(d) at a time, as
    one ChannelStack whose Hermitian-basis matrices all three share.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise RangeError(f"need an integer number of samples >= 1, got n = {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise RangeError(f"seed must be an integer >= 0, got {seed!r}")
    seeds = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64).tolist()
    basis, size = OperatorBasis.matrix_units(d), chunk_size(d)
    n_mk = n_td = n_mk_not_td = 0
    for start in range(0, n, size):
        T = ChannelStack(random_channels(d, seeds[start:start + size]), basis)
        mk = np.array([r.verdict is Verdict.MARKOVIAN for r in markovian_checks(T)])
        n_mk += int(mk.sum())
        if d == 2:
            td = lorentz_singular_values(T).td_markovian  # T validated by markovian_checks
            n_td += int(td.sum())
            n_mk_not_td += int((mk & ~td).sum())
    if d == 2:
        td_frac, mk_not_td_frac = n_td / n, n_mk_not_td / n
    else:
        td_frac = mk_not_td_frac = None
    return {
        "schema": 1,
        "d": d,
        "n": n,
        "seed": seed,
        "fraction_markovian": n_mk / n,
        "fraction_td_markovian": td_frac,
        "fraction_markovian_and_not_td": mk_not_td_frac,
    }


def cmd_sample(args) -> int:
    summary = sample_fractions(args.d, args.n, args.seed)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_power(args) -> int:
    T = _load_input(args)
    out = fractional_power(T, args.s, m=args.branch)
    text = json.dumps(channel_to_dict(out))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("file", nargs="?", help="channel JSON file")
    sp.add_argument("--model", choices=sorted(MODELS), help="built-in model instead of a file")
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="model parameter (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovscope",
        description="Decide and quantify Markovianity of quantum channels from a single snapshot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Markovianity verdict for a channel")
    _add_input_args(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=2, help="branch search box (default 2)")
    p.add_argument("--tol", type=float, default=None, help="override the Markovianity tolerance")
    p.add_argument("--dump-spectrum", action="store_true", help="include the eigenvalue clusters")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("measure", help="Markovianity measure and mu_min")
    _add_input_args(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=2)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tdcheck", help="qubit time-dependent-Markovianity criterion")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="sweep a model parameter, emit CSV")
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--sweep", help="parameter to sweep (default depends on model)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=2)
    p.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE", help="fixed parameters"
    )
    p.add_argument("--output", "-o", help="CSV path (default stdout)")

    p = sub.add_parser("sample", help="Monte Carlo fractions over random channels")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("power", help="fractional power of a channel on a chosen branch")
    _add_input_args(p)
    p.add_argument("--s", type=float, required=True, help="exponent")
    p.add_argument(
        "--branch", type=int, nargs="*", default=None, help="winding numbers, one per complex pair"
    )
    p.add_argument("--output", "-o", help="output JSON path (default stdout)")

    return parser


# the parser is built on first use and kept for the process
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: stop writing, and send what is still
        # buffered to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except MarkovscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
