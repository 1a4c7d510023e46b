"""Command-line front end.

Subcommands: rates, optimize-a, region, simulate, sweep. Channels are read
from CSV (one matrix row per line); complex channels are given as a pair of
real/imaginary CSV files and converted to their real block representation.
SNR is given in dB on the command line and converted to a linear power
ratio internally.

Exit codes: 0 success, 2 parse/validation error, 3 singular integer matrix,
4 dimension guard hit. All reports are JSON with at least 12 significant
digits on floats; region and sweep also emit CSV for plotting.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .errors import DimensionTooLarge, IfwbError, SingularA, WrongDimension
from .linalg import complex_to_real
from .rates import (
    ChannelInstance,
    as_integer_matrix,
    feasible_allocations,
    if_effective_model,
    if_rates,
    mmse_sic_plan,
    optimal_a,
    successive_if_rates,
    successive_objective,
    waterfilling_capacity,
    white_input_capacity,
)
from .region import RatePoint, enumerate_achievable_points
from .simulate import SimConfig, run_successive_if_trials

SCHEMES = ("zf-baseline", "mmse-sic", "if", "s-if")
_MODES = {"kz": "kz_exact", "lll": "kz_lll", "brute": "brute_force"}


class CliError(Exception):
    """Input problem mapped to exit code 2."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _read_matrix_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [
                [float(tok) for tok in line.strip().split(",")]
                for line in fh
                if line.strip()
            ]
    except OSError as exc:
        raise CliError(f"cannot read channel file {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad number in {path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise CliError(f"{path} is not a rectangular CSV matrix")
    return np.array(rows)


def _channel_matrix(h: np.ndarray, him: np.ndarray | None) -> np.ndarray:
    """H itself, or the real block form of H + j him when him is given."""
    if him is None:
        return h
    if him.shape != h.shape:
        raise CliError(
            f"real and imaginary channel parts differ in shape: {h.shape} vs {him.shape}"
        )
    return complex_to_real(h + 1j * him)


def _read_channel(args) -> np.ndarray:
    if args.channel is None:
        raise CliError("--channel is required")
    h = _read_matrix_csv(args.channel)
    him = _read_matrix_csv(args.channel_imag) if args.channel_imag is not None else None
    return _channel_matrix(h, him)


def _load_channel(args) -> tuple[ChannelInstance, float]:
    """The channel and its single --snr-db value in dB."""
    h = _read_channel(args)
    snr_db = _parse_snr_list(args.snr_db)
    if len(snr_db) != 1:
        raise CliError("this subcommand takes a single --snr-db value")
    try:
        return ChannelInstance(h, _snr_linear(snr_db[0])), snr_db[0]
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _snr_linear(snr_db: float) -> float:
    """The power ratio of snr_db dB; one beyond the float range is an input error."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError as exc:
        raise CliError(f"SNR of {snr_db!r} dB is beyond the float range") from exc


def _parse_snr_list(text) -> list[float]:
    if text is None:
        raise CliError("--snr-db is required")
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad --snr-db value: {exc}") from exc
    if not values or any(not np.isfinite(v) for v in values):
        raise CliError("--snr-db needs one or more finite values")
    return values


def _parse_a_matrix(text: str) -> np.ndarray:
    try:
        rows = [[int(tok) for tok in row.split(",")] for row in text.split(";")]
        return as_integer_matrix(rows)
    except ValueError as exc:
        raise CliError(f"bad --a-matrix: {exc}") from exc


def _parse_order(text: str, m: int) -> tuple:
    try:
        order = tuple(int(tok) - 1 for tok in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --order: {exc}") from exc
    if sorted(order) != list(range(m)):
        raise CliError(f"--order must be a 1-based permutation of 1..{m}")
    return order


def _one_based(perm) -> list[int]:
    return [int(i) + 1 for i in perm]


def _point_dict(p: RatePoint) -> dict:
    """A rate point as the region report holds it, with a one-based permutation."""
    return {
        "r1": p.rates[0],
        "r2": p.rates[1],
        "source": p.source,
        "a": [list(row) for row in p.A],
        "det_a": p.det_a,
        "permutation": _one_based(p.permutation),
    }


@functools.cache
def _point_template(newline: str) -> str:
    """The text of a _point_dict where its lines start with newline, with a %s
    slot for each of its ten scalars; one template per indentation."""
    slots = {"r1": 0, "r2": 0, "source": 0, "a": [[0, 0], [0, 0]], "det_a": 0,
             "permutation": [0, 0]}
    return json.dumps(slots, indent=2).replace("0", "%s").replace("\n", newline)


def _write_point(p: RatePoint, newline: str, parts: list) -> None:
    """Append _point_dict(p) as _json_write does, through _point_template when
    every field has the type and shape it holds: exact finite float rates, a
    str source, and a 2x2 A and a two-entry permutation of exact ints, all in
    tuples. Any other point is written through its dict."""
    rates, a, perm = p.rates, p.A, p.permutation
    if (type(rates) is type(a) is type(perm) is tuple and len(rates) == len(a) == len(perm) == 2
            and type(a[0]) is type(a[1]) is tuple and len(a[0]) == len(a[1]) == 2):
        (r1, r2), ((a00, a01), (a10, a11)), (p0, p1) = rates, a, perm
        if (type(r1) is type(r2) is float and r1 - r1 == r2 - r2 == 0.0  # finite
                and type(p.source) is str and type(a00) is type(a01) is type(a10) is type(a11)
                is type(p0) is type(p1) is int):
            return parts.append(_point_template(newline) % (
                r1, r2, _json_str(p.source), a00, a01, a10, a11, p.det_a, p0 + 1, p1 + 1))
    _json_write(_point_dict(p), newline, parts)


def _json_write(obj, newline: str, parts: list) -> None:
    """Append obj to parts as json.dumps(obj, indent=2) writes it where its lines
    start with newline; a RatePoint is written as its _point_dict.

    A dict with str keys, a list or a tuple is written item by item; the loop
    over its items appends the text of an exact finite float, int or str
    itself and recurses only into the other items.
    """
    append = parts.append
    kind = type(obj)
    if kind is list or kind is tuple:
        keys, values = None, obj
    elif kind is RatePoint:
        return _write_point(obj, newline, parts)
    elif kind is dict and all(type(k) is str for k in obj):
        keys, values = [_json_str(k) + ": " for k in obj], obj.values()
    elif kind is float and obj - obj == 0.0:  # finite
        return append(float.__repr__(obj))
    elif kind is int:
        return append(int.__repr__(obj))
    elif kind is str:
        return append(_json_str(obj))
    else:  # bool, None, NaN, infinities, subclasses such as np.float64, other keys
        return append(json.dumps(obj, indent=2).replace("\n", newline))
    if not obj:
        return append("[]" if keys is None else "{}")
    inner = newline + "  "
    separator = "," + inner
    append("[" if keys is None else "{")
    i = 0
    for value in values:
        append(separator if i else inner)
        if keys is not None:
            append(keys[i])
        i += 1
        kind = type(value)
        if kind is float and value - value == 0.0:
            append(float.__repr__(value))
        elif kind is int:
            append(int.__repr__(value))
        elif kind is str:
            append(_json_str(value))
        else:
            _json_write(value, inner, parts)
    append(newline + ("]" if keys is None else "}"))


def _json_text(report) -> str:
    """The report as json.dumps(report, indent=2) + "\n" writes it, byte for byte,
    with each RatePoint in it taken as its _point_dict.

    With indent set, json.dumps cannot use its C encoder; this writer handles
    the exact float, int, str, dict, list and tuple that reports are made of,
    appends every piece of text to one list and joins it once. It hands every
    other value to json.dumps, which also raises its TypeError. JSON strings
    hold no raw newline, so re-indenting json.dumps text is safe.
    """
    parts = []
    _json_write(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_text(text: str, out_path: str | None, *files: tuple) -> None:
    """text to out_path, or to stdout when no path was given, and the text of
    each further (text, path) pair to its path when that is not None.

    An empty path is an input error before any path is opened. A path that
    cannot be opened is an input error, and then nothing is written: with two
    or more paths, each is opened once before any text is written, and the
    files this call created are removed if one fails. The texts are then
    written in turn, each file truncated as it is opened, so a path given
    twice holds the last text.
    """
    files = [(t, path) for t, path in ((text, out_path), *files) if path is not None]
    if any(path == "" for _, path in files):
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
        raise CliError(f"cannot write : {missing}")
    held, created = [], []  # kept open until the texts are written, so a pipe sees no end
    try:
        if len(files) > 1:  # a single path fails before anything is written anyway
            for _, path in files:
                try:
                    held.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    created.append(path)
                except FileExistsError:
                    held.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        for t, path in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(t)
    except OSError as exc:
        for p in created:
            with contextlib.suppress(OSError):
                os.remove(p)
        raise CliError(f"cannot write {path}: {exc}") from exc
    finally:
        for fd in held:
            os.close(fd)
    if out_path is None:
        sys.stdout.write(text)


def _report(ch: ChannelInstance, snr_db: float, results: dict, residuals: dict) -> dict:
    return {
        "channel": {
            "rows": ch.num_receive,
            "cols": ch.num_streams,
            "entries": ch.H.tolist(),
        },
        "snr_db": snr_db,
        "results": results,
        "residuals": residuals,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    ch, snr_db = _load_channel(args)
    if args.a_matrix is not None:
        a = _parse_a_matrix(args.a_matrix)
    else:
        a = optimal_a(ch, _MODES[args.mode], bound=args.coeff_bound)
    order = _parse_order(args.order, ch.num_streams) if args.order is not None else None
    model = if_effective_model(ch, a)  # the one check of A's size and rank

    cap, _ = waterfilling_capacity(ch)
    cwi = white_input_capacity(ch)
    sic = mmse_sic_plan(ch, decode_order=order)
    par = if_rates(ch, a)
    sif = successive_if_rates(ch, a)
    allocations = [
        {
            "permutation": _one_based(plan.permutation),
            "stream_rates": list(plan.stream_rates),
            "monotone_feasible": plan.monotone_feasible,
            "sum_rate": plan.sum_rate,
            "sum_rate_gap": plan.sum_rate_gap,
        }
        for plan in feasible_allocations(ch, a)
    ]
    results = {
        "capacity": cap,
        "white_input_capacity": cwi,
        "a_matrix": model.A.tolist(),
        "a_det": model.det,
        "mmse_sic": {
            "decode_order": _one_based(sic.decode_order),
            "rates": list(sic.rates),
            "stream_rates": list(sic.stream_rates),
            "sum_rate": sic.sum_rate,
        },
        "if": {
            "rates": list(par.rates),
            "raw": list(par.raw),
            "undecodable": list(par.undecodable),
            "symmetric_rate": par.symmetric_rate,
        },
        "successive_if": {
            "per_step": list(sif.per_step),
            "symmetric_total": sif.symmetric_total,
            "sum_rate": sif.sum_rate,
            "sum_rate_gap": sif.det_gap,
        },
        "allocations": allocations,
    }
    residuals = {
        "mmse_sic_sum_minus_cwi": sic.sum_rate - cwi,
        "successive_if_identity": sif.sum_rate + sif.det_gap - cwi,
    }
    report = _report(ch, snr_db, results, residuals)
    _write_text(_json_text(report), args.out)
    return 0


def cmd_optimize_a(args) -> int:
    ch, snr_db = _load_channel(args)
    mode = _MODES[args.mode]
    a = optimal_a(ch, mode, bound=args.coeff_bound)
    results = {
        "mode": mode,
        "a_matrix": a.tolist(),
        "a_det": if_effective_model(ch, a).det,
        "max_step_residual": successive_objective(ch, a),
        "successive_if_per_step": list(successive_if_rates(ch, a).per_step),
    }
    _write_text(_json_text(_report(ch, snr_db, results, {})), args.out)
    return 0


def cmd_region(args) -> int:
    ch, snr_db = _load_channel(args)
    if args.coeff_bound is None or args.coeff_bound < 1:
        raise CliError("--coeff-bound must be a positive integer")
    reg = enumerate_achievable_points(ch, args.coeff_bound)
    results = {
        "coeff_bound": args.coeff_bound,
        "capacity_vertices": reg.capacity_vertices,
        "points": reg.points,
        "frontier": reg.frontier,
    }
    csv_lines = ["R1,R2,source,detA"]
    csv_lines += [
        f"{p.rates[0]!r},{p.rates[1]!r},{p.source},{p.det_a}" for p in reg.frontier
    ]
    _write_text(_json_text(_report(ch, snr_db, results, {})), args.out,
                ("\n".join(csv_lines) + "\n", args.csv_out))
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise TypeError(f"the config must be a JSON object, got {type(raw).__name__}")
        # float() and numpy read true and false as 1 and 0, also inside a list
        for name in ("channel", "channel_imag", "snr_db", "noise_scale", "a_matrix"):
            values = [(name, raw.get(name))]
            while values:
                label, value = values.pop()
                if isinstance(value, bool):
                    raise ValueError(f"{label} must be a number, got {value!r}")
                if isinstance(value, list):
                    values.extend((f"{name} entry", v) for v in value)
        h = np.array(raw["channel"], dtype=float)
        him = np.array(raw["channel_imag"], dtype=float) if "channel_imag" in raw else None
        h = _channel_matrix(h, him)
        snr_db = float(raw["snr_db"])
        ch = ChannelInstance(h, _snr_linear(snr_db))
        cfg = SimConfig(
            ch=ch,
            A=raw["a_matrix"] if "a_matrix" in raw else optimal_a(ch, "kz_exact"),
            pam_points=args.pam if args.pam is not None else raw.get("pam_points", 4),
            trials=args.trials if args.trials is not None else raw["trials"],
            seed=args.seed if args.seed is not None else raw.get("seed", 0),
        )
        noise_scale = float(raw.get("noise_scale", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad simulation config: {exc}") from exc

    result = run_successive_if_trials(cfg, noise_scale=noise_scale)
    analytic = if_effective_model(ch, cfg.A).Ktilde
    scale = float(np.abs(analytic).max())
    results = {
        "a_matrix": cfg.A.tolist(),
        "pam_points": cfg.pam_points,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "symbol_error_rate": list(result.symbol_error_rate),
        "equation_error_rate": list(result.equation_error_rate),
        "empirical_ktilde": result.empirical_Ktilde.tolist(),
        "analytic_ktilde": analytic.tolist(),
        "ktilde_max_abs_relative_error": float(
            np.abs(result.empirical_Ktilde - analytic).max() / scale
        ),
    }
    report = _report(ch, snr_db, results, {})
    _write_text(_json_text(report), args.out)
    return 0


def cmd_sweep(args) -> int:
    snr_list = _parse_snr_list(args.snr_db)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise CliError("--schemes must name at least one scheme")
    for s in schemes:
        if s not in SCHEMES:
            raise CliError(f"unknown scheme {s!r}; choose from {', '.join(SCHEMES)}")
    h = _read_channel(args)
    mode = _MODES[args.mode]

    lines = ["snr_db,scheme,symmetric_rate,sum_rate"]
    for snr_db in snr_list:
        ch = ChannelInstance(h, _snr_linear(snr_db))
        m = ch.num_streams
        ident = np.eye(m, dtype=np.int64)
        a_opt = optimal_a(ch, mode, bound=args.coeff_bound)
        for scheme in schemes:
            if scheme == "zf-baseline":
                r = if_rates(ch, ident)
                sym, tot = r.symmetric_rate, float(sum(r.rates))
            elif scheme == "mmse-sic":
                plan = mmse_sic_plan(ch)
                sym, tot = m * min(plan.rates), plan.sum_rate
            elif scheme == "if":
                r = if_rates(ch, a_opt)
                sym, tot = r.symmetric_rate, float(sum(r.rates))
            else:  # s-if
                sif = successive_if_rates(ch, a_opt)
                clamped = [max(0.0, v) for v in sif.per_step]
                sym, tot = m * min(clamped), float(sum(clamped))
            lines.append(f"{snr_db!r},{scheme},{sym!r},{tot!r}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_channel_args(sub) -> None:
    sub.add_argument("--channel", help="CSV file, one channel-matrix row per line")
    sub.add_argument("--channel-imag", help="CSV file with imaginary parts (complex channel)")
    sub.add_argument("--snr-db", help="SNR in dB (comma list for sweep); a list that "
                     "starts with a minus sign takes '=': --snr-db=-10,0,10")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ifwb", description="Integer-forcing MIMO receiver workbench"
    )
    parser.add_argument("--version", action="version", version=f"ifwb {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rates", help="capacities and per-stream rates for one channel")
    _add_channel_args(p)
    p.add_argument("--a-matrix", help='integer matrix, rows ; separated: "1,1;3,2"; one '
                   "that starts with a minus sign takes '=': --a-matrix=-1,0;0,-1")
    p.add_argument("--order", help='1-based MMSE-SIC decode order, e.g. "2,1"')
    p.add_argument("--mode", choices=sorted(_MODES), default="kz")
    p.add_argument("--coeff-bound", type=int, help="entry bound for brute mode")
    p.add_argument("--out", help="write JSON report here instead of stdout")
    p.set_defaults(func=cmd_rates)

    p = subs.add_parser("optimize-a", help="optimal integer matrix for successive IF")
    _add_channel_args(p)
    p.add_argument("--mode", choices=sorted(_MODES), default="kz")
    p.add_argument("--coeff-bound", type=int, help="entry bound for brute mode")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize_a)

    p = subs.add_parser("region", help="2-user achievable region and Pareto frontier")
    _add_channel_args(p)
    p.add_argument("--coeff-bound", type=int, help="integer box half-width to scan")
    p.add_argument("--out", help="JSON output path")
    p.add_argument("--csv-out", help="frontier CSV output path")
    p.set_defaults(func=cmd_region)

    p = subs.add_parser("simulate", help="Monte Carlo PAM link simulation")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--trials", type=int, help="override trials from config")
    p.add_argument("--seed", type=int, help="override seed from config")
    p.add_argument("--pam", type=int, help="override pam_points from config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="rate-vs-SNR table (CSV)")
    _add_channel_args(p)
    p.add_argument("--schemes", default=",".join(SCHEMES),
                   help="comma list from %(default)s (default: all)")
    p.add_argument("--mode", choices=sorted(_MODES), default="kz")
    p.add_argument("--coeff-bound", type=int)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"ifwb: {exc}", file=sys.stderr)
        return 2
    except SingularA as exc:
        print(f"ifwb: singular integer matrix: {exc}", file=sys.stderr)
        return 3
    except (DimensionTooLarge, WrongDimension) as exc:
        print(f"ifwb: dimension guard: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IfwbError) as exc:
        print(f"ifwb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
