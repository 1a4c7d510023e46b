"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

A workload is a stream of blocks. A block is a fixed list of CLI calls whose
composition (subcommands, shapes, SNR ranges, trial counts) never depends on
the seed; block k's channel entries, SNRs and simulation seeds are drawn from
a generator keyed by (seed, workload, k). Every block starts with the
workload's golden calls, whose inputs and outputs are pinned in golden.json.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ifwb.rates import ChannelInstance
from ifwb.region import pentagon_contains

WORKLOADS = ("analysis", "region_scan", "link_sim")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Blocks generated at set-up; a run that outlasts them starts over at block 0.
POOL_BLOCKS = {"analysis": 12, "region_scan": 8, "link_sim": 24}

# analysis: (N, M) receive x stream shapes; N < M and N > M both occur.
SWEEP_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 4), (4, 4), (5, 5), (7, 5), (6, 6),
                (8, 8), (8, 9), (9, 10), (10, 10), (12, 10))
SWEEP_SNR_DB = "0,15,30,45,60"
SWEEP_SCHEMES = "zf-baseline,mmse-sic,if,s-if"
RATES_SHAPES = ((2, 2), (2, 3), (3, 3), (4, 3), (4, 4), (4, 5), (5, 5), (6, 6), (8, 6))
RATES_SNR_DB = (0.0, 20.0)
LLL_DIMS = (12, 14, 16)
LLL_SNR_DB = (10.0, 40.0)
BRUTE_CASES = ((2, 2), (2, 3), (3, 2), (3, 3)) * 3  # (dimension, --coeff-bound)
BRUTE_SNR_DB = (0.0, 30.0)

# region_scan: two-stream channels with N receive antennas.
REGION_RECEIVE = (1, 2, 3)
REGION_SNR_DB = (5.0, 35.0)
REGION_BOUND = "3"
EXAMPLE1_ANCHORS = ((0.7776, 2.5139), (3.0028, 0.2887), (1.8452, 1.4463), (1.4463, 1.8452))
ANCHOR_TOL = 5e-4

# link_sim: (M, PAM points, trials) for square M x M channels, plus one
# noiseless diagnostic on an orthogonal channel, where the MMSE
# self-interference is far below half the PAM spacing so no symbol can slip.
SIM_CASES = ((2, 16, 10**6), (3, 4, 10**5), (4, 4, 10**6), (5, 4, 10**5), (6, 16, 10**5),
             (8, 4, 10**5), (8, 16, 10**5))
SIM_SNR_DB = (10.0, 30.0)
# Above ~12 dB the self-interference (PAM points - 1) / (1 + snr) of an
# orthogonal channel stays under half the spacing; 25 dB leaves a wide margin.
SIM_NOISELESS = (5, 16, 10**5)
SIM_NOISELESS_SNR_DB = (25.0, 30.0)

GOLDEN_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# Each empirical Ktilde entry has standard deviation at most sqrt(2/trials)
# times max|Ktilde|; 8 / sqrt(trials) is a 5.6-sigma bound per entry.
KTILDE_Z = 8.0


@dataclass
class Op:
    """One CLI call: argv with {in}/{out} placeholders and what its check needs."""

    name: str
    argv: list
    outputs: tuple
    kind: str
    info: dict = field(default_factory=dict)

    def resolve(self, in_dir: str, out_dir: str) -> list:
        return [a.format(**{"in": in_dir, "out": out_dir}) for a in self.argv]


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path: str, h) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in h:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _snr(rng, lo_hi) -> str:
    return f"{rng.uniform(*lo_hi):.2f}"


def _channel_op(in_dir, name, h, snr_db, argv_tail, outputs, kind, **info) -> Op:
    _write_csv(os.path.join(in_dir, f"{name}.csv"), h)
    argv = [kind, "--channel", f"{{in}}/{name}.csv", "--snr-db", snr_db, *argv_tail]
    return Op(name, argv, outputs, kind, dict(info, channel=np.asarray(h).tolist(), snr_db=snr_db))


def _sim_op(in_dir, name, config, **info) -> Op:
    with open(os.path.join(in_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = ["simulate", "--config", f"{{in}}/{name}.json", "--out", f"{{out}}/{name}.json"]
    info = dict(info, trials=config["trials"], noise_scale=config.get("noise_scale", 1.0))
    return Op(name, argv, (f"{name}.json",), "simulate", info)


def golden_ops(workload: str, golden: dict, in_dir: str) -> list:
    ops = []
    for name, case in golden[workload].items():
        if workload == "analysis":
            tail = ["--mode", case["mode"], "--out", f"{{out}}/{name}.json"]
            if "coeff_bound" in case:
                tail += ["--coeff-bound", str(case["coeff_bound"])]
            ops.append(_channel_op(in_dir, name, case["channel"], case["snr_db"], tail,
                                   (f"{name}.json",), "optimize-a", mode=case["mode"], golden=name))
        elif workload == "region_scan":
            tail = ["--coeff-bound", REGION_BOUND, "--out", f"{{out}}/{name}.json",
                    "--csv-out", f"{{out}}/{name}.csv"]
            ops.append(_channel_op(in_dir, name, case["channel"], case["snr_db"], tail,
                                   (f"{name}.json", f"{name}.csv"), "region",
                                   golden=name, anchors=True))
        else:
            ops.append(_sim_op(in_dir, name, case["config"], golden=name))
    return ops


def _analysis_block(rng, in_dir: str, k: int) -> list:
    ops = []
    for n, m in SWEEP_SHAPES:
        name = f"b{k}_sweep_{n}x{m}"
        tail = ["--schemes", SWEEP_SCHEMES, "--mode", "kz", "--out", f"{{out}}/{name}.csv"]
        ops.append(_channel_op(in_dir, name, rng.standard_normal((n, m)), SWEEP_SNR_DB, tail,
                               (f"{name}.csv",), "sweep"))
    for n, m in RATES_SHAPES:
        name = f"b{k}_rates_{n}x{m}"
        ops.append(_channel_op(in_dir, name, rng.standard_normal((n, m)), _snr(rng, RATES_SNR_DB),
                               ["--out", f"{{out}}/{name}.json"], (f"{name}.json",), "rates"))
    for m in LLL_DIMS:
        name = f"b{k}_lll_{m}"
        ops.append(_channel_op(in_dir, name, rng.standard_normal((m, m)), _snr(rng, LLL_SNR_DB),
                               ["--mode", "lll", "--out", f"{{out}}/{name}.json"],
                               (f"{name}.json",), "optimize-a", mode="lll"))
    for i, (m, bound) in enumerate(BRUTE_CASES):
        name = f"b{k}_brute{i}_{m}_{bound}"
        tail = ["--mode", "brute", "--coeff-bound", str(bound), "--out", f"{{out}}/{name}.json"]
        ops.append(_channel_op(in_dir, name, rng.standard_normal((m, m)), _snr(rng, BRUTE_SNR_DB),
                               tail, (f"{name}.json",), "optimize-a", mode="brute"))
    return ops


def _region_block(rng, in_dir: str, k: int) -> list:
    ops = []
    for n in REGION_RECEIVE:
        name = f"b{k}_region_{n}x2"
        tail = ["--coeff-bound", REGION_BOUND, "--out", f"{{out}}/{name}.json",
                "--csv-out", f"{{out}}/{name}.csv"]
        ops.append(_channel_op(in_dir, name, rng.standard_normal((n, 2)), _snr(rng, REGION_SNR_DB),
                               tail, (f"{name}.json", f"{name}.csv"), "region"))
    return ops


def _sim_config(rng, h, pam, trials, snr_range=SIM_SNR_DB, **extra) -> dict:
    config = {
        "channel": np.asarray(h).tolist(),
        "snr_db": float(_snr(rng, snr_range)),
        "pam_points": pam,
        "trials": trials,
        "seed": int(rng.integers(2**32)),
    }
    config.update(extra)
    return config


def _link_block(rng, in_dir: str, k: int) -> list:
    ops = []
    for m, pam, trials in SIM_CASES:
        name = f"b{k}_sim_{m}x{m}_pam{pam}"
        ops.append(_sim_op(in_dir, name, _sim_config(rng, rng.standard_normal((m, m)), pam, trials)))
    m, pam, trials = SIM_NOISELESS
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    name = f"b{k}_sim_{m}x{m}_noiseless"
    ops.append(_sim_op(in_dir, name, _sim_config(rng, q, pam, trials, SIM_NOISELESS_SNR_DB, noise_scale=0.0)))
    return ops


_BLOCKS = {"analysis": _analysis_block, "region_scan": _region_block, "link_sim": _link_block}


def generate(workload: str, seed: int, in_dir: str, golden: dict) -> list:
    """Write every input file of the workload's block pool; return the blocks."""
    os.makedirs(in_dir, exist_ok=True)
    fixed = golden_ops(workload, golden, in_dir)
    blocks = []
    for k in range(POOL_BLOCKS[workload]):
        rng = np.random.default_rng([seed & (2**64 - 1), WORKLOADS.index(workload), k])
        blocks.append(fixed + _BLOCKS[workload](rng, in_dir, k))
    return blocks


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the op is correct
# ---------------------------------------------------------------------------

def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_sweep(op, out_dir, golden) -> list:
    with open(os.path.join(out_dir, op.outputs[0]), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    sym = {(r["snr_db"], r["scheme"]): float(r["symmetric_rate"]) for r in rows}
    snrs = {r["snr_db"] for r in rows}
    problems = []
    if len(snrs) != len(SWEEP_SNR_DB.split(",")) or len(rows) != 4 * len(snrs):
        problems.append(f"sweep table has {len(rows)} rows for {len(snrs)} SNR points")
    for s in sorted(snrs):
        if sym[(s, "s-if")] < sym[(s, "mmse-sic")] - RESIDUAL_TOL:
            problems.append(f"S-IF symmetric rate below MMSE-SIC at {s} dB")
    return problems


def _check_rates(op, out_dir, golden) -> list:
    report = read_json(os.path.join(out_dir, op.outputs[0]))
    problems = [f"residual {k} = {v!r}" for k, v in report["residuals"].items()
                if not abs(v) <= RESIDUAL_TOL]
    if abs(report["results"]["a_det"]) != 1:
        problems.append(f"KZ matrix has det {report['results']['a_det']}")
    return problems


def _check_optimize(op, out_dir, golden) -> list:
    results = read_json(os.path.join(out_dir, op.outputs[0]))["results"]
    problems = []
    if op.info["mode"] in ("kz", "lll") and abs(results["a_det"]) != 1:
        problems.append(f"{op.info['mode']} matrix has det {results['a_det']}")
    if results["a_det"] == 0:
        problems.append("singular integer matrix")
    if "golden" in op.info:
        want = golden["analysis"][op.info["golden"]]["max_step_residual"]
        if not abs(results["max_step_residual"] - want) <= GOLDEN_TOL:
            problems.append(f"max_step_residual {results['max_step_residual']!r} != golden {want!r}")
    return problems


def _check_region(op, out_dir, golden) -> list:
    results = read_json(os.path.join(out_dir, op.outputs[0]))["results"]
    ch = ChannelInstance(np.array(op.info["channel"]), 10.0 ** (float(op.info["snr_db"]) / 10.0))
    problems = [f"point ({p['r1']!r}, {p['r2']!r}) outside the capacity pentagon"
                for p in results["points"] if not pentagon_contains(ch, (p["r1"], p["r2"]), slack=1e-9)]
    frontier = [(p["r1"], p["r2"]) for p in results["frontier"]]
    if op.info.get("anchors"):
        for r1, r2 in EXAMPLE1_ANCHORS:
            if not any(abs(a - r1) <= ANCHOR_TOL and abs(b - r2) <= ANCHOR_TOL for a, b in frontier):
                problems.append(f"criterion-6 anchor ({r1}, {r2}) missing from the frontier")
    if "golden" in op.info:
        want = golden["region_scan"][op.info["golden"]]["frontier"]
        if len(want) != len(frontier) or any(
            abs(a - c) > GOLDEN_TOL or abs(b - d) > GOLDEN_TOL for (a, b), (c, d) in zip(frontier, want)
        ):
            problems.append("frontier differs from golden")
    return problems


def _check_simulate(op, out_dir, golden) -> list:
    results = read_json(os.path.join(out_dir, op.outputs[0]))["results"]
    problems = []
    if op.info["noise_scale"] == 0.0:
        if any(results["symbol_error_rate"]) or any(results["equation_error_rate"]):
            problems.append("noiseless run made symbol errors")
    else:
        limit = KTILDE_Z / math.sqrt(op.info["trials"])
        if not results["ktilde_max_abs_relative_error"] <= limit:
            problems.append(f"Ktilde relative error {results['ktilde_max_abs_relative_error']!r} > {limit!r}")
    if "golden" in op.info:
        want = golden["link_sim"][op.info["golden"]]
        for key in ("symbol_error_rate", "equation_error_rate"):
            if results[key] != want[key]:
                problems.append(f"{key} {results[key]} != golden {want[key]}")
    return problems


_CHECKS = {
    "sweep": _check_sweep,
    "rates": _check_rates,
    "optimize-a": _check_optimize,
    "region": _check_region,
    "simulate": _check_simulate,
}


def check(op: Op, rc: int, out_dir: str, golden: dict) -> list:
    """Problems with one call's outputs; an empty list means the call is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _CHECKS[op.kind](op, out_dir, golden)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
