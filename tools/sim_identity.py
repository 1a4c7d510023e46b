#!/usr/bin/env python3
"""Regenerate the simulator identity set; one JSON line per run in each of two files.

    python3 tools/sim_identity.py OUT.jsonl [--src DIR] [--seeds 3] [--per-seed 100]

Config i of seed s comes from default_rng([779, s]): M 1-8, N 1-9, 0-40 dB,
PAM 2/4/6/16 and 1 to 3 * 2^14 trials, so runs cross the chunk boundaries
of any chunk size up to 2^14. After them come LAST_CHUNK_CONFIGS configs
drawn alike from default_rng([779, s, 1]), half with 1 trial and half with
simulate.CHUNK_TRIALS + 1, so a run ends in a one-trial chunk, which the
uniform draw almost never gives. Even i use the KZ-exact A; odd i a random
full-rank A with entries in [-2, 2], whose inverse is not an integer matrix.
Each config is run through both decoders at noise_scale 0, 0.5 and 1 (1944
runs with the defaults); 0.5 takes the simulator's scaled-noise branch.

OUT.jsonl holds each run's inputs, its per-stream symbol and per-step
equation error counts, and the sha256 of its decisions (the trials x M int64
equation indices and stream decisions of simulate.trial_decisions, in C
order); OUT.floats.jsonl holds, line for line, its empirical Ktilde, so a
last-bit change of a sum does not hide among changed decisions. A run that raises is written as its error type
and message, in OUT.

The library is imported from --src (default: the src/ next to this script),
so comparing the decisions of two checkouts is one cmp of two output files.
Checkouts whose run_*_trials still return the decisions have no
simulate.trial_decisions; run each checkout's own copy of the tool:

    python3 tools/sim_identity.py new.jsonl
    python3 ../old-checkout/tools/sim_identity.py old.jsonl
    cmp old.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

PAM_POINTS = (2, 4, 6, 16)
MAX_TRIALS = 3 << 14
LAST_CHUNK_CONFIGS = 8


def random_full_rank(rng, m):
    """An M x M integer matrix with entries in [-2, 2] and nonzero determinant."""
    while True:
        a = rng.integers(-2, 3, size=(m, m))
        if round(abs(np.linalg.det(a))) != 0:
            return a


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def run_cases(lib, seed, count):
    sim = lib.simulate
    uniform = np.random.default_rng([779, seed])
    last_chunk = np.random.default_rng([779, seed, 1])
    last_chunk_trials = (1, sim.CHUNK_TRIALS + 1)
    for i in range(count + LAST_CHUNK_CONFIGS):
        rng = uniform if i < count else last_chunk
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 10))
        snr_db = float(rng.uniform(0.0, 40.0))
        pam = int(rng.choice(PAM_POINTS))
        trials = int(rng.integers(1, MAX_TRIALS + 1))
        if i >= count:  # drawn as the others, then set: 1 trial, then CHUNK_TRIALS + 1
            trials = last_chunk_trials[2 * (i - count) // LAST_CHUNK_CONFIGS]
        run_seed = int(rng.integers(1 << 31))
        ch = lib.rates.ChannelInstance(rng.standard_normal((n, m)), 10.0 ** (snr_db / 10.0))
        a = random_full_rank(rng, m) if i % 2 else lib.rates.optimal_a(ch, "kz_exact")
        cfg = sim.SimConfig(ch=ch, A=a, pam_points=pam, trials=trials, seed=run_seed)
        for name in ("successive_if", "lr_aided_sic"):
            decoder = f"run_{name}_trials"
            for noise_scale in (0.0, 0.5, 1.0):
                line = {"seed": seed, "i": i, "m": m, "n": n, "snr_db": snr_db, "pam": pam,
                        "trials": trials, "run_seed": run_seed, "A": a.tolist(),
                        "decoder": decoder, "noise_scale": noise_scale}
                floats = {"seed": seed, "i": i, "decoder": decoder, "noise_scale": noise_scale}
                try:
                    result = getattr(sim, decoder)(cfg, noise_scale)
                    equation_decisions, stream_decisions = sim.trial_decisions(
                        cfg, noise_scale, name)
                except Exception as exc:  # every outcome is recorded, errors included
                    line["error"] = {"error": type(exc).__name__, "message": str(exc)}
                else:
                    sym, eq = result.symbol_error_rate, result.equation_error_rate
                    line["symbol_errors"] = [round(r * trials) for r in sym]
                    line["equation_errors"] = [round(r * trials) for r in eq]
                    line["equation_decisions"] = digest(equation_decisions)
                    line["stream_decisions"] = digest(stream_decisions)
                    floats["Ktilde"] = result.empirical_Ktilde.tolist()
                yield line, floats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="JSON-lines output file; the floats go next to it")
    here = os.path.dirname(os.path.abspath(__file__))
    p.add_argument("--src", default=os.path.join(here, "..", "src"),
                   help="directory that holds the ifwb package to test")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--per-seed", type=int, default=100)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import ifwb.rates
    import ifwb.simulate

    root, ext = os.path.splitext(args.out)
    with open(args.out, "w") as f, open(root + ".floats" + ext, "w") as f_floats:
        for seed in range(args.seeds):
            for line, floats in run_cases(ifwb, seed, args.per_seed):
                f.write(json.dumps(line) + "\n")
                f_floats.write(json.dumps(floats) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
