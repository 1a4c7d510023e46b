#!/usr/bin/env python3
"""Write every output a change must keep, for one checkout, into one directory.

    python3 tools/identity.py OUTDIR [--src DIR]

The library is imported from --src (default: the src/ next to this script),
so comparing two checkouts is one diff of two runs:

    python3 tools/identity.py new
    python3 tools/identity.py old --src ../old-checkout/src
    diff -r old new

OUTDIR holds three sets:

- cli/<seed>/<workload>/: the benchmark's CLI calls at each of CLI_SEEDS.
  The inputs are those of bench/run.py at that seed: the block pool that
  bench/workloads.py generates (it is imported, not changed). Each call whose
  name has not been seen yet in the pool runs once through ifwb.cli.main.
  in/ holds the inputs, out/ the output files and calls.txt one line per
  call: its name, exit code and what it wrote to stderr. The tool prints, per
  seed and workload, the number of calls and the problems workloads.check
  finds with them, and exits 1 if it finds any.
- lattice.jsonl: four seeded sets of LATTICE_SEEDS x LATTICE_PER_SEED cases,
  each set's lines after those of the sets before it.
  - channels: channel i of seed s from default_rng([777, s]); M 2-16,
    N 1-16, 0-120 dB, odd i with a condition number 1-1e9. The basis is G^T
    with G = ChannelInstance(H, snr).sic_cholesky. Each line holds the
    transforms of lll_reduce (delta 0.75 and 0.99),
    kz_approx_successive_lll and, for M <= 10, kz_reduce, and the
    shortest_vector coefficients.
  - brute: case i of seed s from default_rng([778, s]); dims 1-3, bounds
    1-3, both objectives, 0-60 dB. Each line holds brute_force_min_max's A.
  - ties: case i of seed s from default_rng([779, s]); M 2-10, bases whose
    shortest vectors tie, cycling through three kinds: "orthogonal" (G^T of
    H = Q, Q from the QR of a Gaussian matrix, 0-120 dB), "scaled" (c W with
    W a unimodular integer matrix, so the lattice is c Z^M) and "permuted"
    (c D P with D diagonal over {1, 2} and P a permutation), c = 10^(-3..3).
    Each line holds the same reductions as a channels line.
  - brute_wide: as brute, from default_rng([780, s]) with bounds 4-5.
- sim.jsonl: config i of seed s (SIM_SEEDS x SIM_PER_SEED) from
  default_rng([779, s]): M 1-8, N 1-9, 0-40 dB, PAM 2/4/6/16 and 1 to
  3 * 2^14 trials, so runs cross the chunk boundaries of any chunk size up
  to 2^14. After them come LAST_CHUNK_CONFIGS configs drawn alike from
  default_rng([779, s, 1]), half with 1 trial and half with
  simulate.CHUNK_TRIALS + 1, so a run ends in a one-trial chunk, which the
  uniform draw almost never gives. Even i use the KZ-exact A; odd i a random
  full-rank A with entries in [-2, 2], whose inverse is not an integer
  matrix. Each config runs through both decoders at noise_scale 0, 0.5 and 1;
  0.5 takes the simulator's scaled-noise branch. Each line holds the
  per-stream symbol and per-step equation error counts and the sha256 of the
  decisions (the trials x M int64 equation indices and stream decisions of
  simulate.trial_decisions, in C order).

Each JSON-lines set has a .floats.jsonl twin that holds, line for line, its
float outputs (shortest vector length, brute-force value, empirical Ktilde),
so a last-bit change of a float does not hide among changed integers. An
operation that raises is written as its error type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_SEEDS = (7, 31, 101)
LATTICE_SEEDS, LATTICE_PER_SEED = 7, 300
SIM_SEEDS, SIM_PER_SEED = 3, 100
LAST_CHUNK_CONFIGS = 8
PAM_POINTS = (2, 4, 6, 16)
MAX_TRIALS = 3 << 14


def load(src):
    """The ifwb package under src, with the modules the sets run, and bench/workloads."""
    sys.dont_write_bytecode = True  # leave bench/ and src/ as they are
    sys.path[:0] = [os.path.abspath(src), os.path.join(HERE, "..", "bench")]
    import ifwb.cli
    import ifwb.lattice
    import ifwb.rates
    import ifwb.simulate
    import workloads

    return ifwb, workloads


def outcome(fn):
    """fn()'s value, or its error type and message as a dict."""
    try:
        return fn()
    except Exception as exc:  # every outcome is recorded, errors included
        return {"error": type(exc).__name__, "message": str(exc)}


def write_jsonl(outdir, name, pairs):
    """Write each (line, floats) pair to outdir/name.jsonl and outdir/name.floats.jsonl."""
    with open(os.path.join(outdir, name + ".jsonl"), "w") as f, \
            open(os.path.join(outdir, name + ".floats.jsonl"), "w") as f_floats:
        for line, floats in pairs:
            f.write(json.dumps(line) + "\n")
            f_floats.write(json.dumps(floats) + "\n")


# --- cli ---------------------------------------------------------------------

def cli_workload(cli, workloads, golden, name, seed, root) -> tuple[int, dict]:
    """(calls, {call: problems} of the flagged calls) of one workload, written under root/name."""
    in_dir, out_dir = (os.path.join(root, name, sub) for sub in ("in", "out"))
    os.makedirs(out_dir, exist_ok=True)
    seen, lines, flagged = set(), [], {}
    for block in workloads.generate(name, seed, in_dir, golden):
        for op in block:
            if op.name in seen:
                continue
            seen.add(op.name)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(op.resolve(in_dir, out_dir))
            problems = workloads.check(op, rc, out_dir, golden)
            if problems:
                flagged[op.name] = problems
            lines.append(f"{op.name} {rc} {err.getvalue()!r}\n")
    with open(os.path.join(root, name, "calls.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines), flagged


# --- lattice -----------------------------------------------------------------

def channel_h(rng, m, n, cond):
    """Gaussian H (N x M), or one with singular values spread over cond."""
    if cond is None:
        return rng.standard_normal((n, m))
    k = min(n, m)
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return left[:, :k] @ np.diag(np.logspace(0, -np.log10(cond), k)) @ right[:, :k].T


def split(fn):
    """(integer array, float) of fn() as (list, float); an error as (its dict, None)."""
    result = outcome(fn)
    if isinstance(result, dict):
        return result, None
    ints, value = result
    return ints.tolist(), value


def reduce_all(lattice, basis, line, floats):
    """Add every reduction of basis to line, and the shortest vector length to floats."""
    line["lll_0.75"] = outcome(lambda: lattice.lll_reduce(basis, 0.75).transform.tolist())
    line["lll_0.99"] = outcome(lambda: lattice.lll_reduce(basis, 0.99).transform.tolist())
    line["kz_lll"] = outcome(lambda: lattice.kz_approx_successive_lll(basis).transform.tolist())
    if basis.shape[1] <= lattice.MAX_ENUM_DIM:
        line["kz"] = outcome(lambda: lattice.kz_reduce(basis).transform.tolist())
        line["sv"], floats["sv"] = split(lambda: lattice.shortest_vector(basis))
    return line, floats


def channel_cases(lib, seed, count):
    rng = np.random.default_rng([777, seed])
    for i in range(count):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(1, 17))
        snr_db = float(rng.uniform(0.0, 120.0))
        cond = float(10.0 ** rng.uniform(0.0, 9.0)) if i % 2 else None
        h = channel_h(rng, m, n, cond)
        basis = lib.rates.ChannelInstance(h, 10.0 ** (snr_db / 10.0)).sic_cholesky.T
        line = {"set": "channels", "seed": seed, "i": i, "m": m, "n": n, "snr_db": snr_db, "cond": cond}
        yield reduce_all(lib.lattice, basis, line, {"set": "channels", "seed": seed, "i": i})


def brute_cases(lib, seed, count, name="brute", key=778, bounds=(1, 3)):
    rng = np.random.default_rng([key, seed])
    for i in range(count):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        bound = int(rng.integers(bounds[0], bounds[1] + 1))
        objective = ("successive_if", "standard_if")[int(rng.integers(0, 2))]
        snr_db = float(rng.uniform(0.0, 60.0))
        g = lib.rates.ChannelInstance(rng.standard_normal((n, m)), 10.0 ** (snr_db / 10.0)).sic_cholesky
        line = {"set": name, "seed": seed, "i": i, "m": m, "n": n, "bound": bound,
                "objective": objective, "snr_db": snr_db}
        floats = {"set": name, "seed": seed, "i": i}
        line["brute"], floats["brute"] = split(lambda: lib.lattice.brute_force_min_max(g, bound, objective))
        yield line, floats


def brute_wide_cases(lib, seed, count):
    return brute_cases(lib, seed, count, "brute_wide", 780, (4, 5))


def unimodular(rng, m):
    """Lower- times upper-triangular integer matrix with unit diagonals: det 1."""
    lower = np.tril(rng.integers(-2, 3, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(rng.integers(-2, 3, size=(m, m)), 1) + np.eye(m, dtype=np.int64)
    return lower @ upper


def tie_cases(lib, seed, count):
    rng = np.random.default_rng([779, seed])
    for i in range(count):
        m = int(rng.integers(2, 11))
        kind = ("orthogonal", "scaled", "permuted")[i % 3]
        line = {"set": "ties", "seed": seed, "i": i, "m": m, "kind": kind}
        if kind == "orthogonal":
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            line["snr_db"] = float(rng.uniform(0.0, 120.0))
            basis = lib.rates.ChannelInstance(q, 10.0 ** (line["snr_db"] / 10.0)).sic_cholesky.T
        else:
            line["scale"] = float(10.0 ** rng.uniform(-3.0, 3.0))
            if kind == "scaled":
                basis = line["scale"] * unimodular(rng, m).astype(float)
            else:
                diag = rng.integers(1, 3, size=m).astype(float)
                basis = line["scale"] * np.diag(diag)[:, rng.permutation(m)]
        yield reduce_all(lib.lattice, basis, line, {"set": "ties", "seed": seed, "i": i})


def lattice_set(lib, seeds, per_seed):
    """(line, floats) of every lattice case, set by set and seed by seed."""
    for cases in (channel_cases, brute_cases, tie_cases, brute_wide_cases):
        for seed in range(seeds):
            yield from cases(lib, seed, per_seed)


# --- sim ---------------------------------------------------------------------

def random_full_rank(rng, m):
    """An M x M integer matrix with entries in [-2, 2] and nonzero determinant."""
    while True:
        a = rng.integers(-2, 3, size=(m, m))
        if round(abs(np.linalg.det(a))) != 0:
            return a


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def sim_cases(lib, seed, count):
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
                result = outcome(lambda: (getattr(sim, decoder)(cfg, noise_scale),
                                          sim.trial_decisions(cfg, noise_scale, name)))
                if isinstance(result, dict):
                    line["error"] = result
                else:
                    run, (equation_decisions, stream_decisions) = result
                    line["symbol_errors"] = [round(r * trials) for r in run.symbol_error_rate]
                    line["equation_errors"] = [round(r * trials) for r in run.equation_error_rate]
                    line["equation_decisions"] = digest(equation_decisions)
                    line["stream_decisions"] = digest(stream_decisions)
                    floats["Ktilde"] = run.empirical_Ktilde.tolist()
                yield line, floats


def sim_set(lib, seeds, per_seed):
    """(line, floats) of every simulator run, seed by seed."""
    for seed in range(seeds):
        yield from sim_cases(lib, seed, per_seed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("outdir", help="directory for the three sets")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory that holds the ifwb package to run")
    args = p.parse_args(argv)
    lib, workloads = load(args.src)
    golden = workloads.load_golden()
    failed = False
    for seed in CLI_SEEDS:
        root = os.path.join(args.outdir, "cli", str(seed))
        for name in workloads.WORKLOADS:
            calls, flagged = cli_workload(lib.cli, workloads, golden, name, seed, root)
            print(f"cli/{seed}/{name}: {calls} calls, {len(flagged)} with a problem")
            for call, problems in flagged.items():
                print(f"  {call}: {'; '.join(problems)}")
            failed |= bool(flagged)
    write_jsonl(args.outdir, "lattice", lattice_set(lib, LATTICE_SEEDS, LATTICE_PER_SEED))
    write_jsonl(args.outdir, "sim", sim_set(lib, SIM_SEEDS, SIM_PER_SEED))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
