#!/usr/bin/env python3
"""Regenerate the lattice identity sets; one JSON line per case in each of two files.

    python3 tools/lattice_identity.py OUT.jsonl [--src DIR] [--seeds 7] [--per-seed 300]

OUT.jsonl holds each case's inputs and integer outcomes (transforms, shortest
vector coefficients, brute-force A); OUT.floats.jsonl holds, line for line,
its float outputs (the shortest vector length, the brute-force value), so a
last-bit change of a float does not hide among changed transforms.

Four seeded sets of seeds x per-seed cases each (2100 with the defaults):

- channels: channel i of seed s from default_rng([777, s]); M 2-16, N 1-16,
  0-120 dB, odd i with a condition number 1-1e9. The basis is G^T with
  G = ChannelInstance(H, snr).sic_cholesky. Each line holds the transforms of
  lll_reduce (delta 0.75 and 0.99), kz_approx_successive_lll and, for
  M <= 10, kz_reduce, and the shortest_vector coefficients (length in the
  floats file).
- brute: case i of seed s from default_rng([778, s]); dims 1-3, bounds 1-3,
  both objectives, 0-60 dB. Each line holds brute_force_min_max's A (value in
  the floats file).
- ties: case i of seed s from default_rng([779, s]); M 2-10, bases whose
  shortest vectors tie, cycling through three kinds: "orthogonal" (G^T of
  H = Q, Q from the QR of a Gaussian matrix, 0-120 dB), "scaled" (c W with W
  a unimodular integer matrix, so the lattice is c Z^M) and "permuted"
  (c D P with D diagonal over {1, 2} and P a permutation), c = 10^(-3..3).
  Each line holds the same reductions as a channels line.
- brute_wide: as brute, from default_rng([780, s]) with bounds 4-5.

The lines of each set follow those of the sets before it, so adding a set
leaves the earlier lines in place.

An operation that raises is written as its error type and message, in OUT.
The library is imported from --src (default: the src/ next to this script),
so comparing the transforms of two checkouts is one cmp of two output files:

    python3 tools/lattice_identity.py new.jsonl
    python3 tools/lattice_identity.py old.jsonl --src ../old-checkout/src
    cmp old.jsonl new.jsonl
    cmp old.floats.jsonl new.floats.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def channel_h(rng, m, n, cond):
    """Gaussian H (N x M), or one with singular values spread over cond."""
    if cond is None:
        return rng.standard_normal((n, m))
    k = min(n, m)
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return left[:, :k] @ np.diag(np.logspace(0, -np.log10(cond), k)) @ right[:, :k].T


def outcome(fn):
    """fn()'s JSON value, or its error type and message."""
    try:
        return fn()
    except Exception as exc:  # every outcome is recorded, errors included
        return {"error": type(exc).__name__, "message": str(exc)}


def split(fn):
    """(integer array, float) of fn() as (list, float); an error as (its dict, None)."""
    result = outcome(fn)
    if isinstance(result, dict):
        return result, None
    ints, value = result
    return ints.tolist(), value


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
        floats = {"set": "channels", "seed": seed, "i": i}
        yield reduce_all(lib.lattice, basis, line, floats)


def reduce_all(lattice, basis, line, floats):
    """Add every reduction of basis to line, and the shortest vector length to floats."""
    line["lll_0.75"] = outcome(lambda: lattice.lll_reduce(basis, 0.75).transform.tolist())
    line["lll_0.99"] = outcome(lambda: lattice.lll_reduce(basis, 0.99).transform.tolist())
    line["kz_lll"] = outcome(lambda: lattice.kz_approx_successive_lll(basis).transform.tolist())
    if basis.shape[1] <= lattice.MAX_ENUM_DIM:
        line["kz"] = outcome(lambda: lattice.kz_reduce(basis).transform.tolist())
        line["sv"], floats["sv"] = split(lambda: lattice.shortest_vector(basis))
    return line, floats


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="JSON-lines output file; the floats go next to it")
    here = os.path.dirname(os.path.abspath(__file__))
    p.add_argument("--src", default=os.path.join(here, "..", "src"),
                   help="directory that holds the ifwb package to test")
    p.add_argument("--seeds", type=int, default=7)
    p.add_argument("--per-seed", type=int, default=300)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import ifwb.lattice
    import ifwb.rates

    root, ext = os.path.splitext(args.out)
    with open(args.out, "w") as f, open(root + ".floats" + ext, "w") as f_floats:
        for cases in (channel_cases, brute_cases, tie_cases, brute_wide_cases):
            for seed in range(args.seeds):
                for line, floats in cases(ifwb, seed, args.per_seed):
                    f.write(json.dumps(line) + "\n")
                    f_floats.write(json.dumps(floats) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
