#!/usr/bin/env python3
"""Run every distinct CLI call of the benchmark workloads and keep the outputs.

    python3 tools/cli_identity.py OUTDIR [--src DIR] [--seed 7]
        [--workloads analysis,region_scan,link_sim]

The inputs are those of bench/run.py at the same seed: the block pool that
bench/workloads.py generates (it is imported, not changed). Each call whose
name has not been seen yet in the pool runs once through ifwb.cli.main.
For each workload W, OUTDIR/W/in holds the inputs, OUTDIR/W/out the output
files, and OUTDIR/W/calls.txt one line per call: its name, exit code and
what it wrote to stderr. The tool prints, per workload, the number of calls
and how many of them workloads.check finds a problem with.

The library is imported from --src (default: the src/ next to this script),
so comparing the CLI outputs of two checkouts is one diff of two runs:

    python3 tools/cli_identity.py new
    python3 tools/cli_identity.py old --src ../old-checkout/src
    diff -r old new
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(cli, workloads, golden, name, seed, root) -> tuple[int, int]:
    """(calls, calls with a problem) for one workload, written under root/name."""
    in_dir, out_dir = (os.path.join(root, name, sub) for sub in ("in", "out"))
    os.makedirs(out_dir, exist_ok=True)
    seen, lines, failed = set(), [], 0
    for block in workloads.generate(name, seed, in_dir, golden):
        for op in block:
            if op.name in seen:
                continue
            seen.add(op.name)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(op.resolve(in_dir, out_dir))
            failed += bool(workloads.check(op, rc, out_dir, golden))
            lines.append(f"{op.name} {rc} {err.getvalue()!r}\n")
    with open(os.path.join(root, name, "calls.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("outdir", help="directory for the inputs, outputs and call lists")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory that holds the ifwb package to run")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", help="comma list of workloads (default: all)")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(HERE, "..", "bench")]
    import ifwb.cli
    import workloads

    names = args.workloads.split(",") if args.workloads else workloads.WORKLOADS
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        p.error(f"unknown workloads {unknown}; choose from {', '.join(workloads.WORKLOADS)}")
    golden = workloads.load_golden()
    for name in names:
        calls, failed = run_workload(ifwb.cli, workloads, golden, name, args.seed, args.outdir)
        print(f"{name}: {calls} calls, {failed} with a problem")
    return 0


if __name__ == "__main__":
    sys.exit(main())
