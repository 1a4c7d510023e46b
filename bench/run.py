#!/usr/bin/env python3
"""ifwb benchmark: seeded CLI workloads driven in-process as a closed loop.

    python3 bench/run.py --workload {analysis,region_scan,link_sim,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. One client calls ``ifwb.cli.main(argv)``; the
next call starts when the previous one returns. The program sees only the
CSV/JSON files the benchmark writes from ``--seed`` under bench/.work/.
Every call's outputs are checked (workloads.check).

--trace 0 runs whole blocks of calls until ``--seconds`` have passed and
reports the end-to-end metrics. Their times are given at a reference machine
speed: a fixed calibration loop runs after every call, and each call's time is
scaled by the loop's nominal time over its local median time (see
``reference_times``), so that the shared machine's drift in speed cancels out.
--trace 1 runs each call of block 0 twice, untraced and with every traced
function wrapped (tracer.py), in alternating order; it checks that both
passes wrote byte-identical files and reports per-layer metrics and the
tracing overhead.
The last stdout line is one JSON object {correct, attempted, failed, metrics};
the lines before it print every metric by name with its unit, the
environment stamp and the metrics that do not exist on every workload.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
WORKLOAD_NAMES = ("analysis", "region_scan", "link_sim")
SETUP_REPEATS = 5
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
# Per workload: the calibration loop's time at the reference speed (about
# what it takes on a 2.0 GHz Xeon VM core with Python 3.11 and numpy 2.4),
# and the size of the fresh random array it also processes. link_sim's calls
# draw and decode arrays of 1e5-1e6 trials, so its loop does that too.
CALIBRATION = {
    "analysis": {"ref_s": 0.004, "fresh_columns": 0},
    "region_scan": {"ref_s": 0.004, "fresh_columns": 0},
    "link_sim": {"ref_s": 0.015, "fresh_columns": 100_000},
}
# After each call the loop runs until it has taken this share of the call's
# time, and at least once.
CALIBRATION_SHARE = 0.1
# A call is scaled by the median of the loops that bracket it, widened to the
# nearest calls' loops until there are at least this many.
CALIBRATION_MIN_LOOPS = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def region_workers() -> dict:
    """Cap the region thread pool at nproc and stamp what was decided."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu_count = os.cpu_count() or 1
    workers = min(cpu_count, nproc)
    os.environ["IFWB_THREADS"] = str(workers)
    return {"nproc": nproc, "cpu_count": cpu_count, "region_workers": workers,
            "region_workers_capped": cpu_count > nproc}


def environment(threads: dict) -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or commit
    pkg = os.path.join(SRC, "ifwb")
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines += sum(1 for line in fh if line.strip())
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, **threads,
            "git_commit": commit, "src_ifwb_nonblank_lines": lines}


class Calibration:
    """A fixed loop of the kinds of work ifwb does: interpreted arithmetic,
    Gram-Schmidt through numpy element access, exact integer elimination on
    Python lists, many small numpy calls and one bulk array pass. It uses no
    ifwb code, so its time tracks only the machine's speed."""

    def __init__(self, ref_s: float, fresh_columns: int = 0, threads: int = 1):
        import numpy as np

        rng = np.random.default_rng(20261017)
        self.np = np
        self.rng = rng
        self.small = rng.standard_normal((8, 8))
        self.gram = self.small @ self.small.T + 8.0 * np.eye(8)
        self.ints = [[int(v) for v in row] for row in rng.integers(-3, 4, (6, 6))]
        self.bulk = rng.standard_normal((4, 30_000))
        self.ref_s = ref_s
        self.fresh_columns = fresh_columns
        self.threads = threads

    def _gram_schmidt(self) -> float:
        np, b = self.np, self.small
        n = b.shape[1]
        mu = np.zeros((n, n))
        nsq = np.zeros(n)
        bstar = np.zeros_like(b)
        for i in range(n):
            v = b[:, i].copy()
            for j in range(i):
                mu[i, j] = float(b[:, i] @ bstar[:, j]) / nsq[j]
                v -= mu[i, j] * bstar[:, j]
            bstar[:, i] = v
            nsq[i] = float(v @ v)
        return float(nsq.sum())

    def _bareiss(self) -> int:
        m = [row[:] for row in self.ints]
        n, prev = len(m), 1
        for k in range(n - 1):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return m[-1][-1]

    def _loop(self, _=None) -> float:
        np = self.np
        acc = 0.0
        for i in range(8_000):
            acc += (i * 7) % 13
        for _ in range(2):
            acc += self._gram_schmidt()
        for _ in range(40):
            acc += self._bareiss()
        for k in range(60):
            acc += float(np.linalg.cholesky(self.gram)[k % 8, 0]) + float(self.small[k % 8] @ self.small[0])
        y = self.small[:4, :4] @ self.bulk
        acc += float(np.abs(y - np.rint(y)).sum())
        if self.fresh_columns:
            z = self.small[:4, :4] @ self.rng.standard_normal((4, self.fresh_columns))
            acc += float(np.count_nonzero(np.rint(z)))
        return acc

    def sample(self) -> float:
        """Run the loop once per thread, as many threads at once as the
        workload runs, and return the time per loop in seconds."""
        start = time.perf_counter()
        if self.threads == 1:
            self._loop()
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(self._loop, range(self.threads)))
        return (time.perf_counter() - start) / self.threads


def reference_times(times, loops, ref_s):
    """Scale each call's time to the reference speed by the median of the
    calibration loops run just before and after it (CALIBRATION_MIN_LOOPS)."""
    scaled = []
    for i, t in enumerate(times):
        near = list(loops[i])
        if i > 0:
            near += loops[i - 1]
        lo, hi = i - 2, i + 1
        while len(near) < CALIBRATION_MIN_LOOPS and (lo >= 0 or hi < len(loops)):
            if lo >= 0:
                near += loops[lo]
            if hi < len(loops):
                near += loops[hi]
            lo, hi = lo - 1, hi + 1
        scaled.append(t * ref_s / statistics.median(near))
    return scaled


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Runner:
    """Calls the CLI for each op, times the call alone and checks its outputs."""

    def __init__(self, workloads, golden, in_dir, calibration):
        import ifwb.cli

        self.cli = ifwb.cli
        self.calibration = calibration
        self.workloads = workloads
        self.golden = golden
        self.in_dir = in_dir
        self.latencies = []
        self.loops = []  # per call, the calibration loop times taken after it
        self.names = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, ops, out_dir) -> None:
        """Run ops in order, writing into out_dir; after each, sample the
        machine's speed with the calibration loop."""
        for op in ops:
            argv = op.resolve(self.in_dir, out_dir)
            start = time.perf_counter()
            rc = self.cli.main(argv)  # looked up per call so a traced main is used
            elapsed = time.perf_counter() - start
            self.latencies.append(elapsed)
            self.names.append(op.name)
            self.attempted += 1
            problems = self.workloads.check(op, rc, out_dir, self.golden)
            if problems:
                self.failed += 1
                self.problems.append((op.name, problems))
            loops = [self.calibration.sample()]
            while sum(loops) < CALIBRATION_SHARE * elapsed:
                loops.append(self.calibration.sample())
            self.loops.append(loops)


def run_untraced(args, workloads, golden, blocks, run_dir, in_dir, setup_s, calibration):
    runner = Runner(workloads, golden, in_dir, calibration)
    out_dir = os.path.join(run_dir, "out")
    trials = 0
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        block = blocks[k % len(blocks)]
        runner.run(block, fresh_dir(out_dir))
        trials += sum(op.info.get("trials", 0) for op in block)
        k += 1
        if time.perf_counter() >= deadline:
            break
    latencies = reference_times(runner.latencies, runner.loops, calibration.ref_s)
    busy = sum(latencies)
    n = len(latencies)
    # Call costs are heavy-tailed in the channel (a 6x6 `rates` call takes
    # 20 ms to 2.8 s), so throughput is taken over a typical block: each of
    # the block's calls at the geometric mean of its times over the run's
    # blocks, which a few slow channels move far less than the mean.
    width = len(blocks[0])
    typical_block_s = sum(statistics.geometric_mean(latencies[j::width]) for j in range(width))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (width / typical_block_s, "1/s"),
        "op_gmean_ms": (1e3 * statistics.geometric_mean(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Reported where they exist, outside the gated set every workload shares;
    # *_measured are times before scaling to the reference speed.
    extra = {"fail_ratio": (runner.failed / runner.attempted, "ratio"),
             "ops": (n, "count"), "blocks": (k, "count"), "busy_s": (busy, "s"),
             "ops_per_busy_s": (n / busy, "1/s"),
             "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
             "ops_per_busy_s_measured": (n / sum(runner.latencies), "1/s"),
             "op_gmean_ms_measured": (1e3 * statistics.geometric_mean(runner.latencies), "ms"),
             "calibration_ms": (1e3 * statistics.median(t for loops in runner.loops for t in loops), "ms")}
    if n >= P90_MIN_OPS:
        extra["op_p90_ms"] = (1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms")
    if trials:
        extra["trials_per_s"] = (trials / busy, "1/s")
    return runner, metrics, extra


def run_traced(workloads, golden, blocks, run_dir, in_dir, calibration):
    import tracer as tracing

    runner = Runner(workloads, golden, in_dir, calibration)
    block = blocks[0]
    plain_dir = fresh_dir(os.path.join(run_dir, "out_untraced"))
    traced_dir = fresh_dir(os.path.join(run_dir, "out_traced"))
    # Each call runs untraced and traced, back to back, so that drift in
    # machine speed during the block does not land in the overhead. The order
    # alternates, because a call's second run can be faster (its memory is
    # already mapped) whether or not it is traced.
    tracer = tracing.Tracer()
    traced = []  # per runner call, whether it ran traced
    for index, op in enumerate(block):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            traced.append(with_trace)
            if not with_trace:
                runner.run([op], plain_dir)
                continue
            tracer.op_id = index
            tracer.install()
            try:
                runner.run([op], traced_dir)
            finally:
                tracer.uninstall()
    tracer.write(os.path.join(run_dir, "spans.csv.gz"))

    out_bytes = 0
    for op in block:
        for fname in op.outputs:
            a, b = os.path.join(plain_dir, fname), os.path.join(traced_dir, fname)
            out_bytes += os.path.getsize(b)
            if not filecmp.cmp(a, b, shallow=False):
                runner.failed += 1
                runner.problems.append((op.name, [f"{fname} differs between traced and untraced runs"]))

    stats, by_parent = tracing.summarize(tracer.spans)
    metrics = {}
    for name, entry in stats.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.total_s"] = (entry["total_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    plans = stats["rates.allocate_rates"]
    metrics["rates.allocate_rates.feasible_ratio"] = (
        plans["true"] / plans["calls"] if plans["calls"] else 0.0, "ratio")

    scan = "region.enumerate_achievable_points"
    points = frontier = 0
    for op in block:
        if op.kind == "region":
            results = workloads.read_json(os.path.join(traced_dir, op.outputs[0]))["results"]
            points += len(results["points"])
            frontier += len(results["frontier"])
    feasible = by_parent[("rates.allocate_rates", scan)]["true"]
    metrics["region.candidates"] = (by_parent[("lattice.int_det", scan)]["calls"], "count")
    metrics["region.full_rank"] = (by_parent[("rates.pseudo_triangularize", scan)]["calls"], "count")
    metrics["region.feasible_plans"] = (feasible, "count")
    metrics["region.points"] = (points, "count")
    metrics["region.frontier"] = (frontier, "count")
    metrics["region.kept_ratio"] = (points / feasible if feasible else 0.0, "ratio")

    trials = sum(op.info.get("trials", 0) for op in block if op.kind == "simulate")
    sim_s = stats["simulate.run_successive_if_trials"]["total_s"]
    metrics["simulate.trials"] = (trials, "count")
    metrics["simulate.layer_trials_per_s"] = (trials / sim_s if sim_s else 0.0, "1/s")
    metrics["cli.output_bytes"] = (out_bytes, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    scaled = reference_times(runner.latencies, runner.loops, calibration.ref_s)
    plain_s = sum(t for t, with_trace in zip(scaled, traced) if not with_trace)
    traced_s = sum(t for t, with_trace in zip(scaled, traced) if with_trace)
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return runner, metrics, {}


def run_workload(args) -> int:
    start = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "ifwb")):
        print(f"bench: no ifwb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    threads = region_workers()
    import ifwb.cli  # noqa: F401  (import time is part of set-up)
    import workloads

    import_s = time.perf_counter() - start
    calibration = Calibration(**CALIBRATION[args.workload], threads=threads["region_workers"]
                              if args.workload == "region_scan" else 1)
    golden = workloads.load_golden()
    run_dir = fresh_dir(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    in_dir = os.path.join(run_dir, "in")
    warm_dir = os.path.join(run_dir, "warmup")

    # Set-up, repeated: input generation plus one warm-up call (block 0's first
    # op), each followed by a calibration loop (Runner.run times one per call).
    setup_runner = Runner(workloads, golden, in_dir, calibration)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        blocks = workloads.generate(args.workload, args.seed, fresh_dir(in_dir), golden)
        setup_runner.run(blocks[0][:1], fresh_dir(warm_dir))
        setup_times.append(time.perf_counter() - t0)
    setup_loops = [t for loops in setup_runner.loops for t in loops]
    setup_s = (import_s + statistics.median(setup_times)) * calibration.ref_s / statistics.median(setup_loops)

    if args.trace:
        runner, metrics, extra = run_traced(workloads, golden, blocks, run_dir, in_dir, calibration)
    else:
        runner, metrics, extra = run_untraced(args, workloads, golden, blocks, run_dir, in_dir, setup_s,
                                              calibration)
    attempted = runner.attempted + setup_runner.attempted
    failed = runner.failed + setup_runner.failed

    env = environment(threads)
    for name, problems in setup_runner.problems + runner.problems:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {args.workload}.{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "extra": {k: v for k, (v, _) in extra.items()},
                   "latencies_s": list(zip(runner.names, runner.latencies)),
                   "calibration_s": runner.loops}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        correct = correct and part["correct"]
        attempted += part["attempted"]
        failed += part["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
