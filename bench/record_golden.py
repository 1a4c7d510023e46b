#!/usr/bin/env python3
"""Rewrite bench/golden.json: fixed golden inputs and the outputs they give now.

Run from the repository root with ``python3 bench/record_golden.py`` only when
a change is meant to alter the pinned outputs; say so where the change is
recorded.
"""

import json
import math
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import ifwb.cli  # noqa: E402
import workloads  # noqa: E402

EXAMPLE1 = [[math.sqrt(2.0), 1.0]]


def golden_inputs() -> dict:
    rng = np.random.default_rng(20130708)
    return {
        "analysis": {
            "golden_lll_12": {"channel": rng.standard_normal((12, 12)).tolist(), "snr_db": "20",
                              "mode": "lll"},
            "golden_brute_3": {"channel": rng.standard_normal((3, 3)).tolist(), "snr_db": "15",
                               "mode": "brute", "coeff_bound": 3},
        },
        "region_scan": {"golden_example1": {"channel": EXAMPLE1, "snr_db": "15"}},
        "link_sim": {
            "golden_example1": {"config": {"channel": EXAMPLE1, "snr_db": 15.0, "pam_points": 4,
                                           "trials": 100000, "seed": 20240611}},
        },
    }


def main() -> int:
    golden = golden_inputs()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.golden_ops(workload, golden, tmp):
                if ifwb.cli.main(op.resolve(tmp, tmp)) != 0:
                    raise SystemExit(f"golden call {op.name} failed")
                results = workloads.read_json(os.path.join(tmp, op.outputs[0]))["results"]
                case = golden[workload][op.name]
                if op.kind == "optimize-a":
                    case["max_step_residual"] = results["max_step_residual"]
                elif op.kind == "region":
                    case["frontier"] = [[p["r1"], p["r2"]] for p in results["frontier"]]
                else:
                    case["symbol_error_rate"] = results["symbol_error_rate"]
                    case["equation_error_rate"] = results["equation_error_rate"]
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
