"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import EXAMPLE1_A, random_channel, random_full_rank_int
from ifwb.cli import main
from ifwb.lattice import brute_force_min_max, int_det, is_kz_reduced, kz_reduce
from ifwb.rates import (
    ChannelInstance,
    allocate_rates,
    gdfe_filters,
    if_effective_model,
    if_rates,
    mmse_sic_plan,
    optimal_a,
    pseudo_triangularize,
    successive_if_rates,
    successive_objective,
    white_input_capacity,
)
from ifwb.region import pentagon_contains
from ifwb.simulate import SimConfig, run_lr_aided_sic_trials, run_mmse_sic_trials, run_successive_if_trials

ANCHOR_TOL = 5e-4


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def example1_channel() -> ChannelInstance:
    return ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5)


def test_criterion_1_example_reproduction():
    with criterion(1, "two-user example: SIC corners, per-step rates, both permutations"):
        start = time.perf_counter()
        ch = example1_channel()
        first = mmse_sic_plan(ch)
        assert abs(first.rates[0] - 0.7776) <= ANCHOR_TOL
        assert abs(first.rates[1] - 2.5139) <= ANCHOR_TOL
        swapped = mmse_sic_plan(ch, decode_order=(1, 0))
        assert abs(swapped.stream_rates[0] - 3.0028) <= ANCHOR_TOL
        assert abs(swapped.stream_rates[1] - 0.2887) <= ANCHOR_TOL
        sif = successive_if_rates(ch, EXAMPLE1_A)
        assert abs(sif.per_step[0] - 1.8452) <= ANCHOR_TOL
        assert abs(sif.per_step[1] - 1.4463) <= ANCHOR_TOL
        perms = {t.permutation for t in pseudo_triangularize(EXAMPLE1_A)}
        assert perms == {(0, 1), (1, 0)}
        for perm in perms:
            assert allocate_rates(ch, EXAMPLE1_A, perm).monotone_feasible
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_2_sum_rate_identities():
    with criterion(2, "sum-rate identities on 200 random channels, residual <= 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(2025)
        snrs = (1.0, 10.0, 100.0)
        for i in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            ch = ChannelInstance(rng.standard_normal((n, m)), snrs[i % 3])
            cwi = white_input_capacity(ch)
            plan = mmse_sic_plan(ch)
            assert abs(plan.sum_rate - cwi) <= 1e-9
            a = random_full_rank_int(rng, m)
            sif = successive_if_rates(ch, a)
            assert abs(sif.sum_rate + sif.det_gap - cwi) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_criterion_3_kz_optimality():
    with criterion(3, "KZ-reduced A matches exhaustive optimum on 50 2x2 + 20 3x3 channels"):
        start = time.perf_counter()
        rng = np.random.default_rng(31337)
        cases = [(2, 50), (3, 20)]
        snrs = (1.0, 10.0, 100.0)
        k = 0
        for dim, count in cases:
            for _ in range(count):
                ch = ChannelInstance(rng.standard_normal((dim, dim)), snrs[k % 3])
                k += 1
                a_kz = optimal_a(ch, "kz_exact")
                assert abs(int_det(a_kz)) == 1
                obj_kz = successive_objective(ch, a_kz)
                _, obj_bf = brute_force_min_max(ch.sic_cholesky, 5, "successive_if")
                assert abs(obj_kz - obj_bf) <= 1e-9 * max(1.0, obj_bf)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_kz_verifier():
    with criterion(4, "100 random 2-/3-D bases: KZ output passes both reduction conditions"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 100:
            dim = 2 + checked % 2
            basis = rng.integers(-5, 6, size=(dim, dim)).astype(float)
            if abs(np.linalg.det(basis)) < 0.5:
                continue
            report = kz_reduce(basis)
            assert is_kz_reduced(report.reduced_basis)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_5_gdfe_equivalence():
    with criterion(5, "decision-feedback filters diagonalize the error covariance on 100 pairs"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            ch = random_channel(rng, max_dim=4)
            a = random_full_rank_int(rng, ch.num_streams)
            filters = gdfe_filters(ch, a)
            model = if_effective_model(ch, a)
            kee = filters.Kee
            off = np.abs(kee - np.diag(np.diag(kee))).max()
            assert off <= 1e-9 * max(np.abs(kee).max(), 1e-300)
            expected_diag = ch.snr * np.diag(model.L) ** 2
            assert np.abs(np.diag(kee) - expected_diag).max() <= 1e-9 * np.abs(kee).max()
            gdfe_rates = -0.5 * np.log2(np.diag(kee) / ch.snr)
            sif = successive_if_rates(ch, a)
            assert np.abs(gdfe_rates - np.asarray(sif.per_step)).max() <= 1e-9


def test_criterion_6_region_reproduction(tmp_path):
    with criterion(6, "region subcommand reproduces all four marked frontier points"):
        channel = tmp_path / "ex1.csv"
        channel.write_text(f"{float(np.sqrt(2.0))!r},1.0\n")
        out = tmp_path / "region.json"
        code = main(
            ["region", "--channel", str(channel), "--snr-db", "15",
             "--coeff-bound", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        frontier = [(p["r1"], p["r2"]) for p in report["results"]["frontier"]]

        def present(r1, r2):
            return any(abs(a - r1) <= ANCHOR_TOL and abs(b - r2) <= ANCHOR_TOL for a, b in frontier)

        assert present(0.7776, 2.5139), "gray corner 1 missing"
        assert present(3.0028, 0.2887), "gray corner 2 missing"
        assert present(1.8452, 1.4463), "balanced point 1 missing"
        assert present(1.4463, 1.8452), "balanced point 2 missing"
        ch = example1_channel()
        for p in report["results"]["points"]:
            assert pentagon_contains(ch, (p["r1"], p["r2"]), slack=1e-9)


def test_criterion_7_simulator_validation():
    with criterion(7, "simulator: decoder equivalence, covariance match, closed-form SER"):
        # (a) successive IF and LR-aided SIC agree trial by trial
        ch = example1_channel()
        cfg = SimConfig(ch=ch, A=EXAMPLE1_A, pam_points=4, trials=10000, seed=7001)
        np_path = run_successive_if_trials(cfg)
        lr_path = run_lr_aided_sic_trials(cfg)
        assert np.array_equal(np_path.equation_decisions, lr_path.equation_decisions)
        assert np.array_equal(np_path.stream_decisions, lr_path.stream_decisions)

        # (b) empirical effective-noise covariance matches the analytic one
        rng = np.random.default_rng(7002)
        ch3 = ChannelInstance(rng.standard_normal((3, 3)), 10.0)
        a3 = optimal_a(ch3, "kz_exact")
        cfg3 = SimConfig(ch=ch3, A=a3, pam_points=4, trials=100000, seed=7003)
        result = run_successive_if_trials(cfg3)
        analytic = if_effective_model(ch3, a3).Ktilde
        tol = 5.0 / math.sqrt(cfg3.trials)
        rel = np.abs(result.empirical_Ktilde - analytic).max() / np.abs(analytic).max()
        assert rel <= tol, f"relative covariance error {rel:.4f} > {tol:.4f}"

        # (c) identity channel PAM error rate matches the closed form
        snr = 100.0
        chi = ChannelInstance(np.eye(2), snr)
        cfgi = SimConfig(ch=chi, A=np.eye(2, dtype=int), pam_points=4, trials=100000, seed=7004)
        resi = run_mmse_sic_trials(cfgi)
        c = cfgi.symbol_scale
        sigma = math.sqrt(snr / (1.0 + snr))
        pe = 2.0 * (1.0 - 0.25) * 0.5 * math.erfc(c / sigma / math.sqrt(2.0))
        stderr = math.sqrt(pe * (1.0 - pe) / cfgi.trials)
        for ser in resi.symbol_error_rate:
            assert abs(ser - pe) <= 3.0 * stderr


def test_criterion_8_dominance_and_identity_degeneration():
    with criterion(8, "parallel<=successive on 500 instances; A=I equals MMSE-SIC to 1e-12"):
        rng = np.random.default_rng(808)
        for _ in range(500):
            ch = random_channel(rng, max_dim=3)
            a = random_full_rank_int(rng, ch.num_streams)
            par = if_rates(ch, a)
            sif = successive_if_rates(ch, a)
            for r_if, r_sif in zip(par.raw, sif.per_step):
                assert r_if <= r_sif + 1e-12
        for _ in range(50):
            ch = random_channel(rng, max_dim=4)
            ident = np.eye(ch.num_streams, dtype=np.int64)
            sif = successive_if_rates(ch, ident)
            plan = mmse_sic_plan(ch)
            assert max(abs(x - y) for x, y in zip(sif.per_step, plan.rates)) <= 1e-12
