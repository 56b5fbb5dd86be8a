"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy criteria drive full multi-seed experiments, so this module is the
slow part of the suite (several minutes end to end).
"""

import hashlib
import time

import numpy as np
import pytest

from massart_online.core import BanditConfig, HalfspaceConfig
from massart_online.harness import run_bandit_experiment, run_halfspace_experiment, run_many
from massart_online.oracles import (
    check_debiasing,
    check_gap_loss_lipschitz,
    check_leaky_relu_equivalence,
    check_midpoint_convexity,
    check_ogd_regret,
    check_subgradient_inequality,
    check_target_negative_loss,
)

N_SEEDS = 20
HORIZONS = (1_000, 10_000, 100_000)


def _announce(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)


def _halfspace_means(adversary, eta, gamma=0.2, d=20):
    means = {}
    for t_horizon in HORIZONS:
        cfg = HalfspaceConfig(d=d, t_horizon=t_horizon, eta=eta, gamma=gamma, adversary=adversary)
        runs = run_many(run_halfspace_experiment, cfg, range(N_SEEDS))
        means[t_horizon] = runs["mean_total_mistakes"]
    return means


def test_c01_exact_loss_debiasing():
    t0 = time.perf_counter()
    result = check_debiasing(seed=101, n=1_000, tol=1e-9, d_max=8, k_max=6)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 10
    _announce("criterion 1 (exact loss debiasing)", ok, f"{result.detail}; {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 10


def test_c02_leaky_relu_equivalence():
    t0 = time.perf_counter()
    result = check_leaky_relu_equivalence(seed=102, n=100_000, rtol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 1
    _announce("criterion 2 (leaky relu closed form)", ok, f"{result.detail}; {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 1


def test_c03_convexity_subgradients_lipschitz():
    t0 = time.perf_counter()
    # 2e4 alternating instances give each gap-loss branch its 1e4 pairs
    sub = check_subgradient_inequality(seed=103, n=20_000, tol=1e-9)
    conv = check_midpoint_convexity(seed=104, n=20_000, tol=1e-9)
    lip = check_gap_loss_lipschitz(seed=105, n=20_000, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = sub.passed and conv.passed and lip.passed and elapsed < 30
    _announce(
        "criterion 3 (convexity, subgradients, lipschitz)",
        ok,
        f"{sub.detail} | {conv.detail} | {lip.detail}; {elapsed:.1f}s",
    )
    assert sub.passed, sub.detail
    assert conv.passed, conv.detail
    assert lip.passed, lip.detail
    assert elapsed < 30


def test_c04_target_negative_loss():
    result = check_target_negative_loss(seed=106, n=10_000, tol=1e-12)
    _announce("criterion 4 (target loss negative in expectation)", result.passed, result.detail)
    assert result.passed, result.detail


def test_c05_mistake_rate_and_normalized_excess():
    t0 = time.perf_counter()
    eta, gamma = 0.1, 0.2
    means = _halfspace_means("iid", eta=eta, gamma=gamma, d=20)
    elapsed = time.perf_counter() - t0
    rate = means[100_000] / 100_000
    excess = [(means[t] - eta * t) * gamma / t**0.75 for t in HORIZONS]
    nonincreasing = excess[1] <= 2 * excess[0] and excess[2] <= 2 * excess[1]
    ok = 0.08 <= rate <= 0.15 and nonincreasing and elapsed < 300
    _announce(
        "criterion 5 (mistake rate, excess trend)",
        ok,
        f"rate {rate:.4f} in [0.08, 0.15]; excess {[f'{e:.4f}' for e in excess]}; {elapsed:.0f}s",
    )
    assert 0.08 <= rate <= 0.15, rate
    assert nonincreasing, excess
    assert elapsed < 300


def test_c06_sublinear_noiseless_mistakes():
    means = _halfspace_means("boundary", eta=0.0, gamma=0.2, d=20)
    counts = [max(means[t], 1.0) for t in HORIZONS]
    slope = float(np.polyfit(np.log(HORIZONS), np.log(counts), 1)[0])
    ok = slope <= 0.85
    _announce(
        "criterion 6 (noiseless sublinear mistakes)",
        ok,
        f"log-log slope {slope:.3f} <= 0.85; means {[f'{c:.0f}' for c in counts]}",
    )
    assert slope <= 0.85, slope


def test_c07_bandit_reward_gap():
    t0 = time.perf_counter()
    k, delta, gamma, cap, t_horizon = 3, 0.5, 0.2, 1.0, 100_000
    cfg = BanditConfig(
        d=10, k=k, t_horizon=t_horizon, gamma=gamma, delta=delta, reward_cap=cap,
        environment="monotone_k",
    )
    runs = run_many(run_bandit_experiment, cfg, range(N_SEEDS))
    gaps = [report["bound_check"]["played_gap_vs_uniform"] for report in runs["per_seed"]]
    elapsed = time.perf_counter() - t0
    mean_gap = float(np.mean(gaps))
    threshold = 0.5 * (1 - 1 / k) * delta * t_horizon
    ok = mean_gap >= threshold and elapsed < 600
    _announce(
        "criterion 7 (bandit reward gap)",
        ok,
        f"mean gap {mean_gap:.0f} >= {threshold:.0f}; {elapsed:.0f}s",
    )
    assert mean_gap >= threshold, (mean_gap, threshold)
    assert elapsed < 600


def test_c08_reduction_consistency():
    # eta = 0.1 enters through the reward margin delta = 1 - 2*eta; the
    # greedy-arm reward is the bandit-side twin of T minus the mistakes
    eta, t_horizon = 0.1, 100_000
    cfg = BanditConfig(
        d=10, k=2, t_horizon=t_horizon, gamma=1.0, delta=1.0 - 2 * eta, reward_cap=1.0,
        environment="reduction2",
    )
    runs = run_many(run_bandit_experiment, cfg, range(N_SEEDS))
    rates = [1.0 - report["greedy_reward"] / t_horizon for report in runs["per_seed"]]
    mean_rate = float(np.mean(rates))
    ok = mean_rate <= eta + 0.08
    _announce(
        "criterion 8 (2-arm reduction consistency)",
        ok,
        f"implied mistake rate {mean_rate:.4f} <= {eta + 0.08:.2f}",
    )
    assert mean_rate <= eta + 0.08, mean_rate


def test_c09_ogd_regret_sanity():
    result = check_ogd_regret(horizons=HORIZONS, slope_limit=0.6)
    _announce("criterion 9 (ogd regret)", result.passed, result.detail)
    assert result.passed, result.detail


def test_c10_reproducibility(tmp_path):
    digests = {}
    for label, cfg, runner in (
        (
            "halfspace",
            HalfspaceConfig(d=8, t_horizon=2_000, eta=0.1, gamma=0.2, seed=11),
            run_halfspace_experiment,
        ),
        (
            "bandit",
            BanditConfig(
                d=6, k=3, t_horizon=2_000, gamma=0.2, delta=0.5, reward_cap=1.0, seed=11,
                environment="monotone_k",
            ),
            run_bandit_experiment,
        ),
    ):
        hashes = []
        for attempt in (0, 1):
            path = tmp_path / f"{label}_{attempt}.csv"
            runner(cfg, csv_path=str(path))
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        digests[label] = hashes
    ok = all(h[0] == h[1] for h in digests.values())
    _announce(
        "criterion 10 (byte reproducibility)",
        ok,
        "; ".join(f"{k}: {v[0][:12]}" for k, v in digests.items()),
    )
    for label, (h1, h2) in digests.items():
        assert h1 == h2, label
