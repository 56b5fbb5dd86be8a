"""Experiment driver: runs learners against environments, audits the
environment's promises, and serializes per-round CSV traces plus JSON
reports. Reports are byte-reproducible from (config, seed) except for the
wall_time_s field.

An oblivious stream (iid points, sorted_k, monotone_k, reduction2) is
audited one block at a time, before the block's first round is served, so
a bad row stops the run at that block's first round. The boundary and
adaptive adversaries read the iterate, and their rounds are audited one by
one.
"""

import dataclasses
import functools
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import environments
from .core import BLOCK, ConfigError, config_dict, spawn_streams
from .learner_bandit import BanditLearner
from .learner_halfspace import HalfspaceLearner
from .losses import sign_of
from .optimizer import float_sum, norm

CSV_HEADER = "round,action,observed,score,loss,explored,cum_metric,w_norm"

AUDIT_TOL = 1e-9


class EnvironmentViolation(RuntimeError):
    """The environment broke one of its own promises (ball, margin, range)."""


class _CsvSink:
    def __init__(self, path):
        self.fh = open(path, "w", newline="") if path else None
        if self.fh:
            self.fh.write(CSV_HEADER + "\n")

    def write(self, line):
        """One formatted CSV row in CSV_HEADER order, newline included; call
        it only when fh is open."""
        self.fh.write(line)

    def close(self):
        if self.fh:
            self.fh.close()


class _Perceptron:
    """Classic mistake-driven update, used as a comparison column."""

    __slots__ = ("w", "mistakes")

    def __init__(self, d):
        self.w = np.zeros(d)
        self.mistakes = 0

    def observe(self, x, y):
        pred = 1 if float(self.w.dot(x)) >= 0 else -1
        if pred != y:
            self.mistakes += 1
            self.w = self.w + y * x


def _draws(draw, rng):
    """The baselines' own random draws one at a time, draw(rng, BLOCK) giving
    a block of them; they are not environment rows, so nothing audits them."""
    while True:
        yield from draw(rng, BLOCK)


# Every bound below reads "not (value within bound)", so that NaN, which
# fails every comparison, fails the audit too.


def _audit_point(x, y, target):
    """Audits one round's point x and label y, or one block: the (n, d)
    points x and the list y of their labels; target holds the promises."""
    w_star, gamma = target.w_star, target.gamma
    if x.ndim == 1:
        x_norm, margin, labels = norm(x), abs(float(w_star.dot(x))), (y,)
    else:
        x_norm = math.sqrt((x * x).sum(axis=1).max())
        margin, labels = float(np.abs(x @ w_star).min()), set(y)
    if not x_norm <= 1.0 + AUDIT_TOL:
        raise EnvironmentViolation(f"point norm {x_norm} exceeds the unit ball")
    if not margin >= gamma - AUDIT_TOL:
        raise EnvironmentViolation(f"margin {margin} below the promised {gamma}")
    for label in labels:
        if label not in (-1, 1):
            raise EnvironmentViolation(f"label {label} outside {{-1, +1}}")


def _audit_context(contexts, rewards, target, k):
    """Audits one block: the (n, d, k) contexts, every column in the unit
    ball with w_star scores at least gamma apart within its context, and
    their (n, k) rewards inside [0, reward_cap]; target holds the promises."""
    w_star, gamma, reward_cap = target.w_star, target.gamma, target.reward_cap
    n, d = len(contexts), w_star.shape[0]
    if contexts.shape != (n, d, k):
        raise EnvironmentViolation(
            f"context shape {contexts.shape[1:]} is not (d, k) = {(d, k)}"
        )
    worst_sq = float((contexts * contexts).sum(axis=1).max())
    if not worst_sq <= (1.0 + AUDIT_TOL) ** 2:
        raise EnvironmentViolation(f"context column norm {worst_sq**0.5} exceeds the unit ball")
    scores = np.sort(w_star @ contexts, axis=1)
    min_gap = float((scores[:, 1:] - scores[:, :-1]).min())
    if not min_gap >= gamma - AUDIT_TOL:
        raise EnvironmentViolation(f"context score gap {min_gap} below the promised {gamma}")
    low, high = float(rewards.min()), float(rewards.max())
    if not (low >= -AUDIT_TOL and high <= reward_cap + AUDIT_TOL):
        raise EnvironmentViolation(f"rewards outside [0, {reward_cap}]: [{low}, {high}]")


def run_halfspace_experiment(config, csv_path=None):
    """Drive the halfspace learner for T rounds; returns the run report.

    Baselines (coin-flip predictions and the perceptron) consume the exact
    same observed stream inside the same pass.
    """
    t_start = time.perf_counter()
    rng_env, rng_base = spawn_streams(config.seed, 2)
    target = environments.HiddenTarget(
        w_star=environments.random_unit(rng_env, config.d),
        eta=config.eta,
        gamma=config.gamma,
    )
    learner = HalfspaceLearner(config)
    perceptron = _Perceptron(config.d)
    random_mistakes = 0
    audit = functools.partial(_audit_point, target=target)
    stream = environments.MarginStream(config.adversary, target, rng_env, audit)
    # iid rows reach the loop audited with their block
    audit_rounds = config.adversary != "iid"
    heads = _draws(lambda rng, n: (rng.random(n) < 0.5).tolist(), rng_base)
    sink = _CsvSink(csv_path)
    try:
        for t in range(1, config.t_horizon + 1):
            x, y = environments.adversary_round(stream, learner.w)
            if audit_rounds:
                _audit_point(x, y, target)
            score, value = learner.observe(x, y)
            guess = 1 if next(heads) else -1
            if guess != y:
                random_mistakes += 1
            perceptron.observe(x, y)
            if sink.fh:
                sink.write(
                    f"{t},{sign_of(score)},{y},{score!r},{value!r},0,"
                    f"{learner.mistakes},{norm(learner.w)!r}\n"
                )
    finally:
        sink.close()
    t_total = config.t_horizon
    mistakes = learner.mistakes
    return {
        "kind": "halfspace",
        "config": config_dict(config),
        "total_mistakes": mistakes,
        "mistake_rate": mistakes / t_total,
        "baselines": {
            "random_play": random_mistakes,
            "perceptron": perceptron.mistakes,
            "uniform_arm_mean": None,
        },
        "bound_check": {
            "eta_T": config.eta * t_total,
            "excess_term": t_total**0.75 / config.gamma,
            "normalized_excess": (mistakes - config.eta * t_total) * config.gamma / t_total**0.75,
        },
        "clamp_flags": {"epsilon_clamped": config.epsilon_clamped},
        "wall_time_s": time.perf_counter() - t_start,
    }


def run_bandit_experiment(config, csv_path=None):
    """Drive the k-arm learner for T rounds; returns the run report.

    The environment's full reward vectors stay private to this driver; they
    feed the uniform-arm baseline and the greedy-arm reward accounting that
    the 2-arm reduction identities refer to.
    """
    t_start = time.perf_counter()
    rng_env, rng_learner, rng_base = spawn_streams(config.seed, 3)
    target = environments.HiddenTarget(
        w_star=environments.random_unit(rng_env, config.d),
        gamma=config.gamma,
        delta=config.delta,
        reward_cap=config.reward_cap,
    )
    k = config.k
    audit = functools.partial(_audit_context, target=target, k=k)
    env = environments.make_bandit_environment(config.environment, target, k, rng_env, audit)
    learner = BanditLearner(config, rng_learner)
    uniform_sum = 0.0
    greedy_sum = 0.0
    random_play = 0.0
    arms = _draws(lambda rng, n: rng.integers(k, size=n).tolist(), rng_base)
    sink = _CsvSink(csv_path)
    try:
        for t in range(1, config.t_horizon + 1):
            context, rewards = env.next_round()
            values = rewards.tolist()
            feedback = learner.play_round(context, values.__getitem__)
            # the sum over the count is the float rewards.mean() returns
            uniform_sum += float_sum(values) / k
            greedy_sum += values[feedback.greedy_arm]
            random_play += values[next(arms)]
            if sink.fh:
                sink.write(
                    f"{t},{feedback.played_arm},{float(feedback.observed_reward)!r},"
                    f"{float(feedback.score)!r},{float(feedback.loss_value)!r},"
                    f"{feedback.explored:d},{float(learner.cumulative_reward)!r},"
                    f"{norm(learner.w)!r}\n"
                )
    finally:
        sink.close()
    t_total = config.t_horizon
    gain_term = (1.0 - 1.0 / config.k) * config.delta * t_total
    return {
        "kind": "bandit",
        "config": config_dict(config),
        "total_reward": learner.cumulative_reward,
        "greedy_reward": greedy_sum,
        "exploration_count": learner.exploration_count,
        "baselines": {
            "uniform_arm_mean": uniform_sum,
            "random_play": random_play,
            "perceptron": None,
        },
        "bound_check": {
            "delta_gain_term": gain_term,
            "excess_term": t_total ** (5.0 / 6.0)
            * (config.k * config.delta * config.reward_cap**2) ** (1.0 / 3.0)
            / config.gamma,
            "played_gap_vs_uniform": learner.cumulative_reward - uniform_sum,
            "greedy_gap_vs_uniform": greedy_sum - uniform_sum,
        },
        "clamp_flags": {"q_clamped": config.q_clamped},
        "wall_time_s": time.perf_counter() - t_start,
    }


def run_many(runner, config, seeds, out_dir=None):
    """Run one config across distinct seeds (any iterable, run in sorted
    order, so aggregation is order-free); out_dir, a str or a Path, is
    created and gets run_<seed>.csv per seed. Every input, out_dir's paths
    included, is checked before the first run."""
    # each seed's config checks its seed, so a bad one fails before any run
    configs = sorted(
        (dataclasses.replace(config, seed=seed) for seed in seeds), key=lambda c: c.seed
    )
    if not configs:
        raise ConfigError("run_many needs at least one seed")
    ordered = [cfg.seed for cfg in configs]
    if len(set(ordered)) < len(ordered):
        raise ConfigError(f"run_many needs distinct seeds, got {ordered}")
    csv_paths = [None] * len(configs)
    if out_dir is not None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out} as an output directory: {exc}") from exc
        csv_paths = [str(out / f"run_{seed}.csv") for seed in ordered]
        for path in csv_paths:
            check_output_path(path)
    per_seed = [runner(cfg, csv_path=path) for cfg, path in zip(configs, csv_paths)]
    metric = "total_mistakes" if per_seed[0]["kind"] == "halfspace" else "total_reward"
    return {
        "kind": per_seed[0]["kind"] + "_multi",
        "seeds": ordered,
        "mean_" + metric: float(np.mean([r[metric] for r in per_seed])),
        "per_seed": per_seed,
    }


def check_output_path(path):
    """ConfigError if a directory stands where the output file path goes."""
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def report_digest(report):
    """sha256 of the canonical report JSON with wall-time fields removed."""
    return hashlib.sha256(report_json(_strip_wall_time(report)).encode()).hexdigest()


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def report_json(report):
    """Canonical report JSON; a non-finite number raises ValueError."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def write_report(report, path):
    with open(path, "w") as fh:
        fh.write(report_json(report) + "\n")
