import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from massart_online import cli, environments, harness
from massart_online.core import (
    BLOCK,
    CONFIG_KEYS,
    BanditConfig,
    ConfigError,
    HalfspaceConfig,
    seeded_rng,
)
from massart_online.harness import (
    CSV_HEADER,
    EnvironmentViolation,
    report_digest,
    report_json,
    run_bandit_experiment,
    run_halfspace_experiment,
    run_many,
)
from massart_online.learner_bandit import fake_rewards
from massart_online.oracles import check_debiasing, run_all


def _halfspace_config(**overrides):
    base = dict(d=6, t_horizon=400, eta=0.1, gamma=0.2, seed=0, adversary="iid")
    base.update(overrides)
    return HalfspaceConfig(**base)


def _bandit_config(**overrides):
    base = dict(
        d=5, k=3, t_horizon=400, gamma=0.2, delta=0.5, reward_cap=1.0, seed=0,
        environment="monotone_k",
    )
    base.update(overrides)
    return BanditConfig(**base)


def test_halfspace_csv_bytes_reproducible(tmp_path):
    cfg = _halfspace_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_halfspace_experiment(cfg, csv_path=str(p1))
    r2 = run_halfspace_experiment(cfg, csv_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert report_digest(r1) == report_digest(r2)


def test_bandit_csv_bytes_reproducible(tmp_path):
    cfg = _bandit_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_bandit_experiment(cfg, csv_path=str(p1))
    r2 = run_bandit_experiment(cfg, csv_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert report_digest(r1) == report_digest(r2)


def test_csv_schema_and_row_count(tmp_path):
    cfg = _halfspace_config(t_horizon=50)
    path = tmp_path / "run.csv"
    run_halfspace_experiment(cfg, csv_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 51  # header + one row per round, no summary row
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] in ("1", "-1")
    assert lines[-1].split(",")[0] == "50"


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_round_records_contiguous_and_consistent(tmp_path):
    cfg = _halfspace_config(t_horizon=60)
    path = tmp_path / "run.csv"
    report = run_halfspace_experiment(cfg, csv_path=str(path))
    rows = _csv_rows(path)
    assert [int(r["round"]) for r in rows] == list(range(1, 61))
    assert int(rows[-1]["cum_metric"]) == report["total_mistakes"]
    mistakes = sum(r["action"] != r["observed"] for r in rows)
    assert mistakes == report["total_mistakes"]


def test_halfspace_report_fields_and_bounds():
    cfg = _halfspace_config()
    report = run_halfspace_experiment(cfg)
    assert report["kind"] == "halfspace"
    assert report["config"]["eta"] == 0.1
    assert set(report["baselines"]) == {"random_play", "perceptron", "uniform_arm_mean"}
    bc = report["bound_check"]
    assert bc["eta_T"] == pytest.approx(0.1 * 400)
    expected = (report["total_mistakes"] - 40.0) * 0.2 / 400**0.75
    assert bc["normalized_excess"] == pytest.approx(expected)


def test_bandit_report_accounting(tmp_path):
    cfg = _bandit_config(t_horizon=300)
    path = tmp_path / "run.csv"
    report = run_bandit_experiment(cfg, csv_path=str(path))
    rows = _csv_rows(path)
    assert report["total_reward"] == pytest.approx(sum(float(r["observed"]) for r in rows))
    assert report["exploration_count"] == sum(r["explored"] == "1" for r in rows)
    assert report["greedy_reward"] <= cfg.reward_cap * cfg.t_horizon
    bc = report["bound_check"]
    assert bc["played_gap_vs_uniform"] == pytest.approx(
        report["total_reward"] - report["baselines"]["uniform_arm_mean"]
    )
    assert bc["delta_gain_term"] == pytest.approx((1 - 1 / 3) * 0.5 * 300)


def test_random_play_baseline_near_half():
    cfg = _halfspace_config(t_horizon=10_000)
    report = run_halfspace_experiment(cfg)
    rate = report["baselines"]["random_play"] / 10_000
    assert abs(rate - 0.5) <= 3 * 0.5 / 100  # 3 sigma of a fair coin


def test_wall_time_excluded_from_digest():
    cfg = _halfspace_config(t_horizon=50)
    r1 = run_halfspace_experiment(cfg)
    r2 = run_halfspace_experiment(cfg)
    assert r1["wall_time_s"] != r2["wall_time_s"] or True  # field exists either way
    s1, s2 = report_json(r1), report_json(r2)
    assert '"wall_time_s"' in s1
    assert report_digest(r1) == report_digest(r2)


STREAMS = ("iid", "sorted_k", "monotone_k", "reduction2")

# the first, a middle and the last row of a block
BLOCK_ROWS = (0, BLOCK // 2, BLOCK - 1)


def _run_stream(name, **overrides):
    # one short run on the named adversary or bandit environment
    if name in ("iid", "boundary", "adaptive"):
        return run_halfspace_experiment(_halfspace_config(adversary=name, **overrides))
    k = 2 if name == "reduction2" else 3
    return run_bandit_experiment(_bandit_config(environment=name, k=k, **overrides))


def _corrupt_block(monkeypatch, corrupt, block=0):
    # every oblivious stream's block number `block` passes through
    # corrupt(*arrays) after its draw and before its audit; corrupt gets
    # copies of the block's arrays, (points, labels) or (contexts, rewards)
    real_block_rows = environments.block_rows

    def block_rows(draw, rng, audit):
        drawn = []

        def corrupted_draw(rng, n):
            arrays = draw(rng, n)
            drawn.append(1)
            if len(drawn) - 1 != block:
                return arrays
            return corrupt(*(np.array(a) if isinstance(a, np.ndarray) else list(a) for a in arrays))

        return real_block_rows(corrupted_draw, rng, audit)

    monkeypatch.setattr(environments, "block_rows", block_rows)


def _past_the_ball(row):
    # row scaled so that its longest point or context column has norm 1.5
    return lambda first, _: first[row] * (1.5 / np.linalg.norm(first[row], axis=0).max())


def _set_row(row, value):
    # corrupt(*arrays) that puts value(arrays) into one row of the first array
    def corrupt(first, second):
        first[row] = value(first, second)
        return first, second

    return corrupt


def _each_stream_and_row(monkeypatch, corrupt_row, match):
    # for every oblivious stream and every row of BLOCK_ROWS, the block with
    # corrupt_row(row)'s change in it stops the run
    for name in STREAMS:
        for row in BLOCK_ROWS:
            monkeypatch.undo()
            _corrupt_block(monkeypatch, corrupt_row(row))
            with pytest.raises(EnvironmentViolation, match=match):
                _run_stream(name)


def test_environment_audit_catches_ball_violation(monkeypatch):
    # a point, or a context column, past the unit ball
    _each_stream_and_row(
        monkeypatch, lambda row: _set_row(row, _past_the_ball(row)), "exceeds the unit ball"
    )


def test_environment_audit_catches_margin_violation(monkeypatch):
    # a point inside the margin, or two arms of one context with equal scores
    def too_close(row):
        def value(first, _):
            if first.ndim == 2:
                return first[row] * 0.01
            context = first[row].copy()
            context[:, 1] = context[:, 0]
            return context

        return _set_row(row, value)

    _each_stream_and_row(monkeypatch, too_close, "margin|score gap")


def test_environment_audit_catches_reward_violation(monkeypatch):
    # a reward past the cap, or a label outside {-1, +1}
    def bad_reward(row):
        def corrupt(first, second):
            second[row] = 0 if first.ndim == 2 else second[row] + 5.0
            return first, second

        return corrupt

    _each_stream_and_row(monkeypatch, bad_reward, "rewards outside|label")


@pytest.mark.parametrize(
    "reshape",
    [
        lambda ctx: ctx.reshape(len(ctx), -1),
        lambda ctx: ctx[:, :, :-1],
        lambda ctx: ctx.transpose(0, 2, 1),
        lambda ctx: ctx[:, None],
    ],
    ids=["flat", "missing_arm", "transposed", "three_dim"],
)
def test_environment_audit_catches_context_shape_violation(reshape, monkeypatch):
    # each context of a block must be a (d, k) array
    _corrupt_block(monkeypatch, lambda ctx, rewards: (reshape(ctx), rewards))
    with pytest.raises(EnvironmentViolation, match="context shape"):
        run_bandit_experiment(_bandit_config())
    assert cli.main(["simulate-bandit", "--t-horizon", "10"]) == 4


@pytest.mark.parametrize("name", ["iid", "monotone_k"])
def test_bad_row_stops_the_run_at_its_blocks_first_round(name, tmp_path, monkeypatch, capsys):
    # the second block's last row is bad: the CSV holds the first block only
    command = "simulate-halfspace" if name == "iid" else "simulate-bandit"
    _corrupt_block(monkeypatch, _set_row(BLOCK - 1, _past_the_ball(BLOCK - 1)), block=1)
    argv = [command, "--t-horizon", str(3 * BLOCK), "--out", str(tmp_path)]
    if name != "iid":
        argv += ["--environment", name]
    assert cli.main(argv) == 4
    assert "environment violation" in capsys.readouterr().err
    rows = _csv_rows(tmp_path / "run_0.csv")
    assert [int(r["round"]) for r in rows] == list(range(1, BLOCK + 1))


@pytest.mark.parametrize("name", STREAMS)
def test_cli_nan_point_or_context_entry_exit_four(name, monkeypatch, capsys):
    def nan_entry(first, second):
        first[BLOCK // 2].flat[0] = np.nan
        return first, second

    _corrupt_block(monkeypatch, nan_entry)
    if name == "iid":
        argv = ["simulate-halfspace", "--t-horizon", "50"]
    else:
        argv = ["simulate-bandit", "--t-horizon", "50", "--environment", name]
        argv += ["--k", "2"] if name == "reduction2" else []
    assert cli.main(argv) == 4
    assert "environment violation" in capsys.readouterr().err


@pytest.mark.parametrize("adversary", ["boundary", "adaptive"])
def test_cli_nan_boundary_point_exit_four(adversary, monkeypatch, capsys):
    def nan_round(stream, learner_w):
        return np.full(stream.target.w_star.shape, np.nan), 1

    monkeypatch.setattr(environments, "adversary_round", nan_round)
    argv = ["simulate-halfspace", "--t-horizon", "50", "--adversary", adversary]
    assert cli.main(argv) == 4
    assert "environment violation" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sorted_k", "monotone_k", "reduction2"])
def test_cli_nan_reward_exit_four(name, monkeypatch, capsys):
    def nan_reward(contexts, rewards):
        rewards[BLOCK - 1, 0] = np.nan
        return contexts, rewards

    _corrupt_block(monkeypatch, nan_reward)
    argv = ["simulate-bandit", "--t-horizon", "50", "--environment", name]
    argv += ["--k", "2"] if name == "reduction2" else []
    assert cli.main(argv) == 4
    assert "environment violation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,t_horizon,audits",
    [("iid", 600, 3), ("monotone_k", 512, 2), ("sorted_k", 1, 1), ("boundary", 37, 37)],
)
def test_audit_runs_once_per_oblivious_block_and_every_boundary_round(
    name, t_horizon, audits, monkeypatch
):
    # ceil(T / BLOCK) block audits on an oblivious stream, T round audits
    # where the adversary reads the iterate
    audit = "_audit_context" if name.endswith("_k") else "_audit_point"
    calls = _count_calls(monkeypatch, harness, audit)
    _run_stream(name, t_horizon=t_horizon)
    assert len(calls) == audits


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_runners_and_cli_call_the_module_level_hooks(tmp_path, monkeypatch, capsys):
    # round drivers must reach the draw through these module attributes, and
    # the CLI the runner through its own module's name, so that wrappers
    # patched onto them see every round and every run
    draws = _count_calls(monkeypatch, environments, "adversary_round")
    run_halfspace_experiment(_halfspace_config(t_horizon=37, adversary="boundary"))
    assert len(draws) == 37
    contexts = _count_calls(monkeypatch, environments.MonotoneRewardEnvironment, "next_round")
    run_bandit_experiment(_bandit_config(t_horizon=23))
    assert len(contexts) == 23
    runs = _count_calls(monkeypatch, cli, "run_halfspace_experiment")
    argv = ["simulate-halfspace", "--t-horizon", "19", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(runs) == 1 and len(draws) == 37 + 19


def _first_call_only(monkeypatch, owner, name):
    # the calls that reach a wrapper which, like the benchmark's first-round
    # hook, puts the original binding back on its first call
    calls = []
    original = getattr(owner, name)

    def first(*args):
        calls.append(args)
        setattr(owner, name, original)
        return original(*args)

    monkeypatch.setattr(owner, name, first)
    return calls


def test_round_loops_look_up_the_draw_hook_every_round(monkeypatch):
    # a loop that took the binding once before its first round would keep
    # calling the wrapper after it was restored; the test above cannot tell
    draws = _first_call_only(monkeypatch, environments, "adversary_round")
    run_halfspace_experiment(_halfspace_config(t_horizon=50))
    assert len(draws) == 1
    contexts = _first_call_only(monkeypatch, environments.MonotoneRewardEnvironment, "next_round")
    run_bandit_experiment(_bandit_config(t_horizon=50))
    assert len(contexts) == 1


def test_perceptron_noiseless_margin_mistake_bound():
    # classical bound: at most 1/gamma^2 mistakes on a noiseless margin stream
    rng = seeded_rng(0)
    gamma = 0.25
    target = environments.HiddenTarget(
        w_star=environments.random_unit(rng, 5), eta=0.0, gamma=gamma
    )
    points = environments.iid_points(target, rng, 5000)
    labels = environments.massart_labels(target, points, rng)
    perceptron = harness._Perceptron(5)
    for x, y in zip(points, labels):
        perceptron.observe(x, y)
    assert perceptron.mistakes <= 1.0 / gamma**2


def test_inline_perceptron_matches_standalone():
    # rebuild the exact stream the run consumed (same seed, same per-run
    # block source, same order) and feed it to a perceptron of its own
    from massart_online.core import spawn_streams
    from massart_online.learner_halfspace import HalfspaceLearner

    cfg = _halfspace_config(t_horizon=300)
    report = run_halfspace_experiment(cfg)
    rng_env, _ = spawn_streams(cfg.seed, 2)
    target = environments.HiddenTarget(
        w_star=environments.random_unit(rng_env, cfg.d), eta=cfg.eta, gamma=cfg.gamma
    )
    source = environments.MarginStream(
        cfg.adversary, target, rng_env, functools.partial(harness._audit_point, target=target)
    )
    learner = HalfspaceLearner(cfg)
    perceptron = harness._Perceptron(cfg.d)
    for _ in range(cfg.t_horizon):
        x, y = environments.adversary_round(source, learner.w)
        perceptron.observe(x, y)
        learner.observe(x, y)
    assert perceptron.mistakes == report["baselines"]["perceptron"]


def _drawn(monkeypatch, owner, name, index=0):
    # copies of value number index of each round that owner.name returns
    seen = []
    original = getattr(owner, name)

    def record(*args):
        row = original(*args)
        seen.append(row[index].copy())
        return row

    monkeypatch.setattr(owner, name, record)
    return seen


def test_iid_stream_prefix_does_not_depend_on_horizon(tmp_path, monkeypatch):
    # blocks are always full, so round t's draw depends on the seed and t only
    observed, points = [], []
    for t_horizon in (300, 1000):
        drawn = _drawn(monkeypatch, environments, "adversary_round")
        path = tmp_path / f"run_{t_horizon}.csv"
        run_halfspace_experiment(_halfspace_config(t_horizon=t_horizon), csv_path=str(path))
        observed.append([row["observed"] for row in _csv_rows(path)][:300])
        points.append(np.array(drawn[:300]))
        monkeypatch.undo()
    assert points[0].shape == (300, 6)
    assert observed[0] == observed[1]
    assert points[0].tobytes() == points[1].tobytes()


def test_monotone_stream_prefix_does_not_depend_on_horizon(monkeypatch):
    contexts = []
    for t_horizon in (300, 1000):
        drawn = _drawn(monkeypatch, environments.MonotoneRewardEnvironment, "next_round")
        run_bandit_experiment(_bandit_config(t_horizon=t_horizon))
        contexts.append(np.array(drawn[:300]))
        monkeypatch.undo()
    assert contexts[0].shape == (300, 5, 3)
    assert contexts[0].tobytes() == contexts[1].tobytes()


@pytest.mark.parametrize("k", range(2, 13))
def test_uniform_arm_mean_matches_array_form_bytes(k, monkeypatch):
    # the per-round float(rewards.sum()) / rewards.size the baseline once
    # added; from k = 8 on numpy sums pairwise, not left to right. A long
    # run's total rounds a 1-ulp slip of one round away, so one-round runs
    # of many seeds check each round's term too.
    drawn = _drawn(monkeypatch, environments.SortedRewardEnvironment, "next_round", index=1)
    for seed, t_horizon in [(0, 300)] + [(seed, 1) for seed in range(1, 41)]:
        drawn.clear()
        cfg = _bandit_config(environment="sorted_k", k=k, gamma=0.1, t_horizon=t_horizon)
        report = run_bandit_experiment(dataclasses.replace(cfg, seed=seed))
        expected = 0.0
        for rewards in drawn:
            expected += float(rewards.sum()) / rewards.size
        assert len(drawn) == t_horizon
        assert report["baselines"]["uniform_arm_mean"].hex() == expected.hex()


def test_perceptron_worse_than_learner_on_noisy_boundary_stream():
    # one long noisy boundary-hugging run; the reweighted learner should beat
    # the perceptron by a clear absolute margin
    cfg = _halfspace_config(d=10, t_horizon=100_000, eta=0.2, gamma=0.2, adversary="boundary")
    report = run_halfspace_experiment(cfg)
    learner_rate = report["total_mistakes"] / cfg.t_horizon
    perceptron_rate = report["baselines"]["perceptron"] / cfg.t_horizon
    assert perceptron_rate - learner_rate >= 0.02


def test_positive_zeta_schedule_runs_end_to_end():
    cfg = _halfspace_config(d=8, t_horizon=5_000, zeta=0.5)
    assert cfg.tau == pytest.approx(cfg.epsilon**1.5 * cfg.gamma / 4)
    report = run_halfspace_experiment(cfg)
    assert report["total_mistakes"] / cfg.t_horizon < 0.3


def test_noiseless_iid_run_low_mistake_rate():
    cfg = _halfspace_config(d=10, t_horizon=10_000, eta=0.0)
    report = run_halfspace_experiment(cfg)
    assert report["total_mistakes"] / cfg.t_horizon <= 0.05


def test_sorted_environment_end_to_end():
    cfg = _bandit_config(environment="sorted_k", t_horizon=300)
    report = run_bandit_experiment(cfg)
    assert report["kind"] == "bandit"
    assert 0 <= report["total_reward"] <= cfg.reward_cap * cfg.t_horizon
    assert report["baselines"]["uniform_arm_mean"] > 0


def test_zero_margin_environment_no_exploitable_signal(monkeypatch):
    # environment margin forced to 0 while the learner keeps its configured
    # schedule: the reward gap vs the uniform baseline is pure noise
    make = environments.make_bandit_environment
    monkeypatch.setattr(
        environments,
        "make_bandit_environment",
        lambda name, target, k, rng, audit: make(
            name, dataclasses.replace(target, delta=0.0), k, rng, audit
        ),
    )
    t_horizon = 20_000
    cfg = _bandit_config(d=4, t_horizon=t_horizon)
    report = run_bandit_experiment(cfg)
    gap = report["bound_check"]["played_gap_vs_uniform"]
    # per-round variance of r_played - mean(r) for k iid uniform rewards
    k, cap = cfg.k, cfg.reward_cap
    sigma_round = math.sqrt(cap**2 / 12.0 * (k - 1) / k)
    assert abs(gap) <= 3.0 * sigma_round * math.sqrt(t_horizon)


def test_run_many_aggregates_sorted_seeds(tmp_path):
    cfg = _halfspace_config(t_horizon=100)
    agg = run_many(run_halfspace_experiment, cfg, [3, 1, 2], out_dir=tmp_path)
    assert agg["seeds"] == [1, 2, 3]
    assert len(agg["per_seed"]) == 3
    assert (tmp_path / "run_1.csv").exists()
    assert (tmp_path / "run_3.csv").exists()
    mean = np.mean([r["total_mistakes"] for r in agg["per_seed"]])
    assert agg["mean_total_mistakes"] == pytest.approx(mean)


def test_verify_oracles_quick_pass():
    results, ok = run_all(seed=0, quick=True)
    assert ok
    names = {r.name for r in results}
    assert "debiasing_enumeration" in names
    assert "tau_guard" in names


def test_corrupted_fake_rewards_fail_debiasing():
    def corrupted(k, cap, beta, r_beta):
        out = fake_rewards(k, cap, beta, r_beta)
        out[beta] = k * r_beta  # off-by-one on the (k-1) factor
        return out

    assert not check_debiasing(seed=0, n=50, fake_fn=corrupted).passed


# --- CLI ---


def test_cli_verify_quick_exit_zero(capsys):
    assert cli.main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_config_error_exit_two(capsys):
    assert cli.main(["simulate-halfspace", "--d", "0", "--t-horizon", "10"]) == 2
    assert cli.main(["simulate-halfspace", "--eta", "0.7", "--t-horizon", "10"]) == 2
    # massart2 is not among simulate-bandit's choices, so argparse rejects it
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate-bandit", "--environment", "massart2"])
    assert exc.value.code == 2
    assert "invalid choice: 'massart2'" in capsys.readouterr().err


def test_cli_halfspace_bandit_environment_in_config_file_exit_two(tmp_path, capsys):
    # a config file may hold either class's keys, but a halfspace run is massart2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"environment": "sorted_k"}')
    assert cli.main(["simulate-halfspace", "--t-horizon", "5", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "massart2 environment only" in captured.err
    assert captured.out == ""


# the flags of the other config class, which each simulate command does not read
CROSS_KIND_FLAGS = [
    ("simulate-halfspace", "--k", "3"),
    ("simulate-halfspace", "--delta", "nan"),
    ("simulate-halfspace", "--reward-cap", "1.0"),
    ("simulate-halfspace", "--environment", "sorted_k"),
    ("simulate-bandit", "--eta", "0.1"),
    ("simulate-bandit", "--zeta", "0.0"),
    ("simulate-bandit", "--adversary", "iid"),
]


@pytest.mark.parametrize("command,flag,value", CROSS_KIND_FLAGS)
def test_cli_cross_kind_flag_is_unrecognized_exit_two(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--t-horizon", "5", flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("environment", ["massart2", "monotone_k"])
def test_cli_baseline_takes_every_config_flag(environment, capsys):
    # baseline picks its config class by environment, so it reads all 11 keys
    argv = [
        "baseline", "--d", "3", "--t-horizon", "20", "--eta", "0.1", "--gamma", "0.2",
        "--zeta", "0.0", "--seed", "1", "--adversary", "iid", "--k", "3", "--delta", "0.5",
        "--reward-cap", "1.0", "--environment", environment,
    ]
    assert len([a for a in argv if a.startswith("--")]) == len(CONFIG_KEYS)
    assert cli.main(argv) == 0
    expected = "halfspace" if environment == "massart2" else "bandit"
    assert json.loads(capsys.readouterr().out)["kind"] == expected


def test_cli_environment_violation_exit_four(monkeypatch):
    def bad_round(stream, learner_w):
        return stream.target.w_star * 2.0, 1

    monkeypatch.setattr(environments, "adversary_round", bad_round)
    code = cli.main(["simulate-halfspace", "--t-horizon", "10", "--adversary", "boundary"])
    assert code == 4


def test_cli_simulate_halfspace_writes_outputs(tmp_path, capsys):
    code = cli.main(
        [
            "simulate-halfspace",
            "--d", "4", "--t-horizon", "200", "--eta", "0.1", "--gamma", "0.3",
            "--seed", "5", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "run_5.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "halfspace"
    assert report["config"]["seed"] == 5
    printed = json.loads(capsys.readouterr().out)
    assert printed["total_mistakes"] == report["total_mistakes"]


def test_cli_simulate_bandit_with_config_file_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "d": 4, "k": 3, "t_horizon": 150, "gamma": 0.2, "delta": 0.5,
                "reward_cap": 1.0, "seed": 1, "environment": "monotone_k",
            }
        )
    )
    code = cli.main(
        ["simulate-bandit", "--config", str(cfg_path), "--seed", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["seed"] == 9  # CLI flag beats the file
    assert report["config"]["environment"] == "monotone_k"


def test_cli_multi_seed_fanout(tmp_path):
    code = cli.main(
        [
            "simulate-halfspace",
            "--d", "3", "--t-horizon", "80", "--seed", "2", "--seeds", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    for seed in (2, 3, 4):
        assert (tmp_path / f"run_{seed}.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "halfspace_multi"
    assert report["seeds"] == [2, 3, 4]


def test_cli_reduction_environment_runs(capsys):
    code = cli.main(
        [
            "simulate-bandit",
            "--d", "4", "--k", "2", "--t-horizon", "120", "--gamma", "0.4",
            "--delta", "0.8", "--environment", "reduction2",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["environment"] == "reduction2"
    assert 0 <= report["total_reward"] <= 120


def test_cli_baseline_command(capsys):
    code = cli.main(["baseline", "--d", "4", "--t-horizon", "100", "--eta", "0.1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert "baselines" in out and "perceptron" in out["baselines"]


def test_cli_baseline_bandit_environment_reports_the_bandit_run(capsys):
    flags = ["--d", "4", "--t-horizon", "150", "--seed", "3", "--environment", "monotone_k"]
    assert cli.main(["baseline", *flags]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert cli.main(["simulate-bandit", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "bandit"
    assert summary["baselines"]["perceptron"] is None
    assert summary["learner"] == report["total_reward"]
    assert summary["baselines"] == report["baselines"]


def test_cli_infinite_config_file_value_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"t_horizon": 1e999}')
    assert cli.main(["simulate-halfspace", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--zeta"])
def test_cli_halfspace_nan_flag_exit_two(flag, capsys):
    assert cli.main(["simulate-halfspace", "--t-horizon", "50", flag, "nan"]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag,value", [("--delta", "nan"), ("--gamma", "nan"), ("--reward-cap", "inf")]
)
def test_cli_bandit_non_finite_flag_exit_two(flag, value, capsys):
    assert cli.main(["simulate-bandit", "--t-horizon", "50", flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_cli_seeds_below_one_exit_two(seeds, tmp_path, capsys):
    argv = ["simulate-halfspace", "--t-horizon", "50", "--seeds", seeds, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flags", [["--seeds", "3"], ["--out", "OUT"]])
def test_cli_baseline_rejects_run_flags_exit_two(flags, tmp_path, capsys):
    # baseline runs one seed and writes nothing, so it takes no --seeds / --out
    flags = [str(tmp_path / "out") if f == "OUT" else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        cli.main(["baseline", "--t-horizon", "50", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ['{"d": 2.7}', '{"seed": true}'])
def test_cli_non_integer_config_file_value_exit_two(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["simulate-halfspace", "--t-horizon", "50", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("simulate-halfspace", '{"gamma": true}', "gamma must be a number"),
        ("simulate-halfspace", '{"zeta": true}', "zeta must be a number"),
        ("simulate-bandit", '{"delta": true}', "delta must be a number"),
        ("simulate-halfspace", '{"gamma": "0.3"}', "gamma must be a number"),
        ("simulate-bandit", '{"reward_cap": "1.0"}', "reward_cap must be a number"),
        ("simulate-halfspace", '{"d": "4"}', "d must be an integer"),
    ],
    ids=["bool_gamma", "bool_zeta", "bool_delta", "string_gamma", "string_reward_cap",
         "string_d"],
)
def test_cli_non_number_config_file_value_exit_two(command, text, message, tmp_path, capsys):
    # JSON booleans and strings are refused in numeric keys, not converted
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main([command, "--t-horizon", "50", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_file_exit_two(case, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    if case == "directory":
        cfg_path.mkdir()
    elif case == "not_utf8":
        cfg_path.write_bytes(b'{"d": "\xff\xfe"}')
    assert cli.main(["simulate-halfspace", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "cannot read config file" in captured.err
    assert captured.out == ""


def test_cli_verify_negative_seed_exit_two(capsys):
    assert cli.main(["verify", "--quick", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be nonnegative" in captured.err
    assert captured.out == ""


def test_cli_out_naming_a_file_exit_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    argv = ["simulate-halfspace", "--t-horizon", "20", "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"cannot use {out} as an output directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_cli_infeasible_bandit_shape_exit_two_before_any_csv(tmp_path, capsys):
    # (k-1)*gamma = 2.2 leaves no room for k scores gamma apart in [-1, 1]
    out = tmp_path / "out"
    assert cli.main(["simulate-bandit", "--k", "12", "--gamma", "0.2", "--out", str(out)]) == 2
    assert "exceeds the score range" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-halfspace", "--t-horizon", "5", "--d", str(10**400)],
        ["simulate-halfspace", "--t-horizon", "5", "--d", str(10**9)],
        ["simulate-bandit", "--t-horizon", "5", "--d", "2", "--k", str(2**70)],
    ],
    ids=["d_huge", "d_billion", "k_huge"],
)
def test_cli_shape_past_the_block_bound_exit_two(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "the most one block holds" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_run_many_without_seeds_is_a_config_error():
    with pytest.raises(ConfigError):
        run_many(run_halfspace_experiment, _halfspace_config(t_horizon=10), [])


def test_cli_unknown_config_key_exit_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"bogus": 1}')
    assert cli.main(["simulate-halfspace", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("command", ["simulate-halfspace", "simulate-bandit", "baseline"])
def test_cli_domain_radius_flag_is_gone_exit_two(command, capsys):
    # every run is on the unit ball; the flag is an unknown argument now
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--t-horizon", "5", "--domain-radius", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate-halfspace", "simulate-bandit"])
def test_cli_domain_radius_config_key_exit_two(command, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"domain_radius": 1}')
    assert cli.main([command, "--t-horizon", "5", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "unknown config keys: domain_radius" in captured.err
    assert captured.out == ""


def test_run_many_csv_path_taken_by_a_directory_is_a_config_error_before_any_run(tmp_path):
    # seed 0 runs first, so a late check would have written run_0.csv
    (tmp_path / "run_1.csv").mkdir()
    cfg = _halfspace_config(t_horizon=10)
    with pytest.raises(ConfigError, match="run_1.csv: it is a directory"):
        run_many(run_halfspace_experiment, cfg, [0, 1], out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_1.csv"]


def test_run_many_creates_a_missing_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    run_many(run_halfspace_experiment, _halfspace_config(t_horizon=10), [0, 2], out_dir=out)
    assert sorted(p.name for p in out.iterdir()) == ["run_0.csv", "run_2.csv"]


def test_run_many_out_dir_naming_a_file_is_a_config_error(tmp_path):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    with pytest.raises(ConfigError, match="as an output directory"):
        run_many(run_halfspace_experiment, _halfspace_config(t_horizon=10), [0], out_dir=out)
    assert out.read_text() == "not a directory"


def test_run_many_report_digest_ignores_every_per_seed_wall_time():
    cfg = _halfspace_config(t_horizon=50)
    first = run_many(run_halfspace_experiment, cfg, [0, 1])
    second = run_many(run_halfspace_experiment, cfg, [0, 1])
    assert report_digest(first) == report_digest(second)
    for i, run in enumerate(second["per_seed"]):
        run["wall_time_s"] = 1000.0 + i
    assert report_digest(first) == report_digest(second)
    second["per_seed"][1]["total_mistakes"] += 1
    assert report_digest(first) != report_digest(second)


def test_run_many_takes_a_str_out_dir(tmp_path):
    cfg = _halfspace_config(t_horizon=10)
    run_many(run_halfspace_experiment, cfg, [4], out_dir=str(tmp_path))
    assert (tmp_path / "run_4.csv").exists()


def test_run_many_takes_a_generator_of_seeds():
    cfg = _halfspace_config(t_horizon=10)
    agg = run_many(run_halfspace_experiment, cfg, (seed for seed in (2, 1)))
    assert agg["seeds"] == [1, 2]
    assert [r["config"]["seed"] for r in agg["per_seed"]] == [1, 2]


def test_run_many_empty_iterator_is_a_config_error():
    with pytest.raises(ConfigError, match="at least one seed"):
        run_many(run_halfspace_experiment, _halfspace_config(t_horizon=10), iter([]))


@pytest.mark.parametrize("seeds", [[0, "a"], ["a"], [0, None], [0, 1.5]])
def test_run_many_bad_seed_is_a_config_error_before_any_run(seeds):
    calls = []
    runner = lambda cfg, csv_path=None: calls.append(cfg.seed)  # noqa: E731
    with pytest.raises(ConfigError, match="seed must be an integer"):
        run_many(runner, _halfspace_config(t_horizon=10), seeds)
    assert calls == []


@pytest.mark.parametrize("seeds", [[1, 1], [2, 1, 2.0]])
def test_run_many_duplicate_seeds_are_a_config_error(seeds, tmp_path):
    with pytest.raises(ConfigError, match="distinct seeds"):
        run_many(run_halfspace_experiment, _halfspace_config(t_horizon=10), seeds, tmp_path)
    assert not list(tmp_path.iterdir())


def test_cli_out_csv_path_taken_by_a_directory_exit_two(tmp_path, capsys):
    (tmp_path / "run_0.csv").mkdir()
    argv = ["simulate-halfspace", "--t-horizon", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"cannot write {tmp_path / 'run_0.csv'}: it is a directory" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("seeds", ["1", "2"])
def test_cli_out_report_path_taken_by_a_directory_exit_two_before_any_round(
    seeds, tmp_path, capsys
):
    # each run opens its CSV before its first round, so no CSV means no round
    (tmp_path / "report.json").mkdir()
    argv = ["simulate-bandit", "--t-horizon", "5", "--seeds", seeds, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"cannot write {tmp_path / 'report.json'}: it is a directory" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_oracle_failure_exit_three(monkeypatch, capsys):
    from massart_online.oracles import CheckResult

    def failing_run_all(seed=0, quick=False):
        return [CheckResult("stub_check", False, "forced failure")], False

    monkeypatch.setattr(cli, "run_all", failing_run_all)
    assert cli.main(["verify"]) == 3
    assert "[FAIL] stub_check" in capsys.readouterr().out
