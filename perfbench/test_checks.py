"""Tests of the benchmark itself: every output check passes on the program's
real output and fails on a deliberately corrupted copy of it, the tracer
restores what it wraps, and the runner refuses a tree without the package.

    python3 -m pytest perfbench -q
"""

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, cli_argv, op_seeds  # noqa: E402

from massart_online import cli, core, harness, learner_halfspace  # noqa: E402

# shorter horizons than the benchmark's, same shapes
SMALL = {
    "halfspace_iid": dict(WORKLOADS["halfspace_iid"], t_horizon=2_000),
    "halfspace_boundary_csv": dict(WORKLOADS["halfspace_boundary_csv"], t_horizon=3_000),
    "bandit_monotone": dict(WORKLOADS["bandit_monotone"], t_horizon=2_000),
}
SEED = 3


def _json_copy(reports):
    # the worker hands reports to the runner as JSON
    return json.loads(json.dumps(reports))


@pytest.fixture(scope="module")
def iid():
    spec = SMALL["halfspace_iid"]
    seeds = op_seeds(spec, SEED)
    config = core.HalfspaceConfig(
        d=spec["d"], t_horizon=spec["t_horizon"], eta=spec["eta"], gamma=spec["gamma"],
        adversary=spec["adversary"], seed=seeds[0],
    )
    result = harness.run_many(harness.run_halfspace_experiment, config, seeds)
    return spec, seeds, _json_copy(result["per_seed"])


@pytest.fixture(scope="module")
def bandit():
    spec = SMALL["bandit_monotone"]
    seeds = op_seeds(spec, SEED)
    config = core.BanditConfig(
        d=spec["d"], k=spec["k"], t_horizon=spec["t_horizon"], gamma=spec["gamma"],
        delta=spec["delta"], reward_cap=spec["reward_cap"], seed=seeds[0],
        environment=spec["environment"],
    )
    result = harness.run_many(harness.run_bandit_experiment, config, seeds)
    return spec, seeds, _json_copy(result["per_seed"])


@pytest.fixture(scope="module")
def boundary(tmp_path_factory):
    spec = SMALL["halfspace_boundary_csv"]
    (seed,) = op_seeds(spec, SEED)
    out = tmp_path_factory.mktemp("cli")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(cli_argv(spec, seed, out)) == 0
    csv_text = (out / f"run_{seed}.csv").read_text()
    return spec, seed, csv_text, (out / "report.json").read_text(), printed.getvalue()


def _messages(fails):
    return " | ".join(m for _, m in fails)


def test_checks_pass_on_program_output(iid, bandit, boundary):
    assert checks.check_halfspace_iid(*iid) == []
    assert checks.check_bandit_monotone(*bandit) == []
    assert checks.check_boundary_csv(*boundary) == []


def _edit_row(csv_text, row, column, edit):
    lines = csv_text.splitlines()
    fields = lines[row].split(",")
    fields[column] = edit(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _edit_report(report_text, edit):
    report = json.loads(report_text)
    edit(report)
    return harness.report_json(report) + "\n"


def _set_perceptron(report):
    report["baselines"]["perceptron"] = 26


def _set_total_mistakes(report):
    report["total_mistakes"] += 1
    report["mistake_rate"] = report["total_mistakes"] / report["config"]["t_horizon"]


CSV_CORRUPTIONS = {
    # name -> (which output, edit, expected message fragment)
    "loss off by 1e-6": ("csv", lambda t: _edit_row(t, 100, 4, lambda v: repr(float(v) + 1e-6)), "loss"),
    "action flipped": ("csv", lambda t: _edit_row(t, 50, 1, lambda v: str(-int(v))), "sign("),
    "cum_metric off by one": ("csv", lambda t: _edit_row(t, 70, 6, lambda v: str(int(v) + 1)), "cum_metric"),
    "w_norm outside the ball": ("csv", lambda t: _edit_row(t, 90, 7, lambda v: "1.0000001"), "w_norm"),
    "round renumbered": ("csv", lambda t: _edit_row(t, 10, 0, lambda v: "9"), "round column"),
    "row dropped": ("csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "rows, expected T"),
    "header renamed": ("csv", lambda t: t.replace("w_norm", "norm", 1), "header"),
    "NaN in the report": (
        "report",
        lambda t: t.replace('"normalized_excess": ', '"normalized_excess": NaN, "x": ', 1),
        "strict JSON",
    ),
    "perceptron above Novikoff": ("report", lambda t: _edit_report(t, _set_perceptron), "Novikoff"),
    "report disagrees with the CSV": (
        "report", lambda t: _edit_report(t, _set_total_mistakes), "CSV counts"
    ),
    "printed report differs": ("printed", lambda t: t.replace("halfspace", "bandit", 1), "printed"),
}


def test_novikoff_allows_exactly_one_over_gamma_squared(boundary):
    spec, seed, csv_text, report_text, _ = boundary
    report_text = _edit_report(report_text, lambda r: r["baselines"].update(perceptron=25))
    assert checks.check_boundary_csv(spec, seed, csv_text, report_text, report_text) == []


@pytest.mark.parametrize("name", sorted(CSV_CORRUPTIONS))
def test_boundary_csv_check_catches(name, boundary):
    spec, seed, csv_text, report_text, printed = boundary
    which, edit, fragment = CSV_CORRUPTIONS[name]
    if which == "csv":
        csv_text = edit(csv_text)
    elif which == "report":
        report_text = printed = edit(report_text)
    else:
        printed = edit(printed)
    fails = checks.check_boundary_csv(spec, seed, csv_text, report_text, printed)
    assert fragment in _messages(fails), fails


def _shift_random_play(spec, reports):
    reports[0]["baselines"]["random_play"] += int(10 * math.sqrt(spec["t_horizon"]) / 2)


def _below_noise_floor(spec, reports):
    # every seed far below eta*T, with the derived fields kept consistent
    t, eta, gamma = spec["t_horizon"], spec["eta"], spec["gamma"]
    for r in reports:
        r["total_mistakes"] = int(eta * t - 10 * math.sqrt(eta * (1 - eta) * t))
        r["mistake_rate"] = r["total_mistakes"] / t
        r["bound_check"]["normalized_excess"] = (r["total_mistakes"] - eta * t) * gamma / t**0.75


def _excess_too_large(spec, reports):
    t, eta, gamma = spec["t_horizon"], spec["eta"], spec["gamma"]
    r = reports[0]
    r["total_mistakes"] = t // 2
    r["mistake_rate"] = r["total_mistakes"] / t
    r["bound_check"]["normalized_excess"] = (r["total_mistakes"] - eta * t) * gamma / t**0.75


def _misreport_excess(spec, reports):
    reports[1]["bound_check"]["normalized_excess"] += 1e-6


def _wrong_tau(spec, reports):
    reports[0]["config"]["tau"] *= 1.001


def _drop_seed(spec, reports):
    del reports[-1]


IID_CORRUPTIONS = {
    "random_play shifted by 10 sigma": (_shift_random_play, "random_play"),
    "mean mistakes below the noise floor": (_below_noise_floor, "noise floor"),
    "normalized_excess above the constant": (_excess_too_large, "above"),
    "normalized_excess misreported": (_misreport_excess, "recomputed"),
    "tau off the schedule": (_wrong_tau, "tau"),
    "a seed missing": (_drop_seed, "reports cover seeds"),
}


@pytest.mark.parametrize("name", sorted(IID_CORRUPTIONS))
def test_iid_check_catches(name, iid):
    spec, seeds, reports = iid
    edit, fragment = IID_CORRUPTIONS[name]
    reports = copy.deepcopy(reports)
    edit(spec, reports)
    assert fragment in _messages(checks.check_halfspace_iid(spec, seeds, reports))


def _q_sigma(spec):
    q = checks.bandit_q(spec["gamma"], spec["delta"], spec["reward_cap"], spec["k"], spec["t_horizon"])
    return math.sqrt(spec["t_horizon"] * q * (1 - q))


def _shift_exploration(spec, reports):
    reports[0]["exploration_count"] += int(10 * _q_sigma(spec)) + 1


def _shift_uniform(spec, reports):
    r = reports[1]
    r["baselines"]["uniform_arm_mean"] += 1.0
    r["bound_check"]["played_gap_vs_uniform"] -= 1.0


def _reward_above_cap(spec, reports):
    r = reports[0]
    excess = spec["reward_cap"] * spec["t_horizon"] + 1.0 - r["total_reward"]
    r["total_reward"] += excess
    r["bound_check"]["played_gap_vs_uniform"] += excess


def _negative_gaps(spec, reports):
    for r in reports:
        r["total_reward"] = r["baselines"]["uniform_arm_mean"] - 1.0
        r["bound_check"]["played_gap_vs_uniform"] = -1.0


def _misreport_gap(spec, reports):
    reports[-1]["bound_check"]["played_gap_vs_uniform"] += 1e-3


def _wrong_q(spec, reports):
    reports[0]["config"]["q"] *= 1.01


BANDIT_CORRUPTIONS = {
    "exploration_count shifted by 10 sigma": (_shift_exploration, "exploration_count"),
    "uniform_arm_mean off the band": (_shift_uniform, "uniform_arm_mean"),
    "total_reward above cap*T": (_reward_above_cap, "total_reward"),
    "mean gap not positive": (_negative_gaps, "not positive"),
    "played gap misreported": (_misreport_gap, "played_gap_vs_uniform"),
    "q off the schedule": (_wrong_q, "q ="),
}


@pytest.mark.parametrize("name", sorted(BANDIT_CORRUPTIONS))
def test_bandit_check_catches(name, bandit):
    spec, seeds, reports = bandit
    edit, fragment = BANDIT_CORRUPTIONS[name]
    reports = copy.deepcopy(reports)
    edit(spec, reports)
    assert fragment in _messages(checks.check_bandit_monotone(spec, seeds, reports))


def test_tracer_counts_layers_and_restores_bindings(tmp_path):
    original = learner_halfspace.HalfspaceLearner.predict
    tracer = spans.Tracer()
    tracer.install()
    try:
        harness.run_halfspace_experiment(core.HalfspaceConfig(d=5, t_horizon=50, eta=0.1, gamma=0.2))
    finally:
        tracer.uninstall()
    assert learner_halfspace.HalfspaceLearner.predict is original
    assert tracer.missing == []
    tracer.dump(tmp_path / "spans.npz")
    totals, absent = spans.layer_totals(tmp_path / "spans.npz")
    assert absent == set()
    assert totals["learner_halfspace.predict"][1] == 100
    assert totals["environments.draw"][1] == 50
    assert totals["harness.loop"][1] == 1
    assert all(ns >= 0 for ns, _ in totals.values())


def test_tracer_reports_a_vanished_binding_as_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "harness.audit", ("massart_online.harness:no_such_audit",))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.dump(tmp_path / "spans.npz")
    _, absent = spans.layer_totals(tmp_path / "spans.npz")
    assert absent == {"harness.audit"}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_is_correct_and_repeats_its_digests(workload):
    # two workers in two processes on the same seeds; a digest that differs
    # between them makes the run incorrect
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    horizon = WORKLOADS[workload]["t_horizon"]
    record = json.loads(
        (ROOT / ".perfbench_out" / "results" / f"{workload}-T{horizon}-seed7-trace0.json").read_text()
    )
    assert sorted(map(int, record["digests"])) == op_seeds(WORKLOADS[workload], 7)
    assert len(record["workers"]["0"]) >= 2


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "halfspace_iid", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
