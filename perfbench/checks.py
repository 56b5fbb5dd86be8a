"""Output checks made apart from the program.

Every check recomputes what an output must say from the paper's schedule
formulas, from probability bands, or from the other columns of the same CSV
row; none compares against a stored copy of earlier output. Each check
returns a list of ``(seed, message)`` failures, where ``seed`` is None for a
failure of the whole operation round. An empty list means the output passed.
"""

import json
import math

Z = 5.0  # width of every probability band, in standard deviations
ROW_TOL = 1e-9  # absolute tolerance on a recomputed CSV loss
REL_TOL = 1e-9  # relative tolerance on a recomputed report field
# The program clamps epsilon this far below (1 - 2*eta)/2; the paper asks
# only that epsilon stay strictly below it.
EPSILON_CLAMP_MARGIN = 1e-6
# loose constant on normalized_excess = (mistakes - eta*T)*gamma/T^(3/4),
# the paper's excess term being of order T^(3/4)/gamma. The learner stays
# near 0.1 at T = 2k..10k; a coin flip (T/2 mistakes) exceeds 0.5 there.
EXCESS_CONSTANT = 0.5
CSV_COLUMNS = "round,action,observed,score,loss,explored,cum_metric,w_norm"


def halfspace_schedule(eta, gamma, t_horizon, zeta=0.0):
    """(epsilon, delta_tilde, tau) of the paper's halfspace schedule."""
    cap = (1.0 - 2.0 * eta) / 2.0 - EPSILON_CLAMP_MARGIN
    epsilon = min(t_horizon ** (-1.0 / (4.0 + 2.0 * zeta)) / gamma, cap)
    return epsilon, 1.0 - 2.0 * eta - epsilon, epsilon ** (1.0 + zeta) * gamma / 4.0


def bandit_q(gamma, delta, reward_cap, k, t_horizon):
    """Exploration probability q of the paper's k-arm schedule."""
    lambda_cap = t_horizon ** (1.0 / 6.0) * (reward_cap / (k * delta)) ** (1.0 / 3.0) / gamma
    return min(1.0, reward_cap / (gamma * lambda_cap * delta))


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _config_mismatches(spec, config, keys):
    return [
        f"config {key} = {config.get(key)!r}, the workload asked for {spec[key]!r}"
        for key in keys
        if config.get(key) != spec[key]
    ]


def _halfspace_report(spec, report):
    """Failures common to every halfspace report: echo, schedule, rate.

    Comparisons throughout are written so that a NaN fails them.
    """
    t_horizon = spec["t_horizon"]
    config = report["config"]
    fails = _config_mismatches(spec, config, ("d", "t_horizon", "eta", "gamma", "adversary"))
    expected = halfspace_schedule(spec["eta"], spec["gamma"], t_horizon)
    for key, value in zip(("epsilon", "delta_tilde", "tau"), expected):
        if not _close(config[key], value):
            fails.append(f"{key} = {config[key]!r}, the schedule gives {value!r}")
    mistakes = report["total_mistakes"]
    if not 0 <= mistakes <= t_horizon:
        fails.append(f"total_mistakes {mistakes} outside [0, {t_horizon}]")
    if not _close(report["mistake_rate"], mistakes / t_horizon):
        fails.append(f"mistake_rate {report['mistake_rate']!r} != {mistakes}/{t_horizon}")
    return fails


def _seed_mismatch(reports, seeds):
    got = [r["config"]["seed"] for r in reports]
    if got != sorted(seeds):
        return [(None, f"reports cover seeds {got}, expected {sorted(seeds)}")]
    return []


def check_halfspace_iid(spec, seeds, reports):
    """Binomial bands on the baselines and the learner, plus the excess bound."""
    fails = _seed_mismatch(reports, seeds)
    t_horizon, eta, gamma = spec["t_horizon"], spec["eta"], spec["gamma"]
    for report in reports:
        seed = report["config"]["seed"]
        fails += [(seed, m) for m in _halfspace_report(spec, report)]
        # a fair coin against any label sequence: Binomial(T, 1/2) mistakes
        random_play = report["baselines"]["random_play"]
        if not abs(random_play - t_horizon / 2) <= Z * math.sqrt(t_horizon) / 2:
            fails.append((seed, f"random_play {random_play} outside the band around T/2"))
        excess = (report["total_mistakes"] - eta * t_horizon) * gamma / t_horizon**0.75
        reported = report["bound_check"]["normalized_excess"]
        if not _close(reported, excess):
            fails.append((seed, f"normalized_excess {reported!r}, recomputed {excess!r}"))
        if not excess <= EXCESS_CONSTANT:
            fails.append((seed, f"normalized_excess {excess:.4f} above {EXCESS_CONSTANT}"))
    # the round-t prediction is independent of that round's flip, so each
    # round is a mistake with probability at least eta
    if reports:
        n = len(reports)
        mean = sum(r["total_mistakes"] for r in reports) / n
        floor = eta * t_horizon - Z * math.sqrt(eta * (1 - eta) * t_horizon / n)
        if not mean >= floor:
            fails.append((None, f"mean mistakes {mean} below the noise floor {floor:.1f}"))
    return fails


def check_boundary_csv(spec, seed, csv_text, report_text, printed_text):
    """Recompute every CSV row, then tie the trace to the strict-JSON report."""
    try:
        report = json.loads(report_text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [(seed, f"report.json is not strict JSON: {exc}")]
    fails = []
    if printed_text.strip() != report_text.strip():
        fails.append("the printed report differs from report.json")
    if report["config"]["seed"] != seed:
        fails.append(f"report seed {report['config']['seed']}, expected {seed}")
    fails += _halfspace_report(spec, report)
    _, delta_tilde, tau = halfspace_schedule(spec["eta"], spec["gamma"], spec["t_horizon"])
    radius = 1.0
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_COLUMNS:
        fails.append(f"CSV header {lines[:1]!r}, expected {CSV_COLUMNS!r}")
    rows = lines[1:]
    if len(rows) != spec["t_horizon"]:
        fails.append(f"CSV has {len(rows)} rows, expected T = {spec['t_horizon']}")
    row_fails = []
    mistakes = 0
    for i, line in enumerate(rows, start=1):
        try:
            rnd, action, observed, score, loss, explored, cum, w_norm = line.split(",")
            rnd, action, observed, explored, cum = map(int, (rnd, action, observed, explored, cum))
            score, loss, w_norm = float(score), float(loss), float(w_norm)
        except ValueError:
            row_fails.append(f"row {i} malformed: {line!r}")
            continue
        if rnd != i:
            row_fails.append(f"row {i}: round column reads {rnd}")
        if observed not in (-1, 1) or explored != 0:
            row_fails.append(f"row {i}: observed {observed}, explored {explored}")
        if action != (1 if score >= 0 else -1):
            row_fails.append(f"row {i}: action {action} is not sign({score!r})")
        mistakes += action != observed
        if cum != mistakes:
            row_fails.append(f"row {i}: cum_metric {cum}, running mistake count {mistakes}")
        s = abs(score)
        expected = 0.5 * (delta_tilde * s - observed * score) / max(s, tau)
        if not abs(loss - expected) <= ROW_TOL:
            row_fails.append(f"row {i}: loss {loss!r}, recomputed {expected!r}")
        if not w_norm <= radius * (1 + 1e-12):
            row_fails.append(f"row {i}: w_norm {w_norm!r} outside the radius-{radius} ball")
    if row_fails:
        fails.append(f"{len(row_fails)} bad CSV rows, first: {row_fails[0]}")
    if rows and mistakes != report["total_mistakes"]:
        fails.append(f"CSV counts {mistakes} mistakes, report says {report['total_mistakes']}")
    # noiseless points of margin gamma in the unit ball: Novikoff's bound, a
    # whole number of mistakes (1/0.2**2 is 24.999999999999996 in floats)
    perceptron = report["baselines"]["perceptron"]
    novikoff = math.floor(1 / spec["gamma"] ** 2 + 1e-9)
    if spec["eta"] == 0 and not perceptron <= novikoff:
        fails.append(f"perceptron made {perceptron} mistakes, Novikoff allows {novikoff}")
    return [(seed, m) for m in fails]


def check_bandit_monotone(spec, seeds, reports):
    """Binomial band on exploration, the uniform-arm band, reward range, gap sign."""
    fails = _seed_mismatch(reports, seeds)
    t_horizon, k, delta, cap = spec["t_horizon"], spec["k"], spec["delta"], spec["reward_cap"]
    q = bandit_q(spec["gamma"], delta, cap, k, t_horizon)
    # the environment's default noise half-width keeps rewards inside [0, cap]
    noise = (cap - delta * (k - 1)) / 2.0
    for report in reports:
        seed = report["config"]["seed"]
        config = report["config"]
        msgs = _config_mismatches(
            spec, config, ("d", "k", "t_horizon", "gamma", "delta", "reward_cap", "environment")
        )
        if not _close(config["q"], q):
            msgs.append(f"q = {config['q']!r}, the schedule gives {q!r}")
        explored = report["exploration_count"]
        if not abs(explored - q * t_horizon) <= Z * math.sqrt(t_horizon * q * (1 - q)):
            msgs.append(f"exploration_count {explored} outside the band around qT = {q * t_horizon:.1f}")
        # each round's arm mean is cap/2 plus the mean of k uniform noises
        uniform = report["baselines"]["uniform_arm_mean"]
        band = Z * math.sqrt(t_horizon) * noise / math.sqrt(3 * k) + 1e-9 * t_horizon * cap
        if not abs(uniform - t_horizon * cap / 2) <= band:
            msgs.append(f"uniform_arm_mean {uniform!r} outside the band around T*cap/2")
        total = report["total_reward"]
        if not -1e-9 <= total <= cap * t_horizon * (1 + 1e-12):
            msgs.append(f"total_reward {total!r} outside [0, cap*T]")
        gap = report["bound_check"]["played_gap_vs_uniform"]
        if not _close(gap, total - uniform):
            msgs.append(f"played_gap_vs_uniform {gap!r} != total_reward - uniform_arm_mean")
        fails += [(seed, m) for m in msgs]
    if reports:
        mean_gap = sum(r["bound_check"]["played_gap_vs_uniform"] for r in reports) / len(reports)
        if not mean_gap > 0:
            fails.append((None, f"mean played_gap_vs_uniform {mean_gap!r} is not positive"))
    return fails
