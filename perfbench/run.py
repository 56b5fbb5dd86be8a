"""Round-throughput benchmark of massart_online.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. For about ``--seconds`` seconds the runner
starts one worker process after another; each runs one whole operation round
of the workload (the same program seeds every time, derived from ``--seed``)
and writes its outputs, which the runner then checks with ``checks.py``.
With ``--trace 0`` it prints the end-to-end metrics, each the median over the
workers; with ``--trace 1`` it alternates untraced and traced workers and
prints the per-layer metrics, the traced run's own cost per round and its
overhead against the untraced workers of the same run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-run records (digests, raw worker figures, the last span dump) go to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, op_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_WORKERS = 2  # per kind of worker, so every median has at least two samples
WORKER_TIMEOUT_S = 120

PER_LAYER = {
    # metric -> (layer, what, unit)
    "environments.draw.us_per_round": ("environments.draw", "us", "us/round"),
    "harness.audit.us_per_round": ("harness.audit", "us", "us/round"),
    "harness.perceptron.us_per_round": ("harness.perceptron", "us", "us/round"),
    "harness.loop.us_per_round": ("harness.loop", "us", "us/round"),
    "harness.sink.us_per_round": ("harness.sink", "us", "us/round"),
    "harness.report.ms_per_run": ("harness.report", "ms", "ms/run"),
    "learner_halfspace.predict.us_per_round": ("learner_halfspace.predict", "us", "us/round"),
    "learner_halfspace.predict.calls_per_round": ("learner_halfspace.predict", "calls", "calls/round"),
    "learner_halfspace.observe.us_per_round": ("learner_halfspace.observe", "us", "us/round"),
    "learner_bandit.play_round.us_per_round": ("learner_bandit.play_round", "us", "us/round"),
    "learner_bandit.select_action.us_per_round": ("learner_bandit.select_action", "us", "us/round"),
    "losses.reweighted_margin_loss.us_per_round": ("losses.reweighted_margin_loss", "us", "us/round"),
    "losses.arm_gap_loss.us_per_round": ("losses.arm_gap_loss", "us", "us/round"),
    "losses.arm_gap_loss.calls_per_round": ("losses.arm_gap_loss", "calls", "calls/round"),
    "optimizer.ogd_update.us_per_round": ("optimizer.ogd_update", "us", "us/round"),
    "core.setup.ms": ("core.setup", "ms", "ms/run"),
    "cli.main.self_ms": ("cli.main", "ms", "ms/run"),
}


def _fail_usage(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the package from this checkout's src, and nothing else."""
    if not (SRC / "massart_online" / "__init__.py").is_file():
        _fail_usage(f"no package source at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import massart_online
    from massart_online import harness

    if Path(massart_online.__file__).resolve().parent != SRC / "massart_online":
        _fail_usage(f"massart_online imported from {massart_online.__file__}, not {SRC}")
    return harness


class Run:
    """Outcome of one benchmark run of one workload."""

    def __init__(self, name, seed, spec, program_seeds):
        self.name, self.seed, self.spec, self.seeds = name, seed, spec, program_seeds
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.digests = {}  # program seed -> report digest, equal across workers
        self.workers = {0: [], 1: []}  # trace flag -> results of finished workers
        self.layer_ns = {}  # layer -> self time summed over the traced workers
        self.layer_calls = {}
        self.absent = set()

    def fail(self, seeds, message, wrong_output):
        self.failed += len(seeds)
        self.correct = self.correct and not wrong_output
        self.problems.append(message)


def _outputs(run, work, result):
    """Per-seed reports plus the check failures of one worker's outputs."""
    spec = run.spec
    if spec["entry"] == "cli":
        (seed,) = run.seeds
        cli_dir = work / "cli"
        report_text = (cli_dir / "report.json").read_text()
        fails = checks.check_boundary_csv(
            spec,
            seed,
            (cli_dir / f"run_{seed}.csv").read_text(),
            report_text,
            (work / "stdout.txt").read_text(),
        )
        return [json.loads(report_text)], fails
    reports = result["reports"]
    check = checks.check_halfspace_iid if spec["kind"] == "halfspace" else checks.check_bandit_monotone
    return reports, check(spec, run.seeds, reports)


def _one_worker(run, harness, traced, index):
    """Start one worker, wait for it, check its outputs and record them."""
    work = OUT / "work" / f"{run.name}-{run.seed}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", run.name,
        "--seeds", ",".join(map(str, run.seeds)),
        "--trace", str(int(traced)),
        "--t-horizon", str(run.spec["t_horizon"]),
        "--out", str(work),
    ]
    run.attempted += len(run.seeds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.fail(run.seeds, f"worker {index} ran past {WORKER_TIMEOUT_S} s", wrong_output=False)
        return
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        run.fail(run.seeds, f"worker {index} exited {proc.returncode}: {tail[0]}", wrong_output=False)
        return
    result = json.loads((work / "result.json").read_text())
    if result["exit_code"] != 0:
        run.fail(run.seeds, f"worker {index}: the program exited {result['exit_code']}", wrong_output=False)
        return
    try:
        reports, fails = _outputs(run, work, result)
        for report in reports:
            seed = report["config"]["seed"]
            digest = harness.report_digest(report)
            if run.digests.setdefault(seed, digest) != digest:
                fails.append((seed, f"seed {seed}: report digest differs between workers"))
    except (OSError, LookupError, TypeError, ValueError) as exc:
        fails = [(None, f"outputs missing or malformed: {exc!r}")]
    if fails:
        whole = any(s is None for s, _ in fails)
        bad = set(run.seeds) if whole else {s for s, _ in fails}
        run.fail(sorted(bad), f"worker {index}: {fails[0][1]}", wrong_output=True)
    if not result["first_round_seen"]:
        run.problems.append("the first-round hook never fired; set-up ends at the entry call")
    run.workers[int(traced)].append(result)
    if traced:
        totals, absent = spans.layer_totals(work / "spans.npz")
        run.absent |= absent
        for layer, (ns, calls) in totals.items():
            run.layer_ns[layer] = run.layer_ns.get(layer, 0.0) + ns * result["time_scale"]
            run.layer_calls[layer] = run.layer_calls.get(layer, 0) + calls
        dump = OUT / "spans" / f"{run.name}-seed{run.seed}.npz"
        dump.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(work / "spans.npz"), dump)
    shutil.rmtree(work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _us_per_round(worker):
    return worker["rounds_s"] * worker["time_scale"] / worker["rounds"] * 1e6


def _end_to_end(run):
    clean = run.workers[0]
    return {
        "rounds_per_s": (_median([1e6 / _us_per_round(w) for w in clean]), "rounds/s"),
        "setup_s": (_median([w["setup_s"] * w["time_scale"] for w in clean]), "s"),
        "peak_rss_mb": (_median([w["peak_rss_mb"] for w in clean]), "MB"),
    }


def _per_layer(run):
    traced, clean = run.workers[1], run.workers[0]
    if not traced:
        return {}
    rounds = sum(w["rounds"] for w in traced)
    ops = len(traced) * len(run.seeds)
    metrics = {}
    for name, (layer, what, unit) in PER_LAYER.items():
        if layer in run.absent or layer not in run.layer_ns:
            run.problems.append(f"{name} absent: no traced binding of {layer} exists")
            continue
        value = {
            "us": run.layer_ns[layer] / rounds / 1e3,
            "ms": run.layer_ns[layer] / ops / 1e6,
            "calls": run.layer_calls[layer] / rounds,
        }[what]
        metrics[name] = (value, unit)
    traced_us = _median([_us_per_round(w) for w in traced])
    clean_us = _median([_us_per_round(w) for w in clean])
    metrics["traced.us_per_round"] = (traced_us, "us/round")
    metrics["traced.overhead_pct"] = ((traced_us / clean_us - 1.0) * 100.0, "%")
    return metrics


def run_workload(name, seed, seconds, trace, harness, horizon=None):
    spec = WORKLOADS[name] if horizon is None else dict(WORKLOADS[name], t_horizon=horizon)
    run = Run(name, seed, spec, op_seeds(spec, seed))
    kinds = (0, 1) if trace else (0,)
    started = time.perf_counter()
    index = 0
    last = 0.0  # wall time of the last worker
    while True:
        enough = min(len(run.workers[k]) for k in kinds) >= MIN_WORKERS
        # a program that fails every worker still ends the run on time
        tried = index >= MIN_WORKERS * len(kinds)
        # stop once another worker would end further past the deadline than
        # the run now stands before it
        if time.perf_counter() - started + last / 2 >= seconds and (enough or tried):
            break
        t_worker = time.perf_counter()
        _one_worker(run, harness, traced=kinds[index % len(kinds)] == 1, index=index)
        last = time.perf_counter() - t_worker
        index += 1
    metrics = _per_layer(run) if trace else _end_to_end(run)
    return run, metrics


def _report(run, metrics, trace):
    for problem in dict.fromkeys(run.problems):
        print(f"{run.name}: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{run.name}: {metric} = {value:.6g} {unit}")
    print(f"{run.name}: operations attempted {run.attempted}, failed {run.failed}")
    record = {
        "workload": run.name,
        "seed": run.seed,
        "trace": trace,
        "t_horizon": run.spec["t_horizon"],
        "program_seeds": run.seeds,
        "digests": {str(k): v for k, v in sorted(run.digests.items())},
        "workers": run.workers,
        "problems": run.problems,
    }
    path = OUT / "results" / f"{run.name}-T{run.spec['t_horizon']}-seed{run.seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--horizon", type=int, default=None,
        help="override the workload's T, to compare the layer mix at another horizon",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.horizon is not None and args.horizon < 1:
        parser.error("--horizon must be positive")
    harness = _import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, run_metrics = run_workload(
            name, args.seed, args.seconds, args.trace, harness, args.horizon
        )
        _report(run, run_metrics, args.trace)
        correct = correct and run.correct
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in run_metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
