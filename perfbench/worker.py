"""One operation round of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seeds 0,1,2 --trace 0|1 --t-horizon T --out DIR

The worker imports the package from the checkout's ``src`` inside its timed
set-up, drives it through its public API (``harness.run_many`` or
``cli.main``), and writes ``DIR/result.json`` with its timings, its peak
resident memory and the per-seed reports. With ``--trace 1`` it also writes
``DIR/spans.npz``. It checks nothing itself: the runner checks the outputs.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cli_argv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Times of the two calibration loops on the machine the benchmark was written
# on (2-core VM, Python 3.11, numpy 2.4); the ratio of nominal to measured
# time rescales a worker's times to a fixed reference speed.
PYTHON_ITERATIONS = 100_000
PYTHON_NOMINAL_S = 0.02
NUMPY_ITERATIONS = 2_000
NUMPY_NOMINAL_S = 0.022


def python_loop():
    """Fixed pure-Python work, independent of the program under test.

    It imports nothing, so it can run before the timed import of the package.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(PYTHON_ITERATIONS):
        acc += (i * 7 % 13) / (1.0 + (i & 15))
        table[i & 255] = acc
    return time.perf_counter() - start


def numpy_loop():
    """Fixed small-array numpy work, independent of the program under test."""
    import numpy as np

    rng = np.random.default_rng(0)
    m, v = rng.standard_normal((10, 3)), rng.standard_normal(10)
    start = time.perf_counter()
    for _ in range(NUMPY_ITERATIONS):
        a = v @ m
        v = v * 0.999 + (float(np.linalg.norm(a)) + float(a.max())) * 1e-3
        v += rng.uniform(-1.0, 1.0, size=10) * 1e-3
    return time.perf_counter() - start


class Calibration:
    """Times fixed work next to the rounds, to rescale a worker's times.

    The host is shared, and how fast it runs this code swings by tens of
    percent over seconds to minutes. The worker times a pure-Python loop
    before its import and a pure-Python plus a numpy loop after every seed,
    so the samples are spread over the rounds they correct. A traced worker
    runs the same chunks after its rounds instead, so that no span holds one.
    """

    def __init__(self, interleave):
        self.interleave = interleave
        self.nominal_s = 0.0
        self.measured_s = 0.0
        self.in_rounds_s = 0.0  # chunks run between the first and last round

    def python(self):
        self.nominal_s += PYTHON_NOMINAL_S
        self.measured_s += python_loop()

    def chunk(self):
        elapsed = python_loop() + numpy_loop()
        self.nominal_s += PYTHON_NOMINAL_S + NUMPY_NOMINAL_S
        self.measured_s += elapsed
        return elapsed

    def after_each(self, runner):
        """The per-seed runner, followed by one chunk after every seed."""
        if not self.interleave:
            return runner

        def calibrated(*args, **kwargs):
            result = runner(*args, **kwargs)
            self.in_rounds_s += self.chunk()
            return result

        return calibrated

    @property
    def time_scale(self):
        return self.nominal_s / self.measured_s


class FirstRound:
    """Notes when the first round draws its input, then gets out of the way.

    It wraps the environment draw once and restores the original binding on
    the first call, so an untraced run pays for one extra call in total.
    """

    def __init__(self, owner, attr):
        self.time = None
        original = getattr(owner, attr, None)
        if original is None:
            return

        def first(*args, **kwargs):
            self.time = time.perf_counter()
            setattr(owner, attr, original)
            return original(*args, **kwargs)

        setattr(owner, attr, first)


def _draw_binding(environments, spec):
    if spec["kind"] == "halfspace":
        return environments, "adversary_round"
    return environments.MonotoneRewardEnvironment, "next_round"


def _run_many(spec, seeds, core, harness, wrap):
    if spec["kind"] == "halfspace":
        config = core.HalfspaceConfig(
            d=spec["d"], t_horizon=spec["t_horizon"], eta=spec["eta"], gamma=spec["gamma"],
            adversary=spec["adversary"], seed=seeds[0],
        )
        runner = harness.run_halfspace_experiment
    else:
        config = core.BanditConfig(
            d=spec["d"], k=spec["k"], t_horizon=spec["t_horizon"], gamma=spec["gamma"],
            delta=spec["delta"], reward_cap=spec["reward_cap"], seed=seeds[0],
            environment=spec["environment"],
        )
        runner = harness.run_bandit_experiment
    t_entry = time.perf_counter()
    result = harness.run_many(wrap(runner), config, seeds)
    return t_entry, 0, result["per_seed"]


def _run_cli(spec, seeds, out, wrap):
    from massart_online import cli

    cli.run_halfspace_experiment = wrap(cli.run_halfspace_experiment)
    (seed,) = seeds
    argv = cli_argv(spec, seed, out / "cli")
    printed = io.StringIO()
    t_entry = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    (out / "stdout.txt").write_text(printed.getvalue())
    return t_entry, code, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated program seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-horizon", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = dict(WORKLOADS[args.workload], t_horizon=args.t_horizon)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out)

    calibration = Calibration(interleave=not args.trace)
    calibration.python()
    t_start = time.perf_counter()
    from massart_online import core, environments, harness

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    first = FirstRound(*_draw_binding(environments, spec))
    if spec["entry"] == "cli":
        t_entry, code, reports = _run_cli(spec, seeds, out, calibration.after_each)
    else:
        t_entry, code, reports = _run_many(spec, seeds, core, harness, calibration.after_each)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_first = first.time if first.time is not None else t_entry
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out / "spans.npz")
    if not calibration.interleave:
        for _ in seeds:
            calibration.chunk()
    result = {
        "exit_code": code,
        "first_round_seen": first.time is not None,
        "setup_s": t_first - t_start,
        "rounds_s": t_end - t_first - calibration.in_rounds_s,
        "rounds": spec["t_horizon"] * len(seeds),
        "peak_rss_mb": peak_rss_mb,
        # multiply a measured time by this to get it at the reference speed
        "time_scale": calibration.time_scale,
        "reports": reports,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
