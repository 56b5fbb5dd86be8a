"""The benchmark's workloads, shared by the runner, the worker and the checks.

Each workload is shaped like one acceptance criterion of the test suite. One
operation is one seed-run; a worker process runs one operation round, that is
every seed of ``op_seeds`` once. This module imports nothing heavy, so the
worker can load it before the timed import of the package.
"""

WORKLOADS = {
    # c05 shape: oblivious stream, several seeds through harness.run_many
    "halfspace_iid": {
        "kind": "halfspace",
        "entry": "run_many",
        "d": 20,
        "eta": 0.1,
        "gamma": 0.2,
        "adversary": "iid",
        "t_horizon": 4_000,
        "seeds_per_op": 4,
    },
    # c06 shape: the adversary reads w every round; one long seed through
    # cli.main with --out, so the CSV trace and report.json are written
    "halfspace_boundary_csv": {
        "kind": "halfspace",
        "entry": "cli",
        "d": 20,
        "eta": 0.0,
        "gamma": 0.2,
        "adversary": "boundary",
        "t_horizon": 10_000,
        "seeds_per_op": 1,
    },
    # c07 shape: monotone k-arm rewards, several seeds through harness.run_many
    "bandit_monotone": {
        "kind": "bandit",
        "entry": "run_many",
        "d": 10,
        "k": 3,
        "gamma": 0.2,
        "delta": 0.5,
        "reward_cap": 1.0,
        "environment": "monotone_k",
        "t_horizon": 3_000,
        "seeds_per_op": 2,
    },
}


def op_seeds(spec, seed):
    """Program seeds of one operation round, a pure function of the base seed."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return [seed * 1000 + j for j in range(spec["seeds_per_op"])]


def cli_argv(spec, seed, out_dir):
    """simulate-halfspace arguments for a CLI workload (one seed per invocation)."""
    return [
        "simulate-halfspace",
        "--d", str(spec["d"]),
        "--t-horizon", str(spec["t_horizon"]),
        "--eta", repr(spec["eta"]),
        "--gamma", repr(spec["gamma"]),
        "--adversary", spec["adversary"],
        "--seed", str(seed),
        "--out", str(out_dir),
    ]
