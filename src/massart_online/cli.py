"""Command line interface.

Subcommands: simulate-halfspace, simulate-bandit, verify, baseline.
Exit codes: 0 ok, 2 config error, 3 oracle failure, 4 environment violation.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .core import (
    ADVERSARIES,
    BANDIT_ENVIRONMENTS,
    CONFIG_KEYS,
    ENVIRONMENTS,
    BanditConfig,
    ConfigError,
    HalfspaceConfig,
    bandit_config_from,
    halfspace_config_from,
    load_config_file,
)
from .harness import (
    EnvironmentViolation,
    check_output_path,
    report_json,
    run_bandit_experiment,
    run_halfspace_experiment,
    run_many,
    write_report,
)
from .oracles import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_ENVIRONMENT = 4


# value type of each config key, read off the config dataclasses
_KEY_TYPES = {f.name: f.type for cls in (HalfspaceConfig, BanditConfig) for f in fields(cls)}


def _add_config_flags(parser, keys, environments):
    parser.add_argument("--config", help="flat JSON key/value config file")
    choices = {"adversary": ADVERSARIES, "environment": environments}
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if key in choices:
            parser.add_argument(flag, choices=choices[key])
        else:
            parser.add_argument(flag, type=_KEY_TYPES[key])


def _merged_mapping(args):
    mapping = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return mapping


def _run_experiment(args, runner, config):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    out = args.out or None
    # run_many checks the CSV paths, and this the report's, before any round
    report_path = Path(out) / "report.json" if out else None
    if report_path:
        check_output_path(report_path)
    seeds = [config.seed + i for i in range(args.seeds)]
    report = run_many(runner, config, seeds, out_dir=out)
    if args.seeds == 1:
        (report,) = report["per_seed"]
    if report_path:
        write_report(report, report_path)
    print(report_json(report))
    return EXIT_OK


def _cmd_simulate_halfspace(args):
    mapping = _merged_mapping(args)
    # no flag sets it, but a config file may
    if mapping.get("environment", "massart2") != "massart2":
        raise ConfigError("simulate-halfspace runs the massart2 environment only")
    return _run_experiment(args, run_halfspace_experiment, halfspace_config_from(mapping))


def _cmd_simulate_bandit(args):
    return _run_experiment(args, run_bandit_experiment, bandit_config_from(_merged_mapping(args)))


def _cmd_verify(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    results, ok = run_all(seed=args.seed, quick=args.quick)
    for result in results:
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} oracle checks passed")
    return EXIT_OK if ok else EXIT_ORACLE


def _cmd_baseline(args):
    mapping = _merged_mapping(args)
    env = mapping.get("environment", "massart2")
    if env == "massart2":
        report = run_halfspace_experiment(halfspace_config_from(mapping))
    else:
        report = run_bandit_experiment(bandit_config_from(mapping))
    summary = {
        "kind": report["kind"],
        "baselines": report["baselines"],
        "learner": report.get("total_mistakes", report.get("total_reward")),
        "bound_check": report["bound_check"],
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="massart-online",
        description="Online halfspace learning under bounded label noise, "
        "and k-arm contextual bandits with monotone rewards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, cls, text in (
        ("simulate-halfspace", _cmd_simulate_halfspace, HalfspaceConfig,
         "run the noisy-halfspace learner"),
        ("simulate-bandit", _cmd_simulate_bandit, BanditConfig, "run the k-arm learner"),
    ):
        p_sim = sub.add_parser(name, help=text)
        # only simulate-bandit has an --environment flag, and it runs the
        # bandit environments only
        _add_config_flags(p_sim, [f.name for f in fields(cls) if f.init], BANDIT_ENVIRONMENTS)
        p_sim.add_argument("--seeds", type=int, default=1, help="fan out over this many seeds")
        p_sim.add_argument("--out", help="directory for run_<seed>.csv and report.json")
        p_sim.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run the oracle check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--quick", action="store_true", help="10x smaller sample counts")
    p_verify.set_defaults(func=_cmd_verify)

    p_base = sub.add_parser("baseline", help="report baseline metrics for a config")
    # baseline picks its config class by environment, so it reads every key
    _add_config_flags(p_base, CONFIG_KEYS, ENVIRONMENTS)
    p_base.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnvironmentViolation as exc:
        print(f"environment violation: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


if __name__ == "__main__":
    sys.exit(main())
