"""Golden transcripts: the CSV sha256 and report digest of seven T=2000 runs,
one per adversary (boundary at two noise rates) and per bandit environment.

The CSV hashes were taken before the round loop was flattened and must never
be repinned silently: a change that moves one of them has changed the random
stream or the arithmetic of a round, and has to say so. The report digests
were pinned after the always-0 margin_violations field left the report.
"""

import hashlib

import pytest

from massart_online.core import BanditConfig, HalfspaceConfig
from massart_online.harness import report_digest, run_bandit_experiment, run_halfspace_experiment

HALFSPACE = dict(d=10, t_horizon=2000, gamma=0.2, seed=0)
BANDIT = dict(d=6, k=3, t_horizon=2000, gamma=0.2, delta=0.5, reward_cap=1.0, seed=0)

# name -> (config, CSV sha256, report digest)
GOLDEN = {
    "iid": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="iid"),
        "1efaebdb43d417959cc755f2106120802de5f0a73e39bc6b6974f4e4cc04046e",
        "40202b66bfe9fe2f6925296a4b70900aaea45373418abf2b3e7e3d21e9eaeee0",
    ),
    "boundary_eta0.1": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="boundary"),
        "3ceccb5e527f00784c57a61ec857d64150fa0052d783049b08d587e923d36311",
        "2cae3e637d04cbb1a4d979dc0cdf9c4f7083f9f3a7c3c506a606b2abd852cfb7",
    ),
    "boundary_eta0": (
        HalfspaceConfig(**HALFSPACE, eta=0.0, adversary="boundary"),
        "249f893cbaf2d02555d5722841c96145f4d825e6a473710a915816dbee1d20fc",
        "e5dab1f2c4072a739aa4d7ff31507c49eb0a50ea6b46c27a4cff3a0823cfe16e",
    ),
    "adaptive": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="adaptive"),
        "93deb9fa59c8f55472e5bca20fc0c5207009c93e1db30c24195be3a4d777b277",
        "b853045e97290b299e6f9844d763c303d9e10fb53d9e22137cbb98829cbea022",
    ),
    "sorted_k": (
        BanditConfig(**BANDIT, environment="sorted_k"),
        "6f46bddca39da05d6403c1677502d07d5cce751decd00d5c961e8072ebb2a082",
        "bde6c915cf2d66df60ea70d3b68d9049055c60e9ed9912ba4bc29d6d13a55a70",
    ),
    "monotone_k": (
        BanditConfig(**BANDIT, environment="monotone_k"),
        "3843330cbd793fd8bb4e627801b9e5047e6362db6363942f1b8222326c46bf46",
        "970df4e33ddb77aa33c7418b75f599baa1bc2c77c0ccb26d51b9c316438ae567",
    ),
    "reduction2": (
        BanditConfig(**dict(BANDIT, k=2, gamma=0.4, delta=0.8), environment="reduction2"),
        "4d5063b7a289c483da951cd211fa0e532969c8fa0f18f01a6a46055e21aef439",
        "ce752ec55f10ff26540743ba6c529d1b53c11d3e4ddc0a0fbe254a6d18a73747",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_transcript(name, tmp_path):
    config, csv_sha256, digest = GOLDEN[name]
    path = tmp_path / "run.csv"
    if isinstance(config, HalfspaceConfig):
        report = run_halfspace_experiment(config, csv_path=str(path))
    else:
        report = run_bandit_experiment(config, csv_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256
    assert report_digest(report) == digest
