"""Golden transcripts: the CSV sha256 and report digest of seven T=2000 runs,
one per adversary (boundary at two noise rates) and per bandit environment.

The CSV hashes must never be repinned silently: a change that moves one of
them has changed the random stream or the arithmetic of a round, and has to
say so. The boundary_eta0.1, boundary_eta0 and adaptive CSV hashes were taken
before the round loop was flattened, and their report digests after the
always-0 margin_violations field left the report.

The iid, sorted_k, monotone_k and reduction2 pins (CSV and report) were
repinned once when those oblivious streams began to be drawn BLOCK rounds per
numpy call: a block draws each quantity for all of its rounds before the
next quantity, so the generator's values land in other rounds. The one-row
forms of the block functions still reproduce the per-round draws
(test_environments checks the bytes), and the three learner-reading
adversaries, which stay per round, kept their pins.

Every pin was taken under OpenBLAS's SkylakeX kernels. Its dot products sum
in a different order on another core, so the float bytes move there, and
the boundary and adaptive totals with them; a failure message names the core
this run used (the test header names it too).
"""

import hashlib

import pytest

from massart_online.core import BanditConfig, HalfspaceConfig
from massart_online.harness import report_digest, run_bandit_experiment, run_halfspace_experiment

# the OpenBLAS core every pin below was taken under
PINNED_CORE = "SkylakeX"

HALFSPACE = dict(d=10, t_horizon=2000, gamma=0.2, seed=0)
BANDIT = dict(d=6, k=3, t_horizon=2000, gamma=0.2, delta=0.5, reward_cap=1.0, seed=0)

# name -> (config, CSV sha256, report digest)
GOLDEN = {
    "iid": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="iid"),
        "4a0611e0ba8a12879336e380a315a24cec9517b7f02d01af2c880a1f64f5143d",
        "f1e09f7a909d0c398fe1e0939099233169522ed135742e6bb07b77765eff526c",
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
        "cae1737648b3ed90e6de3aed4fd7beee8eb067110708b11b3a23ca3d985d7d6a",
        "00fb95fa51b3d5bbaba219b01115c0bf24e653b19d1a3b02b150cf85149a0e9f",
    ),
    "monotone_k": (
        BanditConfig(**BANDIT, environment="monotone_k"),
        "697661319094578ad283e49741c888759012139d80ce4f57f345663e60e6455f",
        "115d45ebe0d28f5456533289430b0cf359daca33d3af296e02d92989d4603216",
    ),
    "reduction2": (
        BanditConfig(**dict(BANDIT, k=2, gamma=0.4, delta=0.8), environment="reduction2"),
        "b98fc8aba25b657a842e21e0b077108f88d92b0aa7d4cfb595a0fb9925653514",
        "e4f5c2009eec01bf9c7edaa3db5a26bc00e864c0b263274239bf33deef42acfc",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_transcript(name, tmp_path, blas_core):
    config, csv_sha256, digest = GOLDEN[name]
    kernel = f"pinned under the OpenBLAS {PINNED_CORE} core, this run uses {blas_core}"
    path = tmp_path / "run.csv"
    if isinstance(config, HalfspaceConfig):
        report = run_halfspace_experiment(config, csv_path=str(path))
    else:
        report = run_bandit_experiment(config, csv_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256, kernel
    assert report_digest(report) == digest, kernel
