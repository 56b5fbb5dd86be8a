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

All 7 report digests were repinned once more when the domain_radius config
key went (every run is on the unit ball): each report's config lost that
field, and putting "domain_radius": 1.0 back into report["config"] gives
back every earlier digest. In the same change the bandit round began to take
its CSV score from select_action's one product w @ context, the gemv entry,
instead of a separate ddot of w with the greedy column, and TAILS rounds
stopped projecting. The 4 halfspace CSV pins held. The 3 bandit CSV pins
moved, while total_reward, exploration_count and greedy_reward did not.
Of the 2000 rows, these columns moved: score in 835 sorted_k rows and
825 reduction2 rows; score in 980, w_norm in 116 and loss in 2 monotone_k
rows. The w_norm and loss rows come from TAILS rounds, where the old code
re-projected an iterate whose computed norm was 1 + 1 ulp. That moved w in
11 of the monotone_k golden's 696 TAILS rounds, and in none of the sorted_k
or reduction2 goldens.

The 3 bandit CSV pins moved once more when arm_gap_loss began to work on
arm scores instead of building the shifted rows z_j: the loss and its
subgradient are the same linear functions of w . x_i, v . x_i, ||v|| and
w . v, taken in another order, so the last bits of the iterate move. The
4 halfspace CSV pins and all 7 report digests held, no action moved, and
each run ends on the same cum_metric. Of the 2000 rows, these columns
moved: score 1013, loss 309 and w_norm 1250 in sorted_k; score 319, loss
150 and w_norm 30 in monotone_k; score 771, loss 480 and w_norm 927 in
reduction2. No loss moved by more than 8.9e-16, no score by more than
2.1e-14 of its value, and no w_norm by more than 2.2e-16.

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
        "4e39334d20471476bfef919acdf193ee99a67d3ebc538caf7a3aab2f2d3babb2",
    ),
    "boundary_eta0.1": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="boundary"),
        "3ceccb5e527f00784c57a61ec857d64150fa0052d783049b08d587e923d36311",
        "e2c44a4166f2d33dc4c61c4ba6cba92c100cbaed35b60ac0dbb7c91e6e761200",
    ),
    "boundary_eta0": (
        HalfspaceConfig(**HALFSPACE, eta=0.0, adversary="boundary"),
        "249f893cbaf2d02555d5722841c96145f4d825e6a473710a915816dbee1d20fc",
        "a91b087940c81dc743fe2c95a05bfff80bc057be3d92d80181986ec0f3777dd8",
    ),
    "adaptive": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="adaptive"),
        "93deb9fa59c8f55472e5bca20fc0c5207009c93e1db30c24195be3a4d777b277",
        "7694c908d2417a97ae33134487fd60265f7baf8b18a6582b6ef7dd2f02970966",
    ),
    "sorted_k": (
        BanditConfig(**BANDIT, environment="sorted_k"),
        "7ef4bc1757a37d28176831acd139ea85869683fa456a5a2f16370aaca0b02dd1",
        "9adff553ba7d45833f60f8e6869d683814ac6d36b050621ba6b7ad30338fc19b",
    ),
    "monotone_k": (
        BanditConfig(**BANDIT, environment="monotone_k"),
        "a920e45d6f9c54a48a1fc7c92fae4d00231dd58b7eb41027ca568eedc27cb4db",
        "09eb4b708e1a5831af6ae4b7f1b6955142115d10d85a3883124e71306236b54b",
    ),
    "reduction2": (
        BanditConfig(**dict(BANDIT, k=2, gamma=0.4, delta=0.8), environment="reduction2"),
        "6b6774adaa099601763f23b446f1751908b91f2c61035f23dfbd645ae4b35ec2",
        "4916724a594721e7c166669ea51519e0dc3fdf65976fe50468986e64c6dd4a02",
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
