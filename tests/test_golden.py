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

OpenBLAS's dot products sum in a different order on each core, so the float
bytes of a run depend on the core it picks at load time, and so do the
boundary and adaptive totals, whose points are built from the iterate. The
seven runs therefore take place in one subprocess with OPENBLAS_CORETYPE set
to Prescott in its environment only: those SSE-level kernels run on every
x86-64 CPU, and the in-process suite stays on the host's own core. Forced to
Prescott, OpenBLAS names its core Katmai (an x86-64 build maps the older
names onto the Prescott kernels); a run on any other core, such as an arm64
host or an OpenBLAS built without DYNAMIC_ARCH, fails with a message that
names the core it got.

Every pin was retaken once when the runs moved to that forced core, with
the program unchanged; until then all pins, the repins above included, were
taken under the SkylakeX kernels. All 7 CSV hashes moved. The iid and the 3
bandit report digests held: on those oblivious streams no action, label or
total moved, only the float bytes of score, loss and w_norm (in 1796, 979
and 1064 of the 2000 iid rows). The boundary_eta0.1, boundary_eta0 and
adaptive report digests moved with their totals, 258 -> 227, 51 -> 54 and
252 -> 256 mistakes, since about half of their actions moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import massart_online
from massart_online.core import BanditConfig, HalfspaceConfig
from massart_online.harness import report_digest, run_bandit_experiment, run_halfspace_experiment

# the OpenBLAS core the subprocess forces, and the name OpenBLAS gives it
FORCED_CORE = "Prescott"
FORCED_CORE_NAME = "Katmai"

HALFSPACE = dict(d=10, t_horizon=2000, gamma=0.2, seed=0)
BANDIT = dict(d=6, k=3, t_horizon=2000, gamma=0.2, delta=0.5, reward_cap=1.0, seed=0)

# name -> (config, CSV sha256, report digest)
GOLDEN = {
    "iid": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="iid"),
        "45bb5f1b4e89961eb7e7090f827d11d43c0ef8b52cecdb454d9fb7fb6d021eb7",
        "4e39334d20471476bfef919acdf193ee99a67d3ebc538caf7a3aab2f2d3babb2",
    ),
    "boundary_eta0.1": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="boundary"),
        "c0b4b8744b3dbfa6a549b1e875ee58f7c9632c85c5a95ce6c6dcce5c2c629882",
        "9ae6968694cefcfabab27925256424631c93c14caf494673fa02c4a72d2179bc",
    ),
    "boundary_eta0": (
        HalfspaceConfig(**HALFSPACE, eta=0.0, adversary="boundary"),
        "7ea862848a8c6c8d88f544639bead4b01a3cf56c855f72038e5d2330a4b1ffae",
        "d6b2ebd5f6151eabbee17838cc6084865dbacc8526580065cdd28a3654521f7d",
    ),
    "adaptive": (
        HalfspaceConfig(**HALFSPACE, eta=0.1, adversary="adaptive"),
        "12a71ed911cd3c943b26b7effda89c207224a426b4653eb2c0bf48e0830a3f60",
        "b3fc388bb9da38a708eeab5d5e8794ac8a28bd8f407239ab4a8d3ca1571f421c",
    ),
    "sorted_k": (
        BanditConfig(**BANDIT, environment="sorted_k"),
        "0faac6f0ab460ba84b25a998ad408efffd9b52dead286f8852e858da4e4b5665",
        "9adff553ba7d45833f60f8e6869d683814ac6d36b050621ba6b7ad30338fc19b",
    ),
    "monotone_k": (
        BanditConfig(**BANDIT, environment="monotone_k"),
        "c450d86098bbdb3550f0293a919893ea27fca1ff284e9142ad1d2663843bf7ca",
        "09eb4b708e1a5831af6ae4b7f1b6955142115d10d85a3883124e71306236b54b",
    ),
    "reduction2": (
        BanditConfig(**dict(BANDIT, k=2, gamma=0.4, delta=0.8), environment="reduction2"),
        "133b794b18a2dc428b7c413d2018061e30d0029222574322f5cd8a61123b3d5a",
        "4916724a594721e7c166669ea51519e0dc3fdf65976fe50468986e64c6dd4a02",
    ),
}


def transcripts(out_dir):
    """Each golden run's [CSV sha256, report digest] in this process, keyed by
    name; the CSVs go to out_dir."""
    result = {}
    for name, (config, _, _) in GOLDEN.items():
        path = Path(out_dir) / f"{name}.csv"
        if isinstance(config, HalfspaceConfig):
            report = run_halfspace_experiment(config, csv_path=str(path))
        else:
            report = run_bandit_experiment(config, csv_path=str(path))
        result[name] = [hashlib.sha256(path.read_bytes()).hexdigest(), report_digest(report)]
    return result


@pytest.fixture(scope="module")
def forced_core_run(tmp_path_factory):
    """transcripts() from a subprocess on the forced OpenBLAS core, which
    imports the package this process imported, with "core" the core's name."""
    src = str(Path(massart_online.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_CORETYPE=FORCED_CORE, PYTHONPATH=os.pathsep.join(paths))
    out_dir = tmp_path_factory.mktemp("golden")
    proc = subprocess.run(
        [sys.executable, __file__, str(out_dir)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_transcript(name, forced_core_run):
    _, csv_sha256, digest = GOLDEN[name]
    core = forced_core_run["core"]
    assert core == FORCED_CORE_NAME, (
        f"OPENBLAS_CORETYPE={FORCED_CORE} ran on the OpenBLAS core {core}, not "
        f"{FORCED_CORE_NAME}; the pins hold only there"
    )
    got_csv, got_digest = forced_core_run[name]
    assert got_csv == csv_sha256
    assert got_digest == digest


if __name__ == "__main__":
    # run by forced_core_run with this file's directory first on sys.path
    from conftest import blas_core_name

    print(json.dumps(dict(transcripts(sys.argv[1]), core=blas_core_name())))
