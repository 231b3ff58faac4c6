"""Golden-file regression: frozen digests of every experiment's CSV output,
and of the scenario configs the experiment builders produce.

These pin the byte-exact behavior of the full pipeline (config building,
world seeding, round scheduling, trust math, CSV formatting) for one seed.
A digest change means observable behavior drifted: either a bug, or an
intentional change that must update the constants below alongside a note in
the commit. e3 and e6 observe no per-pair trajectories, so their trajectory
files are header-only and legitimately share a digest.
"""

import hashlib
import os

import pytest

from pollushield.cli import run_command
from pollushield.scenarios import build_experiment, config_digest

GOLDEN_SHA256 = {
    ("e1", "trajectories"): "b195a4fe7a25bb378866d9dc9b86b8afc0147a3227ea2fb3fcd3b3aba2b42eae",
    ("e1", "summary"): "ac34c658fe5c5a3d4b1d24b8fa3ca0f673ae7ca6771d679ab692ae01ab5644fa",
    ("e2", "trajectories"): "64e71129de7162c7213b2eae9662d4003b39b327c8fc54d53cdaaf801a028bf9",
    ("e2", "summary"): "ec209d6dedbb91b4ea611cf06833deb69ab611cbea39755553b5b5d553063cad",
    ("e3", "trajectories"): "26779dbacb6680ad67152f3bcde2556ef4654a9ceb5b963d7124fcbaf0716db8",
    ("e3", "summary"): "de2406705e4b39f91342f7c9ddb5bd38c0027026ea439aa65926999c5bfcef23",
    ("e4", "trajectories"): "9a45be07e18191ccc0637a152c41bb9717a96eb7737795199d9642d6e9a001c0",
    ("e4", "summary"): "9c9fc7c9b39cbd4a6c9c728177db1df53e13032b9237c08178707786507244e5",
    ("e5", "trajectories"): "033d799795087f156babdb81025976f75b50034ec079962e44378a4ea76746c5",
    ("e5", "summary"): "bc3dd30b3d3f90bba996c903641d40a1f3d66aa5e7a63a8eee8e15fc751ef482",
    ("e6", "trajectories"): "26779dbacb6680ad67152f3bcde2556ef4654a9ceb5b963d7124fcbaf0716db8",
    ("e6", "summary"): "4e7ef950a17992575e55feb928534ba49671e0f131bf96bc3b8c2e9ea76277b4",
}

EXPERIMENTS = sorted({exp for exp, _ in GOLDEN_SHA256})

# config_digest of build_experiment(exp, seed=7, **overrides): pins every
# builder's defaults and the config each override value produces.
CONFIG_SHA256 = {
    ("e1", ()): "813f46ce1d253c9db368885f3d76f87b0a8230979d20b746a93267ff9e5731f3",
    ("e2", ()): "e08fa048b39ac5235d33b24c51c2e32278f59273e612f4de105f5622efc96ad4",
    ("e3", ()): "d44d7fafafbc5a0d393ceb55a1dcef83d03a55599d7f6549eace0b8805f09093",
    ("e3", (("policy", "proposed"),)): "d44d7fafafbc5a0d393ceb55a1dcef83d03a55599d7f6549eace0b8805f09093",
    ("e3", (("policy", "single"),)): "93eb6dbc481cb560662591cbc1bd7081db4b26c5d39e18bba522ffca8c50886b",
    ("e3", (("policy", "peertrust"),)): "9a9c1ea6a89e0a1ca70c254c89f278b663ba3606ae5222c8622fde01bb33807e",
    ("e3", (("loss_rate", 0.04),)): "670afb4cfb8a9e9222aefc9a9673968e3a9fec116b7a34b848373b74d58e6ccd",
    ("e4", ()): "a96eadacba562f135fec0838f5b95b3513fa7c02b70336504aed12ddbc5a4d9f",
    ("e4", (("mode", "static"),)): "46de93c338bd43978bf3ad4aa74c47ffd4001d68ee1386f92a17fb2ab4710b15",
    ("e4", (("group_size", 5),)): "0d32eb772d7cf3b6fa4120c6a1204aa59ac05c774b787856e5ea16ed88472d13",
    ("e5", ()): "93ec0485126f782031a02e6b10babba2dbb7b159d142fb06793731b3fe7ecbe7",
    ("e6", ()): "a9d63be640cd75d02bcf2aabac69a639ed0950b529319c9c6832eb90c7b507da",
    ("e6", (("policy", "proposed"),)): "a9d63be640cd75d02bcf2aabac69a639ed0950b529319c9c6832eb90c7b507da",
    ("e6", (("policy", "single"),)): "521d9805b7ed27cdcfa6b50e0ceb997597dcca9fc008a96da05cc7bc89cb4131",
    ("e6", (("policy", "peertrust"),)): "ba8685ee2924487393f8ecb311912eb7fabf605edb4dddee672f1e72459ff6a7",
    ("e6", (("malicious_fraction", 0.0),)): "a7a7ca73dc0b20e81b949e52fd3b5f5690315a5797386715b9bab23f5cebef13",
    ("e6", (("malicious_fraction", 0.5),)): "632fa0a81c22e39f84df0a9c1a0a76ee5236555991fdb1c23e215a321deea82f",
}


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_golden_digests(exp, tmp_path):
    out = tmp_path / exp
    assert run_command(["run", "--experiment", exp, "--seed", "7", "--out", str(out)]) == 0
    for kind in ("trajectories", "summary"):
        path = out / f"{exp}_{kind}.csv"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(exp, kind)], (
            f"{exp} {kind} output drifted from the pinned golden digest "
            f"({digest}); if the change is intentional, update GOLDEN_SHA256"
        )


@pytest.mark.parametrize("exp,overrides", sorted(CONFIG_SHA256, key=repr))
def test_config_digests(exp, overrides):
    digest = config_digest(build_experiment(exp, seed=7, **dict(overrides)))
    assert digest == CONFIG_SHA256[(exp, overrides)], (
        f"{exp} {dict(overrides)} config drifted from the pinned digest ({digest}); "
        "if the change is intentional, update CONFIG_SHA256"
    )
