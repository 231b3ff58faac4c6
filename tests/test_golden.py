"""Golden-file regression: frozen digests of every experiment's CSV output,
and of the scenario configs the experiment builders produce.

These pin the byte-exact behavior of the full pipeline (config building,
world seeding, round scheduling, trust math, CSV formatting) for one seed.
A digest change means observable behavior drifted: either a bug, or an
intentional change that must update the constants below alongside a note in
the commit. e3 and e6 observe no per-pair trajectories, so their trajectory
files are header-only and legitimately share a digest.

FULL_PRECISION_SHA256 pins ten configs, the variants included, at seed 1
and full float precision, so a change that moves only a last bit, or only
a variant, fails too. It was computed with CPython 3.11.7 on x86_64 Linux
(glibc 2.36). `math.exp` comes from the platform's libm, so another
platform may differ in a last bit; the six-decimal GOLDEN_SHA256 stays the
portable pin.
"""

import hashlib
import inspect
import json
import os
import platform
import re
import subprocess
from pathlib import Path

import pytest

from pollushield.cli import run_command
from pollushield.scenarios import Run, build_experiment, config_digest

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
    ("e1", ()): "7da8986e257dd5f7413d6d0232991a03fa04c889fcc8ec81572512cab861768f",
    ("e2", ()): "dea0c2af1bcecf7fad58be880fad9d6e4d60c3a61f09fbe95a524f05a056b853",
    ("e3", ()): "97bbccef7ca1e86a74dac840a6674f7196206e1605e2579a8324ae5ad44ece29",
    ("e3", (("policy", "proposed"),)): "97bbccef7ca1e86a74dac840a6674f7196206e1605e2579a8324ae5ad44ece29",
    ("e3", (("policy", "single"),)): "006845b496108458a096008565c89b284c7c56b09dd68a3a91d99242ae735b8f",
    ("e3", (("policy", "peertrust"),)): "526d7c5fad5c564111e09ca4c08bd63eef18d5ed2ec50460922a35a0040e004d",
    ("e3", (("loss_rate", 0.04),)): "d871a5aaed05072849646b877411aed539d02a0923b06d5c2687a22587d6e02e",
    ("e4", ()): "5c40a2ffb7be7a4bccd01662d0b9c5dbd378f7be6692619e26b1402741e38564",
    ("e4", (("mode", "static"),)): "2dd7e9cd736f034ba73510056f810ac66cf0c1032e7b8610c0dabd54618c4dc3",
    ("e4", (("group_size", 5),)): "115284b02693a80203c3659920a5518a798df5187bcadc06b07f4a517a943900",
    ("e5", ()): "711203791b905518827e86e188a12052bee024fb3a56e9d0d14952718d3d1555",
    ("e6", ()): "3cf635ff5e3a178b73f6dc067d86b55afbd306745b1480df66fe8f747bed1ebe",
    ("e6", (("policy", "proposed"),)): "3cf635ff5e3a178b73f6dc067d86b55afbd306745b1480df66fe8f747bed1ebe",
    ("e6", (("policy", "single"),)): "3f6a4940ee5e6d8dbfa817624b5c508e7f34935f2e98b5bf863e54fcd4d820f1",
    ("e6", (("policy", "peertrust"),)): "0bf47db2f4f7f4118bb26f4a454f6c606289a36324ecc193bc2c963229a49bf2",
    ("e6", (("malicious_fraction", 0.0),)): "b94fbf042b5c19da377ebd93ffe1fccceecc5ef9fcf65d242bc983b78361afcc",
    ("e6", (("malicious_fraction", 0.5),)): "2ac024f71f6b8d4b2804d1a0b1ddb7c3b97626bea981bfb41b7fda0097a3f186",
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


# sha-256 of the repr of (sorted trajectories, summary, sorted detections,
# event log) of build_experiment(exp, seed=1, **overrides); see the module
# docstring for the platform.
FULL_PRECISION_SHA256 = {
    ("e1", ()): "50bce1192d26540a6386a504cc60d031d2305a82bee91a6c5f0ffed70eaea86d",
    ("e2", ()): "cbb901020310e3ab77df8dce612f13d17e626d2a2b65cf43dcc1c5795ea00435",
    ("e3", (("loss_rate", 0.08),)): "5e59d9bba24860be43a0f5345c407895a54627fbce6358b93fbd1db74e0d9898",
    ("e3", (("policy", "single"),)): "a902e1d6f6bddbaa0ac2ff7ffe22d6263c1cba511863f7268786419fc2f50835",
    ("e4", ()): "1b863cee5ad361428137a37cfac8746b52207bf31fd83e9c096ac566ae01e308",
    ("e4", (("mode", "static"),)): "6b1cb5e943918b87966bbbb74fc72fb7515ff4fb0aec76b6cd7101a081f7d9f7",
    ("e4", (("group_size", 24), ("rounds", 40))): "b733e1b7fe123358fee7a92235c8950531447dfe15bedf32d5df569448173cd3",
    ("e5", ()): "8110feeb4744f9831814be3f2632185e49abb797ba7468f3c88fa7e5c5916e26",
    ("e6", (("malicious_fraction", 0.5),)): "e27d4a256933a425d299e9188afed12d789dd978c7fa0c327bc3447ca0ea277e",
    ("e6", (("policy", "peertrust"),)): "1e7f4333557f3f8414390acc3ce0f65edee4737e515ede702a24f3ecc49228c5",
}


def full_precision_digest(cfg):
    run = Run(cfg).advance(cfg.rounds)
    report, world = run.report(), run.world
    text = repr((sorted(report.trajectories.items()), report.summary,
                 sorted(world.detections.items()), world.event_log))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "exp,overrides", sorted(FULL_PRECISION_SHA256, key=repr),
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v) or "default",
)
def test_full_precision_digests(exp, overrides):
    digest = full_precision_digest(build_experiment(exp, seed=1, **dict(overrides)))
    assert digest == FULL_PRECISION_SHA256[(exp, overrides)], (
        f"{exp} {dict(overrides)} output drifted at full precision ({digest}); "
        "if the change is intentional, update FULL_PRECISION_SHA256"
    )


CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from pollushield.scenarios import Run, build_experiment, config_digest
{digest}
full_keys, config_keys = json.loads(sys.argv[2]), json.loads(sys.argv[3])
print(json.dumps([full_precision_digest(build_experiment(exp, seed=1, **dict(ov)))
                  for exp, ov in full_keys]))
print(json.dumps([config_digest(build_experiment(exp, seed=7, **dict(ov)))
                  for exp, ov in config_keys]))
"""


def other_cpythons():
    """(version, interpreter) of every CPython 3.10 or later that pyenv
    installed, other than the version running the suite."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for home in sorted(root.glob("3.*")):
        match = re.fullmatch(r"3\.(\d+)\.\d+", home.name)
        if not match or int(match[1]) < 10 or home.name == platform.python_version():
            continue
        exe = home / "bin" / f"python3.{match[1]}"
        if exe.is_file():
            found.append((home.name, exe))
    return found


def test_full_precision_digests_on_other_cpythons():
    """The package is stdlib-only, so each other installed CPython runs it
    as a child with only `src` on its path (`-I -S`: no site-packages, no
    environment; `-B`, since `-I` ignores PYTHONDONTWRITEBYTECODE: no
    bytecode written into `src`), one child at a time, and must give every
    pinned FULL_PRECISION_SHA256 and CONFIG_SHA256 digest: the builders'
    random draws must pick the same peers there."""
    found = other_cpythons()
    if not found:
        pytest.skip("no other CPython 3.10+ installed under pyenv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = CHILD.format(digest=inspect.getsource(full_precision_digest))
    config_keys = sorted(CONFIG_SHA256, key=repr)
    full_keys = sorted(FULL_PRECISION_SHA256, key=repr)
    want_full = [FULL_PRECISION_SHA256[key] for key in full_keys]
    for version, exe in found:
        child = subprocess.run(
            [str(exe), "-I", "-S", "-B", "-c", script, src, json.dumps(full_keys),
             json.dumps(config_keys)],
            capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, f"CPython {version}: {child.stderr[-2000:]}"
        full, configs = map(json.loads, child.stdout.splitlines())
        assert full == want_full, f"CPython {version} drifted at full precision: {full}"
        drifted = [key for key, got in zip(config_keys, configs) if got != CONFIG_SHA256[key]]
        assert len(configs) == len(config_keys) and not drifted, (
            f"CPython {version} builds other configs for {drifted}")
    print("full-precision and config digests match on CPython",
          ", ".join(v for v, _ in found))


# sha-256 of the repr of (sorted trajectories, summary) of each run that
# acceptance criteria 5 and 8 make, keyed (experiment, loss rate or
# malicious fraction, policy, seed); the criteria check the runs they make.
# A run's event log is left out: its repr costs far more than the report's.
# See the module docstring for the platform.
GRID_REPORT_SHA256 = {
    ("e3", 0.0, "proposed", 1): "15d82ab80a0edcd20f8f7239dee00406bf13b9e12d2ce536089f18bf63d7f181",
    ("e3", 0.0, "proposed", 2): "5eff6d4d31a4c82f19c015f559c04dd4057f022bb946256346c992136723b44c",
    ("e3", 0.0, "proposed", 3): "edccabbacb8c5981b3310abf37020418d20eb89d42800927133ddff861d7add2",
    ("e3", 0.0, "proposed", 4): "d1924e885cbcc1fe9937a1d36c0f2da342e7c333b0288785173a5669f5d840f4",
    ("e3", 0.0, "proposed", 5): "9dbdb39a5bd0f274b108afbd51338d975e623af861b10efaec8529ed5fb0ccd5",
    ("e3", 0.0, "single", 1): "15d82ab80a0edcd20f8f7239dee00406bf13b9e12d2ce536089f18bf63d7f181",
    ("e3", 0.0, "single", 2): "5eff6d4d31a4c82f19c015f559c04dd4057f022bb946256346c992136723b44c",
    ("e3", 0.0, "single", 3): "edccabbacb8c5981b3310abf37020418d20eb89d42800927133ddff861d7add2",
    ("e3", 0.0, "single", 4): "d1924e885cbcc1fe9937a1d36c0f2da342e7c333b0288785173a5669f5d840f4",
    ("e3", 0.0, "single", 5): "9dbdb39a5bd0f274b108afbd51338d975e623af861b10efaec8529ed5fb0ccd5",
    ("e3", 0.02, "proposed", 1): "64c38c5e6ae0a805810e577d748f52e14d642a0dd78cf8ab2e76f6478756c35e",
    ("e3", 0.02, "proposed", 2): "21aec0d4b62c173e0f869d24c1f0ba098aded52e8dccae996e281554ddfda7f4",
    ("e3", 0.02, "proposed", 3): "7a0463c595c0b2e431eb8c1b3138785d9fac83576137ed1b1c4baf2660fbf696",
    ("e3", 0.02, "proposed", 4): "687e3af0012299e402c3a64f1189119fbde6ae92aa9c2903927438579afb75c1",
    ("e3", 0.02, "proposed", 5): "6054bec684ae969b5fd0a161e72c47e2525ffcf9c84a5ba1ffedbc0ce46a809a",
    ("e3", 0.02, "single", 1): "e531fda877739b4a1cdf667b8d29aaa834dd0612a08d6eb2e2eb1ba962992631",
    ("e3", 0.02, "single", 2): "73c2ad2b009e7ff0f33862e783750b522a948b2ee18e74e541c3f9233436edbf",
    ("e3", 0.02, "single", 3): "f4287dc7d69d5073ab18fe10fd25d29f3b893eb27304933c950e633332de4930",
    ("e3", 0.02, "single", 4): "960550594755d681fe4b87e00f9382ce5225da8588b77385593f9acbe101b8ae",
    ("e3", 0.02, "single", 5): "ff74a8cec7f2e48592225b7e653d3bc172c57dd33ab2b0274fa8b7d53c70d2cc",
    ("e3", 0.04, "proposed", 1): "f1a1931755b47d3b6edbb3e6c9dafecd1ebb75ee73578e8eb0b19d8fcb46271c",
    ("e3", 0.04, "proposed", 2): "0811666e3564fce2f6244a19085987bda8798dfc10e06ef11f8bdeb53d1e913f",
    ("e3", 0.04, "proposed", 3): "12cf6a6776d9b24711609f4d758b15c3546c65edad3291a717031fcd2fe99385",
    ("e3", 0.04, "proposed", 4): "b9cbe45ae02e1326786d93db55a636848030a5628b3fed2caf4baccca82bdb25",
    ("e3", 0.04, "proposed", 5): "42762e2420e2872ef6657ec9f2285b046ae08dc66239c6a4889d4a66f4da01d1",
    ("e3", 0.04, "single", 1): "77b9b7ee19266e4b11b0876cde6a47b44ef4d72db044969cfd19cdcf31f74404",
    ("e3", 0.04, "single", 2): "b030ec7be9e8f88d7db6e50d3e0d0ee4ad5ef2ec7b5e6b9e350ef42040469d0c",
    ("e3", 0.04, "single", 3): "2ba5139c52cf702fc91b829d857df7a4ac85e48389dbf3c57b6830a15ff2e866",
    ("e3", 0.04, "single", 4): "9f7c19e2e337f5bcd4605fa99134cc9659b3ea1ecad4b532c2c681496cf9f7e2",
    ("e3", 0.04, "single", 5): "11a759260b024174c4f8ded9fe90d33986179b3c071b195bb599d343790005c5",
    ("e3", 0.06, "proposed", 1): "f6f618d870ffdfc8b4721c89cf7b744b0932ff3bf85cda591662947d9b06077d",
    ("e3", 0.06, "proposed", 2): "f727d93e1d7ae4c4ab75c44df58f92d981ea953e5ae785d50e2127f08d89f2df",
    ("e3", 0.06, "proposed", 3): "747494250c7a3101171fcfdd09b87368deacda8529dc135cb2b97149ed1b559e",
    ("e3", 0.06, "proposed", 4): "1dc40b9128af24c49141897488c5e610db72871efe005fc13f098a4d92aa8e8a",
    ("e3", 0.06, "proposed", 5): "26c82e53e838e888bb8c420809ae8101d58a45fe9dce8eee2aeb65ee1e8d697a",
    ("e3", 0.06, "single", 1): "dfb979a908df3a5478345f3edcccc897cdca60a40714b58dd59ccd51d751d55e",
    ("e3", 0.06, "single", 2): "613da5264c57ddb99231c51badd44076e9bdc08fc88774c7b84d83cb599bbe3d",
    ("e3", 0.06, "single", 3): "f7c83d13fae5a23135b555be5fa914a660f052e4c584835787bdb8f77d1d87a0",
    ("e3", 0.06, "single", 4): "a30b9cf3682a0f26362d5762593d064aa120c2a4e69dc449e11eda647568fbfb",
    ("e3", 0.06, "single", 5): "a7f0701b95fe82d3b5004f2e4a0163d38883091b3439dd2a370dea9cc9d300bd",
    ("e3", 0.08, "proposed", 1): "dee7967519ceee642bc7c9fbb54c5011e950ab53dbccc6e0e958e2ef894a2ca2",
    ("e3", 0.08, "proposed", 2): "681a74d9f7c5d8bd15a1d89401c841422f2f7ddaa5ced8d9ea515f43ea87f858",
    ("e3", 0.08, "proposed", 3): "bf9465282d0882f6d64110600f11a8ca64af985b23f31311741698705b70cde7",
    ("e3", 0.08, "proposed", 4): "546d9f5a105aa5edd84255a0155a9434f6aa6b55203302def9bb7be9bfecc135",
    ("e3", 0.08, "proposed", 5): "c40b793a26f58b08a62575e57eb9d454cddcce005c6a15402e7c1c37b3bb0b95",
    ("e3", 0.08, "single", 1): "8c084ab7b6600af1558872f5cca301dc0a4fbb214a6cefa9204a9958304818ca",
    ("e3", 0.08, "single", 2): "9136c6cefed369d700068d1d1b88f4712ddde9062a5e5edede25d95bc4877a5c",
    ("e3", 0.08, "single", 3): "4288c5669efa9e12f67b93ca69331822f0af5a8d944408006f87e18305111deb",
    ("e3", 0.08, "single", 4): "a3eb7b58eca7900b4a45297309214b6a59fc04c25c417886d640df2f48f0c849",
    ("e3", 0.08, "single", 5): "4eea46c5db122215e5a6a010c1e6a7b5f08731ed798318a891c0afeefd3883a3",
    ("e3", 0.1, "proposed", 1): "22b4dac6212666d7893ea2b1f47dc5c80da7a851200a3cf6c66bfbc2cef20cfb",
    ("e3", 0.1, "proposed", 2): "e471475545e9080c97c633e3c5acbcd1ad0cd18474c588e0d6684a3aefecbcf3",
    ("e3", 0.1, "proposed", 3): "2581cc69f02925982ceeeed31a65084c1cf6f48898b43b0ae5abc043a02148ce",
    ("e3", 0.1, "proposed", 4): "f726ddcd458d680cd206d0c5612512e167c31bbf7bf34f492cdfcebab67b2123",
    ("e3", 0.1, "proposed", 5): "9d5509d0d524682b428b8b79c046e8ece78ec3b47af660db1c980e01cea1e143",
    ("e3", 0.1, "single", 1): "49da65ceb9b5d40e045b63f18ac55e51fb896d2d8b3e2da259572d5acedc27e3",
    ("e3", 0.1, "single", 2): "db53ada87d92500c4d541cdc28be3b2fefd3d168fab2788fa303f64a71d601ab",
    ("e3", 0.1, "single", 3): "9e3eabb731144253e9582207bb66c4977784128df11863d2bc565f1d08346d6c",
    ("e3", 0.1, "single", 4): "7c71a63e3b59476cf8ae5cd6655ac21b0721f98acdfbc3a35ec2c292f1530bb1",
    ("e3", 0.1, "single", 5): "87a3fd17854c0b853f2bce32a05e70cfecbec0264949a7c8bd5bfa09c4307419",
    ("e6", 0.0, "proposed", 1): "bed532ad636ccae712d84681597d59df9c9eea37d31ddf3b85ab6278871ba3aa",
    ("e6", 0.0, "proposed", 2): "e28e54b696eed12bb214773b3ba6e95e650f13985075c93c2bc4c327b5a3fce0",
    ("e6", 0.0, "proposed", 3): "c2482ea5f3007c0b94acd2db5ebea81b795ee2646addc8dd31c3d72fb2d677a8",
    ("e6", 0.0, "proposed", 4): "33832aa6e87e758d5c080427fe24d105cd973430d2ce3b6f4a0691d592c23ac3",
    ("e6", 0.0, "proposed", 5): "bb84cf18125a07725ca7a9e119b5516e27d632e23aa2a28ae3a85b9d3a1b8c67",
    ("e6", 0.0, "peertrust", 1): "4a6b4d8b1df0211065b9fd7c38ff0f4738296b786df7c30c240a07b19a6454fb",
    ("e6", 0.0, "peertrust", 2): "6bcca53813b28b285d000ea7fcec771e33080e0dcf1dbd460f5d185935b5d3dd",
    ("e6", 0.0, "peertrust", 3): "804d6cc5facec50181ce72c3272a86081b50f94dcc9029972f1e71f459d14562",
    ("e6", 0.0, "peertrust", 4): "009be679e693a379bdc07a61bedcd3722a2b517b9470e10542148bc2a382514d",
    ("e6", 0.0, "peertrust", 5): "b5c7e7c4dec2d030bc04d41f7fafdfd4b53db225ede4f1832c1d8e442bc400d5",
    ("e6", 0.1, "proposed", 1): "70d958024bd8fbb5c9c8ad2e08d8b02492e5bb272dcbbed1151163a2db32036a",
    ("e6", 0.1, "proposed", 2): "6ab19028a284c8ac6540e23792305e94a34b35da533cef652c4ced77d038514d",
    ("e6", 0.1, "proposed", 3): "bc2d86d23564085864b477e44a0c967d9544955a9184d0693737396d3176f16d",
    ("e6", 0.1, "proposed", 4): "319dd1432d8673bb000700671d80b5be17dd5a7339e97f5a3436916e4147d12e",
    ("e6", 0.1, "proposed", 5): "9000bf35a480bdfc620fc93ce43b940f029f04716a73146fb204fa2ab9a89b0a",
    ("e6", 0.1, "peertrust", 1): "79c9a961bd48aa58adc3bac73e26d0213a44cfb88eb4bf558e007582dc26ab91",
    ("e6", 0.1, "peertrust", 2): "551dbd107fa887e50f28eb8c07868c4bccbe30b698bbd7c2b7d877944ea7b26d",
    ("e6", 0.1, "peertrust", 3): "dff284dcb9873836c23cfb8a6ab26515d98e65ce796381d5aeb5f0966d4c3065",
    ("e6", 0.1, "peertrust", 4): "9ebf52e114280a18026975f63fbc2e5fc76def618c14ca4fd07fbba046ec3918",
    ("e6", 0.1, "peertrust", 5): "6e5f32a38b2c6b346f406e9b0887d541b1e12f2d0da986461cc92670485b780e",
    ("e6", 0.2, "proposed", 1): "fc16029b0a7b112ea5a8b3e9b4c4ada9739e1169e39139d55775d6a2992cf55b",
    ("e6", 0.2, "proposed", 2): "3dc851800ed5742d62148bdd8f3bb28d92b462308ae01cdc287699f47ac40cef",
    ("e6", 0.2, "proposed", 3): "a057f1d475c38ab6c92dc73330cec08f2cd272d7d13aa8a8d8ba64614315048c",
    ("e6", 0.2, "proposed", 4): "a43ac3506baa6c8d4f8ac66bf51f19add29d25c681cb1dbc342d83d74187f33f",
    ("e6", 0.2, "proposed", 5): "e0fee704d966b721c4303526579aa838f8d618a2f0127d22844ae814c48677d4",
    ("e6", 0.2, "peertrust", 1): "41560c299eebe12c959207e744c95fc23a4233bb6d03d3fed6ee2dea0ad0b31b",
    ("e6", 0.2, "peertrust", 2): "7e3f9143ce563c1aea57e3b908bf2ad13aa1d4f3cb57b8c9cabb584927e9e03d",
    ("e6", 0.2, "peertrust", 3): "40b468c3bee06e31933944ba25773c8d99fb85d2cbdd4ceb71b72eb86a3203b4",
    ("e6", 0.2, "peertrust", 4): "343c6d8c407675be802430703b60d4eb0f7f1bdccd9a830ba5bbffa5df547b7b",
    ("e6", 0.2, "peertrust", 5): "6a3214b7f996e21855249a9d28a5b96835375f278ee1de694ec0680ca8362fc9",
    ("e6", 0.3, "proposed", 1): "e4789a2505f65669bea5c39fd74b38cc2a1a40d878b001f969ade7aa6b2a89a6",
    ("e6", 0.3, "proposed", 2): "f7ec24756d1d49ffebbfccbca7bfb884f7edcc449ad5f3f144e76844b2830fbb",
    ("e6", 0.3, "proposed", 3): "2aae90a6e070a5e073c1a2d34db826f19acc684eb18a5d83d8e0f5eeebd54cd4",
    ("e6", 0.3, "proposed", 4): "284d9d7a9edea8c6a9d853f88080a81f21b19d28d340677553ccf8a10e58be07",
    ("e6", 0.3, "proposed", 5): "abfadd33e3bf0faa1da020a5a3bc3ac094da3cb03665bb84d81e095ed02b76d3",
    ("e6", 0.3, "peertrust", 1): "18254d68428a38282ffc18431b9a40faf2bb378c8a2546e42a423bfab98da7ac",
    ("e6", 0.3, "peertrust", 2): "0a8f10c4bff49298c057c7be4509427c5d032a2a8e3259b0619f94c8b06ed599",
    ("e6", 0.3, "peertrust", 3): "5f4d9aca915f4b980fd2176343007170ff43076d46fb27d9abe76719eee0f8e5",
    ("e6", 0.3, "peertrust", 4): "7f5b2123aa42957bd65a7b66b3f1aac6e5f23e4204abcdaf0533ef6171790586",
    ("e6", 0.3, "peertrust", 5): "919dcfc40c1e7a6cff21a00cd66d1e47c11923589cc963bfaa0b64d6f771c524",
    ("e6", 0.4, "proposed", 1): "a3ba6cc2b607d76fa9a99406bc135bdb3c70fefd8bc265cd0ed980a134334740",
    ("e6", 0.4, "proposed", 2): "b5663f9bb5945fd8de106f66d6072ccacbbf9173be00153b3b34ef0bcbc4830f",
    ("e6", 0.4, "proposed", 3): "c604f96fb4d0bd249297a9e3bda5a216aa64b1d9a0d2208e1d5a951ecaa50bef",
    ("e6", 0.4, "proposed", 4): "a56912e6779a610a7304145e99ffef81f492a4c2c802331f305bf868d3fa3ad7",
    ("e6", 0.4, "proposed", 5): "f870d9ae31ace12ab8d5ec514fc4e3bcc4b6939c47a037e47388d8adf08b7dc2",
    ("e6", 0.4, "peertrust", 1): "124dfca7de4d73399255c87d019929d9518cf34bf4363ffce0e874d475193e7f",
    ("e6", 0.4, "peertrust", 2): "4dfaec7c64593a7c4839237d103ebd6b8a4d79a45648040311ae893444caa7e3",
    ("e6", 0.4, "peertrust", 3): "68ad5f1ecef257351d1269ceabf51e01ec65eca12899b7a5c34b241da54fac37",
    ("e6", 0.4, "peertrust", 4): "c6bba02b5872fcf120a3e8750f1c2b66043a38bb5bfcc0eb5b45f225adc48c66",
    ("e6", 0.4, "peertrust", 5): "d410bb5cd4f7abced93b74eba5399df72090e3c5f3768eb0ce46e0f76d7d2c4f",
    ("e6", 0.5, "proposed", 1): "649cbac6247cc435fefa6e44db51c2def6d087bc801ddf7fbc7d801a3426d982",
    ("e6", 0.5, "proposed", 2): "d300f6554ff7db72a3e5f728ea24b78e149cd8f6f4c3242483809f26f0f51c65",
    ("e6", 0.5, "proposed", 3): "fe830ef8028995909ec38263caa3897a1085c19c87a49591dd0debc9d45ac0fc",
    ("e6", 0.5, "proposed", 4): "2bf70904e0a5e34e1c5b07bf7b3e49e4661fc17e0943902878022ee05de17697",
    ("e6", 0.5, "proposed", 5): "51b7a3cb9030112a2a6de102dec41efc7706bfed415793753249f06f7f3d0975",
    ("e6", 0.5, "peertrust", 1): "7c5925f93a3cc7bc1d7907471d2307d911b81e0d6fea9a9584d87cd2340aa037",
    ("e6", 0.5, "peertrust", 2): "ec14b8fb75690598c52b085af7d4486825fe6a95de0edf427fabf18e6acbbeca",
    ("e6", 0.5, "peertrust", 3): "531177bd04e0a3684ad7472310d35e8ac2e3e160bcfbe76826ea0e009556b5ab",
    ("e6", 0.5, "peertrust", 4): "7b13a572fbf310db5128b531c275c18c0d8bbff7843ab0d5727fa8263172fe20",
    ("e6", 0.5, "peertrust", 5): "ca69bee90a3c821ae14f0de488047f058429d25a4ef9d7ac6718e739f9eab665",
}


def report_digest(report):
    text = repr((sorted(report.trajectories.items()), report.summary))
    return hashlib.sha256(text.encode()).hexdigest()
