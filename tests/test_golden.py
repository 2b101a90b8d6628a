"""Golden results: both paper presets at full horizon, pinned byte for byte.

Each preset runs with ``runs=2`` under its own root seed. The sha256 of
every artifact file and each filter's steady-state EMSE in dB are pinned,
so a refactor that claims to keep the numbers must keep these exactly. A
change that alters results on purpose re-pins them and says why.

Re-pinned once when the filters became run-batched: ``coherence-klms``
now predicts with a zero-padded pairwise sum instead of a BLAS dot, which
is the same bits whatever runs share its batch. That moved 9 stationary
and 2 nonstationary cells of its ``emse.csv`` column, by at most 1e-10 dB
in the written 12 digits; every other file, the RFF columns and all six
steady-state values kept their bits.
"""

import dataclasses
import hashlib

import pytest

from rfflms.config import preset
from rfflms.runner import export_artifacts, run_experiment

GOLDEN = {
    "stationary-paper": {
        "files": {
            "emse.csv": "950d4a26fdf9eed362b3a1199d0be93f48b1b5eae3be0f7fc41876d56681ce06",
            "model_size.csv": "6e6e157f68bd0f26ee744b14066bd12968171b721213dc9c3a4fc3680c15a136",
            "summary.csv": "62556779e0435e40bfa905fbb4dfc7a029611a7b2a07c884d7471804e3fa2703",
            "omega_snapshots.csv":
                "ada7e579eb506deae6fef50095aee05930803b0504359aa6ace10ddb0212b2c9",
            "manifest.json": "2ef82f2c78d9a94eb1e6af4b48892b80953b3b8cd84561f40a1f5eb9d3cc7420",
        },
        "steady_state_db": {
            "coherence-klms": -25.040055342176775,
            "rff": -26.646029374924424,
            "adaptive-rff": -30.289916497790884,
        },
    },
    "nonstationary-paper": {
        "files": {
            "emse.csv": "3e5de930e04656ea4f9fcdf45c568c95f5b35a89e49d16047bb125c6c10199fd",
            "model_size.csv": "bb13ed68c77abb23246f1872400665a9221de4c6a5d1da4776db44490afd5899",
            "summary.csv": "55fa93f69890a68fb7052c8cc33f105de8695754d325aee670094eddf29f7528",
            "omega_snapshots.csv":
                "d22d365e3dcbb1d54bb6a8023dbe6c00d0890bff4e745c74f8b55a61429463d3",
            "manifest.json": "2b139fa639b1e61eb376a814eea0963462ffb68a8022ca2b63a19cd8b94db196",
        },
        "steady_state_db": {
            "coherence-klms": -6.171621183611808,
            "rff": -7.537900836760292,
            "adaptive-rff": -9.947050259692524,
        },
    },
}


def run_and_hash(name: str, workers: int, out_dir):
    art = run_experiment(dataclasses.replace(preset(name), runs=2), workers=workers)
    export_artifacts(art, out_dir)
    hashes = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
              for f in GOLDEN[name]["files"]}
    return art, hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_artifacts_match_golden(name, tmp_path):
    art, hashes = run_and_hash(name, 1, tmp_path)
    assert hashes == GOLDEN[name]["files"]
    steady_db = {lab: row["steady_state_emse_db"] for lab, row in art.summary().items()}
    assert steady_db == GOLDEN[name]["steady_state_db"]


def test_two_workers_write_the_golden_bytes(tmp_path):
    _, hashes = run_and_hash("nonstationary-paper", 2, tmp_path)
    assert hashes == GOLDEN["nonstationary-paper"]["files"]
