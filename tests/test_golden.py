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

One pin set per numpy dispatch class. numpy picks a SIMD kernel per CPU
feature set at run time, and the kernels of one function can differ in
their last bits: float64 ``exp`` and ``log10`` differ between the AVX512
(``X86_V4``) and the AVX2 (``X86_V3``) class, float32 ``cos`` and
``sin`` do not, but change again below ``X86_V3``. ``dispatch_class``
names the class of this process from numpy's ``__cpu_features__``. On an
AVX512 host the AVX2 class is also run in a subprocess under numpy's own
switch, ``AVX2_SWITCH``. Both classes' sets were made with numpy 2.4 on
one AVX512 host, the ``AVX2`` one under that switch. They differ only in
``emse.csv``, whose dB cells go through ``log10``.

The pins are keyed by OpenBLAS's core as well. The RFF engine's ``matmul``
and ``vecdot`` run in numpy's bundled OpenBLAS, which also picks its
kernels per CPU at run time, and its ``Haswell`` kernels (what it runs on
AVX2-only CPUs; it maps ``Zen`` to them) give other last bits than its
``SkylakeX`` ones: the stationary ``rff`` steady state reads
-26.646029546950842 on ``Haswell`` against -26.646029747163528 on
``SkylakeX``. ``blas_core`` names the core of this process, and a (class,
core) pair with no pins fails, naming both. The two sets above were made
on ``SkylakeX``, so the ``AVX2`` one matched no real AVX2 host; the two
``Haswell`` sets were made on the same host and code under
``OPENBLAS_CORETYPE=Haswell``, OpenBLAS's own switch. They differ from the
``SkylakeX`` ones in ``emse.csv``, ``summary.csv`` and
``omega_snapshots.csv`` and in both RFF filters' steady states, never in
``coherence-klms``'s. The AVX2 class at each core this host runs, and
this process's class at its other cores, run in subprocesses
(``subprocess_cases``).

Re-pinned once more when ``rff`` and ``adaptive-rff`` began to compute in
float32 (see ``rfflms.filters``). ``model_size.csv`` and
``manifest.json`` kept their bits. The other files moved (sha256 prefix,
old ``AVX512_SKX`` pin → new):

====================  ============  ============  ============  ============
file                  stationary                  nonstationary
====================  ============  ============  ============  ============
emse.csv              950d4a26fdf9  eed343c5a05e  3e5de930e046  25ae6bea505e
summary.csv           62556779e043  c87926a2a0fe  55fa93f69890  87ec1e2fc6c5
omega_snapshots.csv   ada7e579eb50  562ab9959d48  d22d365e3dcb  6dfda69637a9
====================  ============  ============  ============  ============

``omega_snapshots.csv`` now holds the float32 frequencies of both RFF
filters. The steady-state EMSE in dB, float64 → float32 engine:

=================  ===================  ===================
preset, filter     float64 (old pin)    float32 (new pin)
=================  ===================  ===================
stationary rff     -26.646029374924424  -26.646029747163528
stationary arff    -30.289916497790884  -30.289915058301318
nonstat. rff       -7.537900836760292   -7.537900444576456
nonstat. arff      -9.947050259692524   -9.947053063731842
=================  ===================  ===================

The ``coherence-klms`` values, -25.040055342176775 and
-6.171621183611808, kept their bits.

Re-pinned when ``nonstationary-paper``'s ``steady_window`` went from 5000
to 2000, steps [8000, 10000): its old window opened at the regime change,
so it measured tracking. Only that preset's ``summary.csv`` (6a15ebb6326c
from 87ec1e2fc6c5) and ``manifest.json`` (307003594292 from 2b139fa639b1)
moved, in both classes, with its steady-state EMSE in dB:

===============  ===================  ===================
filter           window 5000 (old)    window 2000 (new)
===============  ===================  ===================
coherence-klms   -6.171621183611808   -15.743811627669873
rff              -7.537900444576456   -18.81474632957913
adaptive-rff     -9.947053063731842   -19.46517285129509
===============  ===================  ===================

The ``AVX2`` class's new ``coherence-klms`` value ends in ...87 instead.
Its float64 ``exp`` gives that filter's EMSE curve other last bits, whose
mean over the old window happened to agree and over the new one is one
ulp apart.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath
from numpy._core._multiarray_umath import __cpu_features__

import rfflms
from rfflms.config import preset
from rfflms.runner import export_artifacts, run_experiment

# numpy's switch to its AVX2 kernels on an AVX512 host; names that this
# numpy does not dispatch on are ignored, with an ImportWarning
AVX2_SWITCH = ("AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR "
               "X86_V4")

# OpenBLAS cores whose CPUs also run its Haswell kernels
HASWELL_SUPERSETS = ("SkylakeX", "Cooperlake", "SapphireRapids")

FILES = ("emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv", "manifest.json")

GOLDEN = {
    ("AVX512_SKX", "SkylakeX"): {
        "stationary-paper": {
            "files": {
                "emse.csv": "eed343c5a05e9857ba83d5ab9bbb3a0985daf09bd24710e02deb53a8673c5f21",
                "model_size.csv":
                    "6e6e157f68bd0f26ee744b14066bd12968171b721213dc9c3a4fc3680c15a136",
                "summary.csv": "c87926a2a0febe173e6de0743ddd01af5acc09f07e8e8154aa76ef2c113df551",
                "omega_snapshots.csv":
                    "562ab9959d480626224cd0271cee3f20a28903ad8b762b1b8c861faaff3b2930",
                "manifest.json":
                    "2ef82f2c78d9a94eb1e6af4b48892b80953b3b8cd84561f40a1f5eb9d3cc7420",
            },
            "steady_state_db": {
                "coherence-klms": -25.040055342176775,
                "rff": -26.646029747163528,
                "adaptive-rff": -30.289915058301318,
            },
        },
        "nonstationary-paper": {
            "files": {
                "emse.csv": "25ae6bea505e9e67e72c33a037ca9894e3d3c349f31b213e0f59db6a1cdb95d6",
                "model_size.csv":
                    "bb13ed68c77abb23246f1872400665a9221de4c6a5d1da4776db44490afd5899",
                "summary.csv": "6a15ebb6326c1ecf15956db1a476e4681cf2759d6f4d4e37197c9b950298de86",
                "omega_snapshots.csv":
                    "6dfda69637a9cd91414d2b14a42e8eb18169abb07b976f2fe72076539a36a0af",
                "manifest.json":
                    "307003594292d83943c95c15997912eb6f5ead06f08ece6d068e97331d7c688b",
            },
            "steady_state_db": {
                "coherence-klms": -15.743811627669873,
                "rff": -18.81474632957913,
                "adaptive-rff": -19.46517285129509,
            },
        },
    },
    ("AVX2", "SkylakeX"): {
        "stationary-paper": {
            "files": {
                "emse.csv": "24e27c1a6259af8b8974afdbbadff2d4fd788a1a69aac381c1e0b6f037b0ce86",
                "model_size.csv":
                    "6e6e157f68bd0f26ee744b14066bd12968171b721213dc9c3a4fc3680c15a136",
                "summary.csv": "c87926a2a0febe173e6de0743ddd01af5acc09f07e8e8154aa76ef2c113df551",
                "omega_snapshots.csv":
                    "562ab9959d480626224cd0271cee3f20a28903ad8b762b1b8c861faaff3b2930",
                "manifest.json":
                    "2ef82f2c78d9a94eb1e6af4b48892b80953b3b8cd84561f40a1f5eb9d3cc7420",
            },
            "steady_state_db": {
                "coherence-klms": -25.040055342176775,
                "rff": -26.646029747163528,
                "adaptive-rff": -30.289915058301318,
            },
        },
        "nonstationary-paper": {
            "files": {
                "emse.csv": "cf13b89a187d8fd4f282c81448d88dd06ac1f4e717415165ae100051c5d291bf",
                "model_size.csv":
                    "bb13ed68c77abb23246f1872400665a9221de4c6a5d1da4776db44490afd5899",
                "summary.csv": "6a15ebb6326c1ecf15956db1a476e4681cf2759d6f4d4e37197c9b950298de86",
                "omega_snapshots.csv":
                    "6dfda69637a9cd91414d2b14a42e8eb18169abb07b976f2fe72076539a36a0af",
                "manifest.json":
                    "307003594292d83943c95c15997912eb6f5ead06f08ece6d068e97331d7c688b",
            },
            "steady_state_db": {
                "coherence-klms": -15.74381162766987,
                "rff": -18.81474632957913,
                "adaptive-rff": -19.46517285129509,
            },
        },
    },
    ("AVX512_SKX", "Haswell"): {
        "stationary-paper": {
            "files": {
                "emse.csv": "01ea7be20592bdfaea2200227aa776a1a6001f5f7005430bb3b388093c5c5550",
                "model_size.csv":
                    "6e6e157f68bd0f26ee744b14066bd12968171b721213dc9c3a4fc3680c15a136",
                "summary.csv": "39f84e967610a8e3c9f809bf228d661fbd9d109a3bea00dfd6a036c3c619ea27",
                "omega_snapshots.csv":
                    "32d073b0b5ba94b807e4475621cefedaeb5f517eb97cc600fb015ea768f2aea1",
                "manifest.json":
                    "2ef82f2c78d9a94eb1e6af4b48892b80953b3b8cd84561f40a1f5eb9d3cc7420",
            },
            "steady_state_db": {
                "coherence-klms": -25.040055342176775,
                "rff": -26.646029546950842,
                "adaptive-rff": -30.28991559793438,
            },
        },
        "nonstationary-paper": {
            "files": {
                "emse.csv": "801f67a458019b818282f1fb351fa689f6c347da4d52d6f3dbc0958626b956ee",
                "model_size.csv":
                    "bb13ed68c77abb23246f1872400665a9221de4c6a5d1da4776db44490afd5899",
                "summary.csv": "33839c7b42a06c71bc80e8071833759740ddf46ed4ef5ee99b4b4e448a0b7ae9",
                "omega_snapshots.csv":
                    "2ceb53cd5a631eb90fdde9dbbadbed8398e100c3d9416671a828db0c332f9799",
                "manifest.json":
                    "307003594292d83943c95c15997912eb6f5ead06f08ece6d068e97331d7c688b",
            },
            "steady_state_db": {
                "coherence-klms": -15.743811627669873,
                "rff": -18.814745484805556,
                "adaptive-rff": -19.465172965967376,
            },
        },
    },
    ("AVX2", "Haswell"): {
        "stationary-paper": {
            "files": {
                "emse.csv": "4f4f44a5fbee1f8fe4cf4a338ee55ad2807ef023db2f6918a97bcfbcb0f190a9",
                "model_size.csv":
                    "6e6e157f68bd0f26ee744b14066bd12968171b721213dc9c3a4fc3680c15a136",
                "summary.csv": "39f84e967610a8e3c9f809bf228d661fbd9d109a3bea00dfd6a036c3c619ea27",
                "omega_snapshots.csv":
                    "32d073b0b5ba94b807e4475621cefedaeb5f517eb97cc600fb015ea768f2aea1",
                "manifest.json":
                    "2ef82f2c78d9a94eb1e6af4b48892b80953b3b8cd84561f40a1f5eb9d3cc7420",
            },
            "steady_state_db": {
                "coherence-klms": -25.040055342176775,
                "rff": -26.646029546950842,
                "adaptive-rff": -30.28991559793438,
            },
        },
        "nonstationary-paper": {
            "files": {
                "emse.csv": "e639e86be6de3741175d130c8903e6cafb30b836118fd76dc7e917ba38d41df5",
                "model_size.csv":
                    "bb13ed68c77abb23246f1872400665a9221de4c6a5d1da4776db44490afd5899",
                "summary.csv": "33839c7b42a06c71bc80e8071833759740ddf46ed4ef5ee99b4b4e448a0b7ae9",
                "omega_snapshots.csv":
                    "2ceb53cd5a631eb90fdde9dbbadbed8398e100c3d9416671a828db0c332f9799",
                "manifest.json":
                    "307003594292d83943c95c15997912eb6f5ead06f08ece6d068e97331d7c688b",
            },
            "steady_state_db": {
                "coherence-klms": -15.74381162766987,
                "rff": -18.814745484805556,
                "adaptive-rff": -19.465172965967376,
            },
        },
    },
}


def dispatch_class() -> str:
    """numpy's SIMD dispatch class of this process: "AVX512_SKX", "AVX2"
    (a numpy that names ``X86_V3`` must have it on), or "baseline"."""
    if __cpu_features__.get("AVX512_SKX"):
        return "AVX512_SKX"
    if __cpu_features__.get("X86_V3", __cpu_features__.get("AVX2")
                            and __cpu_features__.get("FMA3")):
        return "AVX2"
    return "baseline"


def blas_core() -> str:
    """The core whose kernels numpy's bundled OpenBLAS runs in this process,
    as OpenBLAS names it ("SkylakeX", "Haswell", ...), or "unknown" when
    numpy's BLAS does not say."""
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pins(cls: str, core: str) -> dict:
    assert (cls, core) in GOLDEN, (f"no golden pins for numpy's dispatch class {cls!r} with "
                                   f"OpenBLAS's core {core!r}; pinned: {sorted(GOLDEN)}")
    return GOLDEN[cls, core]


def subprocess_cases() -> list[tuple[str, str]]:
    """The (class, core) pairs to run in a subprocess: the AVX2 class at
    each core this host runs, and this process's class at its other ones.
    A host whose OpenBLAS runs a core of ``HASWELL_SUPERSETS`` also runs
    Haswell's."""
    cls, core = dispatch_class(), blas_core()
    cores = [core, "Haswell"] if core in HASWELL_SUPERSETS else [core]
    others = [(cls, c) for c in cores if cls != "AVX2" and c != core]
    return [("AVX2", c) for c in cores] + others


def run_and_hash(name: str, workers: int, out_dir: Path) -> dict:
    """The preset's pinned quantities: file hashes and steady-state dB."""
    art = run_experiment(dataclasses.replace(preset(name), runs=2), workers=workers)
    export_artifacts(art, out_dir)
    return {
        "files": {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in FILES},
        "steady_state_db": {lab: row["steady_state_emse_db"]
                            for lab, row in art.summary().items()},
    }


def all_presets(out_dir: Path) -> dict:
    """``run_and_hash`` of both presets, serially, with this process's class
    and core."""
    results = {"class": dispatch_class(), "core": blas_core()}
    for name in ("nonstationary-paper", "stationary-paper"):
        (out_dir / name).mkdir()
        results[name] = run_and_hash(name, 1, out_dir / name)
    return results


@pytest.mark.parametrize("name", ["nonstationary-paper", "stationary-paper"])
def test_preset_artifacts_match_golden(name, tmp_path):
    assert run_and_hash(name, 1, tmp_path) == pins(dispatch_class(), blas_core())[name]


def test_two_workers_write_the_golden_bytes(tmp_path):
    hashes = run_and_hash("nonstationary-paper", 2, tmp_path)["files"]
    assert hashes == pins(dispatch_class(), blas_core())["nonstationary-paper"]["files"]


@pytest.mark.parametrize(("cls", "core"), subprocess_cases())
def test_each_class_and_core_matches_its_pins_in_a_subprocess(cls, core, tmp_path):
    # the AVX2 class under numpy's switch, which on a host without AVX512
    # changes nothing, and another core under OpenBLAS's own switch
    code = ("import json, sys, pathlib, test_golden; "
            "print(json.dumps(test_golden.all_presets(pathlib.Path(sys.argv[1]))))")
    path = os.pathsep.join([str(Path(rfflms.__file__).parents[1]), str(Path(__file__).parent)])
    env = {**os.environ, "PYTHONPATH": path}
    if cls == "AVX2":
        env["NPY_DISABLE_CPU_FEATURES"] = AVX2_SWITCH
    if core != blas_core():
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert (results.pop("class"), results.pop("core")) == (cls, core)
    assert results == {name: pins(cls, core)[name] for name in results}


@pytest.mark.parametrize(("cls", "core"), [("baseline", "SkylakeX"), ("AVX2", "Sandybridge")])
def test_a_class_without_pins_fails_naming_it(cls, core):
    with pytest.raises(AssertionError, match=f"{cls!r} with OpenBLAS's core {core!r}"):
        pins(cls, core)
