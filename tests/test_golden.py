"""Golden results: every preset at full horizon, pinned byte for byte.

Each preset of ``list_presets()`` runs with ``runs=2`` under its own root
seed. The sha256 of every artifact file and each filter's steady-state
EMSE in dB are pinned in ``golden.json``, so a refactor that claims to
keep the numbers must keep these exactly. A preset with no pins fails,
naming itself.

Running this module writes the pins: ``PYTHONPATH=src python
tests/test_golden.py``. It runs every preset in each (class, core) set
this host can make, in this process and in ``subprocess_cases``. It
replaces those sets in ``golden.json``, keeps the others, and prints
every pinned value that moved, old -> new. A change that moves pins on
purpose says in CHANGES.md which moved and why.

One pin set per numpy dispatch class. numpy picks a SIMD kernel per CPU
feature set at run time, and the kernels of one function can differ in
their last bits: float64 ``exp`` and ``log10`` differ between the AVX512
(``X86_V4``) and the AVX2 (``X86_V3``) class, float32 ``cos`` and
``sin`` do not, but change again below ``X86_V3``. ``dispatch_class``
names the class of this process from numpy's ``__cpu_features__``. On an
AVX512 host the AVX2 class is also run in a subprocess under numpy's own
switch, ``AVX2_SWITCH``.

The pins are keyed by OpenBLAS's core as well. The RFF engine's ``matmul``
and ``vecdot`` run in numpy's bundled OpenBLAS, which also picks its
kernels per CPU at run time, and its ``Haswell`` kernels (what it runs on
AVX2-only CPUs; it maps ``Zen`` to them) give other last bits than its
``SkylakeX`` ones. ``blas_core`` names the core of this process, and a
(class, core) pair with no pins fails, naming both. A host whose core
also runs Haswell's kernels runs them in a subprocess under
``OPENBLAS_CORETYPE=Haswell``, OpenBLAS's own switch. So the AVX2 class
at each core this host runs, and this process's class at its other
cores, run in subprocesses (``subprocess_cases``), and an AVX512
``SkylakeX`` host makes all four sets.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath
from numpy._core._multiarray_umath import __cpu_features__

import rfflms
from rfflms.config import list_presets, preset
from rfflms.runner import export_artifacts, run_experiment

# numpy's switch to its AVX2 kernels on an AVX512 host; names that this
# numpy does not dispatch on are ignored, with an ImportWarning
AVX2_SWITCH = ("AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR "
               "X86_V4")

# OpenBLAS cores whose CPUs also run its Haswell kernels
HASWELL_SUPERSETS = ("SkylakeX", "Cooperlake", "SapphireRapids")

FILES = ("emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv", "manifest.json")

# class -> core -> preset -> {"files": {file: sha256}, "steady_state_db": {column: dB}}
GOLDEN_PATH = Path(__file__).with_name("golden.json")


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


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def pins(cls: str, core: str) -> dict:
    sets = golden()
    assert core in sets.get(cls, {}), (
        f"no golden pins for numpy's dispatch class {cls!r} with OpenBLAS's core {core!r}; "
        f"pinned: {sorted((c, k) for c in sets for k in sets[c])}")
    return sets[cls][core]


def preset_pins(cls: str, core: str, name: str) -> dict:
    presets = pins(cls, core)
    assert name in presets, (f"no golden pins for preset {name!r} in the set of numpy's "
                             f"dispatch class {cls!r} with OpenBLAS's core {core!r}; "
                             f"run tests/test_golden.py to pin it")
    return presets[name]


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
    """``run_and_hash`` of every preset, serially, with this process's class
    and core."""
    results = {"class": dispatch_class(), "core": blas_core()}
    for name in list_presets():
        (out_dir / name).mkdir()
        results[name] = run_and_hash(name, 1, out_dir / name)
    return results


def all_presets_in_subprocess(cls: str, core: str, out_dir: Path) -> dict:
    """``all_presets`` in a subprocess: the AVX2 class under numpy's switch,
    which on a host without AVX512 changes nothing, and another core under
    OpenBLAS's own switch."""
    code = ("import json, sys, pathlib, test_golden; "
            "print(json.dumps(test_golden.all_presets(pathlib.Path(sys.argv[1]))))")
    path = os.pathsep.join([str(Path(rfflms.__file__).parents[1]), str(Path(__file__).parent)])
    env = {**os.environ, "PYTHONPATH": path}
    if cls == "AVX2":
        env["NPY_DISABLE_CPU_FEATURES"] = AVX2_SWITCH
    if core != blas_core():
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cells(sets: dict) -> dict:
    """Every pinned value of ``sets``, keyed by its path: (class, core,
    preset, "files" or "steady_state_db", file or column)."""
    return {(cls, core, name, group, key): value
            for cls, cores in sets.items() for core, presets in cores.items()
            for name, pinned in presets.items() for group, values in pinned.items()
            for key, value in values.items()}


def write_pins() -> None:
    """Pin every preset in each (class, core) set this host can make, keep
    the other stored sets, and print every value that moved."""
    sets = golden() if GOLDEN_PATH.exists() else {}
    before = cells(sets)
    here = (dispatch_class(), blas_core())
    with tempfile.TemporaryDirectory() as tmp:
        made = [all_presets(Path(tempfile.mkdtemp(dir=tmp)))]
        made += [all_presets_in_subprocess(cls, core, Path(tempfile.mkdtemp(dir=tmp)))
                 for cls, core in subprocess_cases() if (cls, core) != here]
    for results in made:
        cls, core = results.pop("class"), results.pop("core")
        sets.setdefault(cls, {})[core] = results
        print(f"pinned {len(results)} presets for numpy's dispatch class {cls!r} "
              f"with OpenBLAS's core {core!r}")
    after = cells(sets)
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            print(f"{' '.join(key)}: {before.get(key)} -> {after.get(key)}")
    GOLDEN_PATH.write_text(json.dumps(sets, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", list_presets())
def test_preset_artifacts_match_golden(name, tmp_path):
    assert run_and_hash(name, 1, tmp_path) == preset_pins(dispatch_class(), blas_core(), name)


def test_two_workers_write_the_golden_bytes(tmp_path):
    hashes = run_and_hash("nonstationary-paper", 2, tmp_path)["files"]
    assert hashes == preset_pins(dispatch_class(), blas_core(), "nonstationary-paper")["files"]


@pytest.mark.parametrize(("cls", "core"), subprocess_cases())
def test_each_class_and_core_matches_its_pins_in_a_subprocess(cls, core, tmp_path):
    results = all_presets_in_subprocess(cls, core, tmp_path)
    assert (results.pop("class"), results.pop("core")) == (cls, core)
    assert results == {name: preset_pins(cls, core, name) for name in results}


@pytest.mark.parametrize(("cls", "core"), [("baseline", "SkylakeX"), ("AVX2", "Sandybridge")])
def test_a_class_without_pins_fails_naming_it(cls, core):
    with pytest.raises(AssertionError, match=f"{cls!r} with OpenBLAS's core {core!r}"):
        pins(cls, core)


@pytest.mark.parametrize("name", list_presets())
def test_every_stored_set_pins_every_file_and_filter_of_the_preset(name):
    # a runner checks the one or two sets it can make; this checks them all
    columns = sorted(spec.column for spec in preset(name).filters)
    for cls, cores in golden().items():
        for core in cores:
            pinned = preset_pins(cls, core, name)
            assert sorted(pinned) == ["files", "steady_state_db"]
            assert sorted(pinned["files"]) == sorted(FILES)
            assert all(isinstance(h, str) and len(h) == 64 for h in pinned["files"].values())
            assert sorted(pinned["steady_state_db"]) == columns
            assert all(isinstance(v, float) for v in pinned["steady_state_db"].values())


if __name__ == "__main__":
    write_pins()
