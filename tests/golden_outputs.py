"""The sha256 of every file the CLI writes, for a small config and its variants.

``digests(workdir)`` runs ``run``, ``eval --trace``, ``calibrate``,
``compare --all-measures``, ``sweep`` on both axes, ``scenarios`` and
``wire-test`` once per config in ``VARIANTS`` and returns the digest of each
file written, keyed by ``variant/command/file``. The base config is the one
the c10 determinism check uses; each variant changes one setting the default
run never exercises.

The pinned digests in ``tests/data/golden_outputs.json`` hold only for the
numpy and scipy versions recorded there, and for the OpenBLAS kernels their
bundled libraries run: another kernel sums in another order, which moves the
GPR weights (``dgetrf``/``dgetrs``, in scipy's OpenBLAS) in their last bits.
So ``pinned_outputs`` computes the digests in a child interpreter that runs
both libraries on the ``Haswell`` kernel, which every x86-64 host with AVX2
has, whatever kernel OpenBLAS would pick for the CPU. A change that alters an
output on purpose rewrites the file with

    PYTHONPATH=src python tests/golden_outputs.py

and names each changed file; a change that keeps every output leaves it as
it is.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from ledgaze.cli import main
from ledgaze.session import SessionConfig

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "data" / "golden_outputs.json"
# The OpenBLAS kernel the digests are computed on; OpenBLAS reads the
# variable when it loads, so it is set before a fresh interpreter starts.
PINNED_CORETYPE = "Haswell"

SMALL_CONFIG = dict(seed=10, grid_rows=3, grid_cols=3, augment_points=5,
                    eval_fixations=8, fix_duration_ms=400.0,
                    eval_fixation_min_ms=300.0, eval_fixation_max_ms=500.0,
                    augment_dwell_ms=200.0, task_count=5, task_dwell_ms=700.0)

VARIANTS = {
    "base": {},
    "prototype2": {"layout_mode": "prototype2"},
    "svr": {"estimator": "svr"},
    "cosine": {"measure_kind": "cosine"},
    "rbf_squared": {"rbf_squared": True},
}

# Each command's arguments after the subcommand; "{log}" is the run's session log.
COMMANDS = {
    "run": ["run"],
    "eval": ["eval", "--log", "{log}", "--trace"],
    "calibrate": ["calibrate"],
    "compare": ["compare", "--all-measures"],
    "sweep_led_count": ["sweep", "--axis", "led_count", "--values", "4,12"],
    "sweep_calibration_points": ["sweep", "--axis", "calibration_points", "--values", "4,9"],
    "scenarios": ["scenarios", "--seeds", "1"],
    "wire_test": ["wire-test", "--frames", "500"],
}


def openblas_core(package, library: str, function: str) -> str:
    """The kernel name, such as ``SkylakeX``, that the OpenBLAS bundled with ``package`` runs.

    ``library`` is the glob of its file in the wheel's ``<package>.libs``
    folder, and ``function`` its ``get_corename`` export; a build without
    that file reads ``"not found"``.
    """
    found = sorted((Path(package.__file__).parent.parent / f"{package.__name__}.libs").glob(library))
    if len(found) != 1:
        return "not found"
    corename = getattr(ctypes.CDLL(str(found[0])), function)
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def versions() -> dict:
    """The versions of the numerical libraries the digests depend on, and their OpenBLAS kernels."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas_core": openblas_core(numpy, "libscipy_openblas64_-*.so",
                                                 "scipy_openblas_get_corename64_"),
            "scipy_openblas_core": openblas_core(scipy, "libscipy_openblas-*.so",
                                                 "scipy_openblas_get_corename")}


def digests(workdir) -> dict:
    """{"variant/command/file": sha256} of every file the commands write under ``workdir``."""
    workdir = Path(workdir)
    out = {}
    for variant, settings in VARIANTS.items():
        config = workdir / variant / "config.json"
        config.parent.mkdir(parents=True)
        SessionConfig(**SMALL_CONFIG, **settings).save(config)
        log = workdir / variant / "run" / "session.jsonl"
        for command, argv in COMMANDS.items():
            dest = workdir / variant / command
            args = [a.format(log=log) for a in argv] + ["--config", str(config), "--out", str(dest)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
            if code != 0:
                raise RuntimeError(f"ledgaze {' '.join(args)} exited {code}")
            for path in sorted(dest.iterdir()):
                out[f"{variant}/{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def pinned_outputs(workdir) -> dict:
    """{"versions": versions(), "sha256": digests(workdir)}, from a child on the pinned kernel."""
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=PINNED_CORETYPE, PYTHONPATH=path)
    child = subprocess.run([sys.executable, str(HERE / "golden_outputs.py"), "--child", str(workdir)],
                           env=env, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise RuntimeError(f"golden outputs child exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        golden = pinned_outputs(workdir)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{len(golden['sha256'])} digests -> {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps({"versions": versions(), "sha256": digests(sys.argv[2])}))
    else:
        regenerate()
