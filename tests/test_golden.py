"""The pipeline's artifacts, pinned by their SHA-256 digests.

At seeds 99 and 61, one subprocess runs `gen --count 100`, cost `label`,
`train --max-epochs 3` and `bench --backend cost --out`, and the digests of
the `.prog` files (one combined digest), `corpus.csv`, its timings sidecar
`corpus.csv.timings.csv`, `model.json` and `report.csv` must equal those in
`data/pipeline_digests.json`.  So must `weights`, the digest of
`model.json`'s payload (the raw float64 bytes after its header line): a
change of model file format moves the `model.json` digest alone, a change
of the trained weights moves both.  A change that
alters an artifact on purpose updates that file in the same commit; the
failure message prints the digests to paste.

The pipeline runs once with one BLAS thread (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are 1 before numpy is imported) and
once with two, against the same digests: a threaded BLAS may sum in
another order and move the last bits of the weights, so `train` and
`predict_probs` run numpy's bundled OpenBLAS on one thread themselves.
Even so, `model.json` and `report.csv` are float64 arithmetic through numpy
and its BLAS, so a numpy or OpenBLAS upgrade, or another CPU kernel (a
machine on which the BLAS dispatches to other SIMD code), resets their
digests.  The `.prog`, `corpus.csv` and sidecar digests depend on this
package alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unroll_tuner import mlp

GOLDEN = Path(__file__).parent / "data" / "pipeline_digests.json"
SRC = Path(__file__).parents[1] / "src"
SEEDS = ("99", "61")

_PIPELINE = """
import sys
from unroll_tuner.cli import main

root = sys.argv[1]
for seed in sys.argv[2:]:
    d = f"{root}/{seed}"
    for argv in (
        ["gen", "--count", "100", "--seed", seed, "--out", f"{d}/progs"],
        ["label", "--programs", f"{d}/progs", "--backend", "cost",
         "--out", f"{d}/corpus.csv"],
        ["train", "--data", f"{d}/corpus.csv", "--max-epochs", "3", "--seed", seed,
         "--out", f"{d}/model.json"],
        ["bench", "--model", f"{d}/model.json", "--backend", "cost",
         "--out", f"{d}/report.csv"],
    ):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed at seed {seed}")
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(seed_dir: Path) -> dict[str, str]:
    progs = hashlib.sha256()
    for path in sorted((seed_dir / "progs").iterdir()):
        progs.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    out = {"progs": progs.hexdigest()}
    for name in ("corpus.csv", "corpus.csv.timings.csv", "model.json", "report.csv"):
        out[name] = _sha256((seed_dir / name).read_bytes())
    out["weights"] = _sha256((seed_dir / "model.json").read_bytes().partition(b"\n")[2])
    return out


def _check_pipeline(tmp_path: Path, blas_threads: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               MKL_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PIPELINE, str(tmp_path), *SEEDS],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = {seed: _digests(tmp_path / seed) for seed in SEEDS}
    assert got == json.loads(GOLDEN.read_text()), json.dumps(got, indent=2)


def test_pipeline_artifacts_match_golden_digests(tmp_path):
    _check_pipeline(tmp_path, "1")


@pytest.mark.skipif(mlp._openblas() is None,
                    reason="numpy's bundled OpenBLAS is not loaded, so the package cannot "
                           "pin BLAS to one thread and two threads may move the last bits")
def test_pipeline_artifacts_match_golden_digests_at_two_blas_threads(tmp_path):
    _check_pipeline(tmp_path, "2")
