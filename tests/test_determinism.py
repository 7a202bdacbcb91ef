"""At the widths run here, artifacts do not depend on the BLAS thread count, nor on the scoring or training thread count.

The BLAS part is checked at two widths, the 16x16 net of the criterion-8
chain and the 512x512 ERM net, and does not hold at every width: at 100x100,
or one layer of 300, OpenBLAS on two threads splits some products
differently and the weights differ in the last bits. Identical bytes under
different BLAS thread settings need ``OPENBLAS_NUM_THREADS=1`` on every run.

Each run is a fresh process with ``OPENBLAS_NUM_THREADS`` set before numpy
loads, and with ``explor.model._thread_cpus`` pinned, which sets how many
threads ``score`` runs its blocks on and whether the training loop of a net
larger than one Adam chunk starts its worker thread, with BLAS on two
threads too. It runs the criterion-8 ``synth -> fit -> predict -> eval``
chain, ``predict --heads``, then an ERM fit on the default 512x512 net,
whose batch products are large enough for OpenBLAS to split them across
threads and whose loop runs on two threads at 3 CPUs. Last, at the same BLAS thread count,
rows of the library scored alone or in small subsets, on one thread or on
three, must get exactly the bytes they get in the full batch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ARTIFACTS = ("bundle.json", "predictions.csv", "heads/predictions.csv", "pr_curve.csv", "report.json", "erm/bundle.json")
# The explor command line, with score's CPU count pinned to argv[1].
CLI = """
import sys
import explor.model
cpus = int(sys.argv.pop(1))
explor.model._thread_cpus = lambda: cpus
from explor.cli import main
sys.exit(main(sys.argv[1:]))
"""
ROW_LOCAL = """
import sys
import numpy as np
import explor.model
from explor.data import load_features
from explor.model import load_bundle, score
b, X = load_bundle(sys.argv[1]), load_features(sys.argv[2])
full = score(b, X)
for cpus in (1, 3):
    explor.model._thread_cpus = lambda: cpus
    assert all(p.tobytes() == f.tobytes() for p, f in zip(score(b, X), full)), cpus
    for idx in ([0], [len(X) - 1], list(range(3, 6)), list(range(17))[::-1], list(range(1, len(X), 2))):
        part = score(b, X[idx])
        assert all(p.tobytes() == f[idx].tobytes() for p, f in zip(part, full)), (cpus, idx)
"""


def run_chain(out: Path, threads: int, cpus: int) -> dict:
    out.mkdir()
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "latent": {"components": 4},
        "pseudo": {"k": 8, "max_depth": 4},
        "net": {"hidden": [16, 16], "iterations": 60, "batch_size": 64},
        "synth": {"n_id": 300, "n_ood": 9000, "d": 5},
    }))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    base = ["--config", str(cfg), "--output-dir", str(out)]
    wide = ["--method", "erm", "--hidden", "512,512", "--iterations", "8", "--batch-size", "256", "--snapshot-interval", "4"]
    predict = ["predict", "--bundle", str(out / "bundle.json"), "--data", str(out / "ood_test.csv"), *base]
    for argv in (
        ["synth", *base],
        ["fit", "--train", str(out / "train.csv"), *base],
        predict,
        [*predict, "--heads", "--output-dir", str(out / "heads")],
        ["eval", "--predictions", str(out / "predictions.csv"), "--data", str(out / "ood_test.csv"), *base],
        ["fit", "--train", str(out / "train.csv"), *base, *wide, "--output-dir", str(out / "erm")],
    ):
        proc = subprocess.run([sys.executable, "-c", CLI, str(cpus), *argv], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    for bundle in ("bundle.json", "erm/bundle.json"):
        argv = ["-c", ROW_LOCAL, str(out / bundle), str(out / "ood_test.csv")]
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def test_artifacts_match_across_blas_thread_counts(tmp_path):
    """And across scoring and training thread counts."""
    runs = {(threads, cpus): run_chain(tmp_path / f"t{threads}c{cpus}", threads, cpus) for threads, cpus in ((1, 1), (2, 1), (1, 3), (2, 3))}
    base = runs[1, 1]
    for key, run in runs.items():
        assert {name: run[name] == base[name] for name in ARTIFACTS} == {name: True for name in ARTIFACTS}, key
