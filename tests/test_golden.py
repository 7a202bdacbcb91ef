"""Golden digests: exact bytes of the artifacts that must not drift.

Speed work on the tree walk, the activations and the loss must leave every
artifact byte-identical. These tests pin the sha256 of

- ``bundle.json``, ``predictions.csv`` and ``report.json`` from the
  command-line chain at the criterion-8 config, and
- library ``train`` bundles at the benchmark config (N=2000, d=8, k=64,
  hidden 64,64, 50 iterations, seed 7) in four loss variants, and with the
  expansion drawn once up front, and
- ``train_erm`` and ``train_pl_ens`` bundles at the same config: ERM with
  snapshot averaging on (a snapshot every 20 iterations) and with no
  snapshot taken under a loss mode that ERM ignores.

Network weights depend on the BLAS kernels, so the reference digests are
keyed by numpy version and BLAS build. On a build with no reference the
tests skip and print the key and the digests they computed, so a reference
for that build can be added here after checking it against a known-good
tree.
"""

import hashlib
import json

import numpy as np
import pytest

from explor.cli import main
from explor.data import make_synthetic_radial
from explor.model import NetConfig, save_bundle, train, train_erm, train_pl_ens
from explor.pseudolabel import PseudoLabelConfig


def build_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} / {blas['name']} {blas['version']}"


REFERENCE = {
    "numpy 2.4.6 / scipy-openblas 0.3.31.188.0": {
        "criterion_08": {
            "bundle.json": "8f2ce2e5b5f8a8b5f14d53cbdae5ad29b2f1755abf57b8748547a11f5a5da43b",
            "predictions.csv": "e1e1b8e601f29a59f93d1345aa51b216fbb04f1ef652dba1ddc5fec40df03acc",
            "report.json": "f6007f45866d2698aec89326a87e89e31a9cdbdfcb0bf699d6210397b5b0586d",
        },
        "bench_train": {
            "full": "ae752bab4e8a8b838823fec6bcdec0ffabb0d51916d1e358c112f133d91994dd",
            "match_only": "3d9212764b383f2e862dfc14dd147955cdea366a2e9babbada971a5f4c88e974",
            "mean_only": "bd82694c5f24b8f310869e5367e34d06010b23ba38f66fac9d89086f4ad32531",
            "single_head": "9cf1e19e32a3d232b566a0983b8d2c1f71abda222a6270d9ca04561048470bcf",
        },
        "bench_other": {
            "frozen_expansion": "e2542735202ca048820c41b1694188cb1b3ecc1057e2bf1e7c827b34bee58c9d",
            "erm_snapshots": "309443ffa2f02365f02a94d2cf152b62630df461fe01bf7cd63369c329a92b12",
            "erm_no_snapshot": "03d1facc23a8e0ece1810fb5e141b4a4821c1d4172b91e378f131235d0fd5173",
            "pl_ens": "64916c09b014b4ead0ba0d79738c05f6aef0d1bc9ebcaf551eb93072d28e2a61",
        },
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(section: str, got: dict) -> None:
    key = build_key()
    ref = REFERENCE.get(key)
    if ref is None:
        pytest.skip(f"no reference digests for {key}; computed {section}: {json.dumps(got, sort_keys=True)}")
    assert got == {name: ref[section][name] for name in got}


def test_criterion_08_artifacts(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "latent": {"components": 4},
        "pseudo": {"k": 8, "max_depth": 4},
        "net": {"hidden": [16, 16], "iterations": 60, "batch_size": 64},
        "synth": {"n_id": 300, "n_ood": 150, "d": 5},
    }))
    base = ["--config", str(cfg_path), "--output-dir", str(tmp_path)]
    assert main(["synth", *base]) == 0
    assert main(["fit", "--train", str(tmp_path / "train.csv"), *base]) == 0
    assert main(["predict", "--bundle", str(tmp_path / "bundle.json"), "--data", str(tmp_path / "ood_test.csv"), *base]) == 0
    assert main(["eval", "--predictions", str(tmp_path / "predictions.csv"), "--data", str(tmp_path / "ood_test.csv"), *base]) == 0
    check("criterion_08", {name: sha256(tmp_path / name) for name in ("bundle.json", "predictions.csv", "report.json")})


@pytest.fixture(scope="module")
def bench_ds():
    train_ds, _ = make_synthetic_radial(2000, 200, 8, seed=7)
    return train_ds


BENCH_VARIANTS = {
    "full": ("full", 1),
    "match_only": ("match_only", 1),
    "mean_only": ("mean_only", 1),
    "single_head": ("single_head", 3),
}


@pytest.mark.parametrize("variant", sorted(BENCH_VARIANTS))
def test_bench_train_bundle(variant, bench_ds, tmp_path):
    mode, trees = BENCH_VARIANTS[variant]
    net_cfg = NetConfig(hidden=(64, 64), iterations=50, loss_mode=mode, seed=7)
    pl_cfg = PseudoLabelConfig(k=64, trees_per_labeler=trees, seed=7)
    path = tmp_path / "bundle.json"
    save_bundle(train(bench_ds, net_cfg, pl_cfg), path)
    check("bench_train", {variant: sha256(path)})


def test_bench_train_frozen_expansion(bench_ds, tmp_path):
    net_cfg = NetConfig(hidden=(64, 64), iterations=50, redraw_expansion_each_batch=False, seed=7)
    pl_cfg = PseudoLabelConfig(k=64, seed=7)
    path = tmp_path / "bundle.json"
    save_bundle(train(bench_ds, net_cfg, pl_cfg), path)
    check("bench_other", {"frozen_expansion": sha256(path)})


ERM_VARIANTS = {
    "erm_snapshots": {"snapshot_interval": 20},
    "erm_no_snapshot": {"loss_mode": "single_head"},
}


@pytest.mark.parametrize("variant", sorted(ERM_VARIANTS))
def test_bench_train_erm_bundle(variant, bench_ds, tmp_path):
    net_cfg = NetConfig(hidden=(64, 64), iterations=50, seed=7, **ERM_VARIANTS[variant])
    path = tmp_path / "bundle.json"
    save_bundle(train_erm(bench_ds, net_cfg, heads=64), path)
    check("bench_other", {variant: sha256(path)})


def test_bench_train_pl_ens_bundle(bench_ds, tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(train_pl_ens(bench_ds, PseudoLabelConfig(k=64, seed=7)), path)
    check("bench_other", {"pl_ens": sha256(path)})
