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

The bundle digests are of bundle format 2. They were derived from the
format-1 bundles the code wrote before the change of format: each bundle
loaded, its ``pl_config`` and per-labeler ``instance_indices`` and
``feature_indices`` deleted, ``format_version`` set to 2 and the document
re-dumped as ``save_bundle`` dumps it. So format 2 moved no other byte.

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
            "bundle.json": "5ec3a10ee549dee3d750442991e15ddf67c3a22e8cb0b1043afee83538dd7004",
            "predictions.csv": "e1e1b8e601f29a59f93d1345aa51b216fbb04f1ef652dba1ddc5fec40df03acc",
            "report.json": "f6007f45866d2698aec89326a87e89e31a9cdbdfcb0bf699d6210397b5b0586d",
        },
        "bench_train": {
            "full": "ea6fcb1b2bcfb47a53613c2497d905f3112f823b7e7ec45f7f9ce7973ef71d66",
            "match_only": "baee889f7b9dcc3c5a8859f95f8e510bbf59658145f604dc5aee2826e4cc2db7",
            "mean_only": "cb3b0aa09dff10cac9bc792346fe9a7b185510b8c22bc97006730a3585f2388c",
            "single_head": "69025d3fff368435f40ea9d3217e335e509e434ae3281cb26ff06c508dd1ed81",
        },
        "bench_other": {
            "frozen_expansion": "94b44808a2ac2f3436df60af7095a5aea856dd19e38a3f31d38750ead376750b",
            "erm_snapshots": "52a6d38deaa4c8bc52af9946d62ba89d6d5e7db2187b882ad7a762dae41e8d0e",
            "erm_no_snapshot": "aa7d9eb8d5aa8347e3211cae7512bfa42cebf2beadc1358cba14455460b35107",
            "pl_ens": "978f51c83dc5d2571b415976dce1503030bcf7618917ca4e63e838b9b34dfe78",
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
